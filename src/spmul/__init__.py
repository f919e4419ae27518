"""Sparse polynomial multiplication and product verification over the
integers and finite fields, in time quasi-linear in input plus output."""

from .arith import (RandomSource, first_primes, irreducible_poly, is_prime,
                    lambda_no_collision, lambda_nonzero, random_prime)
from .errors import (CharacteristicTooSmallError, PolyFileError,
                     RetryBudgetError, RingMismatchError,
                     SparsityBoundError, SpmulError, UnsupportedRingError)
from .interp import find_terms, interp_sum_sp
from .multivar import (MultiPoly, canonicalize_multi, inverse_kronecker,
                       kronecker, multivar_product_field,
                       multivar_product_smallchar, multivar_product_z,
                       naive_mul_multi, randomized_kronecker, sparsity_estimate)
from .poly import (SparsePoly, add, canonicalize, cyclic_reduce,
                   dense_cyclic_mul, derivative, eval_sparse, naive_mul,
                   negate, scale, sub, zero_poly)
from .product import ProductParams, sparse_product
from .rings import (RingSpec, add_mul_count, ext_field, integers, mul_count,
                    prime_field, reset_mul_count)
from .verify import eval_cyclic_product, verify_sp, verify_sum_sp

__version__ = "0.1.0"
