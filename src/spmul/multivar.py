"""Multivariate sparse polynomials: Kronecker substitution, randomized
substitution, sparsity estimation, and products over any characteristic.

Classical Kronecker substitution encodes an exponent vector as base-d
digits of one univariate exponent, turning a multivariate product into a
univariate one without changing sparsity or height.  Randomized
substitution x_i -> X^(s_i) trades injectivity for much smaller degrees.
The sparsity estimate forms no product of F and G: for a few random
substitutions s it counts the terms of F_s*G_s, one schoolbook product of
the substituted operands, at ceil(log2(1/eps))*#F*#G ring mults in all.
Substitution only merges terms, so the largest count never exceeds the
true sparsity, and with the substitution box large enough few terms
merge.  Small characteristic is handled by lifting coefficients to Z,
multiplying there, and reducing back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import RandomSource, ceil_bound
from .errors import RingMismatchError, UnsupportedRingError
from .poly import SparsePoly, _merge, canonicalize, naive_mul
from .product import ProductParams, sparse_product
from .rings import RingSpec, integers


@dataclass(frozen=True)
class MultiPoly:
    """Canonical multivariate sparse polynomial.

    terms hold (exponent vector, coefficient) pairs in strictly
    increasing lexicographic order with no zero coefficients.
    """

    ring: RingSpec
    nvars: int
    terms: tuple  # ((exps, coeff), ...)

    @property
    def sparsity(self) -> int:
        return len(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def var_degree(self, i: int) -> int:
        """Max exponent of variable i (0 for the zero polynomial)."""
        return max((e[i] for e, _ in self.terms), default=0)


def canonicalize_multi(terms, nvars: int, ring: RingSpec) -> MultiPoly:
    """Merge duplicate exponent vectors, drop zeros, sort lexicographically."""
    if nvars < 1:
        raise ValueError("nvars must be >= 1")
    checked = []
    for exps, c in terms:
        exps = tuple(int(v) for v in exps)
        if len(exps) != nvars:
            raise ValueError("exponent vector has wrong length")
        if any(v < 0 for v in exps):
            raise ValueError("exponents must be nonnegative")
        checked.append((exps, ring.coerce(c)))
    return MultiPoly(ring, nvars, _merge(checked, ring))


def zero_multi(ring: RingSpec, nvars: int) -> MultiPoly:
    return MultiPoly(ring, nvars, ())


def naive_mul_multi(F: MultiPoly, G: MultiPoly) -> MultiPoly:
    """Schoolbook multivariate product; exact reference path."""
    if F.ring != G.ring or F.nvars != G.nvars:
        raise RingMismatchError("operands must share ring and variables")
    ring = F.ring
    acc: dict = {}
    for e1, c1 in F.terms:
        for e2, c2 in G.terms:
            e = tuple(a + b for a, b in zip(e1, e2))
            c = ring.mul(c1, c2)
            if e in acc:
                acc[e] = ring.add(acc[e], c)
            else:
                acc[e] = c
    zero = ring.zero()
    return MultiPoly(ring, F.nvars, tuple(sorted((e, c) for e, c in acc.items() if c != zero)))


def kronecker(F: MultiPoly, d: int) -> SparsePoly:
    """Encode exponent vectors as base-d digits of one exponent.

    Injective on (and invertible from) exponents with all partial degrees
    below d; preserves sparsity and height.
    """
    if any(F.var_degree(i) >= d for i in range(F.nvars)):
        raise ValueError("partial degree >= d")
    weights = [d ** i for i in range(F.nvars)]
    return SparsePoly(F.ring, tuple(sorted(
        (sum(e * w for e, w in zip(exps, weights)), c) for exps, c in F.terms)))


def inverse_kronecker(H: SparsePoly, d: int, n: int) -> MultiPoly:
    """Decode base-d digits back into exponent vectors."""
    if not H.is_zero and H.degree >= d ** n:
        raise ValueError("exponent >= d^n")
    out = []
    for e, c in H.terms:
        exps = []
        v = e
        for _ in range(n):
            v, r = divmod(v, d)
            exps.append(r)
        out.append((tuple(exps), c))
    return MultiPoly(H.ring, n, tuple(sorted(out)))


def randomized_kronecker(F: MultiPoly, s_vec) -> SparsePoly:
    """Substitute x_i -> X^(s_i); colliding images merge, so the result
    has at most #F terms."""
    s_vec = tuple(int(v) for v in s_vec)
    if len(s_vec) != F.nvars:
        raise ValueError("substitution vector has wrong length")
    return canonicalize(
        [(sum(e * s for e, s in zip(exps, s_vec)), c) for exps, c in F.terms], F.ring)


def sparsity_estimate(F: MultiPoly, G: MultiPoly, eps: float, lam,
                      rng: RandomSource) -> int:
    """Estimate #(F*G) within a factor lam, without forming F*G.

    The return value never exceeds ceil(lam * #(FG)) (lam * #(FG) for an
    integer lam); it is at least #(FG) with probability >= 1 - eps, over
    Z and over any finite field: counting the terms of a product, unlike
    interpolating it, puts no condition on the characteristic.

    Each of ell = ceil(log2(1/eps)) iterations draws s uniform in
    [0, n_box)^n with n_box = ceil((#F*#G - 1)/delta), delta = (1 -
    1/lam)/2, and counts the terms of F_s*G_s, one schoolbook product of
    the substituted operands; best is the largest count, and the estimate
    is ceil(lam*best), at ceil(log2(1/eps))*#F*#G ring mults at most.

    Upper bound.  Substitution x_i -> X^(s_i) is a ring homomorphism that
    only merges terms, so every count is at most #(FG)_s <= #(FG), and
    ceil(lam*best) <= ceil(lam*#(FG)) holds deterministically.

    Lower bound.  Take two distinct exponent vectors of FG.  They collide
    under s with probability <= 1/n_box (they differ in some coordinate,
    and given the others at most one s_i merges them).  A term of FG that
    collides with no other term under s is a term of (FG)_s = F_s*G_s, and
    FG has at most #F*#G terms, so each term collides with probability
    <= (#FG - 1)/n_box <= delta, and the expected number of colliding
    terms is <= #FG*(1 - 1/lam)/2.  By Markov's inequality, fewer than
    #FG*(1 - 1/lam) terms collide, so more than #FG/lam survive and
    ceil(lam*count) >= #FG, with probability >= 1/2 per iteration; all ell
    iterations miss with probability <= 2^-ell <= eps.
    """
    if F.ring != G.ring or F.nvars != G.nvars:
        raise RingMismatchError("operands must share ring and variables")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if not (lam > 1 and math.isfinite(lam)):
        raise ValueError("lam must be finite and exceed 1")
    if F.is_zero or G.is_zero:
        return 0
    nfng = F.sparsity * G.sparsity
    delta = (1.0 - 1.0 / lam) / 2.0
    n_box = max(1, ceil_bound((nfng - 1) / delta))
    best = 0
    for _ in range(ceil_bound(math.log2(1.0 / eps))):
        s_vec = tuple(rng.randrange(n_box) for _ in range(F.nvars))
        F_s, G_s = randomized_kronecker(F, s_vec), randomized_kronecker(G, s_vec)
        best = max(best, naive_mul(F_s, G_s).sparsity)
    return ceil_bound(lam * best)


def _kronecker_product(F: MultiPoly, G: MultiPoly, eps: float, rng: RandomSource,
                       over_field: bool) -> MultiPoly:
    # classical Kronecker substitution plus the univariate algorithm
    if F.ring != G.ring or F.nvars != G.nvars:
        raise RingMismatchError("operands must share ring and variables")
    if F.ring.is_field != over_field:
        what = "field" if over_field else "integer"
        raise UnsupportedRingError(f"this path multiplies {what} polynomials")
    if F.is_zero or G.is_zero:
        return zero_multi(F.ring, F.nvars)
    d = 1 + max(F.var_degree(i) + G.var_degree(i) for i in range(F.nvars))
    params = ProductParams(eps / 2.0, eps / 2.0)
    h_u = sparse_product(kronecker(F, d), kronecker(G, d), params, rng)
    return inverse_kronecker(h_u, d, F.nvars)


def multivar_product_z(F: MultiPoly, G: MultiPoly, eps: float,
                       rng: RandomSource) -> MultiPoly:
    """Multivariate product over Z via classical Kronecker substitution."""
    return _kronecker_product(F, G, eps, rng, over_field=False)


def multivar_product_field(F: MultiPoly, G: MultiPoly, eps: float,
                           rng: RandomSource) -> MultiPoly:
    """Multivariate product over a field with large characteristic:
    classical Kronecker plus the univariate algorithm.

    Requires characteristic > D = deg(F_u) + deg(G_u) after substitution,
    and when F_u or G_u wraps modulo X^p - 1 (degree >= p) for
    sparse_product's cyclic prime p >= lam = lambda_no_collision(#F*#G,
    D, mu1/2), mu1 = eps/2, characteristic > 2p too
    (CharacteristicTooSmallError otherwise).  That prime is drawn only
    when deg F_u or deg G_u reaches lam; below it nothing wraps, and
    characteristic > D suffices.  Use multivar_product_smallchar below
    that.
    """
    return _kronecker_product(F, G, eps, rng, over_field=True)


def multivar_product_smallchar(F: MultiPoly, G: MultiPoly, eps: float,
                               rng: RandomSource) -> MultiPoly:
    """Multivariate product over F_q or F_{q^s} for any characteristic.

    Coefficients are lifted to their integer images (RingSpec.lift, at a
    digit width wide enough for the at most min(#F, #G) products that
    share an exponent), the product is taken over Z, and each coefficient is
    dropped back into the field.  The intermediate sparsity is the
    structural sparsity of the product rather than its true sparsity.
    """
    if F.ring != G.ring or F.nvars != G.nvars:
        raise RingMismatchError("operands must share ring and variables")
    ring = F.ring
    if not ring.is_field:
        raise UnsupportedRingError("input must live over a finite field")
    zz = integers()
    width = ring.lift_width(min(F.sparsity, G.sparsity))
    f_z = MultiPoly(zz, F.nvars, tuple((e, ring.lift(c, width)) for e, c in F.terms))
    g_z = MultiPoly(zz, G.nvars, tuple((e, ring.lift(c, width)) for e, c in G.terms))
    h_z = multivar_product_z(f_z, g_z, eps, rng)
    zero = ring.zero()
    return MultiPoly(ring, F.nvars, tuple(
        (e, c) for e, v in h_z.terms if (c := ring.drop(v, width)) != zero))
