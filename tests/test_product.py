import random

import pytest

from spmul import (CharacteristicTooSmallError, ProductParams, RandomSource,
                   RetryBudgetError, canonicalize, derivative, ext_field,
                   integers, monomial, mul_count, naive_mul, prime_field, scale,
                   sparse_product, sumset_size, zero_poly)
from spmul import interp, product

from helpers import Q62, rand_sparse

ZZ = integers()
PARAMS = ProductParams(2.0 ** -20, 2.0 ** -20)

F_EX = canonicalize([(7, 2), (0, 2), (14, 1)], ZZ)
G_EX = canonicalize([(13, 3), (8, 5), (0, 3)], ZZ)
H_EX = canonicalize([(14, 1), (7, -2), (0, 2)], ZZ)


def _watch_jobs(monkeypatch) -> list:
    """List that receives every InterpJob sparse_product interpolates."""
    jobs = []
    real = product.interp_sum_sp

    def interp_sum_sp(job, rng):
        jobs.append(job)
        return real(job, rng)

    monkeypatch.setattr(product, "interp_sum_sp", interp_sum_sp)
    return jobs


def example2_family(t):
    f = canonicalize([(i, 1) for i in range(t)], ZZ)
    g = canonicalize([(t * i + 1, 1) for i in range(t)]
                     + [(t * i, -1) for i in range(t)], ZZ)
    return f, g


class TestProductParams:
    def test_accepts_valid(self):
        ProductParams(0.5, 0.25)  # mu1/2 == mu2 boundary

    def test_rejects_bad(self):
        with pytest.raises(ValueError):
            ProductParams(0.0, 0.5)
        with pytest.raises(ValueError):
            ProductParams(0.5, 1.0)
        with pytest.raises(ValueError):
            ProductParams(0.9, 0.1)


class TestSparseProduct:
    def test_example_nine_terms(self):
        expected = naive_mul(F_EX, G_EX)
        for seed in range(20):
            assert sparse_product(F_EX, G_EX, PARAMS, RandomSource(seed)) == expected

    def test_example_two_terms(self):
        for seed in range(20):
            out = sparse_product(F_EX, H_EX, PARAMS, RandomSource(seed))
            assert out.terms == ((0, 4), (28, 1))

    def test_trivial_factors(self):
        one = monomial(ZZ, 0, 1)
        rng = RandomSource(0)
        assert sparse_product(F_EX, one, PARAMS, rng) == F_EX
        assert sparse_product(F_EX, zero_poly(ZZ), PARAMS, rng).is_zero
        assert sparse_product(zero_poly(ZZ), F_EX, PARAMS, rng).is_zero
        assert sparse_product(F_EX, monomial(ZZ, 0, -3), PARAMS, rng) == scale(F_EX, -3)

    def test_monomial_inputs(self):
        a = monomial(ZZ, 9, 4)
        b = monomial(ZZ, 5, -2)
        assert sparse_product(a, b, PARAMS, RandomSource(1)).terms == ((14, -8),)

    def test_random_oracle_agreement(self):
        rnd = random.Random(31)
        for seed in range(50):
            f = rand_sparse(rnd, ZZ, 12, 10 ** 7, 2 ** 24)
            g = rand_sparse(rnd, ZZ, 12, 10 ** 7, 2 ** 24)
            assert sparse_product(f, g, PARAMS, RandomSource(seed)) == naive_mul(f, g)

    def test_output_shape_invariants(self):
        rnd = random.Random(32)
        for seed in range(60):
            f = rand_sparse(rnd, ZZ, 8, 10 ** 5, 2 ** 20)
            g = rand_sparse(rnd, ZZ, 8, 10 ** 5, 2 ** 20)
            h = sparse_product(f, g, PARAMS, RandomSource(seed))
            s = sumset_size(f, g)
            assert h.sparsity <= f.sparsity * g.sparsity
            assert h.sparsity <= s
            t = max(f.sparsity, g.sparsity)
            assert s <= t * t
            if f.sparsity >= 2 and g.sparsity >= 2:
                assert h.sparsity >= 2  # no monomial products over an integral domain

    def test_loop_termination_statistics(self, monkeypatch):
        jobs = _watch_jobs(monkeypatch)
        rnd = random.Random(33)
        within = 0
        trials = 300
        for seed in range(trials):
            f = rand_sparse(rnd, ZZ, 10, 10 ** 6, 2 ** 16)
            g = rand_sparse(rnd, ZZ, 10, 10 ** 6, 2 ** 16)
            jobs.clear()
            h = sparse_product(f, g, PARAMS, RandomSource(seed))
            assert h == naive_mul(f, g)
            # the last job ran at the sparsity guess that passed
            within += jobs[-1].T < 2 * max(f.sparsity, g.sparsity, h.sparsity)
        assert within >= 0.95 * trials

    def test_field_z_consistency(self):
        rnd = random.Random(34)
        fq = prime_field(Q62)
        for seed in range(100):
            # coefficients already in [0, q); product heights stay below q
            terms_f = {rnd.randrange(10 ** 6): rnd.randrange(1, 2 ** 20)
                       for _ in range(6)}
            terms_g = {rnd.randrange(10 ** 6): rnd.randrange(1, 2 ** 20)
                       for _ in range(6)}
            f_z = canonicalize(list(terms_f.items()), ZZ)
            g_z = canonicalize(list(terms_g.items()), ZZ)
            f_q = canonicalize(list(terms_f.items()), fq)
            g_q = canonicalize(list(terms_g.items()), fq)
            lhs = canonicalize(
                sparse_product(f_z, g_z, PARAMS, RandomSource(seed)).terms, fq)
            rhs = sparse_product(f_q, g_q, PARAMS, RandomSource(seed + 10 ** 6))
            assert lhs == rhs

    def test_ext_field_product(self):
        f_big = ext_field(Q62, 2)
        rnd = random.Random(35)
        for seed in range(10):
            f = rand_sparse(rnd, f_big, 6, 10 ** 4)
            g = rand_sparse(rnd, f_big, 6, 10 ** 4)
            assert sparse_product(f, g, PARAMS, RandomSource(seed)) == naive_mul(f, g)

    def test_characteristic_too_small(self):
        f5 = prime_field(5)
        f = canonicalize([(0, 1), (4, 2)], f5)
        with pytest.raises(CharacteristicTooSmallError):
            sparse_product(f, f, PARAMS, RandomSource(0))

    def test_characteristic_below_cyclic_prime(self):
        # q exceeds the product degree but not 2p, where exponents must
        # embed into coefficients; the error names the real constraint
        f101 = prime_field(101)
        f = canonicalize([(0, 1), (50, 2)], f101)
        with pytest.raises(CharacteristicTooSmallError, match="2p"):
            sparse_product(f, f, PARAMS, RandomSource(0))

    def test_mu_star_zero_boundary(self):
        # mu1/2 == mu2 leaves no interpolation budget; the clamp keeps the
        # round count finite and verification still gates the output
        params = ProductParams(0.5, 0.25)
        for seed in range(10):
            out = sparse_product(F_EX, G_EX, params, RandomSource(seed))
            assert out == naive_mul(F_EX, G_EX)

    def test_example2_products(self):
        for t in (4, 16):
            f, g = example2_family(t)
            out = sparse_product(f, g, PARAMS, RandomSource(t))
            assert out.terms == ((0, -1), (t * t, 1))


    def test_first_guess_passes_for_example2(self, monkeypatch):
        # example2's 2-term product passes at the first guess max(#F, #G):
        # one h1 job and one h2 job, both at that guess
        jobs = _watch_jobs(monkeypatch)
        f, g = example2_family(16)
        sparse_product(f, g, PARAMS, RandomSource(16))
        assert [job.T for job in jobs] == [max(f.sparsity, g.sparsity)] * 2 == [32, 32]

    @pytest.mark.parametrize("t", [16, 64, pytest.param(512, marks=pytest.mark.slow)])
    def test_example2_walks_each_pair_once(self, monkeypatch, t):
        # the h1 job walks F x G and the h2 job walks F x G' and F' x G, each
        # once at 3 ring mults per slot pair: the round that recovers the
        # 2-term product ends its job, with no confirming walk
        mults = []
        real = interp.cyclic_product_residue

        def cyclic_product_residue(*args, **kwargs):
            before = mul_count()
            out = real(*args, **kwargs)
            mults.append(mul_count() - before)
            return out

        monkeypatch.setattr(interp, "cyclic_product_residue", cyclic_product_residue)
        f, g = example2_family(t)
        pairs = (f.sparsity * g.sparsity + f.sparsity * derivative(g).sparsity
                 + derivative(f).sparsity * g.sparsity)
        for seed in range(20):
            mults.clear()
            out = sparse_product(f, g, PARAMS, RandomSource(seed))
            assert out.terms == ((0, -1), (t * t, 1))
            assert len(mults) == 2 and sum(mults) == 3 * pairs

    def test_doubling_budget_exhausted(self, monkeypatch):
        # a verifier that never accepts doubles the guess once per attempt
        # until the budget runs out
        jobs = _watch_jobs(monkeypatch)
        monkeypatch.setattr(product, "verify_sp", lambda *_: False)
        monkeypatch.setattr(product, "_MAX_DOUBLINGS", 3)
        with pytest.raises(RetryBudgetError):
            sparse_product(F_EX, G_EX, PARAMS, RandomSource(0))
        assert [job.T for job in jobs] == [3, 6, 12]


class TestSumsetSize:
    def test_example2_structural_sparsity(self):
        f, g = example2_family(16)
        assert sumset_size(f, g) == 16 * 16 + 1
        assert naive_mul(f, g).sparsity == 2

    def test_single_terms(self):
        assert sumset_size(monomial(ZZ, 3, 1), monomial(ZZ, 9, 2)) == 1

    def test_singleton_side(self):
        rnd = random.Random(35)
        f = rand_sparse(rnd, ZZ, 9, 100, 9)
        assert sumset_size(monomial(ZZ, 7, 3), f) == f.sparsity
