import math
import random

import pytest

from spmul import (RandomSource, UnsupportedRingError, VerifyParams, add,
                   canonicalize, cyclic_reduce, dense_cyclic_mul, derivative,
                   eval_cyclic_product, ext_field, eval_sparse, integers,
                   monomial, mul_count, naive_mul, negate, prime_field,
                   reset_mul_count, scale, to_dense, verify_sp, verify_sum_sp,
                   zero_poly)
from spmul import verify

from helpers import Q62, rand_sparse

ZZ = integers()
F101 = prime_field(101)

F_EX = canonicalize([(7, 2), (0, 2), (14, 1)], ZZ)
G_EX = canonicalize([(13, 3), (8, 5), (0, 3)], ZZ)
H_EX = canonicalize([(14, 1), (7, -2), (0, 2)], ZZ)


def _cyclic_eval_oracle(f, g, p, alpha):
    # independent route: dense cyclic product, then direct evaluation
    prod = dense_cyclic_mul(to_dense(cyclic_reduce(f, p), p),
                            to_dense(cyclic_reduce(g, p), p))
    ring = f.ring
    acc = ring.zero()
    for e, c in enumerate(prod.coeffs):
        acc = ring.add(acc, ring.mul(c, ring.pow(alpha, e)))
    return acc


class TestEvalCyclicProduct:
    def test_worked_example(self):
        f = canonicalize([(3, 1), (0, 1)], F101)
        g = canonicalize([(4, 1), (1, 1)], F101)
        assert _cyclic_eval_oracle(f, g, 5, 2) == 38
        assert eval_cyclic_product(f, g, 5, 2) == 38

    def test_alpha_one_gives_coefficient_sum_product(self):
        rnd = random.Random(1)
        for _ in range(25):
            f = rand_sparse(rnd, F101, 8, 40)
            g = rand_sparse(rnd, F101, 8, 40)
            expected = F101.mul(eval_sparse(f, 1), eval_sparse(g, 1))
            assert eval_cyclic_product(f, g, 41, 1) == expected

    def test_identity_factor(self):
        rnd = random.Random(2)
        f = rand_sparse(rnd, F101, 8, 17)
        one = monomial(F101, 0, 1)
        for alpha in (0, 1, 2, 57):
            assert eval_cyclic_product(f, one, 17, alpha) == eval_sparse(f, alpha)

    def test_random_vs_oracle(self):
        rnd = random.Random(3)
        for _ in range(80):
            p = rnd.choice([2, 3, 5, 11, 23, 41])
            f = rand_sparse(rnd, F101, 10, p)
            g = rand_sparse(rnd, F101, 10, p)
            alpha = rnd.randrange(101)
            assert eval_cyclic_product(f, g, p, alpha) == _cyclic_eval_oracle(f, g, p, alpha)

    def test_random_vs_oracle_extension_field(self):
        f9 = ext_field(3, 2)
        rnd = random.Random(4)
        for _ in range(25):
            p = rnd.choice([5, 7, 13])
            f = rand_sparse(rnd, f9, 6, p)
            g = rand_sparse(rnd, f9, 6, p)
            alpha = f9.rand_elem(RandomSource(rnd.randrange(10 ** 6)))
            assert eval_cyclic_product(f, g, p, alpha) == _cyclic_eval_oracle(f, g, p, alpha)

    def test_zero_factor(self):
        f = rand_sparse(random.Random(5), F101, 5, 11)
        assert eval_cyclic_product(f, zero_poly(F101), 11, 7) == 0
        assert eval_cyclic_product(zero_poly(F101), f, 11, 7) == 0

    def test_degree_check(self):
        f = canonicalize([(11, 1)], F101)
        with pytest.raises(ValueError):
            eval_cyclic_product(f, f, 11, 2)

    def test_integers_rejected(self):
        with pytest.raises(UnsupportedRingError):
            eval_cyclic_product(F_EX, G_EX, 7, 2)

    def test_operation_count_contract_small_grid(self):
        import math
        rnd = random.Random(6)
        fq = prime_field(Q62)
        for _ in range(100):
            p = rnd.choice([101, 1009, 10007, 99991])
            f = rand_sparse(rnd, fq, rnd.randint(1, 64), p)
            g = rand_sparse(rnd, fq, rnd.randint(1, 64), p)
            alpha = rnd.randrange(Q62)
            reset_mul_count()
            eval_cyclic_product(f, g, p, alpha)
            bound = 10 * (f.sparsity + g.sparsity + 2) * (math.log2(p) + 1)
            assert mul_count() <= bound


class TestVerifyParams:
    def test_budgets_hold_across_eps(self):
        for eps in (1e-7, 1e-4, 0.01, 0.1, 0.5, 0.9):
            VerifyParams.generic(eps).validate()
            VerifyParams.for_integers(eps).validate()
            VerifyParams.for_extension(eps).validate()

    def test_rejects_bad_constants(self):
        with pytest.raises(ValueError):
            VerifyParams(0.01, c1=4.0, c2=1.5, path="generic").validate()


class TestVerifySP:
    def test_example_triples_true_every_seed(self):
        fg = naive_mul(F_EX, G_EX)
        fh = naive_mul(F_EX, H_EX)
        for seed in range(40):
            assert verify_sp(F_EX, G_EX, fg, 0.01, RandomSource(seed))
            assert verify_sp(F_EX, H_EX, fh, 0.01, RandomSource(seed))

    def test_corrupted_product_rejected_statistically(self):
        fg = naive_mul(F_EX, G_EX)
        bad = add(fg, monomial(ZZ, 3, 1))
        rejected = sum(
            not verify_sp(F_EX, G_EX, bad, 0.01, RandomSource(seed))
            for seed in range(300))
        assert rejected >= 291  # 0.97 of 300

    def test_quick_reject_sparsity_deterministic(self):
        f = canonicalize([(0, 1), (1, 1)], ZZ)
        g = canonicalize([(0, 1), (2, 1)], ZZ)
        too_many = canonicalize([(i, 1) for i in range(5)], ZZ)  # 5 > 2*2
        for seed in range(20):
            assert not verify_sp(f, g, too_many, 0.5, RandomSource(seed))

    def test_quick_reject_degree(self):
        h = add(naive_mul(F_EX, G_EX), monomial(ZZ, 99, 1))
        for seed in range(20):
            assert not verify_sp(F_EX, G_EX, h, 0.5, RandomSource(seed))

    def test_zero_cases(self):
        z = zero_poly(ZZ)
        rng = RandomSource(0)
        assert verify_sp(z, G_EX, z, 0.1, rng)
        assert verify_sp(F_EX, z, z, 0.1, rng)
        assert not verify_sp(z, G_EX, F_EX, 0.1, rng)
        assert not verify_sp(F_EX, G_EX, z, 0.1, rng)

    def test_large_prime_field_true_and_false(self):
        fq = prime_field(Q62)
        rnd = random.Random(7)
        for seed in range(40):
            f = rand_sparse(rnd, fq, 10, 10 ** 8)
            g = rand_sparse(rnd, fq, 10, 10 ** 8)
            h = naive_mul(f, g)
            assert verify_sp(f, g, h, 0.01, RandomSource(seed))
        rejected = 0
        for seed in range(150):
            f = rand_sparse(rnd, fq, 6, 10 ** 6)
            g = rand_sparse(rnd, fq, 6, 10 ** 6)
            bad = add(naive_mul(f, g), monomial(fq, 1, 1))
            rejected += not verify_sp(f, g, bad, 0.01, RandomSource(seed))
        assert rejected >= 145

    def test_extension_path_small_field(self):
        # q = 101 can never host the sample set, so an extension with
        # s >= 2 is always built internally
        rnd = random.Random(8)
        for seed in range(30):
            f = rand_sparse(rnd, F101, 6, 10 ** 4)
            g = rand_sparse(rnd, F101, 6, 10 ** 4)
            h = naive_mul(f, g)
            assert verify_sp(f, g, h, 0.01, RandomSource(seed))

    def test_extension_path_characteristic_2(self):
        f2 = prime_field(2)
        rnd = random.Random(9)
        for seed in range(10):
            f = rand_sparse(rnd, f2, 4, 500)
            g = rand_sparse(rnd, f2, 4, 500)
            h = naive_mul(f, g)
            assert verify_sp(f, g, h, 0.05, RandomSource(seed))
        f = canonicalize([(0, 1), (3, 1)], f2)
        g = canonicalize([(1, 1), (2, 1)], f2)
        bad = add(naive_mul(f, g), monomial(f2, 2, 1))
        rejected = sum(not verify_sp(f, g, bad, 0.05, RandomSource(s)) for s in range(60))
        assert rejected >= 54

    def test_ext_field_input_ring(self):
        f_big = ext_field(Q62, 2)  # plenty of points: generic path
        rnd = random.Random(10)
        f = rand_sparse(rnd, f_big, 4, 1000)
        g = rand_sparse(rnd, f_big, 4, 1000)
        h = naive_mul(f, g)
        assert verify_sp(f, g, h, 0.1, RandomSource(1))
        bad = add(h, monomial(f_big, 0, (1, 0)))
        assert not verify_sp(f, g, bad, 0.1, RandomSource(2))

    def test_small_ext_field_splits_into_components(self):
        # F_9 can never host the sample set; the identity is checked as
        # prime-field component identities instead
        f9 = ext_field(3, 2)
        rnd = random.Random(11)
        for seed in range(60):
            f = rand_sparse(rnd, f9, 4, 1000)
            g = rand_sparse(rnd, f9, 4, 1000)
            h = naive_mul(f, g)
            assert verify_sp(f, g, h, 0.01, RandomSource(seed))
        rejected = 0
        for seed in range(150):
            f = rand_sparse(rnd, f9, 4, 1000)
            g = rand_sparse(rnd, f9, 4, 1000)
            bad = add(naive_mul(f, g), monomial(f9, 2, (1, 2)))
            rejected += not verify_sp(f, g, bad, 0.01, RandomSource(seed))
        assert rejected >= 145

    def test_small_ext_field_deeper_extension(self):
        f8 = ext_field(2, 3)
        rnd = random.Random(110)
        for seed in range(25):
            f = rand_sparse(rnd, f8, 3, 400)
            g = rand_sparse(rnd, f8, 3, 400)
            h = naive_mul(f, g)
            assert verify_sp(f, g, h, 0.05, RandomSource(seed))
        f = canonicalize([(0, (1, 0, 0)), (5, (0, 1, 1))], f8)
        g = canonicalize([(2, (1, 1, 0)), (9, (0, 0, 1))], f8)
        bad = add(naive_mul(f, g), monomial(f8, 4, (0, 1, 0)))
        rejected = sum(not verify_sp(f, g, bad, 0.05, RandomSource(s))
                       for s in range(60))
        assert rejected >= 54

    def test_small_ext_field_sum_identity(self):
        f9 = ext_field(3, 2)
        rnd = random.Random(111)
        for seed in range(25):
            f = rand_sparse(rnd, f9, 4, 500)
            g = rand_sparse(rnd, f9, 4, 500)
            h = derivative(naive_mul(f, g))
            pairs = [(f, derivative(g)), (derivative(f), g)]
            assert verify_sum_sp(h, pairs, 0.05, RandomSource(seed))

    def test_scaling_invariance_over_field(self):
        rnd = random.Random(12)
        fq = prime_field(Q62)
        for seed in range(25):
            f = rand_sparse(rnd, fq, 6, 10 ** 5)
            g = rand_sparse(rnd, fq, 6, 10 ** 5)
            h = naive_mul(f, g)
            c = rnd.randrange(1, Q62)
            assert verify_sp(scale(f, c), g, scale(h, c), 0.01, RandomSource(seed))
        # scaled false statements still get rejected
        rejected = 0
        for seed in range(100):
            f = rand_sparse(rnd, fq, 5, 10 ** 4)
            g = rand_sparse(rnd, fq, 5, 10 ** 4)
            bad = add(naive_mul(f, g), monomial(fq, 2, 7))
            c = rnd.randrange(1, Q62)
            rejected += not verify_sp(scale(f, c), g, scale(bad, c), 0.01, RandomSource(seed))
        assert rejected >= 95

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            verify_sp(F_EX, G_EX, F_EX, 0.0, RandomSource(0))
        with pytest.raises(ValueError):
            verify_sp(F_EX, G_EX, F_EX, 1.0, RandomSource(0))


def _watch_evaluations(monkeypatch) -> list:
    """List that receives (ring, p) for every eval_cyclic_product call the
    verifier makes: the field it evaluates in and the cyclic prime."""
    seen = []
    real = verify.eval_cyclic_product

    def eval_cyclic_product(F_p, G_p, p, alpha):
        seen.append((F_p.ring, p))
        return real(F_p, G_p, p, alpha)

    monkeypatch.setattr(verify, "eval_cyclic_product", eval_cyclic_product)
    return seen


class TestEvaluationRoutes:
    def test_small_prime_field_evaluated_in_itself(self, monkeypatch):
        # X*X = X^2 at eps = 0.9 keeps lambda at its floor of 21; the draw
        # p = 23 from [21, 42] is the only one with 89 > c2*p, and then
        # F_89 itself has enough points (extension degree s = 1)
        seen = _watch_evaluations(monkeypatch)
        f89 = prime_field(89)
        x, x2 = monomial(f89, 1, 1), monomial(f89, 2, 1)
        for seed in range(20):
            assert verify_sp(x, x, x2, 0.9, RandomSource(seed))
            # #H > #F*#G: rejected before any evaluation
            assert not verify_sp(x, x, add(x2, monomial(f89, 0, 1)), 0.9, RandomSource(seed))
        assert (f89, 23) in seen
        for ring, p in seen:
            assert (ring == f89) == (p == 23)
            assert ring.q == 89 and ring.size > VerifyParams.for_extension(0.9).c2 * p
        # a wrong triple that passes the structural checks reaches the
        # evaluation, in F_89 too: lhs - rhs = -X^2 vanishes only at alpha = 0
        seen.clear()
        for seed in range(20):
            assert not verify_sp(x, x, scale(x2, 2), 0.9, RandomSource(seed))
        assert (f89, 23) in seen

    def test_route_per_input_ring(self, monkeypatch):
        seen = _watch_evaluations(monkeypatch)
        rnd = random.Random(15)

        def routes(ring, eps, seeds=8):
            # (evaluation ring, p, top of the generic window [lam, 2*lam])
            out = []
            for seed in range(seeds):
                f = rand_sparse(rnd, ring, 5, 10 ** 4, 2 ** 20)
                g = rand_sparse(rnd, ring, 5, 10 ** 4, 2 ** 20)
                h = naive_mul(f, g)
                seen.clear()
                assert verify_sp(f, g, h, eps, RandomSource(seed))
                lam = max(21, math.ceil(VerifyParams.generic(eps).c1
                                        * (f.sparsity * g.sparsity + h.sparsity)
                                        * math.log(max(h.degree, 2))))
                out += [(r, p, 2 * lam) for r, p in seen]
            return out

        # Z: a random coefficient prime q, larger than p
        for ring, p, _ in routes(ZZ, 0.01):
            assert ring.kind == "prime_field" and ring.q > p
        # a 62-bit field hosts the points itself, with p drawn from the
        # generic budget split rather than the extension one
        fq = prime_field(Q62)
        for ring, p, top in routes(fq, 0.01):
            assert ring == fq and p <= top
        # F_101 is too small: a genuine extension F_{101^s}
        for ring, p, _ in routes(F101, 0.01):
            assert ring.kind == "ext_field" and ring.q == 101 and ring.s >= 2
        # a large extension field hosts the points itself
        big = ext_field(Q62, 2)
        assert {ring for ring, _, _ in routes(big, 0.01)} == {big}
        # F_9 splits into F_3 component checks, each over an extension of F_3
        f9 = ext_field(3, 2)
        components = []
        real_sum = verify.verify_sum_sp

        def verify_sum_sp(H, pairs, eps, rng):
            components.append(H.ring)
            return real_sum(H, pairs, eps, rng)

        monkeypatch.setattr(verify, "verify_sum_sp", verify_sum_sp)
        evaluated = routes(f9, 0.01, seeds=4)
        assert evaluated and set(components) == {prime_field(3)}
        for ring, _, _ in evaluated:
            assert ring.kind == "ext_field" and ring.q == 3 and ring != f9


class TestVerifySumSP:
    def test_single_pair_reduces_to_verify_sp(self):
        h = naive_mul(F_EX, G_EX)
        for seed in range(20):
            assert verify_sum_sp(h, [(F_EX, G_EX)], 0.01, RandomSource(seed))

    def test_exact_cancellation(self):
        z = zero_poly(ZZ)
        for seed in range(20):
            assert verify_sum_sp(z, [(F_EX, G_EX), (F_EX, negate(G_EX))],
                                 0.01, RandomSource(seed))

    def test_product_rule_pairs(self):
        rnd = random.Random(13)
        for seed in range(25):
            f = rand_sparse(rnd, ZZ, 6, 10 ** 5, 2 ** 20)
            g = rand_sparse(rnd, ZZ, 6, 10 ** 5, 2 ** 20)
            h = derivative(naive_mul(f, g))
            pairs = [(f, derivative(g)), (derivative(f), g)]
            assert verify_sum_sp(h, pairs, 0.01, RandomSource(seed))

    def test_wrong_sum_rejected(self):
        rnd = random.Random(14)
        rejected = 0
        for seed in range(200):
            f = rand_sparse(rnd, ZZ, 5, 10 ** 4, 2 ** 16)
            g = rand_sparse(rnd, ZZ, 5, 10 ** 4, 2 ** 16)
            h = add(derivative(naive_mul(f, g)), monomial(ZZ, 1, 3))
            pairs = [(f, derivative(g)), (derivative(f), g)]
            rejected += not verify_sum_sp(h, pairs, 0.01, RandomSource(seed))
        assert rejected >= 194

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            verify_sum_sp(F_EX, [], 0.01, RandomSource(0))

    def test_all_zero_pairs(self):
        z = zero_poly(ZZ)
        assert verify_sum_sp(z, [(z, G_EX)], 0.1, RandomSource(0))
        assert not verify_sum_sp(F_EX, [(z, G_EX)], 0.1, RandomSource(0))
