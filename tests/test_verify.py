import math
import random
from functools import reduce

import pytest

from spmul import (RandomSource, RingMismatchError, RingSpec, UnsupportedRingError, add,
                   add_mul_count, canonicalize, cyclic_reduce, derivative,
                   eval_cyclic_product, ext_field, eval_sparse, integers, lambda_nonzero,
                   mul_count, naive_mul, negate, prime_field, random_prime,
                   reset_mul_count, scale, verify_sp, verify_sum_sp, zero_poly)
from spmul import SparsePoly, arith, poly, verify
from spmul.poly import fixed_base_powers
from spmul.rings import _pow_cost

from helpers import (Q62, monomial, rand_sparse, sum_charge, watch_cyclic_evaluations,
                     window_charge)

ZZ = integers()
F101 = prime_field(101)

F_EX = canonicalize([(7, 2), (0, 2), (14, 1)], ZZ)
G_EX = canonicalize([(13, 3), (8, 5), (0, 3)], ZZ)
H_EX = canonicalize([(14, 1), (7, -2), (0, 2)], ZZ)


def _cyclic_eval_oracle(f, g, p, alpha):
    # independent route: schoolbook product mod X^p - 1, then direct evaluation
    prod = cyclic_reduce(naive_mul(cyclic_reduce(f, p), cyclic_reduce(g, p)), p)
    ring = f.ring
    acc = ring.zero()
    for e, c in prod.terms:
        acc = ring.add(acc, ring.mul(c, ring.pow(alpha, e)))
    return acc


# F_101, F_9, F_Q62 and the cyclotomic F_3[Y]/(Phi_5) (3 generates (Z/5)^*)
CYCLIC_RINGS = [F101, ext_field(3, 2), prime_field(Q62), ext_field(3, 4, (1,) * 5)]
CYCLIC_IDS = ["F101", "F9", "FQ62", "F81-cyclotomic"]


def _nonzero(rnd, ring):
    if ring.kind == "prime_field":
        return rnd.randrange(1, ring.q)
    while True:
        c = ring.coerce([rnd.randrange(ring.q) for _ in range(ring.s)])
        if c:
            return c


def _with_exps(rnd, ring, exps):
    return canonicalize([(e, _nonzero(rnd, ring)) for e in exps], ring)


def _exps(f):
    return [e for e, _ in f.terms]


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
        for p in (0, -3):
            with pytest.raises(ValueError, match="p must be >= 1"):
                eval_cyclic_product(zero_poly(F101), zero_poly(F101), p, 2)

    def test_integers_rejected(self):
        with pytest.raises(UnsupportedRingError):
            eval_cyclic_product(F_EX, G_EX, 7, 2)

    @pytest.mark.parametrize("ring", CYCLIC_RINGS, ids=CYCLIC_IDS)
    def test_alpha_zero(self, ring):
        # R(0) = f_0 g_0 + the X^p coefficient of F_p * G_p: pairs at
        # t + j = 11 (3 + 8, 7 + 4, 10 + 1) and above it
        rnd = random.Random(7)
        for f_exps, g_exps in (([0, 3, 7, 10], [0, 1, 4, 8, 10]), ([3, 7, 10], [1, 4, 8])):
            f, g = _with_exps(rnd, ring, f_exps), _with_exps(rnd, ring, g_exps)
            assert eval_cyclic_product(f, g, 11, 0) == _cyclic_eval_oracle(f, g, 11, 0)

    @pytest.mark.parametrize("ring", CYCLIC_RINGS, ids=CYCLIC_IDS)
    def test_p_one(self, ring):
        rnd = random.Random(8)
        f, g = _with_exps(rnd, ring, [0]), _with_exps(rnd, ring, [0])
        for alpha in (0, 1, _nonzero(rnd, ring)):
            assert eval_cyclic_product(f, g, 1, alpha) == _cyclic_eval_oracle(f, g, 1, alpha)

    @pytest.mark.parametrize("ring", CYCLIC_RINGS, ids=CYCLIC_IDS)
    def test_only_top_term_wraps(self, ring):
        # deg F + deg G = p: one pair, 30 + 20, wraps, onto X^0 exactly
        rnd = random.Random(9)
        for alpha in (0, 1, _nonzero(rnd, ring), _nonzero(rnd, ring)):
            f = _with_exps(rnd, ring, [0, 5, 20, 30])
            g = _with_exps(rnd, ring, [0, 3, 10, 20])
            assert eval_cyclic_product(f, g, 50, alpha) == _cyclic_eval_oracle(f, g, 50, alpha)

    @pytest.mark.parametrize("ring", CYCLIC_RINGS, ids=CYCLIC_IDS)
    def test_every_term_wraps(self, ring):
        # deg F = p - 1 and every exponent of G at least 1
        rnd = random.Random(10)
        for p in (2, 3, 50, 101):
            for _ in range(6):
                f = _with_exps(rnd, ring, {p - 1, *rnd.sample(range(p), min(11, p))})
                g = _with_exps(rnd, ring, rnd.sample(range(1, p), min(8, p - 1)))
                alpha = _nonzero(rnd, ring)
                assert eval_cyclic_product(f, g, p, alpha) == _cyclic_eval_oracle(f, g, p, alpha)

    @pytest.mark.parametrize("ring", CYCLIC_RINGS, ids=CYCLIC_IDS)
    def test_charge_when_nothing_wraps(self, ring):
        # deg F + deg G < p: the table, max(1, nonzero windows) per term of
        # F and of G, and F(alpha) * G(alpha); no exponentiation
        rnd = random.Random(11)
        for p in (2, 1000, 10 ** 6 + 3, 2 ** 40):
            f = rand_sparse(rnd, ring, 40, p // 2)
            g = rand_sparse(rnd, ring, 40, p - f.degree - 1 or 1)
            alpha = _nonzero(rnd, ring)
            reset_mul_count()
            table = fixed_base_powers(ring, alpha, p, f.sparsity + g.sparsity)
            want = mul_count() + sum_charge(table, _exps(f)) + sum_charge(table, _exps(g)) + 1
            reset_mul_count()
            value = eval_cyclic_product(f, g, p, alpha)
            assert mul_count() == want
            assert value == _cyclic_eval_oracle(f, g, p, alpha)

    @pytest.mark.parametrize("ring", CYCLIC_RINGS, ids=CYCLIC_IDS)
    def test_charge_when_pairs_wrap(self, ring):
        # the table, the lookups and F(alpha) * G(alpha), one product per
        # wrapping term of G, then alpha^-p through ring.pow and one
        # product more; at alpha = 0, one product per wrapping term g_j
        # whose partner p - j is an exponent of F, and none for the others
        rnd = random.Random(12)
        wrapped = unpartnered = 0
        for p in (3, 50, 1009):
            for _ in range(6):
                f = _with_exps(rnd, ring, rnd.sample(range(p), min(14, p)))
                g = _with_exps(rnd, ring, rnd.sample(range(p), min(9, p)))
                wraps = sum(1 for e, _ in g.terms if e >= p - f.degree)
                partnered = sum(1 for e, _ in g.terms
                                if e >= p - f.degree and any(t == p - e for t, _ in f.terms))
                wrapped += wraps > 0
                unpartnered += partnered < wraps
                for alpha in (_nonzero(rnd, ring), 0):
                    reset_mul_count()
                    table = fixed_base_powers(ring, alpha, p, f.sparsity + g.sparsity)
                    # the wrap route keeps each term's value
                    charge = window_charge if wraps and alpha else sum_charge
                    want = mul_count() + charge(table, _exps(f)) + charge(table, _exps(g)) + 1
                    if wraps and alpha:
                        want += wraps + _pow_cost(-p % (ring.size - 1)) + 1
                    elif wraps:
                        want += partnered
                    reset_mul_count()
                    value = eval_cyclic_product(f, g, p, alpha)
                    assert mul_count() == want, (p, wraps, alpha)
                    assert value == _cyclic_eval_oracle(f, g, p, alpha)
        assert wrapped >= 12 and unpartnered >= 6

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


class TestEvalCyclicProductInField:
    """eval_cyclic_product in a field that holds an image of the operands'
    ring: Z operands in F_q and F_q operands in an extension of F_q, each
    equal to the value of the operands' copies made in the field."""

    @staticmethod
    def _z_operand(rnd, q, exps):
        # coefficients in turn negative, above q and divisible by q
        draws = (lambda: -rnd.randrange(1, 5 * q), lambda: rnd.randrange(q + 1, 5 * q),
                 lambda: q * rnd.choice([-3, -1, 1, 2]))
        return canonicalize([(e, draws[i % 3]()) for i, e in enumerate(exps)], ZZ)

    @staticmethod
    def _cases(f, g, rnd, field):
        # (p, alpha): p = D + 1, where nothing wraps, and a p below deg F +
        # deg G, where pairs wrap; alpha zero and nonzero at each
        for p in (f.degree + g.degree + 1, max(f.degree, g.degree) + 3):
            for alpha in (0, 1, field.rand_elem(RandomSource(rnd.randrange(10 ** 6)))):
                yield p, alpha

    @pytest.mark.parametrize("q", [101, Q62], ids=["F_101", "F_Q62"])
    def test_z_operands_equal_their_copies_mod_q(self, q):
        fq = prime_field(q)
        rnd = random.Random(q % 1009)

        def copy(P):
            return SparsePoly(fq, tuple((e, c % q) for e, c in P.terms if c % q))

        for _ in range(20):
            f = self._z_operand(rnd, q, sorted(rnd.sample(range(60), 9)))
            g = self._z_operand(rnd, q, sorted(rnd.sample(range(60), 7)))
            # every coefficient divisible by q: the image is zero
            g0 = canonicalize([(e, q * rnd.choice([-2, 1, 3])) for e, _ in g.terms], ZZ)
            assert copy(g0).is_zero
            for p, alpha in self._cases(f, g, rnd, fq):
                want = eval_cyclic_product(copy(f), copy(g), p, alpha)
                assert want == _cyclic_eval_oracle(copy(f), copy(g), p, alpha)
                assert eval_cyclic_product(f, g, p, alpha, fq) == want
                assert eval_cyclic_product(f, g0, p, alpha, fq) == 0
                assert eval_cyclic_product(g0, f, p, alpha, fq) == 0

    @pytest.mark.parametrize("q, s, modulus", [(101, 3, None), (3, 4, (1,) * 5)],
                             ids=["F_101^3", "F_81-cyclotomic"])
    def test_prime_field_operands_equal_their_copies_in_an_extension(self, q, s, modulus):
        fq, ext = prime_field(q), ext_field(q, s, modulus)
        rnd = random.Random(q + s)

        def copy(P):
            return SparsePoly(ext, tuple((e, ext.coerce([c])) for e, c in P.terms))

        for _ in range(20):
            f = rand_sparse(rnd, fq, 9, 60)
            g = rand_sparse(rnd, fq, 7, 60)
            for p, alpha in self._cases(f, g, rnd, ext):
                want = eval_cyclic_product(copy(f), copy(g), p, alpha)
                assert want == _cyclic_eval_oracle(copy(f), copy(g), p, alpha)
                assert eval_cyclic_product(f, g, p, alpha, ext) == want

    def test_pairings_without_an_image_raise_as_eval_sparse(self):
        f5, f7, f9 = prime_field(5), prime_field(7), ext_field(3, 2)
        x5 = canonicalize([(1, 1)], f5)
        for F, G, field, error in ((F_EX, G_EX, None, UnsupportedRingError),
                                   (F_EX, G_EX, ZZ, UnsupportedRingError),
                                   (x5, x5, f7, RingMismatchError),
                                   (F_EX, G_EX, f9, RingMismatchError)):
            with pytest.raises(error):
                eval_sparse(F, 2, field)
            with pytest.raises(error):
                eval_cyclic_product(F, G, 30, 2, field)


class TestBudgetSplit:
    def test_budgets_hold_across_eps(self):
        # the failure sources of one check (see verify._split) stay within
        # eps: p misses a nonzero difference with probability at most the
        # p-share (lambda_nonzero), q divides it with at most 10/(3*c2), and
        # the point is a root with at most 1/c2
        slack = 1e-9
        for eps in (2.0 ** -60, 1e-7, 1e-4, 0.01, 0.1, 0.5, 0.9, 0.999):
            share, c2 = verify._split(eps, False)
            assert 0 < share < 1 and c2 > 1
            assert share + (1 - share) / c2 <= eps + slack
            share, c2 = verify._split(eps, True)
            assert 0 < share < 1 and c2 >= 10 / 3
            assert 1 - (1 - share) * (1 - 10 / (3 * c2)) * (1 - 1 / c2) <= eps + slack


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
        # F_9 can never host the sample set; the identity is checked
        # through its F_3 coordinates in an extension of F_3 instead
        f9 = ext_field(3, 2)
        rnd = random.Random(11)
        for seed in range(60):
            f = rand_sparse(rnd, f9, 4, 1000)
            g = rand_sparse(rnd, f9, 4, 1000)
            h = naive_mul(f, g)
            assert verify_sp(f, g, h, 0.01, RandomSource(seed))
        # an error below the top term passes the structural checks, and
        # (1, 2) has coordinate sum 0 in F_3: unweighted coordinates miss it
        rejected = done = 0
        while done < 150:
            f = rand_sparse(rnd, f9, 4, 1000)
            g = rand_sparse(rnd, f9, 4, 1000)
            h = naive_mul(f, g)
            if h.sparsity < 2:
                continue
            rejected += not verify_sp(f, g, _perturbed(h, (1, 2)), 0.01, RandomSource(done))
            done += 1
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
        # below the top term, with coordinate sum 0 in F_2
        bad = _perturbed(naive_mul(f, g), (0, 1, 1))
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
        # verify_sum_sp checks its own budget: the h2 jobs call it directly
        for eps in (0.0, 1.0):
            with pytest.raises(ValueError, match="eps must lie"):
                verify_sum_sp(F_EX, [(F_EX, G_EX)], eps, RandomSource(0))


class TestEvaluationRoutes:
    def test_small_prime_field_evaluated_in_itself(self, monkeypatch):
        # X^d * X^d = X^2d at eps = 0.9 keeps lam above D + 1 = 2d + 1, so
        # p = D + 1; F_89 itself has enough points exactly for the degrees
        # with 89 > c2*(D + 1) (c2 = 2/0.9, so D <= 39), and an extension
        # F_{89^s} hosts the rest
        c2 = verify._split(0.9, False)[1]
        seen = watch_cyclic_evaluations(monkeypatch)
        f89 = prime_field(89)
        degrees = (1, 19, 20, 30)
        assert {89 > c2 * (2 * d + 1) for d in degrees} == {True, False}

        def check_routes(d):
            assert 2 * d + 1 <= lambda_nonzero(2, max(2 * d, 2), 0.45)
            assert seen
            for ring, p in seen:
                assert p == 2 * d + 1
                assert (ring == f89) == (89 > c2 * p)
                assert ring.q == 89 and ring.size > c2 * p
            seen.clear()

        for d in degrees:
            x, x2 = monomial(f89, d, 1), monomial(f89, 2 * d, 1)
            for seed in range(20):
                assert verify_sp(x, x, x2, 0.9, RandomSource(seed))
                # #H > #F*#G: rejected before any evaluation
                assert not verify_sp(x, x, add(x2, monomial(f89, 0, 1)), 0.9, RandomSource(seed))
            check_routes(d)
            # a wrong triple that passes the structural checks reaches the
            # evaluation, in F_89 too: lhs - rhs = -X^2d vanishes only at alpha = 0
            for seed in range(20):
                assert not verify_sp(x, x, scale(x2, 2), 0.9, RandomSource(seed))
            check_routes(d)

    def test_route_per_input_ring(self, monkeypatch):
        seen = watch_cyclic_evaluations(monkeypatch)
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
                lam = lambda_nonzero(f.sparsity * g.sparsity + h.sparsity,
                                     max(h.degree, 2), verify._split(eps, False)[0])
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
        # F_9 is too small: each check evaluates in one extension of F_3,
        # with one p
        f9 = ext_field(3, 2)
        for _ in range(4):
            evaluated = routes(f9, 0.01, seeds=1)
            assert len({(ring, p) for ring, p, _ in evaluated}) == 1
            ring = evaluated[0][0]
            assert ring.kind == "ext_field" and ring.q == 3 and ring.s > 2

    def test_integer_split(self, monkeypatch):
        # over Z all three failure sources share eps: lam = lambda_nonzero at
        # the p-share eps/3, and the coefficient prime q >= c2*p for c2 =
        # 10/eps.  Exponents below 10^3 keep lam > D + 1, so p = D + 1;
        # exponents near 10^15 put lam <= D, so p comes from [lam, 2*lam]
        seen = watch_cyclic_evaluations(monkeypatch)
        rnd = random.Random(16)
        eps = 0.01
        for emax in (10 ** 3, 10 ** 15):
            for seed in range(30):
                f = rand_sparse(rnd, ZZ, 6, emax, 2 ** 20)
                g = rand_sparse(rnd, ZZ, 6, emax, 2 ** 20)
                h = naive_mul(f, g)
                if seed % 2:
                    h = _perturbed(h, 1)
                seen.clear()
                assert verify_sp(f, g, h, eps, RandomSource(seed)) == (seed % 2 == 0)
                D = f.degree + g.degree
                lam = lambda_nonzero(f.sparsity * g.sparsity + h.sparsity, max(D, 2), eps / 3)
                assert len(seen) == 1
                ring, p = seen[0]
                if emax == 10 ** 3:
                    assert D + 1 <= lam and p == D + 1
                else:
                    assert lam <= D and lam <= p <= 2 * lam
                assert ring.kind == "prime_field" and ring.q >= (10 / eps) * p


class TestHFromItsOwnTerms:
    """Over Z and F_q the verifier evaluates H, and F and G with it, from
    their own terms: each itself at p = D + 1, cyclic_reduce(P, p) in P's
    own ring on the cyclic route, and no copy of any of them in the
    evaluation field, which both evaluators take as an argument."""

    @pytest.mark.parametrize("ring", [ZZ, prime_field(Q62), F101], ids=["Z", "F_Q62", "F_101"])
    @pytest.mark.parametrize("emax", [10 ** 3, 10 ** 15], ids=["p=D+1", "cyclic"])
    def test_h_is_evaluated_as_it_is(self, monkeypatch, ring, emax):
        evaluated = []
        real = verify.eval_sparse

        def eval_sparse(P, alpha, field=None, **kwargs):
            evaluated.append((P, field))
            return real(P, alpha, field, **kwargs)

        monkeypatch.setattr(verify, "eval_sparse", eval_sparse)
        seen = watch_cyclic_evaluations(monkeypatch,
                                        lambda F_p, G_p, p, field: (F_p, G_p, p, field))
        rnd = random.Random(emax % 97)
        for seed in range(6):
            f = rand_sparse(rnd, ring, 6, emax, 2 ** 40)
            g = rand_sparse(rnd, ring, 6, emax, 2 ** 40)
            h = naive_mul(f, g)
            if seed % 2:
                h = _perturbed(h, 1)
            evaluated.clear(), seen.clear()
            assert verify_sp(f, g, h, 0.01, RandomSource(seed)) == (seed % 2 == 0)
            (F_p, G_p, p, field), = seen
            (H_p, at), = evaluated
            # the check field: a coefficient prime field over Z, F_Q62
            # itself, an extension of F_101
            assert at == field and field.is_field and (field == ring) == (ring == prime_field(Q62))
            if emax == 10 ** 3:
                assert p == h.degree + 1
                assert F_p is f and G_p is g and H_p is h
            else:
                assert p <= h.degree
                for P, P_p in ((f, F_p), (g, G_p), (h, H_p)):
                    assert P_p == cyclic_reduce(P, p) and P_p.ring == ring


def _perturbed(H, err):
    """H with err added to its lowest coefficient: below the top term, so
    the support and degree checks cannot tell the triple is false."""
    return add(H, monomial(H.ring, H.terms[0][0], err))


def _field_routes(seen, ring, eps) -> list:
    """The field route of each watched evaluation, once its field is
    checked to have more than c2*p elements: "ring" (the ring itself, or a
    coefficient prime field over Z), "cyclotomic" (F_q[Y]/(Phi_(s+1)),
    s = cyclotomic_degree(q, S)) or "canonical" (canonical_irreducible(q,
    S), where no cyclotomic degree lies in [S, 2S)); S is least with
    q^S > c2*p and above the ring's own degree."""
    c2 = verify._split(eps, ring.kind == "integers")[1]
    routes = []
    for field, p in seen:
        assert field.size > c2 * p
        if field.kind != "ext_field" or field == ring:
            routes.append("ring")
            continue
        S = ring.s + 1
        while field.q ** S <= c2 * p:
            S += 1
        assert field.s == arith.cyclotomic_degree(field.q, S)
        cyclotomic = field.modulus == (1,) * (field.s + 1)
        assert cyclotomic == arith.is_primitive_root(field.q, field.s + 1)
        if not cyclotomic:
            assert field.modulus == arith.canonical_irreducible(field.q, S)
        routes.append("cyclotomic" if cyclotomic else "canonical")
    return routes


def _shifted(P, k):
    return SparsePoly(P.ring, tuple((e + k, c) for e, c in P.terms))


F8, F9, F25 = ext_field(2, 3), ext_field(3, 2), ext_field(5, 2)


class TestOneTablePerCheck:
    """A check builds one fixed-base table of its point, for exponents
    below p and sized by every lookup it makes, and both evaluators look
    their values up in that table."""

    # Z and F_Q62 at p = D + 1 (exponents below 10^3) and on the cyclic
    # route (near 10^15), F_9 through its extension F_{3^S'} on both, and
    # F_{Q61^3}, Q61 = 2^61 - 1, which hosts its points itself
    CASES = [(ZZ, 10 ** 3), (ZZ, 10 ** 15), (prime_field(Q62), 10 ** 3),
             (prime_field(Q62), 10 ** 15), (ext_field(3, 2), 10 ** 3),
             (ext_field(3, 2), 10 ** 15), (ext_field(2 ** 61 - 1, 3), 10 ** 3)]
    IDS = ["Z", "Z-cyclic", "Q62", "Q62-cyclic", "F9", "F9-cyclic", "Q61^3"]

    @pytest.mark.parametrize("ring, emax", CASES, ids=IDS)
    def test_every_route_builds_one_table(self, monkeypatch, ring, emax):
        tables, evaluations = [], []
        real_table = poly.fixed_base_powers

        def fixed_base_powers(*args):
            tables.append((args, real_table(*args)))
            return tables[-1][1]

        # the evaluators would build their own through these two names
        monkeypatch.setattr(verify, "fixed_base_powers", fixed_base_powers)
        monkeypatch.setattr(poly, "fixed_base_powers", fixed_base_powers)
        for name in ("eval_cyclic_product", "eval_sparse"):
            def evaluate(*args, real=getattr(verify, name), **kwargs):
                evaluations.append((args, kwargs.get("table")))
                return real(*args, **kwargs)

            monkeypatch.setattr(verify, name, evaluate)
        rnd = random.Random(emax % 89)
        for seed in range(4):
            f, g = (rand_sparse(rnd, ring, 6, emax, 2 ** 20) for _ in "fg")
            h = naive_mul(f, g)
            tables.clear(), evaluations.clear()
            if seed < 2:
                # seed 1 a false triple, with one coefficient changed
                h = _perturbed(h, 1) if seed else h
                assert verify_sp(f, g, h, 0.01, RandomSource(seed)) == (seed == 0)
            else:
                # two pairs: every pair's evaluations read the one table
                assert verify_sum_sp(add(h, naive_mul(g, g)), [(f, g), (g, g)], 0.01,
                                     RandomSource(seed))
            ((field, alpha, p, lookups), table), = tables
            *cyclic, ((h_p, *at), _) = evaluations
            assert cyclic and all(args[2:] == (p, alpha, field) for args, _ in cyclic)
            assert at == [alpha, field]
            assert all(t is table for _, t in evaluations)
            assert lookups == sum(args[0].sparsity + args[1].sparsity
                                  for args, _ in cyclic) + h_p.sparsity


class TestCoefficientPrime:
    def test_q_is_tested_once(self, monkeypatch):
        # random_prime certifies the coefficient prime of a Z check, and
        # the check's field is built without a second test of it
        tested = []
        real = arith.is_prime
        monkeypatch.setattr(arith, "is_prime", lambda n: tested.append(n) or real(n))
        seen = watch_cyclic_evaluations(monkeypatch)
        rnd = random.Random(17)
        for emax in (10 ** 3, 10 ** 15):
            for seed in range(4):
                f, g = (rand_sparse(rnd, ZZ, 6, emax, 2 ** 20) for _ in "fg")
                tested.clear(), seen.clear()
                assert verify_sp(f, g, naive_mul(f, g), 0.01, RandomSource(seed))
                (field, _), = seen
                assert field.kind == "prime_field" and tested.count(field.q) == 1
                assert field == prime_field(field.q) and hash(field) == hash(prime_field(field.q))

    def test_prime_field_still_tests_q(self):
        for q in (1, 4, 91, Q62 * 3):
            with pytest.raises(ValueError):
                prime_field(q)


class TestDegreeRoute:
    """Below lam a check takes p = D + 1 and draws no cyclic prime: a
    difference of degree <= D is its own residue mod X^(D+1) - 1."""

    RINGS = [ZZ, prime_field(Q62), F9, F8, F25, F101]
    IDS = ["Z", "Q62", "F9", "F8", "F25", "F101"]

    def _pairs(self, ring, rnd):
        # (F, G): constants (D = 0), X times a constant (D = 1), exponents
        # below 10^3 (lam > D + 1) and near 10^15 (lam <= D)
        c = ring.one()
        yield monomial(ring, 0, c), monomial(ring, 0, c)
        yield monomial(ring, 1, c), monomial(ring, 0, c)
        for emax in (10 ** 3, 10 ** 15):
            for _ in range(6):
                yield (rand_sparse(rnd, ring, 6, emax, 2 ** 20),
                       rand_sparse(rnd, ring, 6, emax, 2 ** 20))

    @pytest.mark.parametrize("ring", RINGS, ids=IDS)
    def test_p_is_d_plus_one_exactly_below_lam(self, monkeypatch, ring):
        seen = watch_cyclic_evaluations(monkeypatch)
        draws = []
        real = verify.random_prime

        def random_prime(lam, rng):
            draws.append(lam)
            return real(lam, rng)

        monkeypatch.setattr(verify, "random_prime", random_prime)
        over_z = ring.kind == "integers"
        eps = 0.01
        rnd = random.Random(17)
        routes = set()
        for seed, (f, g) in enumerate(self._pairs(ring, rnd)):
            h = naive_mul(f, g)
            D = f.degree + g.degree
            lam = lambda_nonzero(f.sparsity * g.sparsity + h.sparsity, max(D, 2),
                                 verify._split(eps, over_z)[0])
            seen.clear()
            draws.clear()
            assert verify_sp(f, g, h, eps, RandomSource(seed))
            assert len({p for _, p in seen}) == 1
            p = seen[0][1]
            cyclic = D + 1 > lam
            routes.add((D < 2, cyclic))
            if cyclic:
                assert lam <= p <= 2 * lam and draws[0] == lam
            else:
                assert p == D + 1
            assert len(draws) == cyclic + over_z
            _field_routes(seen, ring, eps)
        assert routes == {(True, False), (False, False), (False, True)}

    # exponents below 10^3; in [5200, 6200), where every check over F_8,
    # F_9, F_25 and F_101 builds a cyclotomic extension whose products take
    # the cyclic fold (degrees 28, 16, 16 and 6); and near 10^15, where
    # lam <= D and the check takes a random prime p from [lam, 2*lam], so
    # the residues wrap and eval_cyclic_product adds its wrap term
    SOUNDNESS = ([pytest.param(ring, 0, id=i) for ring, i in zip(RINGS[:3], IDS)]
                 + [pytest.param(ring, 5200, id=f"{i}-cyclotomic")
                    for ring, i in ((F8, "F8"), (F9, "F9"), (F25, "F25"), (F101, "F101"))]
                 + [pytest.param(ring, 10 ** 15, id=f"{i}-cyclic")
                    for ring, i in zip(RINGS[:3], IDS)])

    @pytest.mark.parametrize("ring, emin", SOUNDNESS)
    def test_soundness_and_completeness(self, monkeypatch, ring, emin):
        # at eps = 0.01: at least 97% of one-coefficient perturbations are
        # rejected, and every true triple is accepted, all at p = D + 1
        # below 10^15 and at lam <= p <= 2*lam near it.  The perturbed
        # coefficient lies below the top term, so the structural checks
        # cannot tell the triple is false
        seen = watch_cyclic_evaluations(monkeypatch)
        err = (1,) + (0,) * (ring.s - 1) if ring.kind == "ext_field" else 1
        share = verify._split(0.01, ring.kind == "integers")[0]
        rnd = random.Random(18)

        def check(f, g, h, seed):
            seen.clear()
            accepted = verify_sp(f, g, h, 0.01, RandomSource(seed))
            (p,) = {p for _, p in seen}
            D = f.degree + g.degree
            if emin == 10 ** 15:
                lam = lambda_nonzero(f.sparsity * g.sparsity + h.sparsity, D, share)
                assert lam <= p <= 2 * lam
            else:
                assert p == D + 1
            routes = _field_routes(seen, ring, 0.01)
            if emin == 5200:
                assert set(routes) == {"cyclotomic"}
                assert all(field._cyclic for field, _ in seen)
            return accepted

        rejected = seed = 0
        while seed < 200:
            f = _shifted(rand_sparse(rnd, ring, 6, 1000, 2 ** 20), emin)
            g = _shifted(rand_sparse(rnd, ring, 6, 1000, 2 ** 20), emin)
            h = naive_mul(f, g)
            if h.sparsity < 2:
                continue
            seed += 1
            assert check(f, g, h, seed)
            rejected += not check(f, g, _perturbed(h, err), seed)
        assert rejected >= 0.97 * 200


class TestSmallExtensionField:
    """A small F_{q^s} is checked in one extension of F_q through randomly
    weighted coordinates."""

    def _rejection_rate(self, ring, err, trials, seed):
        rnd = random.Random(seed)
        rejected = done = 0
        while done < trials:
            f = rand_sparse(rnd, ring, 4, 1000)
            g = rand_sparse(rnd, ring, 4, 1000)
            h = naive_mul(f, g)
            if h.sparsity < 2:
                continue
            rejected += not verify_sp(f, g, _perturbed(h, err), 0.01, RandomSource(done))
            done += 1
        return rejected / trials

    @pytest.mark.parametrize("err", [(0, 1), (1, 0), (1, 2)])
    def test_f9_error_in_one_coordinate_rejected(self, err):
        assert self._rejection_rate(ext_field(3, 2), err, 200, 120) >= 0.97

    def test_f8_error_in_top_coordinate_rejected(self):
        assert self._rejection_rate(ext_field(2, 3), (0, 0, 1), 200, 121) >= 0.97

    def test_true_triples_always_accepted(self):
        rnd = random.Random(122)
        fields = [ext_field(2, 2), ext_field(2, 3), ext_field(3, 2), ext_field(5, 2),
                  ext_field(101, 2)]
        for i in range(300):
            ring = fields[i % len(fields)]
            f = rand_sparse(rnd, ring, 5, 2000)
            g = rand_sparse(rnd, ring, 5, 2000)
            assert verify_sp(f, g, naive_mul(f, g), 0.01, RandomSource(i))
        # an input ring on Phi_5 = 1 + Y + ... + Y^4, whose weights come
        # from the modulus alone: it has no reduction rows
        f81 = ext_field(3, 4, (1,) * 5)
        for i in range(100):
            f = rand_sparse(rnd, f81, 5, 2000)
            g = rand_sparse(rnd, f81, 5, 2000)
            assert verify_sp(f, g, naive_mul(f, g), 0.01, RandomSource(i))

    def test_cyclotomic_f81_error_in_top_coordinate_rejected(self):
        f81 = ext_field(3, 4, (1,) * 5)
        assert self._rejection_rate(f81, (0, 0, 0, 1), 200, 125) >= 0.97

    def test_true_f9_triples_at_large_eps_never_raise(self):
        # a large eps only shrinks the check field: a true identity verifies
        # at any eps
        f9 = ext_field(3, 2)
        rnd = random.Random(124)

        def four_terms():
            return canonicalize([(e, (rnd.randrange(3), rnd.randrange(1, 3)))
                                 for e in rnd.sample(range(40), 4)], f9)

        for seed in range(300):
            f, g = four_terms(), four_terms()
            assert verify_sp(f, g, naive_mul(f, g), 0.3, RandomSource(seed))

    def _fallback_gates(self, monkeypatch, ring, pairs):
        # every true triple accepted and at least 97% of perturbed ones
        # rejected at eps = 0.01, every check on the canonical modulus
        seen = watch_cyclic_evaluations(monkeypatch)
        err = (1,) + (0,) * (ring.s - 1) if ring.kind == "ext_field" else 1
        rejected = 0
        for seed, (f, g) in enumerate(pairs):
            h = naive_mul(f, g)
            assert verify_sp(f, g, h, 0.01, RandomSource(seed))
            rejected += not verify_sp(f, g, _perturbed(h, err), 0.01, RandomSource(seed))
        assert rejected >= 0.97 * len(pairs)
        assert set(_field_routes(seen, ring, 0.01)) == {"canonical"}

    def test_fallback_search_for_q31_at_degree_2(self, monkeypatch):
        # D = 2 puts c2*p = 600 between 31 and 31^2, so S = 2; 31 = 1 (mod 3)
        # rules out Phi_3, and the cap rules out Phi_7
        f31 = prime_field(31)
        rnd = random.Random(126)

        def linear():
            return canonicalize([(0, rnd.randrange(1, 31)), (1, rnd.randrange(1, 31))], f31)

        self._fallback_gates(monkeypatch, f31, [(linear(), linear()) for _ in range(200)])

    def test_fallback_search_with_the_predicate_patched_off(self, monkeypatch):
        monkeypatch.setattr(arith, "is_primitive_root", lambda q, ell: False)
        rnd = random.Random(127)
        pairs = []
        while len(pairs) < 200:
            f, g = rand_sparse(rnd, F9, 6, 1000), rand_sparse(rnd, F9, 6, 1000)
            if naive_mul(f, g).sparsity >= 2:
                pairs.append((f, g))
        self._fallback_gates(monkeypatch, F9, pairs)

    class _Logged(RandomSource):
        """A RandomSource that logs the range of every draw."""

        def __init__(self, seed):
            super().__init__(seed)
            self.log = []

        def randrange(self, n):
            self.log.append(n)
            return super().randrange(n)

    @pytest.mark.parametrize("route", ["cyclotomic", "canonical-q31", "canonical-patched"])
    def test_check_draws_p_alpha_and_beta_only(self, monkeypatch, route):
        # whatever its modulus, a check draws p (above lam), alpha and the
        # s - 1 betas of a small F_{q^s}, and nothing for the modulus; the
        # field is a function of (q, S), so seeds that reach one S build
        # one field
        seen = watch_cyclic_evaluations(monkeypatch)
        rnd = random.Random(128)
        triples = []
        if route == "canonical-q31":
            # lam <= 137 < D + 1, and c2 = 2/0.9 with p <= 2*lam puts c2*p
            # between 31 and 31^2, so S = 2
            ring, eps = prime_field(31), 0.9
            for _ in range(8):
                d = rnd.randrange(2000, 5000)
                x = monomial(ring, d, 1)
                triples += [(x, x, monomial(ring, 2 * d, c)) for c in (1, 2)]
        else:
            if route == "canonical-patched":
                monkeypatch.setattr(arith, "is_primitive_root", lambda q, ell: False)
            ring, eps = F9, 2.0 ** -20
            for _ in range(4):
                f, g = (rand_sparse(rnd, F9, 6, 10 ** 9) for _ in range(2))
                h = naive_mul(f, g)
                triples += [(f, g, h), (f, g, _perturbed(h, (1, 0)))]
        checks, fields = [], {}
        for seed, (f, g, h) in enumerate(triples):
            rng = self._Logged(seed)
            seen.clear()
            assert verify_sp(f, g, h, eps, rng) == (h == naive_mul(f, g))
            (field, p), = set(seen)
            replay = self._Logged(seed)
            if p != h.degree + 1:  # p drawn, above lam
                lam = lambda_nonzero(f.sparsity * g.sparsity + h.sparsity, h.degree,
                                     verify._split(eps, False)[0])
                assert random_prime(lam, replay) == p
            for _ in range(ring.s):  # alpha, then the betas
                field.rand_elem(replay)
            assert rng.log == replay.log
            checks += seen
            fields.setdefault(field.s, []).append(field)
        assert set(_field_routes(checks, ring, eps)) == {route.split("-")[0]}
        assert all(len(set(same)) == 1 for same in fields.values())
        assert max(map(len, fields.values())) >= 2

    def test_one_extension_draw_per_check(self, monkeypatch):
        seen = watch_cyclic_evaluations(monkeypatch)
        moduli = []
        real = verify.irreducible_poly

        def irreducible_poly(q, s):
            moduli.append(real(q, s))
            return moduli[-1]

        monkeypatch.setattr(verify, "irreducible_poly", irreducible_poly)
        f9 = ext_field(3, 2)
        rnd = random.Random(123)

        def twelve_terms():
            return canonicalize([(e, (rnd.randrange(1, 3), rnd.randrange(3)))
                                 for e in rnd.sample(range(10 ** 9), 12)], f9)

        for seed in range(6):
            f, g = twelve_terms(), twelve_terms()
            h = naive_mul(f, g)
            for truth, H in ((True, h), (False, _perturbed(h, (1, 0)))):
                seen.clear()
                moduli.clear()
                assert verify_sp(f, g, H, 2.0 ** -20, RandomSource(seed)) == truth
                assert len(moduli) == 1
                assert {ring.modulus for ring, _ in seen} == {moduli[0]}
                assert len({ring for ring, _ in seen}) == len({p for _, p in seen}) == 1
                assert seen[0][0].q == 3


def _per_element_image(P_p, weights, field):
    """The per-coordinate image: s smul and s - 1 add per term."""
    residues = P_p.ring.residues
    return SparsePoly(field, tuple(
        (e, v) for e, c in P_p.terms
        if (v := reduce(field.add, map(field.smul, weights, residues(c))))))


def _per_element_table(ring, alpha, bound, lookups):
    """fixed_base_powers' table with every entry through ring.mul."""
    bits = (bound - 1).bit_length()
    w = min(range(1, 17), key=lambda v: -(-bits // v) * ((1 << v) - 1 + lookups))
    rows, base = [], alpha
    for shift in range(0, bits, w):
        row = [1, base]
        for _ in range(min((1 << w) - 1, (bound - 1) >> shift) - 1):
            row.append(ring.mul(row[-1], base))
        rows.append(row)
        if shift + w < bits:
            base = ring.mul(row[-1], base)
    return rows, w


def _per_element_values(ring, terms, table):
    """term_values with one ring.mul per nonzero window of e, and one
    charge for an e = 0 term."""
    rows, w = table
    mask = (1 << w) - 1
    values = []
    for e, c in terms:
        for i, row in enumerate(rows):
            if e >> w * i & mask:
                c = ring.mul(c, row[e >> w * i & mask])
        if not e:
            add_mul_count(1)
        values.append(c)
    return values


def _per_element_sum(ring, values):
    return reduce(ring.add, values, 0)


def _check_field(ring):
    """The extension a check of ring at c2*p < q^(s+1) runs in."""
    s = arith.cyclotomic_degree(ring.q, ring.s + 1)
    return RingSpec("ext_field", q=ring.q, s=s, modulus=arith.irreducible_poly(ring.q, s))


SMALL_FIELDS = [F9, ext_field(2, 8), ext_field(5, 3)]
SMALL_IDS = ["F9", "F256", "F125"]


class TestImage:
    """verify._image maps a small F_{q^s} into the check field by
    c -> sum_l w_l c_l, one int combination and one fold per distinct
    coefficient: the per-coordinate smul sums, zero images dropped, at s
    mults per term."""

    @pytest.mark.parametrize("ring", SMALL_FIELDS + [ext_field(Q62, 2)],
                             ids=SMALL_IDS + ["FQ62^2"])
    def test_matches_the_per_coordinate_sums(self, ring):
        rnd = random.Random(ring.s * 7 + ring.q % 1000)
        field = _check_field(ring)
        q, s = ring.q, ring.s
        rand = [field.rand_elem(RandomSource(k)) for k in range(2 * s - 1)]
        # w_0 = 1 and w_1 = -1 send (1, 1, 0, ...) to zero; the full-length
        # list is the one _image of phi(Y^0 G) reads (w[0:])
        for weights in ([1, q - 1] + rand[:s - 2], rand, rand[:s]):
            pool = [ring.coerce((1, 1)), ring.coerce([q - 1] * s)]
            pool += [_nonzero(rnd, ring) for _ in range(4)]
            P = SparsePoly(ring, tuple((e, rnd.choice(pool))
                                       for e in sorted(rnd.sample(range(10 ** 6), 80))))
            want = _per_element_image(P, weights, field)
            reset_mul_count()
            got = verify._image(P, weights, field)
            assert mul_count() == s * P.sparsity
            assert got == want
            if weights[:2] == [1, q - 1]:
                assert got.sparsity < P.sparsity


class TestKernelAgainstPerElementPath:
    """The check's kernel, raw-int products reduced by _fold (or mod q)
    and charged in bulk, against the per-element path through ring.mul,
    ring.smul and ring.add: on both routes verify_sp answers the same,
    leaves the same RandomSource state and charges the same ring mults."""

    @staticmethod
    def _per_element(monkeypatch):
        for module in (verify, poly):
            monkeypatch.setattr(module, "fixed_base_powers", _per_element_table)
            monkeypatch.setattr(module, "term_values", _per_element_values)
            monkeypatch.setattr(module, "ring_sum", _per_element_sum)
        monkeypatch.setattr(verify, "_image", _per_element_image)

    @pytest.mark.parametrize("ring", SMALL_FIELDS, ids=SMALL_IDS)
    @pytest.mark.parametrize("emax", [10 ** 3, 10 ** 12], ids=["p=D+1", "cyclic"])
    def test_same_answer_state_and_charge(self, monkeypatch, ring, emax):
        seen = watch_cyclic_evaluations(monkeypatch, lambda F_p, G_p, p, field: p)
        rnd = random.Random(ring.q * ring.s + emax % 89)
        err = (1,) + (0,) * (ring.s - 1)
        for seed in range(5):
            f, g = rand_sparse(rnd, ring, 12, emax), rand_sparse(rnd, ring, 12, emax)
            h = naive_mul(f, g)
            for H in (h, _perturbed(h, err)):
                runs = []
                for per_element in (False, True):
                    with monkeypatch.context() as m:
                        if per_element:
                            self._per_element(m)
                        rng = RandomSource(seed)
                        seen.clear()
                        reset_mul_count()
                        ok = verify_sp(f, g, H, 2.0 ** -20, rng)
                        runs.append((ok, mul_count(), rng._rng.getstate()))
                assert runs[0] == runs[1]
                assert runs[0][0] == (H is h)
                if emax < 10 ** 4:
                    assert set(seen) <= {f.degree + g.degree + 1}
                else:
                    assert all(p <= f.degree + g.degree for p in seen)


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
