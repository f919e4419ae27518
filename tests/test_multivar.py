import math
import random
import re
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spmul import multivar
from spmul import (MultiPoly, ProductParams, RandomSource, RingMismatchError,
                   UnsupportedRingError, canonicalize, canonicalize_multi,
                   ext_field, integers, inverse_kronecker,
                   kronecker, mul_count, multivar_product_smallchar,
                   multivar_product_z, naive_mul, naive_mul_multi, prime_field,
                   randomized_kronecker, reset_mul_count, sparse_product,
                   sparsity_estimate)

from helpers import (Q62, as_multi, dict_mul_ring, dict_sum_ring, is_canonical, rand_multi,
                     rand_sparse, raw_coeff, ring_coeffs)

ZZ = integers()
RINGS = [ZZ, prime_field(7), ext_field(3, 2)]
RING_IDS = ["Z", "F_7", "F_9"]


def mp(terms, nvars=2, ring=ZZ):
    return canonicalize_multi(terms, nvars, ring)


class TestCanonicalizeMulti:
    @pytest.mark.parametrize("ring", [ZZ, prime_field(7)], ids=["Z", "F_7"])
    def test_repeated_vectors_merge(self, ring):
        # (1, 2) appears twice and sums to 8 (1 over F_7); (0, 3) appears
        # three times and cancels to zero, so it is dropped
        f = mp([((0, 3), 5), ((1, 2), 4), ((0, 3), -7), ((2, 0), 1), ((1, 2), 4),
                ((0, 3), 2)], ring=ring)
        assert f.terms == (((1, 2), ring.coerce(8)), ((2, 0), 1))

    @pytest.mark.parametrize("terms, nvars, message", [
        ([], 0, "nvars must be >= 1"),
        ([((1, 2), 1), ((1, 2, 3), 1)], 2, "exponent vector has wrong length"),
        ([((1,), 1)], 2, "exponent vector has wrong length"),
        ([((0, 1), 1), ((2, -1), 1)], 2, "exponents must be nonnegative"),
    ], ids=["nvars-zero", "vector-too-long", "vector-too-short", "negative-entry"])
    def test_rejections(self, terms, nvars, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            canonicalize_multi(terms, nvars, ZZ)

    @pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
    @given(data=st.data())
    def test_matches_dict_oracle(self, ring, data):
        vec = st.tuples(*[st.integers(0, 2)] * 3)
        pairs = data.draw(st.lists(st.tuples(vec, ring_coeffs(ring)), max_size=25))
        # half the vectors again with the negated coefficient, so they cancel
        # unless a third term shares the vector
        negated = [(e, raw_coeff(ring, ring.neg(ring.coerce(c)))) for e, c in pairs[::2]]
        f = canonicalize_multi(pairs + negated, 3, ring)
        assert dict(f.terms) == dict_sum_ring(pairs + negated, ring)
        assert is_canonical(f.terms, ring)


class TestNaiveMulMulti:
    # the spmul mul --naive reference, against the dict schoolbook oracle;
    # the oracle drops zero sums, so its sorted items are the canonical terms

    @pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
    def test_matches_dict_oracle(self, ring):
        rnd = random.Random(12)
        cancelled = 0
        for _ in range(60):
            f = rand_multi(rnd, ring, 2, 6, 3, 3)
            g = rand_multi(rnd, ring, 2, 6, 3, 3)
            oracle = dict_mul_ring(dict(f.terms), dict(g.terms), ring)
            assert naive_mul_multi(f, g).terms == tuple(sorted(oracle.items()))
            support = {tuple(a + b for a, b in zip(e1, e2))
                       for e1, _ in f.terms for e2, _ in g.terms}
            cancelled += len(oracle) < len(support)
        assert cancelled  # some products cancel a coefficient to zero

    @pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
    def test_difference_of_squares_cancels(self, ring):
        # (x + y)(x - y) = x^2 - y^2: the two xy products cancel
        one, minus_one = ring.one(), ring.neg(ring.one())
        f = mp([((1, 0), one), ((0, 1), one)], ring=ring)
        g = mp([((1, 0), one), ((0, 1), minus_one)], ring=ring)
        assert naive_mul_multi(f, g).terms == (((0, 2), minus_one), ((2, 0), one))

    @pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
    def test_zero_operand(self, ring):
        f = mp([((1, 0), ring.one())], ring=ring)
        assert naive_mul_multi(f, mp([], ring=ring)).is_zero


class TestKronecker:
    def test_positional_encoding(self):
        f = mp([((1, 0), 1), ((0, 1), 1)])  # x + y
        assert kronecker(f, 3).terms == ((1, 1), (3, 1))

    def test_x2y(self):
        f = mp([((2, 1), 1)])
        assert kronecker(f, 3).terms == ((5, 1),)

    def test_round_trip_random(self):
        rnd = random.Random(1)
        for _ in range(200):
            n = rnd.randint(1, 4)
            dmax = rnd.randint(2, 30)
            f = rand_multi(rnd, ZZ, n, 10, dmax, 99)
            assert inverse_kronecker(kronecker(f, dmax), dmax, n) == f

    def test_partial_degree_guard(self):
        f = mp([((3, 0), 1)])
        with pytest.raises(ValueError):
            kronecker(f, 3)
        # the partial degrees are kept after the first pass, and the guard
        # reads the kept ones
        assert f.var_degrees() == (3, 0)
        with pytest.raises(ValueError, match="partial degree >= d"):
            kronecker(f, 3)
        assert kronecker(f, 4).terms == ((3, 1),)

    def test_linear_in_the_exponent_vectors(self):
        # one term in 20,000 variables: its image exponent, 2^20000 - 1, is
        # 2.5 KB, and no table of the powers d^i is built for it
        n = 20000
        f = MultiPoly(ZZ, n, (((1,) * n, 1),))
        tracemalloc.start()
        try:
            image = kronecker(f, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert image.terms == (((1 << n) - 1, 1),)
        assert peak < 2 ** 20
        # the image agrees with sum e_i d^i
        exps = (4, 0, 7, 1, 8)
        g = MultiPoly(ZZ, 5, ((exps, 3),))
        assert kronecker(g, 9).terms == ((sum(e * 9 ** i for i, e in enumerate(exps)), 3),)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 1000])
    def test_round_trip_by_halves(self, n):
        # each image is sum e_i d^i, built and split by halves above
        # multivar._CHAIN variables, and splitting it gives F back
        rnd = random.Random(n)
        for d in (2, 3, 10, 2 ** 31 + 11):
            f = rand_multi(rnd, ZZ, n, 8, d, 99)
            image = kronecker(f, d)
            assert image.terms == tuple(sorted(
                (sum(e * d ** i for i, e in enumerate(exps)), c) for exps, c in f.terms))
            assert inverse_kronecker(image, d, n) == f

    def test_inverse_range_guard(self):
        h = canonicalize([(9, 1)], ZZ)
        with pytest.raises(ValueError):
            inverse_kronecker(h, 3, 2)

    def test_multiplicativity(self):
        rnd = random.Random(2)
        for _ in range(50):
            f = rand_multi(rnd, ZZ, 3, 6, 5, 50)
            g = rand_multi(rnd, ZZ, 3, 6, 5, 50)
            d = 1 + max(x + y for x, y in zip(f.var_degrees(), g.var_degrees()))
            lhs = kronecker(naive_mul_multi(f, g), d)
            rhs = naive_mul(kronecker(f, d), kronecker(g, d))
            assert lhs == rhs


class TestRandomizedKronecker:
    def test_positional_special_case(self):
        rnd = random.Random(3)
        f = rand_multi(rnd, ZZ, 3, 8, 4, 9)
        d = 4
        assert randomized_kronecker(f, (1, d, d * d)) == kronecker(f, d)

    def test_dot_products(self):
        f = mp([((1, 0), 1), ((0, 1), 1)])
        assert randomized_kronecker(f, (2, 3)).terms == ((2, 1), (3, 1))

    def test_forced_collision_merges(self):
        f = mp([((1, 0), 1), ((0, 1), 1)])
        assert randomized_kronecker(f, (2, 2)).terms == ((2, 2),)

    @pytest.mark.parametrize("ring", [ext_field(3, 2), ext_field(Q62, 2)], ids=["F9", "FQ62^2"])
    def test_matches_per_term_substitution_over_extensions(self, ring):
        # the merge keeps each coefficient as the element it is; coercing
        # it again would read a packed element as a constant
        rnd = random.Random(33)
        for _ in range(20):
            f = rand_multi(rnd, ring, 3, 10, 4)
            s_vec = tuple(rnd.randrange(5) for _ in range(3))
            want = {}
            for exps, c in f.terms:
                e = sum(a * b for a, b in zip(exps, s_vec))
                want[e] = ring.add(want[e], c) if e in want else c
            got = randomized_kronecker(f, s_vec)
            assert got.terms == tuple(sorted((e, c) for e, c in want.items() if c))

    def test_rejects_negative_substitutions(self):
        with pytest.raises(ValueError, match="nonnegative"):
            randomized_kronecker(mp([((1, 0), 1)]), (1, -1))

    def test_rejects_a_vector_of_the_wrong_length(self):
        for s_vec in ((1,), (1, 2, 3)):
            with pytest.raises(ValueError, match="wrong length"):
                randomized_kronecker(mp([((1, 0), 1)]), s_vec)

    def test_sparsity_never_grows(self):
        rnd = random.Random(4)
        for _ in range(100):
            f = rand_multi(rnd, ZZ, 2, 12, 6, 9)
            s = (rnd.randrange(40), rnd.randrange(40))
            assert randomized_kronecker(f, s).sparsity <= f.sparsity

    def test_collision_bound_markov_slack(self):
        # mean lost terms over many draws stays within 1.5x the T(T-1)/N bound
        rnd = random.Random(5)
        total_lost = 0
        draws_per_h = 100
        n_polys = 200
        for _ in range(n_polys):
            t = rnd.randint(2, 20)
            h = rand_multi(rnd, ZZ, 3, t, 50, 9)
            while h.sparsity < 2:
                h = rand_multi(rnd, ZZ, 3, t, 50, 9)
            t_true = h.sparsity
            box = 4 * t_true * (t_true - 1)
            for _ in range(draws_per_h):
                s = tuple(rnd.randrange(box) for _ in range(3))
                total_lost += (t_true - randomized_kronecker(h, s).sparsity) / \
                    (t_true * (t_true - 1) / box)
        assert total_lost / (n_polys * draws_per_h) <= 1.5


class TestSparsityEstimate:
    def test_square_of_binomial(self):
        f = mp([((1, 0), 1), ((0, 1), 1)])
        hits = 0
        for seed in range(30):
            t = sparsity_estimate(f, f, 0.05, 2, RandomSource(seed))
            assert t <= 6  # never exceeds lambda * #(FG) = 2 * 3
            hits += t >= 3
        assert hits >= 27

    def test_single_terms(self):
        f = mp([((2, 1), 5)])
        g = mp([((0, 3), 2)])
        for seed in range(5):
            assert sparsity_estimate(f, g, 0.05, 2, RandomSource(seed)) == 2

    def test_univariate_brackets_true_sparsity(self):
        rnd = random.Random(6)
        good = 0
        for seed in range(30):
            f = rand_multi(rnd, ZZ, 1, 5, 40, 9)
            g = rand_multi(rnd, ZZ, 1, 5, 40, 9)
            true = naive_mul_multi(f, g).sparsity
            t = sparsity_estimate(f, g, 0.05, 2, RandomSource(seed))
            assert t <= 2 * true
            good += t >= true
        assert good >= 25

    def test_zero_inputs(self):
        f = mp([((1, 0), 1)])
        z = MultiPoly(ZZ, 2, ())
        assert sparsity_estimate(f, z, 0.05, 2, RandomSource(0)) == 0

    def test_small_fields_bracket_true_sparsity(self):
        # counting residue terms asks nothing of the characteristic, so
        # fields far smaller than the degrees and the term counts work
        for ring in (prime_field(2), prime_field(7), ext_field(3, 2)):
            rnd = random.Random(20261018 + ring.size)
            for seed in range(200):
                f = rand_multi(rnd, ring, 2, 5, 6)
                g = rand_multi(rnd, ring, 2, 5, 6)
                true = len(dict_mul_ring(dict(f.terms), dict(g.terms), ring))
                t = sparsity_estimate(f, g, 0.05, 2, RandomSource(seed))
                assert true <= t <= 2 * true, (ring, seed)

    def test_prime_field_brackets_true_sparsity(self):
        fq = prime_field(Q62)
        rnd = random.Random(20260607)
        lower_hits = 0
        for seed in range(100):
            f = rand_multi(rnd, fq, 2, 4, 6)
            g = rand_multi(rnd, fq, 2, 4, 6)
            true = len(dict_mul_ring(dict(f.terms), dict(g.terms), fq))
            t = sparsity_estimate(f, g, 0.05, 2, RandomSource(seed))
            assert t <= 2 * true
            lower_hits += t >= true
        assert lower_hits >= 90

    @pytest.mark.parametrize("eps", [0.05, 2.0 ** -20])
    def test_grid_product_never_exceeds_twice_truth(self, eps):
        # x-only times y-only terms: all #F*#G exponents of FG are distinct
        rnd = random.Random(21)
        lower_hits = 0
        for seed in range(200):
            a, b = rnd.randint(1, 6), rnd.randint(1, 6)
            f = mp([((i, 0), rnd.randint(1, 99)) for i in rnd.sample(range(40), a)])
            g = mp([((0, j), rnd.randint(1, 99)) for j in rnd.sample(range(40), b)])
            t = sparsity_estimate(f, g, eps, 2, RandomSource(seed))
            assert t <= 2 * a * b
            lower_hits += t >= a * b
        assert lower_hits >= 200 * (1 - 2 * eps)

    def test_one_schoolbook_product_per_call(self, monkeypatch):
        # one draw whatever eps: one naive_mul of the two substituted
        # operands, and no product of F and G
        calls = {"naive_mul": 0, "product": 0, "randomized_kronecker": 0}
        naive, product = multivar.naive_mul, multivar.sparse_product
        substitute = multivar.randomized_kronecker

        def counted(key, real):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(multivar, "naive_mul", counted("naive_mul", naive))
        monkeypatch.setattr(multivar, "sparse_product", counted("product", product))
        monkeypatch.setattr(multivar, "randomized_kronecker",
                            counted("randomized_kronecker", substitute))
        f, g = self._twelve_by_twelve()
        for eps in (0.9, 0.5, 0.05, 2.0 ** -20, 1e-9, 1e-300, 1e-310, 5e-324):
            calls.update(naive_mul=0, product=0, randomized_kronecker=0)
            sparsity_estimate(f, g, eps, 2, RandomSource(1))
            assert calls == {"naive_mul": 1, "product": 0, "randomized_kronecker": 2}, eps

    @pytest.mark.parametrize("eps, trials", [(0.5, 4000), (0.25, 20000)])
    def test_box_is_b_to_the_ell(self, eps, trials):
        # (1 + x)(1 - x) = 1 - x^2: G_s vanishes, and the estimate drops
        # below 2, exactly when s = 0, with probability 1/b^ell for
        # b = ceil(3/delta) = 12 at lam = 2 and ell = ceil(-log2(eps)); a
        # smaller box fails more often, a larger one less
        f = mp([((0,), 1), ((1,), 1)], nvars=1)
        g = mp([((0,), 1), ((1,), -1)], nvars=1)
        p = 1 / 12 ** math.ceil(-math.log2(eps))
        low = sum(sparsity_estimate(f, g, eps, 2, RandomSource(seed)) < 2
                  for seed in range(trials))
        sigma = math.sqrt(trials * p * (1 - p))
        assert abs(low - trials * p) <= 3 * sigma, low

    @staticmethod
    def _twelve_by_twelve():
        rnd = random.Random(25)
        cube = [(i, j, k) for i in range(4) for j in range(4) for k in range(4)]
        return tuple(mp([(e, rnd.randint(1, 99)) for e in rnd.sample(cube, 12)], nvars=3)
                     for _ in range(2))

    def test_subnormal_budgets(self):
        # ell = ceil(-log2 eps) is 997, 1030 and 1074 here, where 1/eps
        # overflows the float range; b^ell only widens the exponents
        f, g = self._twelve_by_twelve()
        true = naive_mul_multi(f, g).sparsity
        for eps in (1e-300, 1e-310, 5e-324):
            t = sparsity_estimate(f, g, eps, 2, RandomSource(3))
            assert true <= t <= 2 * true, eps

    @pytest.mark.parametrize("ring", [ZZ, prime_field(Q62), ext_field(3, 2)],
                             ids=["Z", "F_Q62", "F_9"])
    def test_ring_mults_within_one_schoolbook_per_draw(self, ring):
        # the one draw charges #F_s*#G_s <= #F*#G ring mults, one per term pair
        rnd = random.Random(23)
        for seed in range(10):
            f = rand_multi(rnd, ring, 3, 12, 10, 99)
            g = rand_multi(rnd, ring, 3, 12, 10, 99)
            for eps in (0.3, 2.0 ** -20):
                reset_mul_count()
                sparsity_estimate(f, g, eps, 2, RandomSource(seed))
                assert mul_count() <= f.sparsity * g.sparsity, (seed, eps)

    @pytest.mark.parametrize("ring", [ZZ, prime_field(7), ext_field(3, 2)],
                             ids=["Z", "F_7", "F_9"])
    def test_counts_match_the_residue_walk(self, monkeypatch, ring):
        # each draw counts the terms of F_s*G_s at the s it drew; the
        # reference count is a dict schoolbook product of the same operands
        draws = []
        naive = multivar.naive_mul

        def watched_naive(F_s, G_s):
            out = naive(F_s, G_s)
            draws.append((F_s, G_s, out.sparsity))
            return out

        monkeypatch.setattr(multivar, "naive_mul", watched_naive)
        rnd = random.Random(24)
        for seed in range(50):
            f = rand_multi(rnd, ring, 2, 6, 8, 99)
            g = rand_multi(rnd, ring, 2, 6, 8, 99)
            draws.clear()
            t = sparsity_estimate(f, g, 0.05, 2, RandomSource(seed))
            want = [len(dict_mul_ring(dict(F_s.terms), dict(G_s.terms), ring))
                    for F_s, G_s, _ in draws]
            assert [count for *_, count in draws] == want
            assert t == 2 * max(want)

    def test_non_finite_bounds_rejected(self):
        f = mp([((1, 0), 1), ((0, 1), 1)])
        for lam in (math.inf, math.nan, 1.0):
            with pytest.raises(ValueError):
                sparsity_estimate(f, f, 0.05, lam, RandomSource(0))
        # finite, but lam * best leaves the float range
        with pytest.raises(ValueError):
            sparsity_estimate(f, f, 0.05, 1e308, RandomSource(0))
        for eps in (0.0, 1.0, math.nan):
            with pytest.raises(ValueError, match="eps must lie"):
                sparsity_estimate(f, f, eps, 2.0, RandomSource(0))


class TestMultivarProductZ:
    def test_difference_of_squares(self):
        f = mp([((1, 0), 1), ((0, 1), 1)])
        g = mp([((1, 0), 1), ((0, 1), -1)])
        out = multivar_product_z(f, g, 0.01, RandomSource(0))
        assert out.terms == (((0, 2), -1), ((2, 0), 1))

    def test_univariate_matches_sparse_product(self):
        rnd = random.Random(7)
        for seed in range(20):
            f = rand_sparse(rnd, ZZ, 8, 10 ** 4, 2 ** 16)
            g = rand_sparse(rnd, ZZ, 8, 10 ** 4, 2 ** 16)
            params = ProductParams(0.005, 0.005)
            uni = sparse_product(f, g, params, RandomSource(seed))
            multi = multivar_product_z(as_multi(f), as_multi(g), 0.01, RandomSource(seed))
            assert multi == as_multi(uni)

    def test_three_variable_oracle(self):
        rnd = random.Random(8)
        for seed in range(200):
            f = rand_multi(rnd, ZZ, 3, 6, 8, 2 ** 16)
            g = rand_multi(rnd, ZZ, 3, 6, 8, 2 ** 16)
            out = multivar_product_z(f, g, 0.001, RandomSource(seed))
            oracle = dict_mul_ring(dict(f.terms), dict(g.terms), ZZ)
            assert dict(out.terms) == oracle

    def test_large_char_field_path(self):
        from spmul import multivar_product_field
        from helpers import Q62
        fq = prime_field(Q62)
        rnd = random.Random(80)
        for seed in range(25):
            f = rand_multi(rnd, fq, 2, 5, 6)
            g = rand_multi(rnd, fq, 2, 5, 6)
            out = multivar_product_field(f, g, 0.01, RandomSource(seed))
            assert dict(out.terms) == dict_mul_ring(dict(f.terms), dict(g.terms), fq)

    def test_ring_guards(self):
        f7 = prime_field(7)
        f = mp([((1, 0), 1)], ring=f7)
        with pytest.raises(UnsupportedRingError):
            multivar_product_z(f, f, 0.01, RandomSource(0))
        with pytest.raises(RingMismatchError):
            multivar_product_z(mp([((1, 0), 1)]), mp([((1,), 1)], nvars=1),
                               0.01, RandomSource(0))
        with pytest.raises(UnsupportedRingError, match="finite field"):
            multivar_product_smallchar(mp([((1, 0), 1)]), mp([((0, 1), 1)]),
                                       0.01, RandomSource(0))

    def test_zero_operand_gives_zero_without_a_product(self, monkeypatch):
        monkeypatch.setattr(multivar, "sparse_product", None)
        f, zero = mp([((1, 0), 2), ((0, 3), -1)]), mp([])
        for a, b in ((f, zero), (zero, f), (zero, zero)):
            out = multivar_product_z(a, b, 0.01, RandomSource(0))
            assert out.is_zero and out.ring == ZZ and out.nvars == 2


class TestRingAgreement:
    @pytest.mark.parametrize("call", [
        naive_mul_multi,
        lambda f, g: sparsity_estimate(f, g, 0.1, 2.0, RandomSource(0)),
        lambda f, g: multivar_product_z(f, g, 0.01, RandomSource(0)),
        lambda f, g: multivar_product_smallchar(f, g, 0.01, RandomSource(0)),
    ], ids=["naive_mul_multi", "sparsity_estimate", "kronecker_product", "smallchar"])
    def test_ring_and_variable_mismatches_share_one_message(self, call):
        f7, f5 = prime_field(7), prime_field(5)
        f = mp([((1, 0), 1)], ring=f7)
        for g in (mp([((1, 0), 1)], ring=f5), mp([((1,), 1)], nvars=1, ring=f7)):
            for a, b in ((f, g), (g, f)):
                with pytest.raises(RingMismatchError,
                                   match="^operands must share ring and variables$"):
                    call(a, b)


class TestSmallCharacteristic:
    def test_x_plus_1_squared_over_f2(self):
        f2 = prime_field(2)
        f = mp([((1,), 1), ((0,), 1)], nvars=1, ring=f2)
        out = multivar_product_smallchar(f, f, 0.01, RandomSource(0))
        assert out.terms == (((0,), 1), ((2,), 1))

    def test_prime_field_no_wrap_matches_integer_reduce(self):
        # coefficients small enough that no reduction happens in the lift
        f101 = prime_field(101)
        fz = mp([((1, 0), 3), ((0, 1), 2)])
        gz = mp([((1, 0), 4), ((0, 2), 5)])
        fq = mp([((1, 0), 3), ((0, 1), 2)], ring=f101)
        gq = mp([((1, 0), 4), ((0, 2), 5)], ring=f101)
        hz = multivar_product_z(fz, gz, 0.01, RandomSource(1))
        out = multivar_product_smallchar(fq, gq, 0.01, RandomSource(1))
        assert dict(out.terms) == {e: c % 101 for e, c in hz.terms}

    def test_f2_bivariate_oracle(self):
        f2 = prime_field(2)
        rnd = random.Random(9)
        for seed in range(25):
            f = rand_multi(rnd, f2, 2, 5, 6)
            g = rand_multi(rnd, f2, 2, 5, 6)
            out = multivar_product_smallchar(f, g, 0.01, RandomSource(seed))
            assert dict(out.terms) == dict_mul_ring(dict(f.terms), dict(g.terms), f2)

    def test_f9_bivariate_oracle(self):
        f9 = ext_field(3, 2)
        rnd = random.Random(10)
        for seed in range(25):
            f = rand_multi(rnd, f9, 2, 5, 6)
            g = rand_multi(rnd, f9, 2, 5, 6)
            out = multivar_product_smallchar(f, g, 0.01, RandomSource(seed))
            assert dict(out.terms) == dict_mul_ring(dict(f.terms), dict(g.terms), f9)

    def test_structural_sparsity_stress(self):
        # dense-ish inputs maximize colliding pairs in the lifted product
        f9 = ext_field(3, 2)
        terms = [((i, j), (1 + (i + j) % 2, (i * j) % 3))
                 for i in range(4) for j in range(4)]
        f = canonicalize_multi(terms, 2, f9)
        out = multivar_product_smallchar(f, f, 0.01, RandomSource(3))
        assert dict(out.terms) == dict_mul_ring(dict(f.terms), dict(f.terms), f9)

    def test_f8_deeper_extension(self):
        f8 = ext_field(2, 3)
        rnd = random.Random(11)
        for seed in range(10):
            f = rand_multi(rnd, f8, 2, 4, 4)
            g = rand_multi(rnd, f8, 2, 4, 4)
            out = multivar_product_smallchar(f, g, 0.01, RandomSource(seed))
            assert dict(out.terms) == dict_mul_ring(dict(f.terms), dict(g.terms), f8)
