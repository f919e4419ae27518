import random
from bisect import bisect_left
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spmul import (RandomSource, RingMismatchError, SparsePoly, UnsupportedRingError, add,
                   canonicalize, cyclic_reduce, dense_cyclic_mul, derivative,
                   eval_cyclic_product, eval_sparse, ext_field, integers,
                   naive_mul, negate, prime_field, mul_count, random_prime,
                   reset_mul_count, scale, sub, zero_poly)
from spmul import poly
from spmul.poly import NEG_INF, fixed_base_powers, ring_sum, term_values
from spmul.rings import _byte_width, _pow_cost, _unpack

from helpers import (Q62, cyclic_convolve_oracle, dict_mul_z, dict_sum_ring, is_canonical,
                     monomial, poly_to_dict, rand_sparse, raw_coeff, ring_coeffs,
                     sum_charge, trial_division_primes, window_charge)

ZZ = integers()
F7, F9 = prime_field(7), ext_field(3, 2)
OVER_FIELDS = pytest.mark.parametrize("ring", [F7, F9], ids=["F_7", "F_9"])


def _draw_terms(data, ring, emax, max_size=25):
    """Unsorted (exponent, coefficient) pairs with exponents in [0, emax],
    repeats and zero coefficients among them."""
    return data.draw(st.lists(st.tuples(st.integers(0, emax), ring_coeffs(ring)),
                              max_size=max_size))

# the running example triple: F*G has nine terms, F*H only two
F_EX = canonicalize([(7, 2), (0, 2), (14, 1)], ZZ)
G_EX = canonicalize([(13, 3), (8, 5), (0, 3)], ZZ)
H_EX = canonicalize([(14, 1), (7, -2), (0, 2)], ZZ)

FG_TERMS = ((0, 6), (7, 6), (8, 10), (13, 6), (14, 3), (15, 10),
            (20, 6), (22, 5), (27, 3))
FH_TERMS = ((0, 4), (28, 1))


class TestCanonicalize:
    def test_cancellation(self):
        assert canonicalize([(3, 1), (3, -1)], ZZ).is_zero

    def test_example_poly(self):
        assert F_EX.terms == ((0, 2), (7, 2), (14, 1))
        assert F_EX.degree == 14 and F_EX.sparsity == 3

    def test_merge_mod_7(self):
        f7 = prime_field(7)
        assert canonicalize([(1, 3), (1, 4)], f7).is_zero

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            canonicalize([(-1, 2)], ZZ)

    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(-9, 9)), max_size=25))
    def test_idempotent_and_sorted(self, pairs):
        f = canonicalize(pairs, ZZ)
        assert canonicalize(f.terms, ZZ) == f
        exps = [e for e, _ in f.terms]
        assert exps == sorted(set(exps))
        assert all(c != 0 for _, c in f.terms)

    @OVER_FIELDS
    @given(data=st.data())
    def test_fields_match_dict_oracle(self, ring, data):
        pairs = _draw_terms(data, ring, 12)
        f = canonicalize(pairs, ring)
        assert dict(f.terms) == dict_sum_ring(pairs, ring)
        assert is_canonical(f.terms, ring)
        assert canonicalize([(e, raw_coeff(ring, c)) for e, c in f.terms], ring) == f
        # every pair followed, in reverse order, by its negative
        negated = [(e, raw_coeff(ring, ring.neg(ring.coerce(c)))) for e, c in reversed(pairs)]
        assert canonicalize(pairs + negated, ring).is_zero


class TestAddSub:
    def test_add_zero(self):
        assert add(F_EX, zero_poly(ZZ)) == F_EX

    def test_self_cancel(self):
        f = canonicalize([(2, 1), (0, 1)], ZZ)
        assert sub(f, f).is_zero

    def test_merge_by_hand(self):
        # (X^14+2X^7+2) + (X^14-2X^7+2) = 2X^14 + 4
        assert add(F_EX, H_EX).terms == ((0, 4), (14, 2))

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            add(F_EX, canonicalize([(0, 1)], prime_field(5)))

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(-5, 5)), max_size=15),
           st.lists(st.tuples(st.integers(0, 30), st.integers(-5, 5)), max_size=15))
    def test_commutes_and_matches_dict_oracle(self, ta, tb):
        fa, fb = canonicalize(ta, ZZ), canonicalize(tb, ZZ)
        assert add(fa, fb) == add(fb, fa)
        oracle = dict(poly_to_dict(fa))
        for e, c in fb.terms:
            oracle[e] = oracle.get(e, 0) + c
        assert poly_to_dict(add(fa, fb)) == {e: c for e, c in oracle.items() if c}

    @OVER_FIELDS
    @given(data=st.data())
    def test_fields_match_dict_oracle(self, ring, data):
        fa = canonicalize(_draw_terms(data, ring, 20, 15), ring)
        fb = canonicalize(_draw_terms(data, ring, 20, 15), ring)
        total = add(fa, fb)
        assert total == add(fb, fa)
        assert dict(total.terms) == dict_sum_ring(
            [(e, raw_coeff(ring, c)) for e, c in fa.terms + fb.terms], ring)
        assert is_canonical(total.terms, ring)
        zero = zero_poly(ring)
        assert add(fa, zero) == fa and add(zero, fa) == fa
        assert add(fa, negate(fa)).is_zero
        # every other term of fa cancels to zero
        half = canonicalize([(e, raw_coeff(ring, ring.neg(c))) for e, c in fa.terms[::2]], ring)
        assert add(fa, half).terms == fa.terms[1::2]


class TestNaiveMul:
    def test_example_nine_terms(self):
        assert naive_mul(F_EX, G_EX).terms == FG_TERMS

    def test_example_two_terms(self):
        assert naive_mul(F_EX, H_EX).terms == FH_TERMS

    def test_zero(self):
        assert naive_mul(F_EX, zero_poly(ZZ)).is_zero

    def test_against_dict_oracle(self):
        rnd = random.Random(11)
        for _ in range(100):
            fa = rand_sparse(rnd, ZZ, 10, 200, 50)
            fb = rand_sparse(rnd, ZZ, 10, 200, 50)
            assert poly_to_dict(naive_mul(fa, fb)) == dict_mul_z(
                poly_to_dict(fa), poly_to_dict(fb))

    def test_degree_and_sparsity_bounds(self):
        rnd = random.Random(12)
        for _ in range(100):
            fa = rand_sparse(rnd, ZZ, 8, 500, 9)
            fb = rand_sparse(rnd, ZZ, 8, 500, 9)
            h = naive_mul(fa, fb)
            assert h.sparsity <= fa.sparsity * fb.sparsity
            assert h.degree == fa.degree + fb.degree  # no leading cancellation over Z


class TestHeightBound:
    def test_bounds_random_sums_by_the_per_pair_formula(self):
        # narrow exponent ranges make term products collide
        rnd = random.Random(31)
        for _ in range(200):
            pairs = [(rand_sparse(rnd, ZZ, 8, 40, 2 ** 10), rand_sparse(rnd, ZZ, 8, 40, 2 ** 10))
                     for _ in range(rnd.randint(1, 3))]
            h = zero_poly(ZZ)
            for f, g in pairs:
                h = add(h, naive_mul(f, g))
            bound = poly.height_bound(pairs)
            assert bound >= h.height()
            assert bound == sum(min(f.sparsity, g.sparsity) * f.height() * g.height()
                                for f, g in pairs)

    def test_tight_and_zero_cases(self):
        # (1 + X + ... + X^5)^2 has the coefficient 6 at X^5
        ones = canonicalize([(i, 1) for i in range(6)], ZZ)
        assert poly.height_bound([(ones, ones)]) == naive_mul(ones, ones).height() == 6
        assert poly.height_bound([(F_EX, zero_poly(ZZ))]) == 0
        assert poly.height_bound([]) == 0

    def test_height_is_defined_over_the_integers_only(self):
        for ring in (prime_field(7), ext_field(3, 2)):
            f = canonicalize([(0, 1)], ring)
            # every call raises, not only the first
            for _ in range(2):
                with pytest.raises(UnsupportedRingError, match="height"):
                    f.height()

    def test_height_is_remembered_per_object(self):
        f = canonicalize([(0, 3), (4, -17), (9, 5)], ZZ)
        assert f.height() == f.height() == 17
        assert zero_poly(ZZ).height() == 0
        # a polynomial whose height was read compares and hashes as a
        # fresh equal one
        fresh = canonicalize([(9, 5), (4, -17), (0, 3)], ZZ)
        assert f == fresh and hash(f) == hash(fresh)
        assert fresh.height() == 17 and f == fresh and hash(f) == hash(fresh)
        assert {f: 1}[fresh] == 1


class TestDerivative:
    def test_constant(self):
        # a constant term is dropped and not charged
        for ring in (ZZ, F7, F9):
            before = mul_count()
            assert derivative(canonicalize([(0, 5)], ring)).is_zero
            assert derivative(zero_poly(ring)).is_zero
            assert mul_count() == before

    def test_example(self):
        assert derivative(F_EX).terms == ((6, 14), (13, 14))

    def test_char_2_kills_even_exponents(self):
        f2 = prime_field(2)
        assert derivative(canonicalize([(2, 1)], f2)).is_zero

    @staticmethod
    def _per_term_smul(F):
        """The derivative by one ring.smul per term with e >= 1, and the
        ring mults that takes."""
        ring = F.ring
        before = mul_count()
        terms = []
        for e, c in F.terms:
            if e >= 1 and (d := ring.smul(c, e)):
                terms.append((e - 1, d))
        return tuple(terms), mul_count() - before

    @pytest.mark.parametrize("ring", [ZZ, prime_field(5), prime_field(Q62), F9],
                             ids=["Z", "F_5", "F_Q62", "F_9"])
    def test_terms_and_charge_match_per_term_smul(self, ring):
        # exponents below 40 over F_5 and F_9 give many with e*c = 0 mod q
        rnd = random.Random(17)
        for _ in range(60):
            f = rand_sparse(rnd, ring, 12, 40, 99)
            want = self._per_term_smul(f)
            before = mul_count()
            got = derivative(f)
            assert (got.terms, mul_count() - before) == want
            assert want[1] == sum(1 for e, _ in f.terms if e >= 1)

    @pytest.mark.parametrize("ring", [prime_field(5), ext_field(5, 2)], ids=["F_5", "F_25"])
    def test_vanishing_term_is_charged_and_constant_is_not(self, ring):
        # e = 5 and 10 are 0 mod q: their terms vanish and are still charged,
        # as smul charged them; the constant is dropped and not charged
        f = canonicalize([(0, 2), (3, 1), (5, 4), (10, 3)], ring)
        before = mul_count()
        d = derivative(f)
        assert mul_count() - before == 3
        assert d.terms == ((2, ring.coerce(3)),)
        assert (d.terms, 3) == self._per_term_smul(f)

    def test_product_rule_200_random_pairs(self):
        rnd = random.Random(13)
        for _ in range(200):
            fa = rand_sparse(rnd, ZZ, 8, 10 ** 6, 99)
            fb = rand_sparse(rnd, ZZ, 8, 10 ** 6, 99)
            lhs = derivative(naive_mul(fa, fb))
            rhs = add(naive_mul(derivative(fa), fb), naive_mul(fa, derivative(fb)))
            assert lhs == rhs


class TestCyclicReduce:
    def test_exponent_fold(self):
        f = canonicalize([(7, 1), (4, 2), (1, 1)], ZZ)
        assert cyclic_reduce(f, 5).terms == ((1, 1), (2, 1), (4, 2))

    def test_constant(self):
        assert cyclic_reduce(canonicalize([(0, 9)], ZZ), 7).terms == ((0, 9),)

    def test_x5_minus_1_vanishes(self):
        f = canonicalize([(5, 1), (0, -1)], ZZ)
        assert cyclic_reduce(f, 5).is_zero

    def test_degree_below_p_returns_input(self):
        f = canonicalize([(7, 1), (4, 2), (1, 1)], ZZ)
        assert cyclic_reduce(f, 8) is f
        assert cyclic_reduce(f, 10 ** 12) is f
        z = zero_poly(ZZ)
        assert cyclic_reduce(z, 3) is z
        with pytest.raises(ValueError):
            cyclic_reduce(f, 0)

    def test_morphism(self):
        rnd = random.Random(14)
        for _ in range(50):
            fa = rand_sparse(rnd, ZZ, 8, 1000, 20)
            fb = rand_sparse(rnd, ZZ, 8, 1000, 20)
            p = rnd.choice([3, 5, 7, 11, 13])
            assert cyclic_reduce(add(fa, fb), p) == add(cyclic_reduce(fa, p),
                                                        cyclic_reduce(fb, p))
            lhs = cyclic_reduce(naive_mul(fa, fb), p)
            rhs = cyclic_reduce(naive_mul(cyclic_reduce(fa, p), cyclic_reduce(fb, p)), p)
            assert lhs == rhs

    @OVER_FIELDS
    @given(data=st.data())
    def test_fields_match_dict_oracle(self, ring, data):
        p = data.draw(st.sampled_from([2, 3, 5, 7]))
        pairs = _draw_terms(data, ring, 60)
        # half the pairs again one period up with the negated coefficient,
        # so their slots cancel to zero unless a third term lands there
        partners = [(e + p, raw_coeff(ring, ring.neg(ring.coerce(c)))) for e, c in pairs[::2]]
        f = canonicalize(pairs + partners, ring)
        reduced = cyclic_reduce(f, p)
        assert dict(reduced.terms) == dict_sum_ring(
            [(e % p, raw_coeff(ring, c)) for e, c in f.terms], ring)
        assert is_canonical(reduced.terms, ring) and reduced.degree < p


def _vec(f, p):
    """Positional coefficient list of f; every exponent must be < p."""
    out = [f.ring.zero()] * p
    for e, c in f.terms:
        out[e] = c
    return out


def _lifted_mul(ring, a, b):
    """dense_cyclic_mul on integer images (RingSpec.lift), dropped back into
    the ring: how cyclic_product_residue convolves over fields."""
    width = ring.lift_width(len(a))  # at most p products land in one slot
    out = dense_cyclic_mul([ring.lift(c, width) for c in a], [ring.lift(c, width) for c in b])
    return [ring.drop(v, width) for v in out]


class TestDenseCyclicMul:
    def test_identity(self):
        rnd = random.Random(16)
        a = _vec(rand_sparse(rnd, ZZ, 6, 11, 9), 11)
        one = [1] + [0] * 10
        assert dense_cyclic_mul(a, one) == a

    def test_worked_example(self):
        # (X^3+1)(X^4+X) mod X^5-1 = 2X^4 + X^2 + X
        assert dense_cyclic_mul([1, 0, 0, 1, 0], [0, 1, 0, 0, 1]) == [0, 1, 1, 0, 2]

    def test_all_ones(self):
        assert dense_cyclic_mul([1, 1, 1], [1, 1, 1]) == [3, 3, 3]

    def test_signed_random_vs_schoolbook(self):
        rnd = random.Random(17)
        for _ in range(60):
            p = rnd.choice([1, 2, 3, 5, 17, 31])
            a = _vec(rand_sparse(rnd, ZZ, 6, p, 10 ** 6), p)
            b = _vec(rand_sparse(rnd, ZZ, 6, p, 10 ** 6), p)
            assert dense_cyclic_mul(a, b) == cyclic_convolve_oracle(a, b, ZZ)

    def test_prime_field_vs_schoolbook(self):
        f101 = prime_field(101)
        rnd = random.Random(18)
        for _ in range(40):
            p = rnd.choice([2, 3, 7, 19])
            a = _vec(rand_sparse(rnd, f101, 5, p), p)
            b = _vec(rand_sparse(rnd, f101, 5, p), p)
            assert _lifted_mul(f101, a, b) == cyclic_convolve_oracle(a, b, f101)

    def test_ext_field_vs_schoolbook(self):
        f9 = ext_field(3, 2)
        rnd = random.Random(19)
        for _ in range(20):
            a = _vec(rand_sparse(rnd, f9, 4, 7), 7)
            b = _vec(rand_sparse(rnd, f9, 4, 7), 7)
            assert _lifted_mul(f9, a, b) == cyclic_convolve_oracle(a, b, f9)

    def test_ext_field_worst_case_digits(self):
        # all residues q-1 in every slot drive each packed digit to its bound
        for ring in (ext_field(3, 5), ext_field(Q62, 2)):
            top = ring.coerce((ring.q - 1,) * ring.s)
            for p in (1, 2, 17, 64):
                a = [top] * p
                assert _lifted_mul(ring, a, a) == cyclic_convolve_oracle(a, a, ring)

    def test_consistency_with_naive_mul_50_primes(self):
        rnd = random.Random(20)
        primes = trial_division_primes(600)[2:]
        for p in rnd.sample(primes, 50):
            fa = rand_sparse(rnd, ZZ, 40, 10 ** 7, 2 ** 20)
            fb = rand_sparse(rnd, ZZ, 40, 10 ** 7, 2 ** 20)
            lhs = cyclic_reduce(naive_mul(fa, fb), p)
            prod = dense_cyclic_mul(_vec(cyclic_reduce(fa, p), p), _vec(cyclic_reduce(fb, p), p))
            assert lhs == canonicalize(enumerate(prod), ZZ)

    @pytest.mark.parametrize("bound, width", [(10, 2), (2 ** 31, 9)])
    def test_both_packer_paths_vs_schoolbook(self, monkeypatch, bound, width):
        # bits(p * bound^2) + 2 sets the slot width, rounded up to an array
        # item size up to 8 bytes (rings._byte_width): 12 bits pack at 2
        # bytes through an array, 67 bits at 9 bytes through bytes
        widths = []
        real = poly._pack
        monkeypatch.setattr(poly, "_pack", lambda d, w: widths.append(w) or real(d, w))
        rnd = random.Random(bound)
        p = 7
        for _ in range(20):
            a = [rnd.randint(-bound, bound) for _ in range(p)]
            b = [rnd.randint(-bound, bound) for _ in range(p)]
            a[0] = b[0] = bound
            assert dense_cyclic_mul(a, b) == cyclic_convolve_oracle(a, b, ZZ)
        assert set(widths) == {width}

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dense_cyclic_mul([0] * 3, [0] * 4)


class TestEvalSparse:
    def test_at_one_is_coefficient_sum(self):
        f101 = prime_field(101)
        rnd = random.Random(21)
        f = rand_sparse(rnd, f101, 8, 1000)
        assert eval_sparse(f, 1) == sum(c for _, c in f.terms) % 101

    def test_worked_example(self):
        f101 = prime_field(101)
        f = canonicalize([(4, 2), (2, 1), (1, 1)], f101)
        assert eval_sparse(f, 2) == 38  # 2*16 + 4 + 2

    def test_zero_poly(self):
        assert eval_sparse(zero_poly(prime_field(7)), 3) == 0

    def test_integers_unsupported(self):
        with pytest.raises(UnsupportedRingError):
            eval_sparse(F_EX, 2)

    def test_ext_fields_match_per_term_powers(self):
        rnd = random.Random(22)
        for ring in (ext_field(Q62, 2), ext_field(3, 5)):
            for emax in (1, 2, 1000, 2 ** 40):
                f = rand_sparse(rnd, ring, 30, emax)
                alpha = ring.coerce([rnd.randrange(ring.q) for _ in range(ring.s)])
                want = ring.zero()
                for e, c in f.terms:
                    want = ring.add(want, ring.mul(c, ring.pow(alpha, e)))
                assert eval_sparse(f, alpha) == want

    def test_operation_count_beats_square_and_multiply(self):
        # 2000 terms below 2^40: the windowed table must charge well under
        # a quarter of per-term square-and-multiply plus the coefficient
        rnd = random.Random(23)
        fq = prime_field(Q62)
        exps = rnd.sample(range(2 ** 40), 2000)
        f = canonicalize([(e, rnd.randrange(1, Q62)) for e in exps], fq)
        assert f.sparsity == 2000
        reset_mul_count()
        eval_sparse(f, rnd.randrange(Q62))
        assert mul_count() < sum(_pow_cost(e) + 1 for e in exps) / 4

    def test_prime_field_fast_path_charges_like_generic(self):
        # F_q looks up one table row at a time on raw ints and charges in
        # bulk; the degree-1 extension of the same field goes through
        # ring.mul and must charge the same, in eval_sparse and in
        # eval_cyclic_product, whose wrap term takes alpha^-p by ring.pow
        rnd = random.Random(24)
        fq, fq1 = prime_field(Q62), ext_field(Q62, 1)

        def lift(f):
            return canonicalize([(e, (c,)) for e, c in f.terms], fq1)

        for emax in (1, 50, 2 ** 40):
            f = rand_sparse(rnd, fq, 300, emax)
            g = rand_sparse(rnd, fq, 200, emax)
            f1, g1 = lift(f), lift(g)
            alpha = rnd.randrange(Q62)
            p = emax + 1
            for run, run1 in ((lambda: eval_sparse(f, alpha),
                               lambda: eval_sparse(f1, fq1.coerce((alpha,)))),
                              (lambda: eval_cyclic_product(f, g, p, alpha),
                               lambda: eval_cyclic_product(f1, g1, p, fq1.coerce((alpha,))))):
                reset_mul_count()
                value = run()
                count = mul_count()
                reset_mul_count()
                assert fq1.residues(run1()) == (value,)
                assert mul_count() == count


def _z_poly(rnd, q, bound, lookups):
    """A Z polynomial of min(lookups, bound) terms below bound, with an
    exponent-0 term and the top exponent bound - 1, whose coefficients mix
    negative values, values >= q and multiples of q."""
    exps = {0, bound - 1}
    while len(exps) < min(lookups, bound):
        exps.add(rnd.randrange(bound))
    coeffs = (lambda: rnd.randint(-q, q), lambda: rnd.randint(q, 2 ** 70),
              lambda: -rnd.randint(1, 2 ** 70), lambda: q * rnd.randint(-3, 3) or q)
    return canonicalize([(e, rnd.choice(coeffs)()) for e in exps], ZZ)


def _power(ring, table, e):
    """alpha^e, looked up in fixed_base_powers' table of alpha."""
    return ring_sum(ring, term_values(ring, [(e, 1)], table))


def _exponent_tally(field, alpha, P):
    """The multiplications of one table for P and of P's lookups and sum,
    counted from P's exponents (helpers.sum_charge)."""
    reset_mul_count()
    table = fixed_base_powers(field, alpha, P.degree + 1, P.sparsity)
    return mul_count() + sum_charge(table, [e for e, _ in P.terms])


class TestEvalInField:
    """eval_sparse of a Z polynomial in F_q, from its own terms."""

    @pytest.mark.parametrize("bound", [2, 2 ** 31, 2 ** 61], ids=["2", "2^31", "2^61"])
    @pytest.mark.parametrize("q, lookups", [(101, 1), (101, 50), (Q62, 1), (Q62, 50),
                                            (Q62, 40000)],
                             ids=["F_101-1", "F_101-50", "F_Q62-1", "F_Q62-50", "F_Q62-40000"])
    def test_equals_image_mod_q(self, bound, q, lookups):
        rnd = random.Random(bound + lookups + q)
        fq = prime_field(q)
        h = _z_poly(rnd, q, bound, lookups)
        alpha = rnd.randrange(1, q)
        image = canonicalize(h.terms, fq)
        # both routes: p = D + 1, where cyclic_reduce changes nothing, and a
        # cyclic prime below the degree
        for p in (bound, 65537, 3, 1):
            h_p = cyclic_reduce(h, p)
            want = sum(c * pow(alpha, e % p, q) for e, c in h.terms) % q
            tally = _exponent_tally(fq, alpha, h_p) if not h_p.is_zero else 0
            reset_mul_count()
            assert eval_sparse(h_p, alpha, fq) == want
            assert mul_count() == tally
            assert eval_sparse(cyclic_reduce(image, p), alpha) == want

    def test_zero_poly(self):
        reset_mul_count()
        assert eval_sparse(zero_poly(ZZ), 5, prime_field(7)) == 0
        assert mul_count() == 0

    def test_alpha_zero_and_one(self):
        # alpha^e is 1 or 0 whatever the windows: the charge still follows them
        rnd = random.Random(31)
        fq = prime_field(Q62)
        h = _z_poly(rnd, Q62, 2 ** 40, 300)
        for alpha, want in ((1, sum(c for _, c in h.terms) % Q62), (0, h.terms[0][1] % Q62)):
            reset_mul_count()
            assert eval_sparse(h, alpha, fq) == want
            assert mul_count() == _exponent_tally(fq, alpha, h)

    def test_field_must_hold_the_image(self):
        h = canonicalize([(3, -4), (0, 9)], ZZ)
        with pytest.raises(UnsupportedRingError):
            eval_sparse(h, 2)
        with pytest.raises(UnsupportedRingError):
            eval_sparse(h, 2, ZZ)
        # an int is a constant of F_q, but a packed element of F_{q^s}
        with pytest.raises(RingMismatchError):
            eval_sparse(h, 2, ext_field(3, 2))
        with pytest.raises(RingMismatchError):
            eval_sparse(canonicalize([(1, 1)], prime_field(5)), 2, prime_field(7))
        with pytest.raises(RingMismatchError):
            eval_sparse(canonicalize([(1, (1, 1))], F9), 2, ext_field(3, 4))

    def test_prime_field_into_its_extension(self):
        rnd = random.Random(32)
        f101, ext = prime_field(101), ext_field(101, 3)
        f = rand_sparse(rnd, f101, 40, 10 ** 6)
        alpha = ext.coerce([rnd.randrange(101) for _ in range(3)])
        want = ext.zero()
        for e, c in f.terms:
            want = ext.add(want, ext.mul(c, ext.pow(alpha, e)))
        assert eval_sparse(f, alpha, ext) == want


class TestFixedBasePowers:
    RINGS = (prime_field(101), prime_field(Q62), ext_field(Q62, 2), ext_field(3, 5))

    @staticmethod
    def _elem(rnd, ring):
        if ring.kind == "prime_field":
            return rnd.randrange(ring.q)
        return ring.coerce([rnd.randrange(ring.q) for _ in range(ring.s)])

    def test_matches_ring_pow(self):
        rnd = random.Random(25)
        for ring in self.RINGS:
            for bound in (1, 2, 3, 101, 2 ** 40 + 3):
                for lookups in (1, 10, 10 ** 4):
                    alpha = self._elem(rnd, ring)
                    table = fixed_base_powers(ring, alpha, bound, lookups)
                    exps = {0, bound // 2, bound - 1} | {rnd.randrange(bound) for _ in range(8)}
                    if bound > 1:
                        exps.add(1)
                    for e in sorted(exps):
                        assert _power(ring, table, e) == ring.pow(alpha, e), (ring, bound, lookups, e)

    def test_zero_base(self):
        for ring in self.RINGS:
            table = fixed_base_powers(ring, ring.zero(), 1000, 10)
            assert _power(ring, table, 0) == ring.one()
            assert all(_power(ring, table, e) == ring.zero() for e in (1, 2, 999))

    def test_lookup_charge_is_max_one_and_nonzero_windows(self):
        # the row-wise lookups over F_q charge in bulk, those over F_{q^s}
        # through ring.mul: both max(1, nonzero w-bit windows of e) per term
        rnd = random.Random(27)
        for ring in self.RINGS:
            for bound in (1, 2, 1000, 2 ** 40 + 3):
                # sorted and distinct, as a SparsePoly's exponents
                exps = sorted({0, bound - 1, *(rnd.randrange(bound) for _ in range(20))})
                terms = [(e, self._elem(rnd, ring) or 1) for e in exps]
                table = fixed_base_powers(ring, self._elem(rnd, ring), bound, len(terms))
                reset_mul_count()
                list(term_values(ring, terms, table))
                assert mul_count() == window_charge(table, exps), (ring, bound)

    # (bits of bound - 1, lookups) at which fixed_base_powers picks each
    # w = 1 .. 16 in turn: rows from 2 to 61, exactly 4 and 8 (whose last
    # row is a fourth one), bit lengths that are not multiples of w, and
    # w * rows above the digit width of bits alone (61 bits at w = 5, 11
    # and 13: 65, 66 and 65 bits against 64)
    WIDTHS = ((61, 1), (61, 2), (61, 10), (61, 20), (61, 100), (17, 100), (61, 300),
              (61, 1000), (61, 3000), (40, 3000), (61, 10000), (45, 30000), (61, 30000),
              (40, 100000), (45, 100000), (61, 300000))

    def test_packed_windows_at_every_width(self):
        # term_values over F_q against sum c * alpha^e mod q, term by term,
        # and its charge against max(1, nonzero windows) per term; the
        # exponents are sorted, as a SparsePoly's, and reach bound - 1
        # (2^61 - 1 at the top), and the coefficients are negative, >= q or
        # multiples of q
        rnd = random.Random(28)
        widths, edge = set(), False
        for i, (bits, lookups) in enumerate(self.WIDTHS):
            q = (101, Q62)[i % 2]
            fq = prime_field(q)
            for bound in (1 << bits, rnd.randrange((1 << bits - 1) + 1, 1 << bits)):
                alpha = rnd.randrange(1, q)
                table = fixed_base_powers(fq, alpha, bound, lookups)
                rows, w = table
                widths.add(w)
                edge |= w * len(rows) > 8 * _byte_width(bound - 1)
                exps = sorted({0, bound - 1, 1, *(rnd.randrange(bound) for _ in range(60))})
                coeffs = (lambda: rnd.randint(-2 ** 70, -1), lambda: rnd.randint(q, 2 ** 70),
                          lambda: q * rnd.randint(-3, 3), lambda: rnd.randrange(1, q))
                terms = [(e, rnd.choice(coeffs)()) for e in exps]
                reset_mul_count()
                values = list(term_values(fq, terms, table))
                assert mul_count() == window_charge(table, exps), (bits, lookups, bound)
                assert [v % q for v in values] == [c * pow(alpha, e, q) % q for e, c in terms]
                assert ring_sum(fq, values) == sum(c * pow(alpha, e, q) for e, c in terms) % q
        assert widths == set(range(1, 17)) and edge

    def test_worst_case_count(self):
        # (b - 1)(n + 1) for b-bit exponents and n lookups: the w = 1 table,
        # and never above square-and-multiply's 2(b - 1) per lookup
        rnd = random.Random(26)
        for ring in (prime_field(Q62), ext_field(Q62, 2)):
            for bound, lookups in ((2, 1), (1000, 1), (2 ** 40, 5), (2 ** 40, 3000)):
                bits = (bound - 1).bit_length()
                exps = [bound - 1] + [rnd.randrange(bound) for _ in range(lookups - 1)]
                alpha = self._elem(rnd, ring)
                reset_mul_count()
                table = fixed_base_powers(ring, alpha, bound, lookups)
                for e in exps:
                    _power(ring, table, e)
                # less the one coefficient product each lookup also takes
                assert mul_count() - lookups <= (bits - 1) * (lookups + 1)

    def test_one_and_two_terms_match_ring_mul(self):
        # c * alpha^e against ring.mul(c, ring.pow(alpha, e)), at n = 0,
        # at n = 1, where one lookup reads its entry alone, and at n = 2;
        # exponents with zero windows and e = 0 among them (over F_q the
        # values are congruent mod q)
        rnd = random.Random(29)
        for ring in self.RINGS:
            q = ring.q
            for bound in (2, 1000, 2 ** 40 + 3):
                alpha = self._elem(rnd, ring)
                table = fixed_base_powers(ring, alpha, bound, 2)
                for n in (0, 1, 2):
                    for _ in range(12):
                        terms = sorted((rnd.choice((0, 1, bound - 1, rnd.randrange(bound))),
                                        self._elem(rnd, ring) or 1) for _ in range(n))
                        want = [ring.mul(c, ring.pow(alpha, e)) for e, c in terms]
                        got = list(term_values(ring, terms, table))
                        if ring.kind == "prime_field":
                            got = [v % q for v in got]
                        assert got == want, (ring, bound, terms)


def _mul_power(ring, alpha, e):
    """alpha^e by square and multiply through ring.mul alone."""
    acc = ring.one()
    while e:
        if e & 1:
            acc = ring.mul(acc, alpha)
        alpha, e = ring.mul(alpha, alpha), e >> 1
    return acc


def _value_oracle(ring, terms, alpha):
    """sum c * alpha^e in ring: builtin pow over F_q, ring.mul over F_{q^s}."""
    if ring.kind == "prime_field":
        return sum(c * pow(alpha, e, ring.q) for e, c in terms) % ring.q
    return reduce(ring.add, (ring.mul(c, _mul_power(ring, alpha, e)) for e, c in terms), 0)


class TestRunSums:
    """term_sum by runs of the top digit, where _by_runs holds: values
    against sum c * alpha^e by builtin pow (powers by ring.mul over
    F_{q^s}), and charges against helpers.sum_charge, counted from the
    exponents."""

    F_Q62 = prime_field(Q62)
    F101_3 = ext_field(101, 3)

    @staticmethod
    def _terms(rnd, ring, exps):
        if ring.kind == "ext_field":
            return [(e, ring.coerce([rnd.randrange(ring.q) for _ in range(ring.s)]) or 1)
                    for e in exps]
        return [(e, rnd.randrange(1, ring.q)) for e in exps]

    def _check(self, ring, terms, alpha, table):
        """eval_sparse of terms with table passed: value and charge."""
        exps = [e for e, _ in terms]
        want = _value_oracle(ring, terms, alpha)
        reset_mul_count()
        assert eval_sparse(SparsePoly(ring, tuple(terms)), alpha, table=table) == want
        assert mul_count() == sum_charge(table, exps)

    @pytest.mark.parametrize("bits", [31, 61])
    @pytest.mark.parametrize("case", ["Z-in-F_Q62", "F_Q62", "F_101^3"])
    def test_at_least_5000_terms(self, case, bits):
        rnd = random.Random(bits + len(case))
        bound = 1 << bits
        if case == "Z-in-F_Q62":
            h, field = _z_poly(rnd, Q62, bound, 5000), self.F_Q62
        else:
            field = self.F_Q62 if case == "F_Q62" else self.F101_3
            exps = sorted({0, bound - 1, *(rnd.randrange(bound) for _ in range(4998))})
            h = SparsePoly(field, tuple(self._terms(rnd, field, exps)))
        assert h.sparsity >= 4990
        alpha = field.rand_elem(RandomSource(bits)) or 1
        tally = _exponent_tally(field, alpha, h)
        assert poly._by_runs(fixed_base_powers(field, alpha, bound, h.sparsity)[0], h.sparsity)
        want = _value_oracle(field, h.terms, alpha)
        reset_mul_count()
        assert eval_sparse(h, alpha, field) == want
        assert mul_count() == tally

    def test_edge_cases(self):
        # a 31-bit table whose top row has 128 entries: 4000 terms go by
        # runs, 100 term by term
        rnd, fq = random.Random(42), self.F_Q62
        for ring in (fq, self.F101_3):
            table = fixed_base_powers(ring, ring.rand_elem(RandomSource(1)) or 1, 2 ** 31, 5000)
            rows, w = table
            shift = w * (len(rows) - 1)
            assert len(rows[-1]) == 128 and shift == 24
            cases = {
                "e = 0 and the top exponent": {0, 2 ** 31 - 1},
                "one run": {(5 << shift) + rnd.randrange(1 << shift) for _ in range(4000)},
                "every top digit 0": {rnd.randrange(1 << shift) for _ in range(4000)},
                "low windows 0": {rnd.randrange(128) << shift for _ in range(4000)},
            }
            for name, exps in cases.items():
                for n in (4000, 100):
                    chosen = sorted(rnd.sample(sorted(exps), min(n, len(exps))))
                    terms = self._terms(rnd, ring, chosen)
                    by_runs = poly._by_runs(rows, len(terms))
                    assert by_runs == (len(terms) >= 16 * 128), name
                    for alpha in (0, 1, ring.rand_elem(RandomSource(n)) or 1):
                        table = fixed_base_powers(ring, alpha, 2 ** 31, 5000)
                        self._check(ring, terms, alpha, table)

    def test_empty_table_at_p_one(self):
        # bound 1: the table has no row, and every exponent is 0
        for ring in (self.F_Q62, self.F101_3):
            c1, c2 = (ring.rand_elem(RandomSource(k)) or 1 for k in (1, 2))
            table = fixed_base_powers(ring, 3, 1, 5)
            assert table[0] == []
            self._check(ring, [(0, c1)], 3, table)
            f, g = SparsePoly(ring, ((0, c1),)), SparsePoly(ring, ((0, c2),))
            want = ring.mul(c1, c2)
            reset_mul_count()
            assert eval_cyclic_product(f, g, 1, 3) == want
            # one lookup charge per e = 0 term and F(alpha) * G(alpha)
            assert mul_count() == 3
        reset_mul_count()
        assert eval_sparse(monomial(ZZ, 0, -7), 3, self.F_Q62) == Q62 - 7
        assert mul_count() == 1

    @pytest.mark.parametrize("spread", ["wraps", "no-wraps"])
    def test_cyclic_product_at_a_drawn_prime(self, spread):
        # 9000 x 9000 terms below a prime p drawn from [2^30, 2^31]; every
        # pair wraps past p or none does.  The oracle splits G at p - t for
        # each t: sum_t f_t a^t (P(p - t) + a^-p (G(a) - P(p - t))), with P
        # the prefix sums of g_j a^j
        fq, q = self.F_Q62, Q62
        p = random_prime(2 ** 30, RandomSource(7))
        rnd = random.Random(p)
        top = p if spread == "wraps" else p // 2
        f, g = (canonicalize(self._terms(rnd, fq, rnd.sample(range(top), 9000)), fq)
                for _ in "fg")
        alpha = rnd.randrange(2, q)
        g_exps = [j for j, _ in g.terms]
        prefix = [0]
        for j, c in g.terms:
            prefix.append((prefix[-1] + c * pow(alpha, j, q)) % q)
        inv = pow(alpha, -p, q)
        want = 0
        for t, c in f.terms:
            low = prefix[bisect_left(g_exps, p - t)]
            want += c * pow(alpha, t, q) * (low + inv * (prefix[-1] - low))
        want %= q
        reset_mul_count()
        table = fixed_base_powers(fq, alpha, p, 18000)
        tally = mul_count()
        wraps = sum(1 for j in g_exps if j >= p - f.degree)
        assert (wraps > 0) == (spread == "wraps")
        if wraps:
            tally += (window_charge(table, [e for e, _ in f.terms]) + window_charge(table, g_exps)
                      + 1 + wraps + _pow_cost(-p % (q - 1)) + 1)
        else:
            assert poly._by_runs(table[0], 9000)
            tally += sum_charge(table, [e for e, _ in f.terms]) + sum_charge(table, g_exps) + 1
        reset_mul_count()
        assert eval_cyclic_product(f, g, p, alpha) == want
        assert mul_count() == tally

    def test_table_must_reach_the_last_exponent(self):
        # the table of bound 1000 at w = 2 reaches 1023 (top row 0 .. 3 at
        # bit 8); past it a monomial used to take a wrong value or raise
        # OverflowError
        fq = prime_field(2 ** 61 - 1)
        table = fixed_base_powers(fq, 3, 1000, 4)
        one = monomial(fq, 0, 1)
        assert eval_sparse(monomial(fq, 1023, 1), 3, table=table) == pow(3, 1023, fq.q)
        for e in (1024, 5000, 2 ** 20 + 7):
            x_e = monomial(fq, e, 1)
            with pytest.raises(ValueError):
                eval_sparse(x_e, 3, table=table)
            for f, g in ((x_e, one), (one, x_e)):
                with pytest.raises(ValueError):
                    eval_cyclic_product(f, g, 2 ** 21, 3, table=table)

    @given(st.data())
    def test_random_sorted_terms(self, data):
        ring = data.draw(st.sampled_from([prime_field(101), self.F_Q62, F9]))
        bound = data.draw(st.one_of(st.integers(1, 64), st.integers(1, 2 ** 62)))
        lookups = data.draw(st.integers(1, 10 ** 5))
        high = data.draw(st.integers(0, bound - 1))
        # exponents near one value share their top digits in longer runs
        spread = data.draw(st.sampled_from([bound, 64]))
        exps = data.draw(st.sets(st.integers(max(0, high - spread), min(bound, high + spread) - 1),
                                 min_size=1, max_size=200))
        coeffs = data.draw(st.lists(ring_coeffs(ring), min_size=len(exps), max_size=len(exps)))
        terms = [(e, ring.coerce(c)) for e, c in zip(sorted(exps), coeffs) if ring.coerce(c)]
        if not terms:
            return
        alpha = ring.coerce(data.draw(ring_coeffs(ring)))
        self._check(ring, terms, alpha, fixed_base_powers(ring, alpha, bound, lookups))


class TestRingSum:
    """ring_sum over F_{q^s} folds the running total with each chunk of
    s(q-1) - 1 reduced values: every digit a fold takes is at most
    s(q-1)^2, the bound _fold's proof assumes, and the sum equals the one
    by ring.add at every count around a chunk's end, for the lane fold
    and the row fold (at s = 2 and above), with every digit at q - 1 as
    well as at random."""

    # (q, s, modulus), None for the canonical one
    FIELDS = ((3, 4, (1,) * 5), (2, 4, (1,) * 5), (101, 6, (1,) * 7), (3, 2, None),
              (5, 3, None), (2, 8, None))

    @pytest.mark.parametrize("q, s, modulus", FIELDS, ids=[
        "F81-cyclotomic", "F16-cyclotomic", "101^6-cyclotomic", "F9", "F125", "F256"])
    def test_matches_the_sum_by_ring_add(self, q, s, modulus):
        ring = (ext_field(q, s) if modulus is None
                else poly.RingSpec("ext_field", q=q, s=s, modulus=modulus))
        fold, folds = ring._fold, []

        def checked_fold(v):
            folds.append(max(_unpack(v, ring._width, 2 * s - 1)))
            return fold(v)

        object.__setattr__(ring, "_fold", checked_fold)
        rnd = random.Random(q + s)
        top = ring.coerce([q - 1] * s)
        step = s * (q - 1)
        for n in (0, 1, step - 1, step, step + 1, 10 * step):
            for values in ([top] * n, [ring.rand_elem(RandomSource(rnd.randrange(10 ** 6)))
                                       for _ in range(n)]):
                want = 0
                for v in values:
                    want = ring.add(want, v)
                folds.clear()
                assert ring_sum(ring, values) == want, n
                assert max(folds, default=0) <= step * (q - 1)
                assert ring_sum(ring, iter(values)) == want, n


class TestScaleNegate:
    def test_scale_zero(self):
        assert scale(F_EX, 0).is_zero

    def test_negate_involution(self):
        assert negate(negate(F_EX)) == F_EX

    def test_degree_sentinel(self):
        assert zero_poly(ZZ).degree == NEG_INF

    @pytest.mark.parametrize("ring", [ZZ, F7, F9], ids=["Z", "F_7", "F_9"])
    @given(data=st.data())
    def test_scale_keeps_order_and_sparsity(self, ring, data):
        f = canonicalize(_draw_terms(data, ring, 40), ring)
        c = ring.coerce(data.draw(ring_coeffs(ring)))
        g = scale(f, c)
        if c == ring.zero():
            assert g.is_zero
        else:
            assert [e for e, _ in g.terms] == [e for e, _ in f.terms]
            assert g.terms == tuple((e, ring.mul(a, c)) for e, a in f.terms)
            assert is_canonical(g.terms, ring)
