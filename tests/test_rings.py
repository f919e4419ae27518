import random

import pytest

from spmul import (RandomSource, RingSpec, UnsupportedRingError, ext_field,
                   integers, mul_count, prime_field, reset_mul_count)
from spmul.arith import canonical_irreducible, is_irreducible
from spmul.rings import _pack, _pow_cost, _unpack

from helpers import (Q62, ext_add_oracle, ext_inv_oracle, ext_mul_oracle, ext_neg_oracle,
                     ext_reduce_oracle, ext_smul_oracle, ext_sub_oracle)


class TestRingConstruction:
    def test_prime_field_rejects_composite(self):
        with pytest.raises(ValueError):
            prime_field(91)

    def test_ext_field_rejects_reducible_modulus(self):
        with pytest.raises(ValueError):
            ext_field(2, 2, (0, 0, 1))  # X^2 over F_2 factors

    def test_ext_field_default_modulus(self):
        f4 = ext_field(2, 2)
        assert f4.modulus == (1, 1, 1)
        assert f4.size == 4 and f4.char == 2

    def test_integers_properties(self):
        zz = integers()
        assert not zz.is_field and zz.char == 0 and zz.size is None


class TestPrimeFieldOps:
    def test_basic(self):
        f7 = prime_field(7)
        assert f7.add(5, 4) == 2
        assert f7.mul(3, 5) == 1
        assert f7.neg(3) == 4
        assert f7.pow(3, 6) == 1  # Fermat
        assert f7.mul(f7.inv(4), 4) == 1

    def test_coerce(self):
        f7 = prime_field(7)
        assert f7.coerce(-1) == 6
        assert f7.coerce(14) == 0


class TestExtFieldOps:
    def test_f4_multiplication_table(self):
        # F_4 = F_2[Y]/(Y^2+Y+1); w = Y satisfies w^2 = w + 1, w^3 = 1
        f4 = ext_field(2, 2)
        w = f4.coerce((0, 1))
        w2 = f4.mul(w, w)
        assert f4.residues(w2) == (1, 1)
        assert f4.mul(w, w2) == f4.one()
        assert f4.pow(w, 3) == f4.one()

    def test_f9_inverse_and_pow(self):
        f9 = ext_field(3, 2)
        rng = RandomSource(5)
        for _ in range(50):
            a = f9.rand_elem(rng)
            if a == f9.zero():
                continue
            assert f9.mul(a, f9.inv(a)) == f9.one()
            assert f9.pow(a, 8) == f9.one()  # multiplicative group order 8

    def test_deep_extension_frobenius(self):
        # x -> x^q is the identity on the prime subfield
        f = ext_field(3, 5)
        three = f.coerce(2)
        assert f.pow(three, 3 ** 5) == three

    def test_general_s_consistency_with_unrolled_s2(self):
        # same modulus through both code paths (s=2 is special-cased)
        f25 = ext_field(5, 2)
        rng = RandomSource(9)
        for _ in range(100):
            a, b = f25.rand_elem(rng), f25.rand_elem(rng)
            # reference: schoolbook conv then reduce by hand
            q, (m0, m1, _) = 5, f25.modulus
            (a0, a1), (b0, b1) = f25.residues(a), f25.residues(b)
            t0, t1, t2 = a0 * b0, a0 * b1 + a1 * b0, a1 * b1
            ref = ((t0 - t2 * m0) % q, (t1 - t2 * m1) % q)
            assert f25.residues(f25.mul(a, b)) == ref


# (q, s) for the packed product: the smallest fields, the verifier's
# F_{3^37} (F_9 at eps = 2^-20), and a 62-bit base field
PACKED_CASES = ((2, 3), (3, 5), (3, 37), (5, 26), (Q62, 3))


# one dense irreducible per PACKED_CASES entry, pinned: the canonical
# moduli are sparse, as binomials and trinomials lead their walk
DENSE_MODULI = {
    (2, 3): (1, 0, 1, 1),
    (3, 5): (2, 1, 0, 0, 1, 1),
    (3, 37): (2, 2, 0, 1, 0, 0, 2, 1, 2, 0, 1, 2, 1, 1, 1, 0, 0, 0, 2,
              2, 2, 0, 2, 1, 0, 0, 1, 2, 1, 0, 2, 2, 1, 2, 1, 1, 2, 1),
    (5, 26): (2, 3, 2, 1, 2, 0, 4, 2, 1, 2, 3, 4, 1, 0, 0, 3, 1, 1, 1,
              3, 2, 1, 3, 2, 4, 4, 1),
    (Q62, 3): (385543777417717424, 1565398786667536885, 1287426834058504817, 1),
}


def _moduli(q, s):
    """A dense modulus from DENSE_MODULI and a sparse one, the canonical
    modulus (the trinomial Y^3 + Y + 5 for Q62)."""
    return {"dense": DENSE_MODULI[q, s], "sparse": canonical_irreducible(q, s)}


def test_dense_moduli_are_irreducible_and_not_canonical():
    assert set(DENSE_MODULI) == set(PACKED_CASES)
    for (q, s), m in DENSE_MODULI.items():
        assert len(m) == s + 1 and m[-1] == 1 and is_irreducible(list(m), q)
        assert m != canonical_irreducible(q, s) and m != (1,) * (s + 1)


def _packed(q, s, kind):
    if kind == "cyclotomic":
        # 1 + Y + ... + Y^s, reduced by the cyclic fold; the quotient ring
        # need not be a field for its products to match the oracle's
        return RingSpec("ext_field", q=q, s=s, modulus=(1,) * (s + 1))
    if kind == "canonical":
        return ext_field(q, s)
    return ext_field(q, s, _moduli(q, s)[kind])


PACKED_KINDS = [(q, s, kind) for q, s in PACKED_CASES for kind in ("dense", "sparse", "cyclotomic")]


def _packed_id(case):
    q, s, kind = case
    return f"q{q if q < 100 else 'Q62'}-s{s}-{kind}"


@pytest.fixture(scope="module", params=PACKED_KINDS, ids=_packed_id)
def packed_field(request):
    return _packed(*request.param)


def _elems(f, residue_tuples):
    return [f.coerce(t) for t in residue_tuples]


class TestDigitPacker:
    # widths 1, 2, 4 and 8 go through struct, 3, 9 and 24 through bytes
    WIDTHS = (1, 2, 3, 4, 8, 9, 24)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_round_trip(self, width):
        rnd = random.Random(width)
        top = (1 << 8 * width) - 1
        for count in (1, 2, 7, 40):
            digits = [rnd.randrange(top + 1) for _ in range(count)]
            digits[0], digits[-1] = top, 0  # extremes, and a vanishing top digit
            v = _pack(digits, width)
            assert v == sum(d << 8 * width * i for i, d in enumerate(digits))
            assert list(_unpack(v, width, count)) == digits


class TestPackedExtMul:
    def test_random_products_match_schoolbook(self, packed_field):
        f, rnd = packed_field, random.Random(11)
        for _ in range(40):
            a = tuple(rnd.randrange(f.q) for _ in range(f.s))
            b = tuple(rnd.randrange(f.q) for _ in range(f.s))
            pa, pb = _elems(f, (a, b))
            assert f.residues(f.mul(pa, pb)) == ext_mul_oracle(a, b, f)
            assert f.residues(f.mul(pa, pa)) == ext_mul_oracle(a, a, f)

    def test_worst_case_operands(self, packed_field):
        # every residue q - 1: each product digit and each folded digit
        # reaches its largest value for this modulus
        f = packed_field
        top = (f.q - 1,) * f.s
        p_top = f.coerce(top)
        assert f.residues(f.mul(p_top, p_top)) == ext_mul_oracle(top, top, f)
        for k in range(f.s):
            e_k = tuple(int(i == k) for i in range(f.s))
            assert f.residues(f.mul(p_top, f.coerce(e_k))) == ext_mul_oracle(top, e_k, f)

    def test_drop_matches_schoolbook_reduction(self, packed_field):
        f, rnd = packed_field, random.Random(12)
        width = f.lift_width(4)
        top = (f.q - 1,) * f.s
        for _ in range(10):
            operands = [tuple(rnd.randrange(f.q) for _ in range(f.s)) for _ in range(8)]
            operands[:2] = [top, top]
            packed = _elems(f, operands)
            image = sum(f.lift(a, width) * f.lift(b, width)
                        for a, b in zip(packed[::2], packed[1::2]))
            image += f.lift(f.neg(packed[0]), width)
            want = [0] * (2 * f.s - 1)
            for a, b in zip(operands[::2], operands[1::2]):
                for i, ai in enumerate(a):
                    for j, bj in enumerate(b):
                        want[i + j] += ai * bj
            for i, ai in enumerate(operands[0]):
                want[i] -= ai
            assert f.residues(f.drop(image, width)) == ext_reduce_oracle(want, f)

    def test_drop_rejects_negative_and_overflowing_images(self, packed_field):
        f = packed_field
        width = f.lift_width(4)
        top = f.lift(f.coerce((f.q - 1,) * f.s), width)
        with pytest.raises(AssertionError, match="slot overflow"):
            f.drop(-top, width)
        # a carry out of digit 2s - 2 lands in digit 2s - 1
        edge = 1 << 8 * width * (2 * f.s - 1)
        assert f.residues(f.drop(edge - 1, width)) == ext_reduce_oracle(
            [(1 << 8 * width) - 1] * (2 * f.s - 1), f)
        with pytest.raises(AssertionError, match="slot overflow"):
            f.drop(edge, width)

    def test_reduction_rows_are_powers_of_the_generator(self, packed_field):
        f = packed_field
        assert len(f._yrows) == 2 * f.s - 1
        for d, row in enumerate(f._yrows):
            assert row == ext_reduce_oracle([0] * d + [1], f)

    def test_inv_and_pow_identities_at_s37(self):
        f = ext_field(3, 37, _moduli(3, 37)["dense"])
        rng = RandomSource(13)
        for _ in range(3):
            a = f.rand_elem(rng)
            if a == f.zero():
                continue
            assert f.mul(a, f.inv(a)) == f.one()
            assert f.pow(a, 3 ** 37) == a  # Frobenius to the full degree
            assert f.pow(a, 3 ** 37 - 1) == f.one()
            assert f.pow(a, 1000) == f.mul(f.pow(a, 777), f.pow(a, 223))

    def test_table_is_not_part_of_equality(self):
        # the verifier builds a field directly from a proved modulus; it must
        # equal (and hash as) the one ext_field builds
        m = _moduli(3, 37)["dense"]
        direct = RingSpec("ext_field", q=3, s=37, modulus=m)
        assert direct == ext_field(3, 37, m)
        assert hash(direct) == hash(ext_field(3, 37, m))
        assert "_yrows" not in repr(direct)


# every packed_field case, plus degree 1 and the unrolled degree 2
ARITH_CASES = PACKED_KINDS + [(Q62, 1, "canonical"), (3, 2, "canonical"), (Q62, 2, "canonical")]


class TestPackedArithmetic:
    """Every F_{q^s} operation on packed ints against the residue-tuple
    references of helpers, where each digit is at its largest and on
    seeded draws; add, sub and neg exercise the conditional subtract."""

    @staticmethod
    def _check(f, a, b, k):
        pa, pb = f.coerce(a), f.coerce(b)
        assert f.residues(f.add(pa, pb)) == ext_add_oracle(a, b, f)
        assert f.residues(f.sub(pa, pb)) == ext_sub_oracle(a, b, f)
        assert f.residues(f.sub(pb, pa)) == ext_sub_oracle(b, a, f)
        assert f.residues(f.neg(pa)) == ext_neg_oracle(a, f)
        assert f.residues(f.smul(pa, k)) == ext_smul_oracle(a, k, f)
        assert f.residues(f.mul(pa, pb)) == ext_mul_oracle(a, b, f)

    @staticmethod
    def _check_inv(f, a):
        want = ext_inv_oracle(a, f)
        if want is None:
            with pytest.raises(ZeroDivisionError):
                f.inv(f.coerce(a))
        else:
            assert f.residues(f.inv(f.coerce(a))) == want

    @pytest.mark.parametrize("case", ARITH_CASES, ids=_packed_id)
    def test_top_digits(self, case):
        f = _packed(*case)
        q, s = f.q, f.s
        top, zero = (q - 1,) * s, (0,) * s
        one = (1,) + (0,) * (s - 1)
        for a, b in ((top, top), (top, zero), (zero, top), (top, one), (zero, zero)):
            for k in (0, 1, q - 1, q + 2, -1):
                self._check(f, a, b, k)
        self._check_inv(f, top)

    @pytest.mark.parametrize("case", ARITH_CASES, ids=_packed_id)
    def test_seeded_draws(self, case):
        f = _packed(*case)
        q, s = f.q, f.s
        rnd = random.Random(q * 100 + s)
        draws = [tuple(rnd.choice((0, q - 1, rnd.randrange(q))) for _ in range(s))
                 for _ in range(24)]
        for a, b in zip(draws[::2], draws[1::2]):
            self._check(f, a, b, rnd.randrange(-q, 2 * q))
        for a in draws[:2]:
            if any(a):
                self._check_inv(f, a)

    @pytest.mark.parametrize("case", ARITH_CASES, ids=_packed_id)
    def test_coerce_round_trips(self, case):
        f = _packed(*case)
        q, s = f.q, f.s
        pad = (0,) * (s - 1)
        # an int is a constant of the prime subfield, reduced mod q
        assert f.residues(f.coerce(-1)) == (q - 1,) + pad
        assert f.residues(f.coerce(q + 2)) == (2 % q,) + pad
        seq = tuple(range(q - 1, q - 1 - s, -1)) if q > s else tuple(i % q for i in range(s))
        assert f.residues(f.coerce(seq)) == seq
        assert f.residues(f.coerce([v + q for v in seq])) == seq
        assert f.residues(f.coerce([-1])) == (q - 1,) + pad  # short: the rest is zero
        assert f.coerce(f.residues(f.coerce(seq))) == f.coerce(seq)
        with pytest.raises(ValueError, match="too many residues"):
            f.coerce([1] * (s + 1))

    def test_zero_and_one_are_the_ints(self):
        for ring in (integers(), prime_field(7), ext_field(3, 2), ext_field(Q62, 3),
                     _packed(3, 5, "cyclotomic")):
            assert ring.zero() == 0 and ring.one() == 1
        for f in (ext_field(3, 2), ext_field(Q62, 3)):
            assert f.residues(f.zero()) == (0,) * f.s
            assert f.residues(f.one()) == (1,) + (0,) * (f.s - 1)


class TestCyclicFold:
    """Modulo Phi_(s+1) = 1 + Y + ... + Y^s (s > 2), _fold's shift-add gives
    what the fold through the reduction table gives, for products and for
    dropped integer images."""

    @staticmethod
    def _row_fold_twin(ring):
        twin = RingSpec("ext_field", q=ring.q, s=ring.s, modulus=ring.modulus)
        object.__setattr__(twin, "_cyclic", False)
        object.__setattr__(twin, "_packed_rows",
                           tuple(_pack(row, twin._width) for row in twin._yrows[twin.s:]))
        return twin

    @pytest.mark.parametrize("q", [2, 3, 5, 101, Q62], ids=["2", "3", "5", "101", "Q62"])
    def test_mul_and_drop_match_the_row_fold(self, q):
        rnd = random.Random(q % 1000)
        for s in (3, 4, 6, 12, 28, 42):
            cyclic = RingSpec("ext_field", q=q, s=s, modulus=(1,) * (s + 1))
            rows = self._row_fold_twin(cyclic)
            assert cyclic._cyclic and not rows._cyclic
            width = cyclic.lift_width(6)
            for _ in range(10):
                xs = [tuple(rnd.randrange(q) for _ in range(s)) for _ in range(12)]
                xs[0] = xs[1] = (q - 1,) * s  # every digit at its largest
                # both rings pack at one width, so an element serves both
                assert cyclic._width == rows._width
                xs = _elems(cyclic, xs)
                for a, b in zip(xs[::2], xs[1::2]):
                    assert cyclic.mul(a, b) == rows.mul(a, b)
                image = sum(cyclic.lift(a, width) * cyclic.lift(b, width)
                            for a, b in zip(xs[::2], xs[1::2]))
                assert cyclic.drop(image, width) == rows.drop(image, width)

    def test_only_all_ones_moduli_above_degree_2_fold_cyclically(self):
        assert not RingSpec("ext_field", q=3, s=2, modulus=(1, 1, 1))._cyclic
        assert RingSpec("ext_field", q=2, s=4, modulus=(1, 1, 1, 1, 1))._cyclic
        assert not ext_field(2, 4, (1, 1, 0, 0, 1))._cyclic
        assert not RingSpec("ext_field", q=3, s=4, modulus=(2, 1, 1, 1, 1))._cyclic


class TestInverse:
    # one Fermat rule for every field: a^(|F| - 2), plus one checking
    # product over F_{q^s}
    @pytest.mark.parametrize("q, s", [(Q62, 2), (101, 3), (3, 37)],
                             ids=["Q62-s2", "q101-s3", "q3-s37"])
    def test_ext_inverse_and_count(self, q, s):
        f = ext_field(q, s, _moduli(q, s)["dense"] if s == 37 else None)
        rng = RandomSource(q + s)
        units = [a for a in (f.rand_elem(rng) for _ in range(6)) if a != f.zero()]
        units += [f.one(), f.coerce(q - 1), f.coerce([0] * (s - 1) + [1])]
        for a in units:
            assert f.mul(a, f.inv(a)) == f.one()
            reset_mul_count()
            f.inv(a)
            assert mul_count() == _pow_cost(q ** s - 2) + 1
        with pytest.raises(ZeroDivisionError):
            f.inv(f.zero())

    def test_prime_field_count_is_the_pow(self):
        for q in (2, 7, Q62):
            f = prime_field(q)
            reset_mul_count()
            r = f.inv(q - 1)
            assert mul_count() == _pow_cost(q - 2)
            assert f.mul(q - 1, r) == 1
        with pytest.raises(ZeroDivisionError):
            prime_field(7).inv(0)

    def test_zero_divisor_of_a_directly_built_reducible_modulus(self):
        # Y^2 - 1 = (Y - 1)(Y + 1) over F_5: the constructor does not prove
        # irreducibility, so inv must catch a zero divisor itself
        ring = RingSpec("ext_field", q=5, s=2, modulus=(4, 0, 1))
        for a in ((4, 1), (1, 1), (2, 3)):  # Y - 1, Y + 1, 3(Y - 1)
            with pytest.raises(ZeroDivisionError):
                ring.inv(ring.coerce(a))
        assert ring.residues(ring.inv(ring.coerce((0, 1)))) == (0, 1)  # Y * Y = 1 here
        with pytest.raises(UnsupportedRingError):
            integers().inv(1)


class TestMulCounter:
    def test_counts_mul_and_pow(self):
        f101 = prime_field(101)
        reset_mul_count()
        f101.mul(3, 5)
        assert mul_count() == 1
        reset_mul_count()
        f101.pow(3, 8)  # 1000b: 3 squarings, 0 extra mults
        assert mul_count() == 3
        reset_mul_count()
        f101.pow(3, 11)  # 1011b: 3 squarings + 2 mults
        assert mul_count() == 5
        reset_mul_count()
        f101.pow(3, 1)
        assert mul_count() == 0

    def test_ext_pow_count_matches_formula(self):
        f9 = ext_field(3, 2)
        reset_mul_count()
        f9.pow(f9.coerce((1, 1)), 11)
        assert mul_count() == 5
        # the packed product is still one ring mult, and pow its square
        # and multiply count
        f = ext_field(3, 37, _moduli(3, 37)["dense"])
        a = f.coerce([i % 3 for i in range(37)])
        reset_mul_count()
        f.mul(a, a)
        assert mul_count() == 1
        reset_mul_count()
        f.pow(a, 11)
        assert mul_count() == 5
        for e in (2, 3 ** 37 - 1, 3 ** 37):
            reset_mul_count()
            f.pow(a, e)
            assert mul_count() == _pow_cost(e)

    def test_integers_count(self):
        zz = integers()
        reset_mul_count()
        zz.mul(6, 7)
        zz.smul(6, 7)
        assert mul_count() == 2

    @pytest.mark.parametrize("f", [ext_field(3, 2), ext_field(3, 5), ext_field(Q62, 2)],
                             ids=["F_9", "F_243", "F_Q62^2"])
    def test_ext_smul_is_mul_by_constant_at_one_mult(self, f):
        # smul is a product by the constant k mod q of the prime subfield:
        # it equals mul by coerce(k), at one ring mult
        rnd = random.Random(f.s)
        q = f.q
        for _ in range(5):
            a = f.coerce([rnd.randrange(q) for _ in range(f.s)])
            for k in (0, 1, q - 1, q, -1, 2 * q + 3):
                want = f.mul(a, f.coerce(k))
                reset_mul_count()
                assert f.smul(a, k) == want
                assert mul_count() == 1


class TestSampling:
    def test_rand_elem_deterministic(self):
        f9 = ext_field(3, 2)
        a = [f9.rand_elem(RandomSource(3)) for _ in range(5)]
        b = [f9.rand_elem(RandomSource(3)) for _ in range(5)]
        assert a == b

    def test_integers_cannot_sample(self):
        with pytest.raises(UnsupportedRingError):
            integers().rand_elem(RandomSource(0))
