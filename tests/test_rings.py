import random
from dataclasses import fields

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
        with pytest.raises(UnsupportedRingError):
            zz.residues(5)

    @pytest.mark.parametrize("kwargs, message", [
        ({"kind": "integers", "q": 5}, "integers ring takes no modulus"),
        ({"kind": "integers", "modulus": (1, 1)}, "integers ring takes no modulus"),
        ({"kind": "prime_field", "q": 91}, "prime field needs a prime q"),
        ({"kind": "prime_field", "q": 7, "s": 2}, "prime field has s = 1 and no modulus"),
        ({"kind": "prime_field", "q": 7, "modulus": (1, 1)},
         "prime field has s = 1 and no modulus"),
        ({"kind": "ext_field", "q": 9, "s": 2, "modulus": (2, 0, 1)},
         "extension field needs a prime q"),
        ({"kind": "ext_field", "q": 3, "s": 0, "modulus": (1,)}, "extension degree must be >= 1"),
        ({"kind": "ext_field", "q": 3, "s": 2, "modulus": (1, 0, 2)},
         "modulus must be monic of degree s"),
        ({"kind": "ext_field", "q": 3, "s": 2, "modulus": (1, 1)},
         "modulus must be monic of degree s"),
        ({"kind": "ext_field", "q": 3, "s": 2, "modulus": (3, 0, 1)},
         "modulus coefficients must lie in"),
        ({"kind": "ext_field", "q": 3, "s": 2, "modulus": (-1, 0, 1)},
         "modulus coefficients must lie in"),
        ({"kind": "rationals"}, "unknown ring kind 'rationals'"),
        # psi_12 = 399165290221 * 798330580441, a strong pseudoprime to the
        # first 12 prime bases
        ({"kind": "prime_field", "q": 318665857834031151167461}, "prime field needs a prime q"),
    ])
    def test_constructor_rejects(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            RingSpec(**kwargs)


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

    def test_bulk_conversions_are_identities(self):
        # a residue of F_q is its element; the integers have no residues
        f7 = prime_field(7)
        assert list(f7.elements([3, 0, 6])) == [3, 0, 6]
        assert list(f7.residue_run((3, 0, 6))) == [3, 0, 6]
        for convert in (integers().elements, integers().residue_run):
            with pytest.raises(UnsupportedRingError):
                convert([1])


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

    def test_s2_fold_matches_hand_reduction(self):
        # _fold's two-digit case against Y^2 = -m1*Y - m0 applied by hand
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


# the packed fields plus the two-digit fold at s = 2, at q = 3 and at a
# 62-bit q (canonical modulus Y^2 + 1 at both)
FOLD_KINDS = PACKED_KINDS + [(3, 2, "canonical"), (Q62, 2, "canonical")]


@pytest.fixture(scope="module", params=FOLD_KINDS, ids=_packed_id)
def packed_field(request):
    return _packed(*request.param)


def _elems(f, residue_tuples):
    return [f.coerce(t) for t in residue_tuples]


class TestDigitPacker:
    # widths 1, 2, 4 and 8 go through an array (a 1-byte unpack through the
    # bytes themselves), 3, 9 and 24 through each digit's bytes
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

    def test_repack_at_every_width(self):
        # the unpacked digits of one width, packed at another, as lift
        # repacks an element: every width reads them as ints, never as the
        # raw bytes of the array they come in
        rnd = random.Random(5)
        digits = [255, 0] + [rnd.randrange(256) for _ in range(9)]
        for width in self.WIDTHS:
            unpacked = _unpack(_pack(digits, width), width, len(digits))
            for other in self.WIDTHS:
                assert _pack(unpacked, other) == _pack(digits, other), (width, other)


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
        # the rows Y^s .. Y^(2s-2) the row fold reads; the lane fold and the
        # two-digit fold at s = 2 read none
        f = packed_field
        if f.s == 2 or f.modulus == (1,) * (f.s + 1):
            assert f._packed_rows == ()
            return
        assert len(f._packed_rows) == f.s - 1
        for d, row in enumerate(f._packed_rows, f.s):
            assert tuple(_unpack(row, f._width, f.s)) == ext_reduce_oracle([0] * d + [1], f)

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
        private = [f.name for f in fields(direct) if f.name.startswith("_")]
        assert "_packed_rows" in private
        assert not any(name in repr(direct) for name in private)


# every PACKED_KINDS case, plus degree 1 and the two-digit fold at degree 2
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

    @pytest.mark.parametrize("case", ARITH_CASES, ids=_packed_id)
    def test_bulk_conversions_match_coerce_and_residues(self, case):
        # elements and residue_run over a run of residue vectors, each
        # digit 0, q - 1 or a draw, are coerce and residues element-wise
        f = _packed(*case)
        q, s = f.q, f.s
        rnd = random.Random(q * 7 + s)
        vecs = [tuple(rnd.choice((0, q - 1, rnd.randrange(q))) for _ in range(s))
                for _ in range(20)]
        flat = [v for vec in vecs for v in vec]
        elems = f.elements(flat)
        assert list(elems) == [f.coerce(vec) for vec in vecs]
        assert list(f.residue_run(elems)) == flat
        assert list(f.elements([])) == [] and list(f.residue_run(())) == []

    def test_zero_and_one_are_the_ints(self):
        for ring in (integers(), prime_field(7), ext_field(3, 2), ext_field(Q62, 3),
                     _packed(3, 5, "cyclotomic")):
            assert ring.zero() == 0 and ring.one() == 1
        for f in (ext_field(3, 2), ext_field(Q62, 3)):
            assert f.residues(f.zero()) == (0,) * f.s
            assert f.residues(f.one()) == (1,) + (0,) * (f.s - 1)


class TestCyclicFold:
    """Modulo Phi_(s+1) = 1 + Y + ... + Y^s (s > 2), _fold's lane fold gives
    what the fold through the reduction table gives, for products and for
    dropped integer images."""

    @staticmethod
    def _row_fold_twin(ring):
        twin = RingSpec("ext_field", q=ring.q, s=ring.s, modulus=ring.modulus)
        object.__setattr__(twin, "_cyclic", False)
        rows = [ext_reduce_oracle([0] * d + [1], ring) for d in range(ring.s, 2 * ring.s - 1)]
        object.__setattr__(twin, "_packed_rows", tuple(_pack(row, twin._width) for row in rows))
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

    def test_lane_width_is_the_least_whole_bytes_the_fold_needs(self):
        # _fold's proof needs lanes of L >= a + k + 1 bits, a the bit length
        # of the lane bound 4s(q-1)^2 + q and k = a + bitlen(q); W is the
        # least whole number of bytes with 8W >= a + k + 1, whether or not
        # it is an array item size (F_(3^42): 3 bytes, F_(101^10): 6)
        widths = {}
        for q in (2, 3, 5, 101, Q62):
            for s in (3, 4, 6, 10, 12, 28, 42):
                ring = RingSpec("ext_field", q=q, s=s, modulus=(1,) * (s + 1))
                a = (4 * s * (q - 1) ** 2 + q).bit_length()
                k = a + q.bit_length()
                assert 8 * ring._width >= a + k + 1 > 8 * (ring._width - 1), (q, s)
                widths[q, s] = ring._width
        assert widths[3, 42] == 3 and widths[101, 10] == 6

    def test_only_all_ones_moduli_above_degree_2_fold_cyclically(self):
        assert not RingSpec("ext_field", q=3, s=2, modulus=(1, 1, 1))._cyclic
        assert RingSpec("ext_field", q=2, s=4, modulus=(1, 1, 1, 1, 1))._cyclic
        assert not ext_field(2, 4, (1, 1, 0, 0, 1))._cyclic
        assert not RingSpec("ext_field", q=3, s=4, modulus=(2, 1, 1, 1, 1))._cyclic


class TestLaneFold:
    """Modulo Phi_(s+1) (s > 2), _fold reduces every lane, one W-byte
    digit, at once: the reciprocal gives floor(d / q) for each lane value d
    below the documented bound 2^a, alone and packed with others, and lanes
    at their bounds reduce as the schoolbook reduction does."""

    LANE_DEGREES = (3, 4, 6, 12, 28, 42)

    @staticmethod
    def _lane_bound(f):
        """a with every lane of the cyclic fold below 2^a: a lane is at
        most 4s(q-1)^2 + q - 1 (_fold's docstring)."""
        return (4 * f.s * (f.q - 1) ** 2 + f.q).bit_length()

    @staticmethod
    def _check_quotients(f, lane_values):
        """The reciprocal's quotient of each lane value alone, and of s of
        them packed as one element's lanes, is floor(d / q)."""
        q, s, width = f.q, f.s, f._width
        *_, m, k, qmask = f._lanes
        lane = 8 * width
        mask = qmask & ((1 << lane) - 1)
        a = TestLaneFold._lane_bound(f)
        assert mask == (1 << a + 1) - 1 and lane - k >= a + 1
        assert all((d * m >> k) & mask == d // q for d in lane_values)
        for i in range(0, len(lane_values), s):
            chunk = list(lane_values[i:i + s])
            chunk += [0] * (s - len(chunk))
            v = _pack(chunk, width)
            assert (v * m >> k) & qmask == _pack([d // q for d in chunk], width)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_reciprocal_divides_every_lane_value(self, q):
        for s in self.LANE_DEGREES:
            f = _packed(q, s, "cyclotomic")
            self._check_quotients(f, range(1 << self._lane_bound(f)))

    @pytest.mark.parametrize("q", [101, Q62], ids=["101", "Q62"])
    def test_reciprocal_divides_boundary_and_random_lane_values(self, q):
        rnd = random.Random(q % 997)
        for s in self.LANE_DEGREES:
            f = _packed(q, s, "cyclotomic")
            top = 1 << self._lane_bound(f)
            last = top - 1 - top % q  # the largest d < 2^a with d = -1 mod q
            edges = [0, 1, q - 1, q, q + 1, 2 * q - 1, top - 1, top - 2, last, last - q,
                     last + 1, 4 * s * (q - 1) ** 2 + q - 1]
            self._check_quotients(f, edges + [rnd.randrange(top) for _ in range(10 ** 4)])

    @pytest.mark.parametrize("q", [2, 3, 5, 101, Q62], ids=["2", "3", "5", "101", "Q62"])
    def test_lanes_at_their_bounds_match_schoolbook(self, q):
        # digits at the module docstring's product bound s(q-1)^2: with
        # digit s zero every lane below s - 2 reaches its largest value,
        # 2s(q-1)^2 plus the pad, and with only digit s set every lane
        # reaches its smallest, the pad less s(q-1)^2
        for s in self.LANE_DEGREES:
            f = _packed(q, s, "cyclotomic")
            top = s * (q - 1) ** 2
            for digits in ([top] * s + [0] + [top] * (s - 2),
                           [0] * s + [top] + [0] * (s - 2),
                           [top] * (2 * s - 1)):
                got = f._fold(_pack(digits, f._width))
                assert f.residues(got) == ext_reduce_oracle(digits, f)
            # one product whose digits all reach their largest values
            p_top = f.coerce((q - 1,) * s)
            assert f.residues(f.mul(p_top, p_top)) == ext_mul_oracle((q - 1,) * s,
                                                                     (q - 1,) * s, f)


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
        # the packed product is one ring mult, and pow is charged its
        # square and multiply count, at s = 2 as at any other degree
        for f in (ext_field(3, 2), ext_field(Q62, 2), ext_field(3, 37, _moduli(3, 37)["dense"])):
            a = f.coerce([i % f.q + 1 for i in range(f.s)])
            reset_mul_count()
            f.mul(a, a)
            assert mul_count() == 1
            chain = f.one()
            for e in range(13):
                reset_mul_count()
                assert f.pow(a, e) == chain
                assert mul_count() == _pow_cost(e)
                chain = f.mul(chain, a)
            reset_mul_count()
            f.pow(a, 11)
            assert mul_count() == 5
            for e, want in ((f.size - 1, f.one()), (f.size, a)):
                reset_mul_count()
                assert f.pow(a, e) == want
                assert mul_count() == _pow_cost(e)

    def test_integers_count(self):
        zz = integers()
        reset_mul_count()
        zz.mul(6, 7)
        zz.smul(6, 7)
        assert mul_count() == 2
        for e, want in ((0, 1), (1, -3), (11, -177147), (64, 3 ** 64)):
            reset_mul_count()
            assert zz.pow(-3, e) == want
            assert mul_count() == _pow_cost(e)

    @pytest.mark.parametrize("ring", [integers(), prime_field(7), ext_field(3, 2)],
                             ids=["Z", "F_7", "F_9"])
    def test_negative_exponent_rejected(self, ring):
        reset_mul_count()
        with pytest.raises(ValueError, match="negative exponents"):
            ring.pow(ring.one(), -1)
        assert mul_count() == 0

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
