"""Coefficient domains: the integers, prime fields F_q, and extensions F_{q^s}.

Every element is an ``int``, so the hot paths stay cheap:

* integers           -- the integer itself
* prime field        -- its residue in ``[0, q)``
* extension field    -- its s residues in ``[0, q)``, the little-endian
                        coordinates in the power basis, packed as digits of
                        the field's width W bytes (``_width``)

So ``zero()`` is 0 and ``one()`` is 1 in every ring.  Residue tuples
exist only at the boundary: ``coerce`` builds an element from an int (a
constant of the prime subfield) or a residue sequence, and ``residues``
gives the sequence back; ``elements`` and ``residue_run`` do the same for
a whole flat run of residues, s to an element, in one pack and one
unpack.  Digits of a fixed byte width are packed and unpacked by one pair
of routines, ``_pack`` and ``_unpack``, which also serve F_{q^s} integer
images and ``poly.dense_cyclic_mul``: through one
``array`` at 1, 2, 4 and 8 bytes (byte-swapped on a big-endian host; a
1-byte unpack is the tuple of the int's bytes), with no format string
built per call, and through each digit's bytes at any other width, such
as a cyclotomic field's 3 or 6.

An F_{q^s} product is one integer product of the two elements, and
``_fold``, the one reduction of every F_{q^s} product, scalar product,
power and dropped image, reduces the 2s - 1 digits of the result, the
coefficients of Y^0 .. Y^(2s-2).  At s = 2 it takes the three digits
c0, c1, c2 off by shift and mask and applies Y^2 = -m1*Y - m0 to c2
directly, so no reduction row is built there: on CPython 3.11 (timeit,
best of 5) a product over F_9 takes 0.36 us and one over F_{Q^2}, Q a
62-bit prime, 0.97 us, and ``drop`` 1.8 and 3.6 us, half what the row
fold takes on the same images (3.6 and 7.0 us).

Modulo the cyclotomic polynomial Phi_{s+1} = 1 + Y + ... + Y^s
(s > 2), the field the verifier builds wherever it can, the lane fold
reduces all digits at once, each a lane of the whole int: Y^(s+1) = 1, so
one shift-add folds the digits at s + 1 and above onto the low ones;
digit s, standing for Y^s = -(1 + ... + Y^(s-1)), is subtracted from each
of the s below it after a multiple of q is added to keep them
nonnegative; and every lane d becomes d - floor(d * m / 2^k) * q through
one multiply, shift and mask by the reciprocal m = ceil(2^k / q)
(Granlund and Montgomery, PLDI 1994).  A lane then stays below 2^a,
a = bitlen(4s(q-1)^2 + q), with k = a + bitlen(q), and a cyclotomic
field's W is the least whole number of bytes with 8W >= a + k + 1, so
that d * m fits in its lane, whether or not W is an array item size
(F_{3^42} takes 3 bytes per lane, F_{101^10} 6); ``_fold`` gives the
proof, and such a W also meets the row fold's digit bound below.  Any
other modulus at s > 2
folds the s - 1 high digits c_i (i = s .. 2s-2) back as sum c_i * ROW_i,
where ROW_i is Y^i mod the modulus packed the same way, and the s low
digits are then reduced mod q once each; these s - 1 rows are built once
per field, and only for such a modulus (at s = 1 nothing folds).  No
digit may carry into its neighbour: a product digit is at most s(q-1)^2,
and the row fold adds at most s-1 terms of s(q-1)^2 * (q-1), so every
digit stays below s(q-1)^2 * (1 + (s-1)(q-1)) < 2^(8W).  ``drop``
reduces the 2s - 1 digits of an integer image mod q, packs them at W
bytes and folds them the same way; its digits are residues in [0, q), so
its sums meet the same bounds.

``add``, ``sub`` and ``neg`` work on the whole int: a + b, a + Q - b and
Q - a (Q holding q in every digit) have digits in [0, 2q - 1], and one
conditional subtract per digit brings each back to [0, q).  With
H = 2^(8W-1), adding H - q to every digit gives digits in [H - q,
H + q - 1], inside [0, 2H) as long as 2q - 1 < H, so none carries and a
digit's top bit is set exactly where it was at least q; q is subtracted
there.  The bound holds: 2^(8W) exceeds (q-1)^2 >= 4q - 2 for q >= 7,
and 2^(8W) >= 256 > 4q - 2 for q <= 5.

:class:`RingSpec` bundles the description with its arithmetic and with
integer images of its elements (``lift`` / ``drop``), through which one
packed integer convolution serves all three kinds of ring.  Every
coefficient multiplication routed through a ``RingSpec`` bumps a global
counter that benchmarks and operation-count tests read back;
``RingSpec.pow`` is charged its square-and-multiply cost, ``_pow_cost``,
once in every ring.  The raw-int paths, products of ints reduced mod q
or by ``_fold`` with no ``RingSpec.mul`` call, charge in bulk through
``add_mul_count``: residue accumulation, the rows of
``poly.fixed_base_powers``, one per entry as ``RingSpec.mul`` would, the
lookups of ``poly.term_values`` and ``poly.term_sum``, charged the
products by table entries actually taken (one per nonzero window read,
one for a first term with e = 0, and under ``term_sum``'s runs one per
run with a nonzero top digit in place of each term's top window), so a
product by a table row's entry 1 (a zero digit) is not counted, and the
verifier's images of a small F_{q^s}, s per term, and its wrapping
products, one each, as the ``RingSpec`` calls they replace were.
The counter is process-global and only meaningful for single-threaded
measurement.  The other shared state in the library is the prime sieve in
``arith``, which grows to the largest instance seen, and two caches in
``cli``: ``cli._field``, a ``functools.cache`` holding one ``RingSpec``
per distinct ``field q s`` header, which grows only with the distinct
headers a process reads, and ``cli._build_parser``, which holds one
argument parser.
"""

from __future__ import annotations

import copy
import sys
from array import array
from dataclasses import dataclass, field
from operator import mul as _int_mul

from . import arith
from .errors import UnsupportedRingError

_mul_count = 0

# array typecode per digit width in bytes, for the widths an array item
# has (1, 2, 4 and 8); packed ints are little-endian, so items are
# byte-swapped on a big-endian host
_ARRAY_CODES = {array(code).itemsize: code for code in "BHILQ"}
_BIG_ENDIAN = sys.byteorder == "big"


def _byte_width(bound: int) -> int:
    """Bytes per digit for digits up to bound, rounded up to an array item
    size where one fits."""
    width = -(-bound.bit_length() // 8)
    return next((w for w in (1, 2, 4, 8) if w >= width), width)


def _pack(digits, width: int) -> int:
    """Integer with the base-2^(8*width) digits `digits`, least significant
    first, each in [0, 2^(8*width)).  At an array item width the digits go
    through one array; at any other width each digit is converted to its
    bytes."""
    code = _ARRAY_CODES.get(width)
    if code is None:
        return int.from_bytes(b"".join(d.to_bytes(width, "little") for d in digits), "little")
    items = array(code, digits)
    if _BIG_ENDIAN:
        items.byteswap()
    return int.from_bytes(items, "little")


def _unpack(v: int, width: int, count: int):
    """The count base-2^(8*width) digits of v, least significant first, as
    a sequence of ints: a tuple of v's bytes at width 1, an array at the
    other array item widths, else a list; v must lie in
    [0, 2^(8*width*count))."""
    data = v.to_bytes(count * width, "little")
    if width == 1:
        return tuple(data)
    code = _ARRAY_CODES.get(width)
    if code is None:
        return [int.from_bytes(data[k:k + width], "little") for k in range(0, len(data), width)]
    items = array(code, data)
    if _BIG_ENDIAN:
        items.byteswap()
    return items


def reset_mul_count() -> None:
    global _mul_count
    _mul_count = 0


def mul_count() -> int:
    return _mul_count


def add_mul_count(n: int) -> None:
    global _mul_count
    _mul_count += n


def _pow_cost(e: int) -> int:
    # square-and-multiply multiplications for exponent e
    if e <= 1:
        return 0
    return (e.bit_length() - 1) + (bin(e).count("1") - 1)


@dataclass(frozen=True)
class RingSpec:
    """Descriptor of a coefficient domain plus its arithmetic.

    kind is one of "integers", "prime_field", "ext_field"; q and s are the
    prime modulus and extension degree where applicable; modulus is the
    monic degree-s defining polynomial (little-endian tuple) for
    extension fields.  Its irreducibility is taken as given here: build
    extension fields through ext_field, which proves it.
    """

    kind: str
    q: int | None = None
    s: int = 1
    modulus: tuple[int, ...] | None = None
    # the rows Y^d mod modulus for d = s .. 2s-2 that _fold's row path
    # reads, packed at digits of _width bytes; none at s <= 2, and none
    # modulo Phi_{s+1}, s > 2
    _packed_rows: tuple = field(default=(), init=False, repr=False, compare=False)
    _width: int = field(default=0, init=False, repr=False, compare=False)
    # True for the modulus Phi_{s+1} = 1 + Y + ... + Y^s at s > 2, which
    # _fold reduces lane by lane instead of through _packed_rows
    _cyclic: bool = field(default=False, init=False, repr=False, compare=False)
    # the lane fold's constants, built once per cyclotomic field (_fold):
    # the bit offsets L(s+1) and Ls of lanes s + 1 and s with masks of the
    # lanes below each, a 1 in each of the s low lanes, the pad, the
    # reciprocal m = ceil(2^k / q), its shift k, and the quotient mask,
    # a + 1 ones per lane
    _lanes: tuple = field(default=(), init=False, repr=False, compare=False)
    # the conditional subtract's constants, one per digit of an element: q,
    # 2^(8W-1) - q, and the top bit 2^(8W-1) (module docstring)
    _qs: int = field(default=0, init=False, repr=False, compare=False)
    _bias: int = field(default=0, init=False, repr=False, compare=False)
    _tops: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "integers":
            if self.q is not None or self.modulus is not None:
                raise ValueError("integers ring takes no modulus")
        elif self.kind == "prime_field":
            if self.q is None or not arith.is_prime(self.q):
                raise ValueError("prime field needs a prime q")
            if self.s != 1 or self.modulus is not None:
                raise ValueError("prime field has s = 1 and no modulus")
        elif self.kind == "ext_field":
            if self.q is None or not arith.is_prime(self.q):
                raise ValueError("extension field needs a prime q")
            if self.s < 1:
                raise ValueError("extension degree must be >= 1")
            m = self.modulus
            if m is None or len(m) != self.s + 1 or m[-1] != 1:
                raise ValueError("modulus must be monic of degree s")
            if any(not 0 <= c < self.q for c in m):
                raise ValueError("modulus coefficients must lie in [0, q)")
            self._build_table()
        else:
            raise ValueError(f"unknown ring kind {self.kind!r}")

    def _build_table(self) -> None:
        q, s, m = self.q, self.s, self.modulus
        cyclic = s > 2 and all(c == 1 for c in m)
        if cyclic:
            # a lane of the lane fold stays below 2^a and its product with
            # the reciprocal below 2^(a + k), so a lane of L >= a + k + 1
            # bits holds it (_fold): W is the least whole number of bytes
            # with 8W >= a + k + 1
            a = (4 * s * (q - 1) ** 2 + q).bit_length()
            k = a + q.bit_length()
            width = -(-(a + k + 1) // 8)
        else:
            # every digit packed or folded stays below this bound (module
            # docstring)
            width = _byte_width(s * (q - 1) ** 2 * (1 + (s - 1) * (q - 1)))
        # a 1 in each of the s digits; c * ones holds c in each
        ones = _pack([1] * s, width)
        if cyclic:
            hi, lo = 8 * width * (s + 1), 8 * width * s
            object.__setattr__(self, "_cyclic", True)
            object.__setattr__(self, "_lanes", (
                hi, (1 << hi) - 1, lo, (1 << lo) - 1, ones,
                q * -(-2 * s * (q - 1) ** 2 // q) * ones,
                -(-(1 << k) // q), k, ((1 << a + 1) - 1) * ones))
        elif s > 2:
            rows = []
            y_s = top = [-c % q for c in m[:s]]
            for _ in range(s - 1):
                rows.append(_pack(top, width))
                c = top[-1]  # Y * top = c * Y^s + (top shifted up)
                top = [(lo + c * y) % q for lo, y in zip([0] + top[:-1], y_s)]
            object.__setattr__(self, "_packed_rows", tuple(rows))
        half = 1 << 8 * width - 1
        object.__setattr__(self, "_width", width)
        object.__setattr__(self, "_qs", q * ones)
        object.__setattr__(self, "_bias", (half - q) * ones)
        object.__setattr__(self, "_tops", half * ones)

    # -- structure ---------------------------------------------------

    @property
    def is_field(self) -> bool:
        return self.kind != "integers"

    @property
    def char(self) -> int:
        """Characteristic: 0 for the integers, q for fields."""
        return 0 if self.kind == "integers" else self.q

    @property
    def size(self) -> int | None:
        """Cardinality, or None for the integers."""
        if self.kind == "integers":
            return None
        return self.q ** self.s

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def coerce(self, c) -> int:
        """The ring element of an int or, over F_{q^s}, of a sequence of at
        most s residues (little-endian, any ints, missing ones zero).  An
        int always means the constant c mod q of the prime subfield, never
        a packed F_{q^s} element: an element passed back through coerce is
        misread, so library code never coerces what is already an element."""
        if self.kind == "integers":
            return int(c)
        if self.kind == "prime_field" or isinstance(c, int):
            return int(c) % self.q
        c = [int(v) % self.q for v in c]
        if len(c) > self.s:
            raise ValueError("too many residues for extension element")
        return _pack(c, self._width)

    def residues(self, a) -> tuple[int, ...]:
        """The residues of a field element, little-endian in the power
        basis: s of them over F_{q^s}, one over F_q.  With coerce, and
        their bulk forms elements and residue_run, the only conversion
        between elements and residue sequences."""
        if self.kind == "integers":
            raise UnsupportedRingError("integers have no residue vector")
        if self.kind == "prime_field":
            return (a,)
        return tuple(_unpack(a, self._width, self.s))

    def elements(self, residues):
        """The field elements whose residues, s to an element, run in turn
        through the flat sequence `residues`, each in [0, q): coerce of
        every run of s at once, as one pack and one unpack over F_{q^s}."""
        if self.kind == "integers":
            raise UnsupportedRingError("integers have no residue vector")
        if self.kind == "prime_field":
            return residues
        width = self._width
        return _unpack(_pack(residues, width), self.s * width, len(residues) // self.s)

    def residue_run(self, elements):
        """The residues of each field element in turn, s to an element,
        as one flat sequence: the inverse of ``elements``."""
        if self.kind == "integers":
            raise UnsupportedRingError("integers have no residue vector")
        if self.kind == "prime_field":
            return elements
        width = self._width
        return _unpack(_pack(elements, self.s * width), width, self.s * len(elements))

    # -- arithmetic --------------------------------------------------

    def add(self, a, b):
        if self.kind == "integers":
            return a + b
        if self.kind == "prime_field":
            return (a + b) % self.q
        return self._cond_sub(a + b)

    def sub(self, a, b):
        if self.kind == "integers":
            return a - b
        if self.kind == "prime_field":
            return (a - b) % self.q
        return self._cond_sub(a + self._qs - b)

    def neg(self, a):
        if self.kind == "integers":
            return -a
        if self.kind == "prime_field":
            return -a % self.q
        return self._cond_sub(self._qs - a)

    def _cond_sub(self, v: int) -> int:
        """v with q subtracted from each of its s digits that is at least
        q; every digit must lie in [0, 2q - 1] (module docstring)."""
        return v - (((v + self._bias) & self._tops) >> 8 * self._width - 1) * self.q

    def mul(self, a, b):
        global _mul_count
        _mul_count += 1
        if self.kind == "integers":
            return a * b
        if self.kind == "prime_field":
            return a * b % self.q
        return self._fold(a * b)

    def smul(self, a, k: int):
        """Multiply a ring element by an integer scalar: a product by the
        element k (over a field k mod q, the constant of the prime
        subfield), charged as one."""
        return self.mul(a, k if self.q is None else k % self.q)

    def _fold(self, v: int) -> int:
        """The element of F_{q^s} whose image in Z[Y] has the W-byte
        digits of v as coefficients (at most 2s - 1 of them, each at most
        s(q-1)^2, the bound of the module docstring): the one reduction of
        every F_{q^s} product, power and dropped image, and of the raw-int
        products and sums of poly's table, lookups and ring_sum and of the
        verifier's images.  At s = 2 the digits
        c0, c1, c2 come off v by shift and mask, and Y^2 = -m1*Y - m0
        gives ((c0 - c2*m0) mod q) + ((c1 - c2*m1) mod q) * 2^(8W), with
        m0 and m1 from the modulus; each digit is below 2^(8W), so the
        masks read it exactly.  On CPython 3.11 that is 0.36 us per F_9
        product and 0.97 us over F_{Q62^2}, and half the row fold's time
        per dropped image (1.8 against 3.6 us, 3.6 against 7.0 us).  Any
        other modulus but Phi_{s+1} folds the s - 1 high digits in through
        the reduction table and reduces the s low digits mod q.

        Modulo Phi_{s+1}, every step acts on the whole int, each of its
        L = 8W-bit digits a lane: the lanes at s + 1 and above fold onto
        the low ones (Y^(s+1) = 1); lane s, standing for
        Y^s = -(1 + ... + Y^(s-1)), is subtracted from each of the s below
        it after a pad P, a multiple of q, is added to every lane; and
        each lane d becomes d - floor(d * m / 2^k) * q with the reciprocal
        m = ceil(2^k / q).  With a = bitlen(4s(q-1)^2 + q) and
        k = a + bitlen(q) (_build_table), that is d mod q in every lane:

        * every lane stays below 2^a: v's digits are at most s(q-1)^2 by
          the module docstring's bound, so at most 2s(q-1)^2 once folded,
          and P = q * ceil(2s(q-1)^2 / q) lies in [2s(q-1)^2,
          2s(q-1)^2 + q), so a padded lane less lane s lies in
          [0, 4s(q-1)^2 + q);
        * q >= 2^(bitlen(q) - 1) gives m <= 2^(a+1), so
          d * m < 2^(2a+1) < 2^(a+k) < 2^L, the last as W is the least
          whole number of bytes with L = 8W >= a + k + 1, and no lane's
          product carries into the next;
        * after the shift by k, the low bits of the next lane's product
          land at bit L - k >= a + 1 or higher, where the quotient mask,
          a + 1 ones per lane, clears them;
        * m * q - 2^k < q and d < 2^a = 2^(k - bitlen(q)), so
          d * (m * q - 2^k) < 2^k and floor(d * m / 2^k) = floor(d / q)
          (Granlund-Montgomery, PLDI 1994);
        * each quotient times q is at most its lane, so the subtraction
          borrows across no lane either.
        """
        q, s = self.q, self.s
        if s == 2:
            bits = 8 * self._width
            mask = (1 << bits) - 1
            c2, m = v >> 2 * bits, self.modulus
            return ((v & mask) - c2 * m[0]) % q + (((v >> bits & mask) - c2 * m[1]) % q << bits)
        if self._cyclic:
            hi, hi_mask, lo, lo_mask, ones, pad, m, k, qmask = self._lanes
            v = (v & hi_mask) + (v >> hi)
            v = (v & lo_mask) + pad - (v >> lo) * ones
            return v - ((v * m >> k) & qmask) * q
        width = self._width
        bits = 8 * width * s
        high = _unpack(v >> bits, width, s - 1)
        low = (v & ((1 << bits) - 1)) + sum(map(_int_mul, high, self._packed_rows))
        return _pack([d % q for d in _unpack(low, width, s)], width)

    def pow(self, a, e: int):
        """a^e by left-to-right square and multiply, charged _pow_cost(e)
        in every ring; over F_{q^s} each step is one int product reduced
        by _fold."""
        if e < 0:
            raise ValueError("negative exponents unsupported; use inv")
        global _mul_count
        _mul_count += _pow_cost(e)
        if self.kind == "integers":
            return a ** e
        if self.kind == "prime_field":
            return pow(a, e, self.q)
        if e == 0:
            return 1
        result = a
        for bit in bin(e)[3:]:
            result = self._fold(result * result)
            if bit == "1":
                result = self._fold(result * a)
        return result

    def inv(self, a):
        """Inverse by Fermat's rule, a^(|F| - 2) through pow, and charged as
        that pow: _pow_cost(q - 2) over F_q, _pow_cost(q^s - 2) + 1 over
        F_{q^s}, whose extra product checks a * a^-1 = 1.  The check fails
        only for a zero divisor of a ring built directly on a reducible
        modulus, and raises ZeroDivisionError there as for zero itself."""
        if self.kind == "integers":
            raise UnsupportedRingError("no inverses over the integers")
        if not a:
            raise ZeroDivisionError("inverse of zero")
        r = self.pow(a, self.size - 2)
        if self.modulus is not None and self.mul(a, r) != 1:
            raise ZeroDivisionError("element not invertible")
        return r

    # -- sampling ----------------------------------------------------

    def rand_elem(self, rng: arith.RandomSource):
        if self.kind == "integers":
            raise UnsupportedRingError("uniform sampling needs a finite ring")
        if self.kind == "prime_field":
            return rng.randrange(self.q)
        return _pack([rng.randrange(self.q) for _ in range(self.s)], self._width)

    # -- integer images ----------------------------------------------
    # Z and F_q elements are their own integer images.  An F_{q^s} element
    # with residues r_i becomes sum r_i * 2^(8*w*i): its residues repacked
    # as digits of w bytes.  A sum of products of images is then the image
    # of the same sum taken in Z[Y], as long as no digit reaches 2^(8*w).
    # lift_width sizes w for that.

    def lift_width(self, n: int) -> int | None:
        """Digit width in bytes for images of which at most n products
        plus one image land in one slot; None where lift and drop are
        identities."""
        if self.kind != "ext_field":
            return None
        # each digit of such a sum is at most n*s*(q-1)^2 + q - 1
        return _byte_width(max(n, 1) * self.s * (self.q - 1) ** 2 + self.q - 1)

    def lift(self, a, width: int | None) -> int:
        """Integer image of a ring element at digits of `width` bytes."""
        return a if width is None else _pack(_unpack(a, self._width, self.s), width)

    def drop(self, v: int, width: int | None):
        """Ring element of integer image v: v itself over Z, v mod q over
        F_q, and over F_{q^s} the 2s - 1 digits of v reduced mod q, packed
        at the field's own width and folded by _fold, the reduction
        products take too (at s = 2 the two-digit case: 1.8 us over F_9
        and 3.6 us over F_{Q62^2} on CPython 3.11, half the row fold's)."""
        if width is None:
            return v % self.q if self.q else v
        count = 2 * self.s - 1
        # a negative image, or a slot overflowing into its neighbour, would
        # leave the 2s - 1 coefficients a product in Y can have
        if not 0 <= v < 1 << 8 * width * count:
            raise AssertionError("packed coefficient slot overflow")
        q = self.q
        return self._fold(_pack([d % q for d in _unpack(v, width, count)], self._width))


_ZZ = RingSpec("integers")


def integers() -> RingSpec:
    """The ring of integers."""
    return _ZZ


def prime_field(q: int) -> RingSpec:
    """The prime field F_q."""
    return RingSpec("prime_field", q=q)


_F2 = prime_field(2)


def _proven_prime_field(q: int) -> RingSpec:
    """F_q for a q that arith.is_prime has already certified, such as
    random_prime's: prime_field(q) without RingSpec's second test.  It is
    F_2 with q replaced, as a prime field keeps no state but q."""
    ring = copy.copy(_F2)
    object.__setattr__(ring, "q", q)
    return ring


def ext_field(q: int, s: int, modulus: tuple[int, ...] | None = None) -> RingSpec:
    """The extension field F_{q^s}.

    With no modulus given, the canonical (lexicographically smallest
    monic irreducible) defining polynomial is used; a given modulus is
    tested for irreducibility.
    """
    if modulus is None:
        return RingSpec("ext_field", q=q, s=s, modulus=arith.canonical_irreducible(q, s))
    ring = RingSpec("ext_field", q=q, s=s, modulus=tuple(modulus))
    if not arith.is_irreducible(list(ring.modulus), q):
        raise ValueError("modulus is reducible")
    return ring
