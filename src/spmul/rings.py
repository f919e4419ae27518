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
gives the sequence back.  Digits of a fixed byte width are packed and
unpacked by one pair of routines, ``_pack`` and ``_unpack``, which also
serve F_{q^s} integer images and ``poly.dense_cyclic_mul``.

An F_{q^s} product (s != 2; s = 2 is unrolled on the two digits, see
``_ext_mul``) is one integer product of the two elements, and ``_fold``
reduces the 2s - 1 digits of the result, the coefficients of Y^0 ..
Y^(2s-2).  Modulo the cyclotomic polynomial Phi_{s+1} = 1 + Y + ... + Y^s
(s > 2), the field the verifier builds wherever it can, Y^(s+1) = 1: one
shift-add folds the digits at s + 1 and above onto the low ones, and
digit s, standing for Y^s = -(1 + ... + Y^(s-1)), is subtracted from each
of the s below it as they are reduced mod q.  Any other modulus folds the
s - 1 high digits c_i (i = s .. 2s-2) back as sum c_i * ROW_i, where
ROW_i is Y^i mod the modulus packed the same way; the rows are built once
per field, and the s low digits are then reduced mod q once each.  No
digit may carry into its neighbour: a product digit is at most s(q-1)^2,
the cyclic shift-add at most doubles it, and the row fold adds at most
s-1 terms of s(q-1)^2 * (q-1), so every digit stays below
s(q-1)^2 * (1 + (s-1)(q-1)) < 2^(8W).  ``drop`` reduces the 2s - 1
digits of an integer image mod q, packs them at W bytes and folds them
the same way; its digits are residues in [0, q), so its sums meet the
same bound.

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
``RingSpec.pow`` is charged its square-and-multiply cost, and raw-int
fast paths elsewhere (fixed-base power tables, residue accumulation)
charge their multiplications through ``add_mul_count``; the row-wise
lookups of ``poly.eval_terms`` charge those of one lookup per term, so
a product by a table row's entry 1 (a zero digit) is not counted.
The counter is process-global and only meaningful for single-threaded
measurement; the other shared state in the library is the prime table in
``arith``, which grows to the largest instance seen.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from operator import mul as _int_mul

from . import arith
from .errors import UnsupportedRingError

_mul_count = 0

# struct format code per digit width in bytes; "<" formats are
# little-endian, as packed ints are
_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _byte_width(bound: int) -> int:
    """Bytes per digit for digits up to bound, rounded up to a struct item
    size where one fits."""
    width = -(-bound.bit_length() // 8)
    return next((w for w in (1, 2, 4, 8) if w >= width), width)


def _pack(digits, width: int) -> int:
    """Integer with the base-2^(8*width) digits `digits`, least significant
    first, each in [0, 2^(8*width))."""
    code = _STRUCT_CODES.get(width)
    if code is None:
        return int.from_bytes(b"".join(d.to_bytes(width, "little") for d in digits), "little")
    return int.from_bytes(struct.pack(f"<{len(digits)}{code}", *digits), "little")


def _unpack(v: int, width: int, count: int):
    """The count base-2^(8*width) digits of v, least significant first; v
    must lie in [0, 2^(8*width*count))."""
    data = v.to_bytes(count * width, "little")
    code = _STRUCT_CODES.get(width)
    if code is None:
        return [int.from_bytes(data[k:k + width], "little") for k in range(0, len(data), width)]
    return struct.unpack(f"<{count}{code}", data)


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
    # F_{q^s} reduction table: Y^d mod modulus for d = 0 .. 2s-2, and the
    # rows d = s .. 2s-2, the ones _fold uses, packed at digits of _width
    # bytes
    _yrows: tuple = field(default=(), init=False, repr=False, compare=False)
    _packed_rows: tuple = field(default=(), init=False, repr=False, compare=False)
    _width: int = field(default=0, init=False, repr=False, compare=False)
    # True for the modulus Phi_{s+1} = 1 + Y + ... + Y^s at s > 2, which
    # _fold reduces cyclically instead of through _packed_rows
    _cyclic: bool = field(default=False, init=False, repr=False, compare=False)
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
        rows = [tuple(int(i == d) for i in range(s)) for d in range(s)]
        top = tuple(-c % q for c in m[:s])  # Y^s
        for _ in range(s - 1):
            rows.append(top)
            c = top[-1]  # Y * top = c * Y^s + (top shifted up)
            top = tuple((lo + c * y) % q for lo, y in zip((0,) + top[:-1], rows[s]))
        # every digit packed or folded stays below this bound (module
        # docstring)
        width = _byte_width(s * (q - 1) ** 2 * (1 + (s - 1) * (q - 1)))
        half = 1 << 8 * width - 1
        object.__setattr__(self, "_width", width)
        object.__setattr__(self, "_yrows", tuple(rows))
        object.__setattr__(self, "_qs", _pack([q] * s, width))
        object.__setattr__(self, "_bias", _pack([half - q] * s, width))
        object.__setattr__(self, "_tops", _pack([half] * s, width))
        if s > 2 and all(c == 1 for c in m):
            object.__setattr__(self, "_cyclic", True)
        else:
            object.__setattr__(self, "_packed_rows", tuple(_pack(r, width) for r in rows[s:]))

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
        basis: s of them over F_{q^s}, one over F_q.  With coerce, the only
        conversion between elements and residue sequences."""
        if self.kind == "integers":
            raise UnsupportedRingError("integers have no residue vector")
        if self.kind == "prime_field":
            return (a,)
        return tuple(_unpack(a, self._width, self.s))

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
        return self._ext_mul(a, b)

    def smul(self, a, k: int):
        """Multiply a ring element by an integer scalar."""
        global _mul_count
        _mul_count += 1
        if self.kind == "integers":
            return a * k
        q = self.q
        if self.kind == "prime_field":
            return a * (k % q) % q
        # k mod q is an element too, the constant of the prime subfield
        return self._ext_mul(a, k % q)

    def _ext_mul(self, a, b):
        q = self.q
        # unrolled at s = 2 on the two digits: the generic fold there takes
        # 4-7x as long per product (at q = 3 and at a 62-bit q, CPython
        # 3.11), and would make a schoolbook product over F_9 that much slower
        if self.s == 2:
            base = 1 << 8 * self._width
            a1, a0 = divmod(a, base)
            b1, b0 = divmod(b, base)
            t2 = a1 * b1
            m0, m1 = self.modulus[0], self.modulus[1]
            return (a0 * b0 - t2 * m0) % q + (a0 * b1 + a1 * b0 - t2 * m1) % q * base
        return self._fold(a * b)

    def _fold(self, v: int) -> int:
        """The element of F_{q^s} whose image in Z[Y] has the W-byte
        digits of v as coefficients (at most 2s - 1 of them, within the
        bound of the module docstring).  Modulo Phi_{s+1} the digits at
        s + 1 and above fold onto the low ones in one shift-add (Y^(s+1)
        = 1), and digit s is subtracted from the s below it while they
        are reduced mod q (Y^s = -(1 + ... + Y^(s-1))).  Any other modulus
        folds the s - 1 high digits in through the reduction table and
        reduces the s low digits mod q."""
        q, s, width = self.q, self.s, self._width
        if self._cyclic:
            bits = 8 * width * (s + 1)
            digits = _unpack((v & ((1 << bits) - 1)) + (v >> bits), width, s + 1)
            top = digits[s]
            return _pack([(d - top) % q for d in digits[:s]], width)
        bits = 8 * width * s
        high = _unpack(v >> bits, width, s - 1)
        low = (v & ((1 << bits) - 1)) + sum(map(_int_mul, high, self._packed_rows))
        return _pack([d % q for d in _unpack(low, width, s)], width)

    def pow(self, a, e: int):
        if e < 0:
            raise ValueError("negative exponents unsupported; use inv")
        global _mul_count
        if self.kind == "integers":
            _mul_count += _pow_cost(e)
            return a ** e
        if self.kind == "prime_field":
            _mul_count += _pow_cost(e)
            return pow(a, e, self.q)
        if e == 0:
            return 1
        # left-to-right square and multiply so the counter matches the
        # canonical cost exactly
        result = a
        for bit in bin(e)[3:]:
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, a)
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
        at the field's own width and folded by _fold."""
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
