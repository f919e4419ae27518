"""Coefficient domains: the integers, prime fields F_q, and extensions F_{q^s}.

Elements are plain Python values so the hot paths stay cheap:

* integers           -- ``int``
* prime field        -- ``int`` in ``[0, q)``
* extension field    -- ``tuple`` of s ints in ``[0, q)``, little-endian
                        coordinates in the power basis

:class:`RingSpec` bundles the description with its arithmetic and with
integer images of its elements (``lift`` / ``drop``), through which one
packed integer convolution serves all three kinds of ring.  Every
coefficient multiplication routed through a ``RingSpec`` bumps a global
counter that benchmarks and operation-count tests read back;
``RingSpec.pow`` is charged its square-and-multiply cost, and raw-int
fast paths elsewhere (fixed-base power tables, residue accumulation)
charge the multiplications they actually do through ``add_mul_count``.
The counter is process-global and only meaningful for single-threaded
measurement; the other shared state in the library is the prime table in
``arith``, which grows to the largest instance seen.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import arith
from .errors import UnsupportedRingError

_mul_count = 0


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
    extension fields.
    """

    kind: str
    q: int | None = None
    s: int = 1
    modulus: tuple[int, ...] | None = None

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
            if not arith.is_irreducible(list(m), self.q):
                raise ValueError("modulus is reducible")
        else:
            raise ValueError(f"unknown ring kind {self.kind!r}")

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

    def zero(self):
        if self.kind == "ext_field":
            return (0,) * self.s
        return 0

    def one(self):
        if self.kind == "ext_field":
            return (1,) + (0,) * (self.s - 1)
        return 1

    def coerce(self, c):
        """Bring an int (or residue sequence, for extensions) into the ring."""
        if self.kind == "integers":
            return int(c)
        if self.kind == "prime_field":
            return int(c) % self.q
        if isinstance(c, int):
            return (c % self.q,) + (0,) * (self.s - 1)
        c = tuple(int(v) % self.q for v in c)
        if len(c) > self.s:
            raise ValueError("too many residues for extension element")
        return c + (0,) * (self.s - len(c))

    def is_zero_elem(self, a) -> bool:
        return a == self.zero()

    # -- arithmetic --------------------------------------------------

    def add(self, a, b):
        if self.kind == "integers":
            return a + b
        if self.kind == "prime_field":
            return (a + b) % self.q
        q = self.q
        return tuple((x + y) % q for x, y in zip(a, b))

    def sub(self, a, b):
        if self.kind == "integers":
            return a - b
        if self.kind == "prime_field":
            return (a - b) % self.q
        q = self.q
        return tuple((x - y) % q for x, y in zip(a, b))

    def neg(self, a):
        if self.kind == "integers":
            return -a
        if self.kind == "prime_field":
            return -a % self.q
        q = self.q
        return tuple(-x % q for x in a)

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
        kk = k % q
        return tuple(x * kk % q for x in a)

    def _ext_mul(self, a, b):
        q = self.q
        s = self.s
        if s == 2:  # the verifier's common case; worth unrolling
            a0, a1 = a
            b0, b1 = b
            t2 = a1 * b1
            m0, m1 = self.modulus[0], self.modulus[1]
            return ((a0 * b0 - t2 * m0) % q, (a0 * b1 + a1 * b0 - t2 * m1) % q)
        t = [0] * (2 * s - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    t[i + j] += ai * bj
        return self._reduce(t)

    def _reduce(self, t: list):
        """The element sum t_i * Y^i of F_{q^s}, for integers t_i (any sign)
        and len(t) <= 2s - 1; Y is the generator.  Consumes t."""
        q, s, m = self.q, self.s, self.modulus
        if len(t) < s:
            t.extend([0] * (s - len(t)))
        for i in range(len(t) - 1, s - 1, -1):
            c = t[i] % q
            if c:
                base = i - s
                for j in range(s):
                    if m[j]:
                        t[base + j] -= c * m[j]
        return tuple([v % q for v in t[:s]])

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
            return self.one()
        # left-to-right square and multiply so the counter matches the
        # canonical cost exactly
        result = a
        for bit in bin(e)[3:]:
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, a)
        return result

    def inv(self, a):
        if self.kind == "integers":
            raise UnsupportedRingError("no inverses over the integers")
        if self.is_zero_elem(a):
            raise ZeroDivisionError("inverse of zero")
        global _mul_count
        if self.kind == "prime_field":
            _mul_count += _pow_cost(self.q - 2)
            return pow(a, self.q - 2, self.q)
        g, u = arith._fq_gcdext(list(a), list(self.modulus), self.q)
        if len(g) != 1:
            raise ZeroDivisionError("element not invertible")
        _mul_count += 2 * self.s
        u = u[: self.s] + [0] * max(0, self.s - len(u))
        return tuple(v % self.q for v in u)

    # -- sampling and representation ---------------------------------

    def rand_elem(self, rng: arith.RandomSource):
        if self.kind == "integers":
            raise UnsupportedRingError("uniform sampling needs a finite ring")
        if self.kind == "prime_field":
            return rng.randrange(self.q)
        return tuple(rng.randrange(self.q) for _ in range(self.s))

    # -- integer images ----------------------------------------------
    # Z and F_q elements are their own integer images.  An F_{q^s} element
    # with residues r_i becomes sum r_i * B^i; a sum of products of images
    # is then the image of the same sum taken in Z[Y], as long as no base-B
    # digit leaves (-B/2, B/2).  lift_base sizes B for that.

    def lift_base(self, n: int) -> int | None:
        """Digit base B for images of which at most n products (minus one
        image) land in one slot; None where lift and drop are identities."""
        if self.kind != "ext_field":
            return None
        # each digit of such a sum lies within n*s*(q-1)^2 + q - 1 < B/2
        return 2 * max(n, 1) * self.s * self.q * self.q

    def lift(self, a, base: int | None) -> int:
        """Integer image of a ring element at digit base `base`."""
        if base is None:
            return a
        v = 0
        for r in reversed(a):
            v = v * base + r
        return v

    def drop(self, v: int, base: int | None):
        """Ring element of integer image v: v itself over Z, v mod q over
        F_q, and over F_{q^s} the balanced base-B digits of v reduced mod q
        and the modulus."""
        if base is None:
            return v % self.q if self.q else v
        half = base // 2
        digits = []
        while v:
            v, r = divmod(v + half, base)  # r - half is the balanced digit
            digits.append(r - half)
        # a slot overflowing into its neighbour would widen the digit string
        # past the 2s-1 coefficients a product in Y can have
        if len(digits) > 2 * self.s - 1:
            raise AssertionError("packed coefficient slot overflow")
        return self._reduce(digits)

    def residues(self, a) -> tuple[int, ...]:
        """Residue vector of a field element (length s; s = 1 for prime fields)."""
        if self.kind == "integers":
            raise UnsupportedRingError("integers have no residue vector")
        if self.kind == "prime_field":
            return (a,)
        return tuple(a)


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
    monic irreducible) defining polynomial is used.
    """
    if modulus is None:
        modulus = arith.canonical_irreducible(q, s)
    return RingSpec("ext_field", q=q, s=s, modulus=tuple(modulus))
