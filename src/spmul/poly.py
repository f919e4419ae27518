"""Sparse polynomials, their base arithmetic, and the dense cyclic kernel.

A :class:`SparsePoly` is a canonical list of (exponent, coefficient)
terms with strictly increasing exponents and no zero coefficients; the
zero polynomial is the empty list and its degree is the sentinel -inf.
Exponents are unbounded Python ints (multivariate Kronecker images reach
d^n).

:func:`dense_cyclic_mul` convolves two length-p lists of signed integers
modulo X^p - 1; callers over fields pass it integer images of their
coefficients (``RingSpec.lift``).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .errors import RingMismatchError, UnsupportedRingError
from .rings import RingSpec, _pack, _unpack, add_mul_count

NEG_INF = float("-inf")


@dataclass(frozen=True)
class SparsePoly:
    ring: RingSpec
    terms: tuple  # ((exponent, coefficient), ...), exponents strictly increasing

    @property
    def sparsity(self) -> int:
        return len(self.terms)

    @property
    def degree(self):
        """Largest exponent, or -inf for the zero polynomial."""
        return self.terms[-1][0] if self.terms else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def height(self) -> int:
        """Max absolute coefficient; integer polynomials only."""
        if self.ring.kind != "integers":
            raise UnsupportedRingError("height is defined over the integers")
        return max((abs(c) for _, c in self.terms), default=0)


def _same_ring(*polys) -> RingSpec:
    ring = polys[0].ring
    for f in polys[1:]:
        if f.ring != ring:
            raise RingMismatchError("operands live in different rings")
    return ring


def _merge(terms, ring: RingSpec) -> tuple:
    """Canonical form of a list of terms: sorted by exponent, equal
    exponents summed, zero sums dropped.  The sort is stable, and linear
    on a few sorted runs, such as add's two operands."""
    out = []
    e0, c0 = None, 0
    for e, c in sorted(terms, key=itemgetter(0)):
        if e == e0:
            c0 = ring.add(c0, c)
            continue
        if c0:
            out.append((e0, c0))
        e0, c0 = e, c
    if c0:
        out.append((e0, c0))
    return tuple(out)


def canonicalize(terms, ring: RingSpec) -> SparsePoly:
    """Sort by exponent, merge equal exponents, drop zero coefficients."""
    checked = []
    for e, c in terms:
        e = int(e)
        if e < 0:
            raise ValueError("exponents must be nonnegative")
        checked.append((e, ring.coerce(c)))
    return SparsePoly(ring, _merge(checked, ring))


def zero_poly(ring: RingSpec) -> SparsePoly:
    return SparsePoly(ring, ())


def add(F: SparsePoly, G: SparsePoly) -> SparsePoly:
    """F + G through _merge, O(#F + #G): the terms of F and of G are two
    sorted runs, which the sort merges in one pass.  A zero operand
    returns the other as it is, without the merge's pass over its terms
    (the first round of every interpolation adds its update to zero)."""
    ring = _same_ring(F, G)
    if F.is_zero or G.is_zero:
        return G if F.is_zero else F
    return SparsePoly(ring, _merge(F.terms + G.terms, ring))


def negate(F: SparsePoly) -> SparsePoly:
    ring = F.ring
    return SparsePoly(ring, tuple((e, ring.neg(c)) for e, c in F.terms))


def sub(F: SparsePoly, G: SparsePoly) -> SparsePoly:
    return add(F, negate(G))


def scale(F: SparsePoly, c) -> SparsePoly:
    """c * F for a ring element c, taken as it is: not coerced, which
    would read a packed F_{q^s} element as a constant."""
    ring = F.ring
    if not c:
        return zero_poly(ring)
    # over Z and over a field a product of nonzero elements is nonzero, so
    # the terms stay canonical
    return SparsePoly(ring, tuple((e, ring.mul(a, c)) for e, a in F.terms))


def naive_mul(F: SparsePoly, G: SparsePoly) -> SparsePoly:
    """Schoolbook product: all #F*#G term products, one ring mult each, merged.

    Exact; the correctness oracle for every other multiplication path, and
    the product whose terms sparsity_estimate counts on each draw.  Its
    merge stays inline rather than going through _merge: it is the
    benchmark's schoolbook baseline and the estimate's inner loop.
    """
    ring = _same_ring(F, G)
    acc: dict = {}
    for e1, c1 in F.terms:
        for e2, c2 in G.terms:
            e = e1 + e2
            c = ring.mul(c1, c2)
            if e in acc:
                acc[e] = ring.add(acc[e], c)
            else:
                acc[e] = c
    return SparsePoly(ring, tuple(sorted((e, c) for e, c in acc.items() if c)))


def height_bound(pairs) -> int:
    """Bound on the height of sum F_i*G_i over Z: sum min(#F_i, #G_i) *
    ||F_i|| * ||G_i||, since a coefficient of F*G sums at most min(#F, #G)
    term products, each at most ||F|| * ||G||."""
    return sum(min(F.sparsity, G.sparsity) * F.height() * G.height() for F, G in pairs)


def derivative(F: SparsePoly) -> SparsePoly:
    """Formal derivative; terms whose coefficient e*c vanishes are dropped."""
    ring = F.ring
    out = []
    for e, c in F.terms:
        if e >= 1:
            d = ring.smul(c, e)
            if d:
                out.append((e - 1, d))
    return SparsePoly(ring, tuple(out))


def cyclic_reduce(F: SparsePoly, p: int) -> SparsePoly:
    """Remainder modulo X^p - 1: exponents reduced mod p, terms merged.
    F itself when deg F < p, where nothing changes."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if F.is_zero or F.degree < p:
        return F
    return SparsePoly(F.ring, _merge([(e % p, c) for e, c in F.terms], F.ring))


def dense_cyclic_mul(a: list[int], b: list[int]) -> list[int]:
    """Cyclic convolution of two length-p lists of signed integers.

    The linear convolution is one big-integer product of the slot-packed
    vectors (Kronecker segmentation, packed by rings._pack), and slots >=
    p are folded back.  Each folded slot sums exactly p pair products, so
    slot width bits(p*Ma*Mb) + 2, in whole bytes, cannot overflow even
    after adding the nonnegativity offsets used for signed input.
    """
    if len(a) != len(b):
        raise ValueError("mismatched cyclic lengths")
    p = len(a)
    ma = max(map(abs, a), default=0)
    mb = max(map(abs, b), default=0)
    if ma == 0 or mb == 0:
        return [0] * p
    nb = ((p * ma * mb).bit_length() + 9) // 8
    slots = _unpack(_pack([v + ma for v in a], nb) * _pack([v + mb for v in b], nb), nb, 2 * p)
    corr = ma * sum(b) + mb * sum(a) + p * ma * mb
    out = [slots[k] + slots[k + p] - corr for k in range(p - 1)]
    out.append(slots[p - 1] - corr)
    return out


def fixed_base_powers(ring: RingSpec, alpha, bound: int, lookups: int):
    """Powers alpha^e for 0 <= e < bound from one windowed table.

    Fixed-base windowing (Brickell, Gordon, McCurley and Wilson,
    EUROCRYPT 1992): row i holds alpha^(d * 2^(w*i)) for every w-bit
    digit d, so alpha^e is the product of one entry per nonzero w-bit
    window of e.  With b the bit length of bound - 1 and n the expected
    number of lookups, w <= 16 minimises ceil(b/w) * (2^w - 1 + n), which
    bounds the table's multiplications (at most 2^w - 1 per row) plus the
    lookups' (one per further window).  The w = 1 table is plain
    square-and-multiply with its squarings shared, so n lookups never take
    more than (b - 1) * (n + 1) multiplications in all, and the table never
    holds more than b * (n + 1) entries.

    Returns (power, settle), with power(e) = alpha^e.  Table
    multiplications go through ring.mul.  Over F_q the lookups run on raw
    ints, saving a method call per multiplication, and tally their
    multiplications; settle() charges that tally to the global counter,
    and every caller calls it once its lookups are done.  Elsewhere the
    lookups go through ring.mul and settle() does nothing.
    """
    bits = (bound - 1).bit_length()
    w = min(range(1, 17), key=lambda v: -(-bits // v) * ((1 << v) - 1 + lookups))
    mask = (1 << w) - 1
    rows = []
    base = alpha
    for shift in range(0, bits, w):
        # the top row stops at the top digit of bound - 1
        row = [1, base]
        for _ in range(min(mask, (bound - 1) >> shift) - 1):
            row.append(ring.mul(row[-1], base))
        rows.append(row)
        if shift + w < bits:
            base = ring.mul(row[-1], base)  # alpha^(2^(shift + w))

    if ring.kind == "prime_field":
        q = ring.q
        done = 0

        def power(e):
            nonlocal done
            r = None
            for row in rows:
                d = e & mask
                if d:
                    if r is None:
                        r = row[d]
                    else:
                        r = r * row[d] % q
                        done += 1
                e >>= w
                if not e:
                    break
            return 1 if r is None else r

        def settle():
            nonlocal done
            add_mul_count(done)
            done = 0

        return power, settle

    mul = ring.mul

    def power(e):
        r = None
        for row in rows:
            d = e & mask
            if d:
                r = row[d] if r is None else mul(r, row[d])
            e >>= w
            if not e:
                break
        return 1 if r is None else r

    return power, lambda: None


def eval_terms(ring: RingSpec, terms, power):
    """sum c * power(e) over the (e, c) of terms; over F_q on raw ints,
    with the len(terms) coefficient products charged in bulk."""
    if ring.kind == "prime_field":
        add_mul_count(len(terms))
        return sum(c * power(e) for e, c in terms) % ring.q
    value = 0
    for e, c in terms:
        value = ring.add(value, ring.mul(c, power(e)))
    return value


def eval_sparse(F: SparsePoly, alpha):
    """Evaluate over a finite field, every alpha^e from one fixed-base
    table (fixed_base_powers) sized by deg F and #F.

    Evaluation over the integers is intentionally unsupported: values of
    size deg*log(alpha) defeat the point of sparse verification, which
    always routes through a prime field instead.
    """
    ring = F.ring
    if not ring.is_field:
        raise UnsupportedRingError("evaluation requires a finite field")
    if F.is_zero:
        return 0
    power, settle = fixed_base_powers(ring, alpha, F.degree + 1, F.sparsity)
    value = eval_terms(ring, F.terms, power)
    settle()
    return value
