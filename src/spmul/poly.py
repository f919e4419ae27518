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

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import itemgetter, mul as _int_mul

from .errors import RingMismatchError, UnsupportedRingError
from .rings import RingSpec, _byte_width, _pack, _unpack, add_mul_count

NEG_INF = float("-inf")

# term_sum sums by runs of the top digit when the top table row has at
# most 1/_RUN_SHARE as many entries as there are terms: over F_(2^61-1),
# with 31- and 61-bit exponents, the runs took 5-15% longer than per-term
# lookups at 8 terms per top entry and 1-3% less at 16 (CPython 3.11,
# x86-64)
_RUN_SHARE = 16


@dataclass(frozen=True)
class SparsePoly:
    """A polynomial over ring as its canonical terms.  The height is
    remembered per object, one pass over the terms on the first call to
    height(): a SparsePoly does not change, and the memo is the object's
    own, not process state, so equality and hashing see only ring and
    terms."""

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
        return self._height

    @cached_property
    def _height(self) -> int:
        return max(map(abs, map(itemgetter(1), self.terms)), default=0)


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
    """Formal derivative; terms whose coefficient e*c vanishes are dropped.

    The charge is one ring mult per term with e >= 1, the product e*c,
    also where e*c vanishes mod q and the term is dropped; a constant term
    is dropped and not charged.  Over Z and F_q the terms are built in one
    pass and charged in bulk through add_mul_count, over F_{q^s} each
    product goes through ring.smul."""
    ring = F.ring
    terms = F.terms
    if terms and terms[0][0] == 0:
        terms = terms[1:]
    if ring.kind == "ext_field":
        out = tuple((e - 1, d) for e, c in terms if (d := ring.smul(c, e)))
    else:
        add_mul_count(len(terms))
        if ring.kind == "integers":
            out = tuple([(e - 1, e * c) for e, c in terms])
        else:
            q = ring.q
            out = tuple([(e - 1, d) for e, c in terms if (d := e * c % q)])
    return SparsePoly(ring, out)


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
    slot width bits(p*Ma*Mb) + 2 cannot overflow even after adding the
    nonnegativity offsets used for signed input; the slots take the digit
    width rings._byte_width gives that many bits, as every packed digit
    does (whole bytes, an array item size up to 8 bytes).
    """
    if len(a) != len(b):
        raise ValueError("mismatched cyclic lengths")
    p = len(a)
    ma = max(map(abs, a), default=0)
    mb = max(map(abs, b), default=0)
    if ma == 0 or mb == 0:
        return [0] * p
    nb = _byte_width(p * ma * mb << 2)
    slots = _unpack(_pack([v + ma for v in a], nb) * _pack([v + mb for v in b], nb), nb, 2 * p)
    corr = ma * sum(b) + mb * sum(a) + p * ma * mb
    out = [slots[k] + slots[k + p] - corr for k in range(p - 1)]
    out.append(slots[p - 1] - corr)
    return out


def fixed_base_powers(ring: RingSpec, alpha, bound: int, lookups: int):
    """The table of powers alpha^e for 0 <= e < bound, as (rows, w).

    Fixed-base windowing (Brickell, Gordon, McCurley and Wilson,
    EUROCRYPT 1992): row i holds alpha^(d * 2^(w*i)) for every w-bit
    digit d, so alpha^e is the product of one entry per nonzero w-bit
    window of e (term_values looks them up, and term_sum takes the top
    row's entry once per run of sorted terms that share a top digit).
    The table holds the exponents below _table_bound, at least bound;
    eval_sparse and eval_cyclic_product refuse a passed table that does
    not reach the last exponent.  With b the bit length of
    bound - 1 and n the expected number of lookups, w <= 16 minimises
    ceil(b/w) * (2^w - 1 + n), which bounds the table's multiplications
    (at most 2^w - 1 per row) plus the lookups' (one per further window).
    The w = 1 table is plain square-and-multiply with its squarings
    shared, so n lookups of alpha^e never take more than (b - 1) * (n + 1)
    multiplications in all, and the table never holds more than
    b * (n + 1) entries.

    Every entry past a row's first two costs one multiplication, and so
    does each row's base after the first.  The entries are multiplied as
    raw ints and charged in bulk through add_mul_count, the same count as
    one ring.mul per entry: over F_q a row is built by doubling,
    row[k:2k] = [x * alpha^k % q for x in row[:k]] with
    alpha^k = row[k - 1] * alpha, and over F_{q^s} each entry is the
    previous one times the base, reduced by ring._fold.  Each row's base
    goes through ring.mul.
    """
    bits = (bound - 1).bit_length()
    w = min(range(1, 17), key=lambda v: -(-bits // v) * ((1 << v) - 1 + lookups))
    mask = (1 << w) - 1
    q = ring.q if ring.kind == "prime_field" else None
    fold = ring._fold
    rows = []
    base = alpha
    for shift in range(0, bits, w):
        # the top row stops at the top digit of bound - 1
        top = min(mask, (bound - 1) >> shift)
        row = [1, base]
        if q is None:
            for _ in range(top - 1):
                row.append(fold(row[-1] * base))
        else:
            while len(row) <= top:
                step = row[-1] * base % q  # alpha^k for k = len(row)
                row += [x * step % q for x in row[:top + 1 - len(row)]]
        add_mul_count(top - 1)
        rows.append(row)
        if shift + w < bits:
            base = ring.mul(row[-1], base)  # alpha^(2^(shift + w))
    return rows, w


def term_values(ring: RingSpec, terms, table):
    """The values c * alpha^e of the (e, c) of terms, sorted by exponent
    as a SparsePoly's, in ring, as an iterable to be read once; table =
    (rows, w) is fixed_base_powers' table of alpha, or its low rows, and
    every window of e above the last row is ignored.

    The lookups go one table row at a time.  The exponents are packed
    once into one int (rings._pack) at a digit width holding the last
    exponent, w * len(rows) bits and w + 1 bits, so that the row-i
    digits (e >> w*i) & mask of every exponent are one shift and one
    mask of that int, unpacked (rings._unpack); a narrower digit would
    let an exponent's window take the next exponent's low bits.  A row
    whose digits are all zero is skipped.  A row's nonzero windows are
    counted by one popcount: adding mask to each digit d < 2^w sets its
    bit w exactly when d is nonzero, and carries no further.  Each
    term's running product, which starts at c, takes the entry of its
    nonzero digit.  Over F_q a row's entries are read by one itemgetter
    of the digits (one term reads its entry directly, as itemgetter of
    one index returns the entry, not a tuple), multiplied in by C-level
    maps and reduced mod q only between rows, after every fourth row but
    never after the last: the values are ints congruent to c * alpha^e
    mod q, not reduced, which ring_sum, ring.add and ring.mul take as
    they are, so a sum of them pays one reduction.  A coefficient may be
    any int, so a Z polynomial gives the values of its image mod q.
    Over F_{q^s} each nonzero digit takes one int product reduced by
    ring._fold, and the values are reduced elements.  Either way the
    charge, in bulk through add_mul_count, is the products by the
    entries, one per nonzero w-bit window read, and one for a first
    term with e = 0, whose value is c * 1: max(1, nonzero windows) per
    term of a SparsePoly over the whole table.

    term_sum reads this over the low rows alone.  On exponents sorted
    by value the top digit d = e >> w*k of the last row k is constant
    over each run of consecutive terms, so

        sum c * alpha^e = sum_runs alpha^(d * 2^(w*k)) * sum_run c * alpha^(e mod 2^(w*k)),

    one product by the top row's entry per run with d != 0 in place of
    one per term.
    """
    rows, w = table
    n = len(terms)
    acc = map(itemgetter(1), terms)
    charge = int(n > 0 and terms[0][0] == 0)
    if rows and n:
        width = _byte_width(max(terms[-1][0], (1 << max(w * len(rows), w + 1)) - 1))
        # a list, not a map: array() copies a list in one C loop but
        # takes a map's items one by one
        packed = _pack([e for e, _ in terms], width)
        masks = int.from_bytes(((1 << w) - 1).to_bytes(width, "little") * n, "little")
        fold = ring._fold if ring.kind == "ext_field" else None
        for i, row in enumerate(rows):
            window = packed >> w * i & masks
            if not window:
                continue
            charge += ((window + masks) & ~masks).bit_count()
            digits = _unpack(window, width, n)
            if fold:
                acc = [fold(a * row[d]) if d else a for a, d in zip(acc, digits)]
                continue
            # the per-term products are chained lazily and formed at each
            # reduction and by the caller; the coefficients enter unreduced,
            # as below heights of about 2^256 the wider first products cost
            # less than a mod per term
            entries = itemgetter(*digits)(row) if n > 1 else [row[d] for d in digits]
            acc = map(_int_mul, acc, entries)
            if i % 4 == 3 and i < len(rows) - 1:
                acc = list(map(ring.q.__rmod__, acc))
    add_mul_count(charge)
    return acc


def _by_runs(rows, n: int) -> bool:
    """Whether term_sum sums n terms by runs of their top digit: when the
    top row has at most n / _RUN_SHARE entries, so that the per-run work
    (a bisection, a sum and one product) stays below the per-term
    products it saves."""
    return bool(rows) and len(rows[-1]) * _RUN_SHARE <= n


def term_sum(ring: RingSpec, terms, table):
    """sum c * alpha^e over the (e, c) of terms, sorted by exponent as a
    SparsePoly's, in ring; table = (rows, w) is fixed_base_powers' table
    of alpha, covering the last exponent (_table_bound).

    Where _by_runs holds, the terms go by runs of their top digit
    (term_values gives the proof): term_values over the low rows gives
    the values c * alpha^(e mod 2^(w*k)) lazily, each run's are summed
    by ring_sum off the same iterator, found by one bisection of the
    exponents, and the run's sum takes the top row's entry of its digit
    by one ring.mul.  The charge is term_values' over the low rows, with
    one for an e = 0 term as before, and one per run with a nonzero top
    digit.  Otherwise it is ring_sum of term_values over the whole table.
    """
    rows, w = table
    n = len(terms)
    if not _by_runs(rows, n):
        return ring_sum(ring, term_values(ring, terms, table))
    *low, top = rows
    shift = w * len(low)
    values = iter(term_values(ring, terms, (low, w)))
    sums, i = [], 0
    while i < n:
        d = terms[i][0] >> shift
        j = bisect_left(terms, (d + 1) << shift, i, key=itemgetter(0))
        s = ring_sum(ring, islice(values, j - i))
        sums.append(ring.mul(s, top[d]) if d else s)
        i = j
    return ring_sum(ring, sums)


def ring_sum(ring: RingSpec, values):
    """The sum of values in ring.  Over F_q one sum of the ints, such as
    term_values gives, reduced mod q at the end, with no mod per value.

    Over F_{q^s} the values must be reduced elements, as term_values
    gives: s digits in [0, q) each.  They are added as raw ints, and
    ring._fold reduces the running total with each chunk of at most
    s(q-1) - 1 further values.  A fold then takes at most s(q-1) reduced
    elements, whose digits are at most s(q-1) * (q-1) = s(q-1)^2 and
    carry into no neighbour: within the bound that _fold takes for every
    digit of a product (rings module docstring).  At s(q-1) = 1, F_2 as
    its own degree-1 extension, each chunk is one value and a fold takes
    digits of at most 2, which the row fold reduces mod q in its one-byte
    digit.
    """
    if ring.kind == "prime_field":
        return sum(values) % ring.q
    values = list(values)
    fold, step = ring._fold, max(1, ring.s * (ring.q - 1) - 1)
    total = 0
    for i in range(0, len(values), step):
        total = fold(total + sum(values[i:i + step]))
    return total


def _image_field(ring: RingSpec, field: RingSpec | None) -> RingSpec:
    """field (ring when None), once checked to hold an image of ring:
    ring itself, F_q for ring Z or an extension of F_q for ring F_q, where
    term_values reads the coefficients as they are.  Evaluation in the
    integers is intentionally unsupported: values of size deg*log(alpha)
    defeat the point of sparse verification, which always routes through
    a prime field instead."""
    field = ring if field is None else field
    if not field.is_field:
        raise UnsupportedRingError("evaluation requires a finite field")
    if ring != field and not (ring.kind == "integers" and field.kind == "prime_field"
                              or ring.kind == "prime_field" and ring.q == field.q):
        raise RingMismatchError("the polynomial has no image in the evaluation field")
    return field


def _table_bound(table) -> int:
    """The exponents fixed_base_powers' table (rows, w) holds: those whose
    top digit has an entry in the last row, 1 (e = 0 alone) for no row."""
    rows, w = table
    return len(rows[-1]) << w * (len(rows) - 1) if rows else 1


def eval_sparse(F: SparsePoly, alpha, field: RingSpec | None = None, *, table=None):
    """F(alpha) in field (F.ring by default, or a field holding an image
    of it: _image_field), every alpha^e from one fixed-base table
    (fixed_base_powers) and summed by term_sum; over Z in F_q, the value
    of F's image mod q from F's own terms.  The table is built here,
    sized by deg F and #F, unless one is passed: it must be of the same
    alpha in the same field (verify_sum_sp passes its check's one table),
    and a ValueError is raised when it does not reach deg F.  The charge
    is the table's and term_sum's."""
    field = _image_field(F.ring, field)
    if F.is_zero:
        return 0
    if table is None:
        table = fixed_base_powers(field, alpha, F.degree + 1, F.sparsity)
    elif F.degree >= _table_bound(table):
        raise ValueError("the table does not reach deg F")
    return term_sum(field, F.terms, table)
