"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid the library code paths they check:
integer polynomial arithmetic is done on plain dicts, modular powers with
the builtin pow, and primality by trial division.
"""

import functools
import random

from hypothesis import strategies as st

from spmul import (MultiPoly, PolyFileError, SparsePoly, canonicalize, canonicalize_multi,
                   ext_field, integers, poly, prime_field, verify)


# ---------------------------------------------------------------------------
# independent oracles

def trial_division_primes(limit):
    """All primes <= limit by trial division (no sieve shared with arith)."""
    primes = []
    for n in range(2, limit + 1):
        d = 2
        is_p = True
        while d * d <= n:
            if n % d == 0:
                is_p = False
                break
            d += 1
        if is_p:
            primes.append(n)
    return primes


def eratosthenes_primes(limit):
    """All primes <= limit by a plain sieve of Eratosthenes over every
    integer, for limits too large for trial division (no code shared with
    arith's odd-only segmented sieve)."""
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\x00\x00"
    for n in range(2, int(limit ** 0.5) + 1):
        if flags[n]:
            flags[n * n::n] = bytes(len(range(n * n, limit + 1, n)))
    return [n for n in range(limit + 1) if flags[n]]


def dict_mul_z(fa: dict, fb: dict) -> dict:
    """Schoolbook product of integer polynomials as {exponent: coeff} dicts."""
    out = {}
    for e1, c1 in fa.items():
        for e2, c2 in fb.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def dict_mul_ring(fa: dict, fb: dict, ring) -> dict:
    """Schoolbook product over any RingSpec, keyed by exponent (int or tuple)."""
    out = {}
    for e1, c1 in fa.items():
        for e2, c2 in fb.items():
            e = e1 + e2 if isinstance(e1, int) else tuple(a + b for a, b in zip(e1, e2))
            prod = ring.mul(c1, c2)
            out[e] = ring.add(out[e], prod) if e in out else prod
    zero = ring.zero()
    return {e: c for e, c in out.items() if c != zero}


def dict_sum_ring(terms, ring) -> dict:
    """{exponent: sum of its coefficients} over any RingSpec, exponents int
    or tuple, coefficients coerced into the ring, zero sums dropped."""
    out = {}
    for e, c in terms:
        c = ring.coerce(c)
        out[e] = ring.add(out[e], c) if e in out else c
    zero = ring.zero()
    return {e: c for e, c in out.items() if c != zero}


def raw_coeff(ring, c):
    """The boundary form of the element c, which canonicalize and coerce
    take back: its residue tuple over F_{q^s}, c itself over Z and F_q."""
    return ring.residues(c) if ring.kind == "ext_field" else c


def ring_coeffs(ring):
    """Hypothesis strategy for coefficients of ring from a few values, zero
    among them, so that terms with equal exponents often cancel."""
    if ring.kind == "integers":
        return st.integers(-5, 5)
    digit = st.integers(0, ring.q - 1)
    if ring.kind == "prime_field":
        return digit
    return st.tuples(*[digit] * ring.s)


def is_canonical(terms, ring) -> bool:
    """Exponents strictly increasing and no zero coefficient."""
    return (all(a[0] < b[0] for a, b in zip(terms, terms[1:]))
            and all(c != ring.zero() for _, c in terms))


def cyclic_convolve_oracle(a: list, b: list, ring) -> list:
    """O(p^2) schoolbook cyclic convolution."""
    p = len(a)
    out = [ring.zero()] * p
    for i in range(p):
        for j in range(p):
            k = (i + j) % p
            out[k] = ring.add(out[k], ring.mul(a[i], b[j]))
    return out


def ext_reduce_oracle(t: list, ring) -> tuple:
    """sum t_i * Y^i in F_{q^s} for integers t_i (any sign), len(t) <= 2s-1:
    the high coefficients are cancelled one at a time against the modulus."""
    q, s, m = ring.q, ring.s, ring.modulus
    t = list(t) + [0] * max(0, s - len(t))
    for i in range(len(t) - 1, s - 1, -1):
        c = t[i] % q
        for j in range(s):
            t[i - s + j] -= c * m[j]
    return tuple(v % q for v in t[:s])


def ext_mul_oracle(a: tuple, b: tuple, ring) -> tuple:
    """F_{q^s} product by schoolbook convolution in Z[Y], then reduction."""
    t = [0] * (2 * ring.s - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            t[i + j] += ai * bj
    return ext_reduce_oracle(t, ring)


# residue-tuple references for the rest of F_{q^s} arithmetic: one
# residue at a time, each reduced mod q with Python's %

def ext_add_oracle(a: tuple, b: tuple, ring) -> tuple:
    return tuple((x + y) % ring.q for x, y in zip(a, b))


def ext_sub_oracle(a: tuple, b: tuple, ring) -> tuple:
    return tuple((x - y) % ring.q for x, y in zip(a, b))


def ext_neg_oracle(a: tuple, ring) -> tuple:
    return tuple(-x % ring.q for x in a)


def ext_smul_oracle(a: tuple, k: int, ring) -> tuple:
    return tuple(x * k % ring.q for x in a)


def ext_inv_oracle(a: tuple, ring):
    """a^(q^s - 2) by right-to-left square and multiply through
    ext_mul_oracle, or None when its product with a is not 1 (a zero
    divisor of a reducible modulus, or zero)."""
    one = (1,) + (0,) * (ring.s - 1)
    r, base, e = one, a, ring.q ** ring.s - 2
    while e:
        if e & 1:
            r = ext_mul_oracle(r, base, ring)
        base = ext_mul_oracle(base, base, ring)
        e >>= 1
    return r if ext_mul_oracle(a, r, ring) == one else None


def fq_gcd_oracle(a: list, b: list, q: int) -> list:
    """Monic gcd of two F_q[Y] coefficient lists ([] when both are zero) by
    Euclid with full division by each non-monic divisor, every coefficient
    reduced mod q as it changes."""
    def trim(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    a, b = trim([v % q for v in a]), trim([v % q for v in b])
    while b:
        r, db = list(a), len(b) - 1
        inv_lead = pow(b[-1], q - 2, q)
        for i in range(len(r) - 1, db - 1, -1):
            c = r[i] * inv_lead % q
            for j in range(db + 1):
                r[i - db + j] = (r[i - db + j] - c * b[j]) % q
        a, b = b, trim(r)
    if a:
        inv_lead = pow(a[-1], q - 2, q)
        a = [v * inv_lead % q for v in a]
    return a


def canonical_walk_oracle(q: int, s: int, is_irreducible) -> tuple:
    """The lexicographically smallest monic irreducible of degree s over
    F_q by testing every candidate in order from Y^s, without skipping the
    binomials Y^s + c (irreducibility test passed in)."""
    k = 0
    while True:
        coeffs, v = [], k
        for _ in range(s):
            v, d = divmod(v, q)
            coeffs.append(d)
        if is_irreducible(coeffs + [1], q):
            return tuple(coeffs + [1])
        k += 1


def eval_oracle_prime_field(terms, alpha: int, q: int) -> int:
    """Evaluation over F_q using builtin pow only."""
    return sum(c * pow(alpha, e, q) for e, c in terms) % q


def _nonzero_windows(e: int, w: int, rows: int) -> int:
    return sum(1 for i in range(rows) if e >> w * i & (1 << w) - 1)


def window_charge(table, exps) -> int:
    """The ring mults of poly.term_values over fixed_base_powers' table
    (rows, w) for the sorted, distinct exponents exps, counted from the
    exponents: max(1, nonzero w-bit windows of e) per term."""
    rows, w = table
    return sum(max(1, _nonzero_windows(e, w, len(rows))) for e in exps)


def sum_charge(table, exps) -> int:
    """The ring mults of poly.term_sum for exps: window_charge, or, where
    poly._by_runs sums by runs of the top digit, the nonzero windows
    below the top row of each term, one for e = 0, and one per distinct
    nonzero top digit."""
    rows, w = table
    if not poly._by_runs(rows, len(exps)):
        return window_charge(table, exps)
    k = len(rows) - 1
    low = sum(_nonzero_windows(e, w, k) for e in exps) + (0 in exps)
    return low + len({e >> w * k for e in exps} - {0})


@functools.cache
def _reference_field(q: int, s: int):
    return prime_field(q) if s == 1 else ext_field(q, s)


def _reference_ring(line: str, lineno: int):
    parts = line.split()
    if parts == ["ring", "int"]:
        return integers()
    if parts and parts[0] == "field":
        if len(parts) != 3:
            raise PolyFileError(f"line {lineno}: field header needs q and s")
        try:
            q, s = int(parts[1]), int(parts[2])
        except ValueError:
            raise PolyFileError(f"line {lineno}: field parameters must be integers") from None
        try:
            return _reference_field(q, s)
        except ValueError as exc:
            raise PolyFileError(f"line {lineno}: {exc}") from None
    raise PolyFileError(f"line {lineno}: expected 'ring int' or 'field <q> <s>'")


def _reference_coeff(token: str, ring, lineno: int):
    try:
        residues = [int(v) for v in token.split(",")]
    except ValueError:
        raise PolyFileError(f"line {lineno}: bad coefficient {token!r}") from None
    if ring.kind == "integers":
        if len(residues) != 1:
            raise PolyFileError(f"line {lineno}: integer coefficients take one value")
    elif len(residues) != ring.s or any(not 0 <= v < ring.q for v in residues):
        raise PolyFileError(f"line {lineno}: coefficient out of field range")
    if not any(residues):
        raise PolyFileError(f"line {lineno}: zero coefficient; files must be canonical")
    return ring.coerce(residues if ring.kind == "ext_field" else residues[0])


def reference_parse_poly(text: str) -> MultiPoly:
    """The polynomial file parser read one line at a time, each line's
    checks in turn, as cli.parse_poly was before it read term lines a
    column at a time: the reference its results and its first-bad-line
    diagnostics are compared with.  Only LF ends a line, and the empty
    string after a final LF is no line."""
    raw_lines = text.split("\n")
    lines = []
    for lineno, raw in enumerate(raw_lines, start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))
    eof = (len(raw_lines) + bool(raw_lines[-1]), "")
    rno, rline = lines[0] if lines else eof
    ring = _reference_ring(rline, rno)
    vno, vline = lines[1] if len(lines) > 1 else eof
    vparts = vline.split()
    if len(vparts) != 2 or vparts[0] != "vars":
        raise PolyFileError(f"line {vno}: expected 'vars <n>'")
    try:
        nvars = int(vparts[1])
    except ValueError:
        raise PolyFileError(f"line {vno}: vars count must be an integer") from None
    if nvars < 1:
        raise PolyFileError(f"line {vno}: vars count must be >= 1")
    seen = set()
    terms = []
    for lineno, line in lines[2:]:
        parts = line.split()
        if parts[0] != "term":
            raise PolyFileError(f"line {lineno}: expected a term record")
        if len(parts) != 2 + nvars:
            raise PolyFileError(f"line {lineno}: term needs a coefficient and {nvars} exponents")
        c = _reference_coeff(parts[1], ring, lineno)
        try:
            exps = tuple(int(v) for v in parts[2:])
        except ValueError:
            raise PolyFileError(f"line {lineno}: exponents must be integers") from None
        if any(e < 0 for e in exps):
            raise PolyFileError(f"line {lineno}: exponents must be nonnegative")
        if exps in seen:
            raise PolyFileError(f"line {lineno}: duplicate exponent; files must be canonical")
        seen.add(exps)
        terms.append((exps, c))
    return MultiPoly(ring, nvars, tuple(sorted(terms)))


# ---------------------------------------------------------------------------
# watchers

def watch_cyclic_evaluations(monkeypatch, record=lambda F_p, G_p, p, field: (field, p)) -> list:
    """List that receives record(F_p, G_p, p, field) for every
    eval_cyclic_product call the verifier makes, field being the field
    argument the call receives; by default (field, p), the field the call
    evaluates in and the cyclic prime."""
    seen = []
    real = verify.eval_cyclic_product

    def eval_cyclic_product(F_p, G_p, p, alpha, field=None, **kwargs):
        seen.append(record(F_p, G_p, p, field))
        return real(F_p, G_p, p, alpha, field, **kwargs)

    monkeypatch.setattr(verify, "eval_cyclic_product", eval_cyclic_product)
    return seen


# ---------------------------------------------------------------------------
# random instances

def rand_sparse(rnd: random.Random, ring, tmax: int, emax: int, cmax: int = None) -> SparsePoly:
    """Random polynomial with between 1 and tmax terms (capped by emax
    distinct exponents)."""
    t = rnd.randint(1, min(tmax, emax))
    terms = {}
    while len(terms) < t:
        e = rnd.randrange(emax)
        if ring.kind == "integers":
            c = rnd.randint(-cmax, cmax)
        elif ring.kind == "prime_field":
            c = rnd.randrange(1, ring.q)
        else:
            c = tuple(rnd.randrange(ring.q) for _ in range(ring.s))
        if ring.coerce(c) != ring.zero():
            terms[e] = c
    return canonicalize(list(terms.items()), ring)


def rand_multi(rnd: random.Random, ring, nvars: int, tmax: int, dmax: int,
               cmax: int = None):
    t = rnd.randint(1, min(tmax, dmax ** nvars))
    terms = {}
    while len(terms) < t:
        e = tuple(rnd.randrange(dmax) for _ in range(nvars))
        if ring.kind == "integers":
            c = rnd.randint(-cmax, cmax)
        elif ring.kind == "prime_field":
            c = rnd.randrange(1, ring.q)
        else:
            c = tuple(rnd.randrange(ring.q) for _ in range(ring.s))
        if ring.coerce(c) != ring.zero():
            terms[e] = c
    return canonicalize_multi(list(terms.items()), nvars, ring)


def as_multi(F: SparsePoly) -> MultiPoly:
    """The one-variable MultiPoly of F: the form polynomial files parse to."""
    return MultiPoly(F.ring, 1, tuple(((e,), c) for e, c in F.terms))


def poly_to_dict(F) -> dict:
    return dict(F.terms)


def monomial(ring, e: int, c) -> SparsePoly:
    return canonicalize([(e, c)], ring)


def sumset_size(F: SparsePoly, G: SparsePoly) -> int:
    """Structural sparsity by brute force: |{a + b : a in supp F, b in supp G}|."""
    return len({a + b for a, _ in F.terms for b, _ in G.terms})


# a fixed 62-bit prime used across field tests (checked in test_arith)
Q62 = 2305843009213714499
