"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid the library code paths they check:
integer polynomial arithmetic is done on plain dicts, modular powers with
the builtin pow, and primality by trial division.
"""

import random

from hypothesis import strategies as st

from spmul import MultiPoly, SparsePoly, canonicalize, canonicalize_multi


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
        if c != ring.zero():
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
        if c != ring.zero():
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
