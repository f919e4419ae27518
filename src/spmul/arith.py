"""Primality, prime generation, cyclic-prime sizing formulas, and
irreducible polynomials over prime fields (cyclotomic ones where q is a
primitive root, the lexicographically smallest otherwise).

Everything here is deterministic given its inputs and, where applicable,
an explicit :class:`RandomSource`.  Dense polynomials over F_q appearing
in this module are little-endian coefficient lists of Python ints; the
``_fq_*`` helpers on them serve only the irreducibility test (extension
field arithmetic lives in :mod:`spmul.rings`).
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import random
from array import array
from collections.abc import Sequence

from .errors import RetryBudgetError


class RandomSource:
    """Seedable deterministic randomness handle.

    Identical seeds yield identical outcomes across runs and platforms.
    A single instance must not be shared between concurrent calls.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._rng = random.Random(self.seed)

    def randrange(self, n: int) -> int:
        return self._rng.randrange(n)

    def randint(self, a: int, b: int) -> int:
        return self._rng.randint(a, b)

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed})"


# ---------------------------------------------------------------------------
# primality

_TRIAL_PRIMES = frozenset((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                           53, 59, 61, 67, 71, 73, 79, 83, 89, 97))
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)

# The first 13 prime bases decide Miller-Rabin exactly for
# n < 3,317,044,064,679,887,385,961,981 (psi_13, Sorenson & Webster); the
# first 12 only below psi_12 = 318,665,857,834,031,151,167,461, itself a
# strong pseudoprime to all of them (399165290221 * 798330580441).
_DET_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_DET_LIMIT = 3317044064679887385961981

# Sinclair's seven bases decide Miller-Rabin exactly for n < 2^64 (checked
# against Feitsma's list of base-2 pseudoprimes), each taken mod n and
# skipped when that is 0.
_WORD_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

# 40 rounds give error <= 4^-40 <= 2^-80 beyond the deterministic range.
_MR_ROUNDS = 40


def _mr_composite(n: int, a: int, d: int, r: int) -> bool:
    # True if a certifies n composite; n-1 = d * 2^r with d odd.
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Primality test: exact below ~3.3e24, Miller-Rabin with error
    <= 2^-80 above (witnesses derived deterministically from n)."""
    if n < 101:
        return n in _TRIAL_PRIMES
    # for n >= 101, a factor in common with the primes below 100 is a proper divisor
    if math.gcd(n, _TRIAL_PRODUCT) != 1:
        return False
    if n < 101 * 101:
        return True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < 1 << 64:
        witnesses = [a % n for a in _WORD_WITNESSES if a % n]
    elif n < _DET_LIMIT:
        witnesses = _DET_WITNESSES
    else:
        wrng = random.Random(n)
        witnesses = tuple(wrng.randrange(2, n - 1) for _ in range(_MR_ROUNDS))
    return not any(_mr_composite(n, a, d, r) for a in witnesses)


def random_prime(lam: int, rng: RandomSource) -> int:
    """Return a prime p in [lam, 2*lam].

    Samples uniform odd candidates and tests each with :func:`is_prime`,
    which is exact below 3.3e24 and errs with probability <= 2^-80 above:
    a failure budget below 2^-80 is honoured only while 2*lam, the largest
    prime it can return, stays below 3.3e24.  The retry budget is 64*ceil(log2 lam) candidates;
    exhausting it raises :class:`RetryBudgetError` (it signals a
    pathological RNG, not a caller bug).
    """
    lam = int(lam)
    if lam < 2:
        raise ValueError("lam must be >= 2")
    first_odd = lam | 1
    count = (2 * lam - first_odd) // 2 + 1
    budget = 64 * max(1, (lam - 1).bit_length())
    for _ in range(budget):
        candidate = first_odd + 2 * rng.randrange(count)
        if is_prime(candidate):
            return candidate
    raise RetryBudgetError(f"no prime found in [{lam}, {2 * lam}] after {budget} draws")


# ---------------------------------------------------------------------------
# prime sieve (cached, extended by an odd-only segmented sieve, never rebuilt)

# one byte per odd number: byte i stands for 2i + 1, except byte 0, which
# stands for 2 (1 is no prime and 2 the only even one), so the set bytes of
# _SIEVE[:i + 1] are the primes up to 2i + 1.  Seeded with the numbers up to 61.
_SIEVE = bytearray([1] + [all(n % d for d in range(3, n, 2)) for n in range(3, 62, 2)])

# sieve bytes per block; _BLOCK_COUNTS[b] is the number of primes among the
# first b*_BLOCK bytes, for every block boundary the sieve has passed
_BLOCK = 256
_BLOCK_COUNTS = array("q", [0])

# odd numbers per sieve segment (one byte each)
_SEGMENT = 1 << 18


def _extend_sieve(limit: int) -> None:
    sieve = _SIEVE
    if limit <= 2 * len(sieve) - 1:  # the largest odd number sieved
        return
    root = math.isqrt(limit)
    _extend_sieve(root)
    # the odd primes up to root, read off the sieve's prefix
    small = list(itertools.compress(range(3, root + 1, 2), sieve[1:(root + 1) // 2]))
    lo = 2 * len(sieve) + 1  # first odd number not yet sieved
    while lo <= limit:
        # the segment holds the odd numbers lo, lo + 2, ..., hi
        n = min(_SEGMENT, (limit - lo) // 2 + 1)
        hi = lo + 2 * (n - 1)
        seg = bytearray(b"\x01") * n
        zeros = memoryview(bytes(n))
        for p in small:
            if p * p > hi:
                break
            # first odd multiple of p that is >= max(p*p, lo)
            start = max(p * p, (lo + p - 1) // p * p)
            if not start & 1:
                start += p
            i = (start - lo) // 2
            if i < n:
                seg[i::p] = zeros[:(n - 1 - i) // p + 1]
        sieve += seg
        lo = hi + 2
    counts, block = _BLOCK_COUNTS, _BLOCK
    for b in range(len(counts), len(sieve) // block + 1):
        counts.append(counts[-1] + sieve.count(1, (b - 1) * block, b * block))


def _nth_prime(j: int) -> int:
    # the prime of index j (from 0), which the sieve must hold: its block
    # is the last whose count of earlier primes is <= j
    counts = _BLOCK_COUNTS
    b = bisect.bisect_right(counts, j) - 1
    lo = b * _BLOCK
    hi = lo + _BLOCK if b + 1 < len(counts) else len(_SIEVE)
    i = next(itertools.islice(itertools.compress(range(lo, hi), _SIEVE[lo:hi]),
                              j - counts[b], None))
    return 2 * i + 1 if i else 2


class PrimeView(Sequence):
    """The first n primes in increasing order, read off the cached sieve:
    len, indexing (negative indices too) and iteration, no assignment."""

    __slots__ = ("_n",)

    def __init__(self, n: int):
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, j: int) -> int:
        j = operator.index(j)
        if j < 0:
            j += self._n
        if not 0 <= j < self._n:
            raise IndexError("prime index out of range")
        return _nth_prime(j)

    def __iter__(self):
        # byte 0 stands for 2, byte i >= 1 for 2i + 1
        numbers = itertools.chain((2,), itertools.count(3, 2))
        return itertools.islice(itertools.compress(numbers, _SIEVE), self._n)


def first_primes(count: int) -> PrimeView:
    """The first `count` primes in increasing order, as a read-only view of
    the cached sieve (PrimeView): no table of the primes is built, and
    indexing finds the j-th prime from per-block prime counts.

    The sieve holds one byte per odd number up to the Rosser bound on the
    largest count requested (about count * (ln count + ln ln count)), plus
    one 8-byte count per 256 of those bytes, and is never shrunk."""
    count = int(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    # the primes the sieve holds: those before its last block boundary,
    # then those after it
    if _BLOCK_COUNTS[-1] + _SIEVE.count(1, (len(_BLOCK_COUNTS) - 1) * _BLOCK) < count:
        # the sieve starts with the 18 primes <= 61, so count > 18 here, and
        # p_n < n(ln n + ln ln n) for n >= 6 (Rosser)
        _extend_sieve(int(count * (math.log(count) + math.log(math.log(count)))) + 16)
    return PrimeView(count)


# ---------------------------------------------------------------------------
# cyclic-prime sizing formulas

def ceil_bound(*factors) -> int:
    """Ceiling of a sizing bound, the product of factors (floats or ints).

    Raises ValueError, not OverflowError, when the bound leaves the float
    range: a failure budget too small, or a factor too large, to size
    anything for.
    """
    try:
        x = math.prod(factors)
    except OverflowError:  # an int factor too large for a float
        x = math.inf
    if not math.isfinite(x):
        raise ValueError("sizing bound overflows: failure budget too small or factor too large")
    return math.ceil(x)


def _check_lambda_args(T: int, D, eps: float) -> None:
    if T < 1:
        raise ValueError("T must be >= 1")
    if D < 2:
        raise ValueError("D must be >= 2")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")


def lambda_no_collision(T: int, D, eps: float) -> int:
    """Sampling bound so a random prime in [lambda, 2*lambda] keeps all
    exponents of a T-sparse, degree-<=D polynomial distinct mod p with
    probability >= 1 - eps."""
    _check_lambda_args(T, D, eps)
    # multiply before dividing: keeps the clean-ratio cases float-exact
    return max(21, ceil_bound(10.0 * T * T * math.log(D) / (3.0 * eps)))


def lambda_nonzero(T: int, D, eps: float) -> int:
    """Sampling bound so a nonzero T-sparse polynomial stays nonzero
    mod X^p - 1 with probability >= 1 - eps."""
    _check_lambda_args(T, D, eps)
    return max(21, ceil_bound(10.0 * T * math.log(D) / (3.0 * eps)))


def _omega_bound(D: int) -> int:
    """k(D), the largest k with p_1*...*p_k < D for the first primes
    p_1 = 2, p_2 = 3, ...: the most distinct prime factors a nonzero
    integer m with |m| < D can have (0 for D <= 2).

    Proof: let m have w distinct prime factors.  Listed in increasing
    order, the i-th of them is at least p_i, so p_1*...*p_w <= |m| < D and
    w <= k(D).  The bound is tight: the primorial p_1*...*p_k has exactly
    k.  It is at most log2 D, and far below it for large D (9 against 31
    at D = 2*10^9), since a primorial grows like e^(p_k).

    Exact for any D, however wide: the primorial is an int, and the loop
    takes k + 1 primes, found by testing small candidates with is_prime.
    """
    k, primorial, p = 0, 2, 2
    while primorial < D:
        k += 1
        p = next(n for n in itertools.count(p + 1) if is_prime(n))
        primorial *= p
    return k


# ---------------------------------------------------------------------------
# dense polynomials over F_q (little-endian int lists), used only to prove
# moduli irreducible: one product, one remainder by a monic divisor, and
# Euclid and modular powers built on those two

def _fq_trim(v: list[int]) -> list[int]:
    while v and v[-1] == 0:
        v.pop()
    return v


def _fq_monic(v: list[int], q: int) -> list[int]:
    # v reduced mod q, trimmed and scaled to leading coefficient 1
    v = _fq_trim([c % q for c in v])
    if v and v[-1] != 1:
        inv_lead = pow(v[-1], q - 2, q)
        v = [c * inv_lead % q for c in v]
    return v


def _fq_mul(a: list[int], b: list[int], q: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _fq_trim([v % q for v in out])


def _fq_rem_monic(a: list[int], m: list[int], q: int) -> list[int]:
    # remainder of a by monic m; coefficients are reduced mod q once, at
    # the end, except the one each step cancels
    r = list(a)
    dm = len(m) - 1
    for i in range(len(r) - 1, dm - 1, -1):
        c = r[i] % q
        if c:
            base = i - dm
            for j in range(dm):
                if m[j]:
                    r[base + j] -= c * m[j]
        r[i] = 0
    return _fq_trim([v % q for v in r[:dm]])


def _fq_gcd(a: list[int], b: list[int], q: int) -> list[int]:
    # monic gcd ([] when both are zero): each divisor is made monic, so
    # every step is one _fq_rem_monic
    a, b = _fq_monic(a, q), _fq_monic(b, q)
    while b:
        a, b = b, _fq_monic(_fq_rem_monic(a, b, q), q)
    return a


def _fq_powmod(base: list[int], e: int, m: list[int], q: int) -> list[int]:
    result = [1]
    b = _fq_rem_monic(base, m, q)
    while e:
        if e & 1:
            result = _fq_rem_monic(_fq_mul(result, b, q), m, q)
        e >>= 1
        if e:
            b = _fq_rem_monic(_fq_mul(b, b, q), m, q)
    return result


def is_irreducible(coeffs, q: int) -> bool:
    """Deterministic irreducibility test for a polynomial over F_q.

    A degree-s polynomial is irreducible iff it shares no factor with
    X^(q^i) - X for any i <= s/2 (every factor of degree i divides that
    binomial; a degree-s polynomial whose factors all exceed degree s/2
    must itself be irreducible).
    """
    f = _fq_monic(coeffs, q)
    s = len(f) - 1
    if s <= 0:
        return False
    if s == 1:
        return True
    xqi = [0, 1]
    for _ in range(s // 2):
        xqi = _fq_powmod(xqi, q, f, q)
        h = xqi + [0] * (2 - len(xqi))  # X^(q^i) - X
        h[1] -= 1
        if len(_fq_gcd(f, h, q)) > 1:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    # the distinct prime factors of n >= 1, by trial division
    out = []
    r = 2
    while r * r <= n:
        if n % r == 0:
            out.append(r)
            while n % r == 0:
                n //= r
        r += 1
    if n > 1:
        out.append(n)
    return out


def is_primitive_root(q: int, ell: int) -> bool:
    """True iff ell is a prime not dividing q and q generates (Z/ell)^*.

    Then the cyclotomic polynomial Phi_ell = 1 + Y + ... + Y^(ell-1) is
    irreducible over F_q: it splits into irreducibles of degree equal to
    the order of q modulo ell (Lidl-Niederreiter, Finite Fields, Theorem
    2.47), here ell - 1.  q generates iff q^((ell-1)/r) != 1 (mod ell)
    for every prime r dividing ell - 1.
    """
    if not is_prime(ell) or q % ell == 0:
        return False
    return all(pow(q, (ell - 1) // r, ell) != 1 for r in _prime_factors(ell - 1))


def cyclotomic_degree(q: int, s: int) -> int:
    """The least s' in [s, 2s) with s' + 1 a prime modulo which q is a
    primitive root, so that Phi_{s'+1} is an irreducible of degree s' over
    F_q; s itself when there is none, where irreducible_poly falls back to
    canonical_irreducible.

    The cap 2s is a constant taken from measured product costs: a product
    at s' = 2s - 1 reduced modulo Phi_{2s} (RingSpec._fold's lane fold)
    costs at most what one at degree s reduced through a general modulus's
    rows does (0.2-1.6x, median 0.4, over q = 2, 3, 5, 101 and s = 4 ..
    33 on CPython 3.11; above 1x only at q = 101 with s >= 20), so below
    the cap a cyclotomic field mostly pays less per product and skips the
    irreducibility tests of the walk.
    """
    return next((t for t in range(s, 2 * s) if is_primitive_root(q, t + 1)), s)


def irreducible_poly(q: int, s: int) -> tuple[int, ...]:
    """Monic irreducible polynomial of degree s over F_q, little-endian
    coefficient tuple of length s+1, a function of (q, s) alone.

    When s + 1 is a prime modulo which q is a primitive root, the answer
    is the cyclotomic polynomial Phi_{s+1} = 1 + Y + ... + Y^s,
    irreducible by :func:`is_primitive_root`; otherwise it is
    :func:`canonical_irreducible` (q, s).
    """
    if is_prime(q) and s >= 1 and is_primitive_root(q, s + 1):
        return (1,) * (s + 1)
    return canonical_irreducible(q, s)  # which rejects a composite q or s < 1


def canonical_irreducible(q: int, s: int) -> tuple[int, ...]:
    """The lexicographically smallest monic irreducible of degree s over
    F_q (low coefficients read little-endian as a base-q integer).

    Deterministic; used as the file-format convention for extension
    fields, whose headers carry only q and s.

    The first q candidates are the binomials Y^s + c.  For s >= 2 an
    irreducible one exists iff every prime factor of s divides q - 1 and
    q = 1 (mod 4) when 4 | s (Lidl-Niederreiter, Theorem 3.75); without
    one the walk starts past them, which for a large q is the difference
    between returning at once and never returning.
    """
    if not is_prime(q):
        raise ValueError("q must be prime")
    if s < 1:
        raise ValueError("s must be >= 1")
    factors = {r for r in range(2, s + 1) if s % r == 0 and is_prime(r)}
    binomial = all((q - 1) % r == 0 for r in factors) and (s % 4 or q % 4 == 1)
    k = 0 if binomial else q
    limit = q ** s
    while k < limit:
        digits = []
        v = k
        for _ in range(s):
            v, d = divmod(v, q)
            digits.append(d)
        coeffs = digits + [1]
        if is_irreducible(coeffs, q):
            return tuple(coeffs)
        k += 1
    raise RuntimeError("unreachable: monic irreducibles exist for every degree")
