"""Sparse interpolation of a sum of sparse products from cyclic residues.

Each round reduces the target modulo X^p - 1 for a random prime p among
the first O(T log D) primes.  A term c*X^e of the target that does not
collide with another term mod p shows up in the residue as c*X^(e mod p)
and in the derivative's residue as (c*e)*X^((e-1) mod p), so e pops out
of one division.  Rounds accumulate recovered terms into a running
approximation and correct earlier mistakes automatically, because wrong
terms reappear negated in later residues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import RandomSource, first_primes
from .errors import CharacteristicTooSmallError, RingMismatchError
from .poly import (SparsePoly, add, cyclic_reduce, derivative,
                   dense_cyclic_mul, to_dense, zero_poly)
from .rings import RingSpec, add_mul_count, integers

# Above this many term products per residue, packed dense convolution wins
# over direct sparse accumulation.
_DENSE_THRESHOLD_FACTOR = 4


@dataclass
class InterpJob:
    """One interpolation task: recover H = sum F_i*G_i.

    T bounds the sparsity of H, D strictly bounds its degree, C bounds its
    height (integers only; None over fields), and mu is the failure budget.
    """

    pairs: list
    T: int
    D: int
    C: int | None
    mu: float

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("pairs must be nonempty")
        ring = self.pairs[0][0].ring
        for F, G in self.pairs:
            if F.ring != ring or G.ring != ring:
                raise RingMismatchError("pairs must share one ring")
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if self.D < 2:
            raise ValueError("D must be >= 2")
        if not 0.0 < self.mu < 1.0:
            raise ValueError("mu must lie in (0, 1)")

    @property
    def ring(self) -> RingSpec:
        return self.pairs[0][0].ring


def _batch_inverse(ring: RingSpec, values: list) -> list:
    # Montgomery's trick: one inversion plus 3(n-1) multiplications
    n = len(values)
    prefix = [None] * n
    acc = values[0]
    prefix[0] = acc
    for i in range(1, n):
        acc = ring.mul(acc, values[i])
        prefix[i] = acc
    run = ring.inv(acc)
    invs = [None] * n
    for i in range(n - 1, 0, -1):
        invs[i] = ring.mul(run, prefix[i - 1])
        run = ring.mul(run, values[i])
    invs[0] = run
    return invs


def find_terms(p: int, H_p: SparsePoly, Hprime_p: SparsePoly, D: int,
               C: int | None) -> SparsePoly:
    """Recover candidate terms of H from H mod X^p-1 and H' mod X^p-1.

    For a residue term (r, c), the matching derivative coefficient c' at
    X^((r-1) mod p) gives the exponent candidate e = c'/c.  A term is
    emitted only if the division is valid (exact over Z; a prime-subfield
    element over F_{q^s}), 0 <= e <= D, e = r (mod p), and |c| <= C over
    Z.  Every term of the true H that did not collide mod X^p-1 is
    recovered; colliding terms may produce spurious output.
    """
    if H_p.ring != Hprime_p.ring:
        raise RingMismatchError("residues live in different rings")
    ring = H_p.ring
    if ring.is_field and ring.char <= D:
        raise CharacteristicTooSmallError(
            f"characteristic {ring.char} must exceed the degree bound {D}")
    if (not H_p.is_zero and H_p.degree >= p) or \
            (not Hprime_p.is_zero and Hprime_p.degree >= p):
        raise ValueError("residues must have degree < p")

    deriv = dict(Hprime_p.terms)
    zero = ring.zero()
    invs = None
    if ring.is_field and H_p.terms:
        invs = _batch_inverse(ring, [c for _, c in H_p.terms])
    out = []
    for i, (r, c) in enumerate(H_p.terms):
        cp = deriv.get((r - 1) % p, zero)
        if ring.kind == "integers":
            e, rem = divmod(cp, c)
            if rem != 0:
                continue
        else:
            ratio = ring.mul(cp, invs[i])
            res = ring.residues(ratio)
            if any(v != 0 for v in res[1:]):
                continue  # exponent must sit in the prime subfield
            e = res[0]
        if not 0 <= e <= D:
            continue
        if e % p != r:
            continue
        if C is not None and ring.kind == "integers" and abs(c) > C:
            continue
        out.append((e, c))
    return SparsePoly(ring, tuple(sorted(out)))


def cyclic_product_residue(pairs, minus: SparsePoly | None, p: int,
                           ring: RingSpec, force_dense: bool | None = None) -> SparsePoly:
    """(sum F_i*G_i - minus) mod X^p - 1, without the full products.

    Coefficients are lifted to their integer images (RingSpec.lift), the
    sum is accumulated over raw integers and each slot is dropped back
    into the ring once.  Two equivalent routes accumulate it: direct
    sparse accumulation of the #F_i * #G_i term products (cheap while that
    count stays below ~4p) and packed dense cyclic convolution over Z.
    Selection is automatic unless force_dense pins one.
    """
    reduced = [(cyclic_reduce(F, p), cyclic_reduce(G, p)) for F, G in pairs]
    work = sum(F.sparsity * G.sparsity for F, G in reduced)
    # a term of F_i meets at most one term of G_i in any one slot
    base = ring.lift_base(sum(min(F.sparsity, G.sparsity) for F, G in reduced))
    zz = integers()

    def lift(F: SparsePoly) -> SparsePoly:
        if base is None:
            return SparsePoly(zz, F.terms)
        return SparsePoly(zz, tuple((e, ring.lift(c, base)) for e, c in F.terms))

    lifted = [(lift(F_r), lift(G_r)) for F_r, G_r in reduced]
    dense = work > _DENSE_THRESHOLD_FACTOR * p if force_dense is None else force_dense
    if dense:
        vec = [0] * p
        for F_z, G_z in lifted:
            prod = dense_cyclic_mul(to_dense(F_z, p), to_dense(G_z, p))
            vec = [a + b for a, b in zip(vec, prod.coeffs)]
        acc = dict(enumerate(vec))
    else:
        acc = {}
        for F_z, G_z in lifted:
            g_terms = G_z.terms
            for e1, c1 in F_z.terms:
                for e2, c2 in g_terms:
                    k = e1 + e2
                    if k >= p:
                        k -= p
                    v = c1 * c2
                    if k in acc:
                        acc[k] += v
                    else:
                        acc[k] = v
        add_mul_count(work)
    if minus is not None:
        for e, c in lift(cyclic_reduce(minus, p)).terms:
            acc[e] = acc.get(e, 0) - c
    items = acc.items()
    if ring.is_field:
        drop = ring.drop
        items = [(e, drop(v, base)) for e, v in items]
    zero = ring.zero()
    return SparsePoly(ring, tuple(sorted((e, c) for e, c in items if c != zero)))


def _trim(H: SparsePoly, T: int, D: int, C: int | None) -> SparsePoly:
    terms = [(e, c) for e, c in H.terms if e < D]
    if C is not None and H.ring.kind == "integers":
        terms = [(e, c) for e, c in terms if abs(c) <= C]
    if len(terms) > 2 * T:
        terms = terms[: 2 * T]  # already sorted: keeps the lowest degrees
    return SparsePoly(H.ring, tuple(terms))


def interp_sum_sp(job: InterpJob, rng: RandomSource, on_round=None) -> SparsePoly:
    """Interpolate H = sum F_i*G_i; correct with probability >= 1 - mu.

    Whatever happens, the output has at most 2T terms, degree < D, and
    (over Z) height <= C.  A round that observes both residues at zero
    exits early.  on_round, if given, receives the running approximation
    after each round (instrumentation for tests).
    """
    ring = job.ring
    if ring.is_field and ring.char <= job.D:
        raise CharacteristicTooSmallError(
            f"characteristic {ring.char} must exceed the degree bound {job.D}")
    pairs = list(job.pairs)
    dpairs = []
    for F, G in pairs:
        dpairs.append((derivative(F), G))
        dpairs.append((F, derivative(G)))
    # each round halves the missing terms with constant probability, so
    # log2(2T) rounds to find everything plus log2(1/mu) to drive the
    # failure budget down, plus slack
    rounds = math.ceil(math.log2(2 * job.T)) + math.ceil(math.log2(1.0 / job.mu)) + 2
    double_c = 2 * job.C if job.C is not None else None
    h_star = zero_poly(ring)
    # rounds draw p from the first 2*floor(6.4*(T-1)*log2 D) primes
    n_pool = max(1, math.floor((32.0 / 5.0) * (job.T - 1) * math.log2(job.D)))
    primes = first_primes(2 * n_pool)
    # an honest job (T >= #H) keeps every residue at <= #H_p + #H*_p <= 3T
    # terms; exceeding that proves the bound wrong, so bail out at once --
    # the output only owes its shape, and outer verification rejects it
    overflow = 3 * job.T
    for _ in range(rounds):
        p = primes[rng.randrange(len(primes))]
        residue = cyclic_product_residue(pairs, h_star, p, ring)
        if residue.sparsity > overflow:
            break
        residue_d = cyclic_product_residue(dpairs, derivative(h_star), p, ring)
        if residue_d.sparsity > overflow:
            break
        if residue.is_zero and residue_d.is_zero:
            break
        update = find_terms(p, residue, residue_d, job.D, double_c)
        h_star = _trim(add(h_star, update), job.T, job.D, job.C)
        if on_round is not None:
            on_round(h_star)
    return h_star
