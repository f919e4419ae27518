"""Sparse polynomial multiplication by sparsity-doubling interpolation
with a posteriori verification.

The operands are reduced modulo X^p - 1 (p a random prime large enough
that exponent collisions are unlikely) and their product interpolated
under a guessed sparsity bound that starts in [2, 4) and doubles until the
interpolant passes verification, skipping every guess a residue proves too
small.  p is drawn from [lam, 2*lam] only when an operand's degree
reaches lam; below it no such p wraps an operand, so none is drawn.
When neither operand has degree >= p, the reduction changes nothing, so
that interpolant is F*G itself and is returned as soon as it passes.
Otherwise the derivative's residue is interpolated and verified too, and
the terms of F*G are read off the verified residue pair.  mu1 budgets a
wrong output (sparse_product's checks split it by a union bound); the
doubling loop stays small with probability at least 1 - mu2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import RandomSource, lambda_no_collision, random_prime
from .errors import CharacteristicTooSmallError, RetryBudgetError, SparsityBoundError
from .interp import find_terms, interp_sum_sp
from .poly import (SparsePoly, _same_ring, cyclic_reduce, derivative, height_bound, scale,
                   zero_poly)
from .verify import verify_sp, verify_sum_sp


@dataclass(frozen=True)
class ProductParams:
    """Failure budgets: mu1 for a wrong product (sparse_product's checks
    split it by a union bound), mu2 for the doubling loop overshooting."""

    mu1: float
    mu2: float

    def __post_init__(self):
        if not 0.0 < self.mu1 < 1.0 or not 0.0 < self.mu2 < 1.0:
            raise ValueError("mu1 and mu2 must lie in (0, 1)")
        if self.mu1 / 2.0 > self.mu2:
            raise ValueError("mu1/2 must not exceed mu2")


_MAX_DOUBLINGS = 64


def _guess(t0: int, k: int) -> int:
    # ceil(t0 * 2^k): the sparsity guesses' lattice
    return t0 << k if k >= 0 else -(-t0 >> -k)


def sparse_product(F: SparsePoly, G: SparsePoly, params: ProductParams,
                   rng: RandomSource) -> SparsePoly:
    """Compute F*G, with mu1 as the budget for a wrong output.

    Works over Z and over fields whose characteristic exceeds the largest
    exponent the interpolation reads back (exponents are recovered as
    coefficient ratios, so they must stay below the characteristic).  The
    operands are reduced modulo X^p - 1 for a prime p in [lam, 2*lam],
    lam = lambda_no_collision(#F*#G, D, mu1/2), D = deg(F) + deg(G).  That
    prime is drawn only when max(deg F, deg G) >= lam: below it no p in
    [lam, 2*lam] wraps an operand, so p = lam stands in, every reduction
    is the identity, and the collision share mu1/2 goes to the checks.
    When no operand wraps (deg F < p and deg G < p), exponents stay at
    most D and the characteristic must exceed D; when one wraps, it must
    exceed D and 2p.  CharacteristicTooSmallError otherwise: char <= D
    before any randomness is drawn, char <= 2p once p is drawn and an
    operand wraps past it.

    Every doubling iteration interpolates h1 = F_p*G_p (F_p = F mod X^p - 1)
    under the sparsity guess t and checks it with verify_sp.  Each job
    (interp_sum_sp) derives its degree and height bounds from its pairs.
    The guesses lie on the lattice ceil(t0*2^k), t0 = max(#F, #G), from the
    k that puts the first one in [2, 4) (or at t0 when t0 < 2), so a small
    output is found at a small prime; every guess >= t0 is t0*2^k.  The
    interpolation jobs only stop on residues they explain (interp), so
    these checks are the certificate.

    A job whose residue overflows raises SparsityBoundError(floor), a
    proven lower bound on the sparsity of its target (interp_sum_sp).  That
    residue of target - h* was nonzero, so h* is provably wrong and is not
    checked.  A job's output keeps at most 2t terms, so no guess with
    2t < floor can succeed: the next guess is the smallest lattice point
    above t with 2*guess >= floor.  At most _MAX_DOUBLINGS lattice points
    are tried, and only guesses that cannot succeed are skipped.  A
    product with many terms overflows its first guesses at small primes,
    and the floors lead it to a guess that holds it, usually the only one
    checked.

    No operand wraps: F_p = F and G_p = G, so h1 interpolates F*G itself,
    under its true degree bound D + 1, and is returned once its check
    passes; no h2 job runs and no p can collide, since nothing was
    reduced.  An operand wraps: h1 is a residue of degree < 2p, and once
    it passes, h2 = (F*G)' mod X^p - 1 is interpolated and checked with
    verify_sum_sp; the terms of F*G are read off the pair by find_terms,
    under degree D and, over Z, the height bound of F*G.  The same
    floor rule applies to the h2 job: if it raises, its guess is not
    checked, and the next guess is sized from its floor.

    The checks share mu1 by a union bound.  A wrong output needs a wrong
    h1 or h2 accepted, or, when an operand wraps, a p under which two
    exponents of F*G collide, which lambda_no_collision makes happen with
    probability <= mu1/2.  So the checks get share = mu1 when no operand
    wraps and share = mu1/2 when one does, and the k-th check run
    (verify_sp and verify_sum_sp calls alike, from k = 1) gets eps =
    share/2^k.  However many guesses are checked, they spend less than
    share, so the output is wrong with probability < mu1.  An unwrapped
    product whose first check passes checks once, at eps = mu1/2.
    """
    ring = _same_ring(F, G)
    if F.is_zero or G.is_zero:
        return zero_poly(ring)
    if F.degree == 0:
        return scale(G, F.terms[0][1])
    if G.degree == 0:
        return scale(F, G.terms[0][1])

    mu1, mu2 = params.mu1, params.mu2
    t0 = max(F.sparsity, G.sparsity)
    D = F.degree + G.degree  # >= 2 once constants are gone
    if ring.is_field and ring.char <= D:
        raise CharacteristicTooSmallError(
            f"characteristic {ring.char} must exceed deg F + deg G = {D}")

    lam = lambda_no_collision(F.sparsity * G.sparsity, D, mu1 / 2.0)
    # below lam no p in [lam, 2*lam] wraps an operand: p = lam reduces nothing
    p = random_prime(lam, rng) if max(F.degree, G.degree) >= lam else lam
    # unless an operand wraps, F_p = F and G_p = G and h1 is F*G itself,
    # whose exponents stay <= D < char
    wraps = F.degree >= p or G.degree >= p
    if wraps and ring.is_field and ring.char <= 2 * p:
        raise CharacteristicTooSmallError(
            f"characteristic {ring.char} must exceed 2p = {2 * p} for exponent recovery")

    eps = mu1 / 2.0 if wraps else mu1  # the share; halved before each check
    F_p = cyclic_reduce(F, p)
    G_p = cyclic_reduce(G, p)
    Fd_p = cyclic_reduce(derivative(F), p)
    Gd_p = cyclic_reduce(derivative(G), p)

    mu_star = mu2 - mu1 / 2.0
    mu_interp = mu_star / 2.0 if mu_star > 0 else mu1 / 8.0
    deriv_pairs = [(F_p, Gd_p), (Fd_p, G_p)]

    # the guesses are ceil(t0*2^k), from the k that puts the first in [2, 4):
    # a first guess of 1 draws p from {2, 3}, can never overflow, and
    # spends a check on an unexplained h1
    k = min(0, 2 - t0.bit_length())
    k_last = k + _MAX_DOUBLINGS - 1
    while k <= k_last:
        t = _guess(t0, k)
        floor = 0
        try:
            h1 = interp_sum_sp([(F_p, G_p)], t, mu_interp, rng)
            # interpolating h2 only after h1 passes skips the heavier job on
            # every round whose sparsity guess is still too small
            eps /= 2.0
            if verify_sp(F_p, G_p, h1, eps, rng):
                if not wraps:
                    return h1
                h2 = interp_sum_sp(deriv_pairs, t, mu_interp, rng)
                eps /= 2.0
                if verify_sum_sp(h2, deriv_pairs, eps, rng):
                    break
        except SparsityBoundError as err:
            # h* left a nonzero residue, so it is wrong: no check, and no
            # guess whose 2t-term output cannot hold floor terms
            floor = err.floor
        k += 1
        while 2 * _guess(t0, k) < floor:
            k += 1
    else:
        raise RetryBudgetError("sparsity-doubling loop failed to converge")

    H_p = cyclic_reduce(h1, p)
    Hd_p = cyclic_reduce(h2, p)
    C = height_bound([(F, G)]) if ring.kind == "integers" else None
    return find_terms(p, H_p, Hd_p, D, C)
