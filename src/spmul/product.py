"""Sparse polynomial multiplication by sparsity-doubling interpolation
with a posteriori verification.

The product F*G is interpolated modulo X^p - 1 (p a random prime large
enough that exponent collisions are unlikely) together with its
derivative's residue, under a guessed sparsity bound that doubles until
both interpolants pass verification; the terms of F*G are then read off
the verified residue pair.  mu1 budgets a wrong output (sparse_product
counts how the checks spend it); the doubling loop stays small with
probability at least 1 - mu2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import RandomSource, lambda_no_collision, random_prime
from .errors import CharacteristicTooSmallError, RetryBudgetError, RingMismatchError
from .interp import InterpJob, find_terms, interp_sum_sp
from .poly import SparsePoly, cyclic_reduce, derivative, scale, zero_poly
from .verify import verify_sp, verify_sum_sp


@dataclass(frozen=True)
class ProductParams:
    """Failure budgets: mu1 for a wrong product (sparse_product counts how
    its checks spend it), mu2 for the doubling loop overshooting."""

    mu1: float
    mu2: float

    def __post_init__(self):
        if not 0.0 < self.mu1 < 1.0 or not 0.0 < self.mu2 < 1.0:
            raise ValueError("mu1 and mu2 must lie in (0, 1)")
        if self.mu1 / 2.0 > self.mu2:
            raise ValueError("mu1/2 must not exceed mu2")


def _height_bound(A: SparsePoly, B: SparsePoly) -> int:
    # ||A*B||_inf <= min(#A, #B) * ||A|| * ||B||, computed on the actual operands
    if A.is_zero or B.is_zero:
        return 0
    return min(A.sparsity, B.sparsity) * A.height() * B.height()


_MAX_DOUBLINGS = 64


def sparse_product(F: SparsePoly, G: SparsePoly, params: ProductParams,
                   rng: RandomSource) -> SparsePoly:
    """Compute F*G, with mu1 as the budget for a wrong output.

    Works over Z and over fields whose characteristic exceeds not just
    D = deg(F) + deg(G) but also 2p for the internally drawn prime p
    (exponents are encoded into coefficients modulo X^p - 1, so they must
    stay below the characteristic); CharacteristicTooSmallError otherwise.
    p lies in [lam, 2*lam] with lam = lambda_no_collision(#F*#G, D, mu1/2),
    so a characteristic q <= 2*lam always fails the 2p condition and one
    above 4*lam never does.

    The interpolation jobs only stop on residues they explain (interp), so
    the checks below are the certificate.  Failure budget as spent: p makes
    two exponents of F*G collide with probability <= mu1/2
    (lambda_no_collision), and every doubling iteration runs its own checks
    at eps = mu1/2, verify_sp on h1 and, once h1 passes, verify_sum_sp on
    h2.  A wrong output needs a colliding p or a wrong h1 or h2 accepted, so
    the union bound over the checks run is mu1/2 * (1 + #h1 checks + #h2
    checks): 3*mu1/2 when the first guess passes.  Counted per iteration
    instead (one ends the loop wrongly only if the wrong member of its pair
    is accepted), it is mu1/2 * (1 + iterations).  Either count exceeds the
    stated mu1 once a guess is rejected, so 1 - mu1 is not proved for
    products that double the guess.
    """
    if F.ring != G.ring:
        raise RingMismatchError("operands live in different rings")
    ring = F.ring
    if F.is_zero or G.is_zero:
        return zero_poly(ring)
    if F.degree == 0:
        return scale(G, F.terms[0][1])
    if G.degree == 0:
        return scale(F, G.terms[0][1])

    mu1, mu2 = params.mu1, params.mu2
    t = max(F.sparsity, G.sparsity)
    D = F.degree + G.degree  # >= 2 once constants are gone
    over_z = ring.kind == "integers"
    C = t * F.height() * G.height() if over_z else None
    if ring.is_field and ring.char <= D:
        raise CharacteristicTooSmallError(
            f"characteristic {ring.char} must exceed deg F + deg G = {D}")

    lam = lambda_no_collision(F.sparsity * G.sparsity, D, mu1 / 2.0)
    p = random_prime(lam, rng)
    if ring.is_field and ring.char <= 2 * p:
        raise CharacteristicTooSmallError(
            f"characteristic {ring.char} must exceed 2p = {2 * p} for exponent recovery")

    F_p = cyclic_reduce(F, p)
    G_p = cyclic_reduce(G, p)
    Fd_p = cyclic_reduce(derivative(F), p)
    Gd_p = cyclic_reduce(derivative(G), p)

    mu_star = mu2 - mu1 / 2.0
    mu_interp = mu_star / 2.0 if mu_star > 0 else mu1 / 8.0
    deriv_pairs = [(F_p, Gd_p), (Fd_p, G_p)]
    c1 = _height_bound(F_p, G_p) if over_z else None
    c2 = _height_bound(F_p, Gd_p) + _height_bound(Fd_p, G_p) if over_z else None

    for _ in range(_MAX_DOUBLINGS):
        h1 = interp_sum_sp(InterpJob([(F_p, G_p)], t, 2 * p, c1, mu_interp), rng)
        # interpolating h2 only after h1 passes skips the heavier job on
        # every round whose sparsity guess is still too small
        if verify_sp(F_p, G_p, h1, mu1 / 2.0, rng):
            h2 = interp_sum_sp(InterpJob(deriv_pairs, t, 2 * p, c2, mu_interp), rng)
            if verify_sum_sp(h2, deriv_pairs, mu1 / 2.0, rng):
                break
        t *= 2
    else:
        raise RetryBudgetError("sparsity-doubling loop failed to converge")

    H_p = cyclic_reduce(h1, p)
    Hd_p = cyclic_reduce(h2, p)
    return find_terms(p, H_p, Hd_p, D, C)


def sumset_size(F: SparsePoly, G: SparsePoly) -> int:
    """Structural sparsity: |{a + b : a in supp F, b in supp G}|.

    Brute force; diagnostic and benchmark utility.
    """
    if F.is_zero or G.is_zero:
        return 0
    return len({a + b for a in F.support for b in G.support})
