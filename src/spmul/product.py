"""Sparse polynomial multiplication by sparsity-doubling interpolation
with a posteriori verification.

The operands are reduced modulo X^p - 1 (p a random prime large enough
that exponent collisions are unlikely) and their product interpolated
under a guessed sparsity bound that starts in [2, 4) and doubles until the
result passes verification, skipping every guess a residue proves too
small and growing no further once it could hold #F*#G terms.  At the
first guess a residue proves too small, the exponents alone prove a floor
on #(F*G), the sums e1 + e2 that exactly one term pair reaches (the
walk's count of single hits, at a p where no sum wraps); it draws nothing
and sizes every later guess.  p is drawn from [lam, 2*lam] only
when an operand's degree reaches lam; below it no such p wraps an
operand, so none is drawn.  When neither operand has degree >= p, the
reduction changes nothing, so the interpolant is F*G itself.  Otherwise
the derivative's residue is interpolated too, and the terms of F*G are
read off the residue pair.  Either way the result is checked as a
product, verify_sp(F, G, h): mu1 budgets a wrong output, by one union
bound over those checks, and mu2 the doubling loop failing to converge,
a colliding p included.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import RandomSource, lambda_no_collision, random_prime
from .errors import CharacteristicTooSmallError, RetryBudgetError, SparsityBoundError
from .interp import find_terms, interp_sum_sp
from .poly import (SparsePoly, _same_ring, cyclic_reduce, derivative, height_bound, scale,
                   zero_poly)
from .verify import verify_sp


@dataclass(frozen=True)
class ProductParams:
    """Failure budgets: mu1 for a wrong product (one union bound over
    sparse_product's checks), mu2 for the doubling loop failing to
    converge.  mu2 covers a colliding cyclic prime, which happens with
    probability at most mu1/2, hence mu1/2 <= mu2; the interpolation jobs
    get the rest, (mu2 - mu1/2)/2 each.  At the boundary mu2 = mu1/2 no
    rest is left: the jobs get mu1/8 each instead, and the loop's failure
    to converge is bounded by mu2 + mu1/4, not by mu2 (sparse_product)."""

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


def _exponent_floor(F: SparsePoly, G: SparsePoly) -> int:
    """The number of sums e1 + e2 over supp F x supp G that exactly one
    term pair reaches, or 0 as soon as the running count falls below
    #F*#G/8 of the rows (terms of F) done.  Such a sum's coefficient is
    c1*c2, nonzero over Z and over every field, so the count is a proven
    lower bound on #(F*G).  It is the walk's single-hit count
    (interp.cyclic_product_residue) at p = deg F + deg G + 1, where no sum
    wraps and every slot holds one term, so the exponents are all it
    reads.  A count that ends high rarely falls that low; structured sums,
    whose rows repeat the same few sums, do within a few rows."""
    limit = F.sparsity * G.sparsity // 8
    g_exps = [e for e, _ in G.terms]
    seen: set = set()
    multi: set = set()  # reached twice or more
    for done, (e1, _) in enumerate(F.terms, 1):
        row = set(map(e1.__add__, g_exps))
        multi |= seen & row
        seen |= row
        if (len(seen) - len(multi)) * F.sparsity < limit * done:
            return 0
    return len(seen) - len(multi)


def sparse_product(F: SparsePoly, G: SparsePoly, params: ProductParams,
                   rng: RandomSource) -> SparsePoly:
    """Compute F*G, with mu1 as the budget for a wrong output.

    Works over Z and over fields whose characteristic exceeds the largest
    exponent the interpolation reads back (exponents are recovered as
    coefficient ratios, so they must stay below the characteristic).  The
    operands are reduced modulo X^p - 1 for a prime p in [lam, 2*lam],
    lam = lambda_no_collision(#F*#G, D, mu1/2), D = deg(F) + deg(G), so
    that two exponents of F*G collide modulo p with probability at most
    mu1/2.  That prime is drawn only when max(deg F, deg G) >= lam: below
    it no p in [lam, 2*lam] wraps an operand, so p = lam stands in and
    every reduction is the identity.  When no operand wraps (deg F < p and
    deg G < p), exponents stay at most D and the characteristic must
    exceed D; when one wraps, it must exceed D and 2p.
    CharacteristicTooSmallError otherwise: char <= D before any randomness
    is drawn, char <= 2p once p is drawn and an operand wraps past it.

    Every guess t interpolates h1 = F_p*G_p (F_p = F mod X^p - 1) under t,
    takes a candidate h for F*G from it, and checks h with
    verify_sp(F, G, h) on the operands themselves.  Each job
    (interp_sum_sp) derives its degree and height bounds from its pairs.
    The guesses lie on the lattice ceil(t0*2^k), t0 = max(#F, #G), from the
    k that puts the first one in [2, 4) (or at t0 when t0 < 2), so a small
    output is found at a small prime; every guess >= t0 is t0*2^k.  The
    interpolation jobs only stop on residues they explain (interp), so
    these checks are the certificate.

    No operand wraps: F_p = F and G_p = G, so h1 interpolates F*G itself,
    under its true degree bound D + 1, and h = h1.  An operand wraps: h1
    is a residue of degree < 2p, h2 = (F*G)' mod X^p - 1 is interpolated
    under the same guess, and h is read off the pair's slot triples by
    find_terms, under degree D and, over Z, the height bound of F*G.

    A job whose residue overflows raises SparsityBoundError(floor), a
    proven lower bound on the sparsity of its target (interp_sum_sp).  That
    residue of target - h* was nonzero, so h* is provably wrong, and the
    guess is not checked.  A job's output keeps at most 2t terms, so no
    guess with 2t < floor can succeed: the next guess is the smallest
    lattice point above t with 2*guess >= floor.

    At the first such overflow the product's exponent floor is counted
    once (_exponent_floor): the sums e1 + e2 over supp F x supp G that
    exactly one term pair reaches.  Such a sum's coefficient in F*G is
    c1*c2, nonzero over Z and over every field, so the count is a proven
    lower bound on #(F*G).  It reads the exponents alone, draws no
    randomness and spends no share of mu1 or mu2.  From then on every
    next guess is sized from max(job floor, exponent floor).  No guess
    with 2t < #(F*G) can return F*G, wrapped or not: h1's output keeps at
    most 2t terms, and find_terms emits at most one term per slot of it.
    So the skipped guesses hold no product that could pass.  A random
    product, whose sums are nearly all distinct, overflows its first guess
    at a small prime and jumps from there to the guess that holds it,
    usually the only one checked.  A structured one, whose sums repeat,
    gives up the count within a few rows and keeps the job floors alone.

    The guesses stop growing at the first lattice point t >= #F*#G: later
    guesses repeat it with fresh randomness.  No target has more than
    #F*#G terms: F*G has at most one term per term pair (e, f), and so do
    the jobs' targets F_p*G_p and F_p*G'_p + F'_p*G_p, whose terms lie in
    the slots (e + f) mod p and (e + f - 1) mod p.  So every job
    at such t is honest (T >= #target), no floor exceeds #F*#G <= t, and
    no larger guess is ever needed.  At most _MAX_DOUBLINGS guesses are
    tried, so a product that cannot converge (below) raises
    RetryBudgetError after that many guesses, none above that point, in
    memory bounded by the instance.

    The checks share mu1 by one union bound: the k-th check (from k = 1)
    gets eps = mu1/2^k, so however many guesses are checked they spend
    less than mu1.  A check is on F*G itself, so a wrong output needs a
    wrong candidate accepted, and the output is wrong with probability
    < mu1.  A product whose first check passes checks once, at
    eps = mu1/2.

    A colliding p, under which two exponents of F*G are equal modulo p,
    cannot make a wrong output, only keep the loop from converging.
    find_terms emits at most one term per residue class modulo p, and F*G
    then has two terms in one class, so no candidate of that product is
    F*G, and each is rejected unless its check errs, which the union bound
    above already counts.  The collision has probability at most mu1/2
    (lam above).

    A job can also end early on a wrong candidate: at its round 0, a walk
    at a prime near 4t taken before the proven pool (interp_sum_sp), or on
    a misread slot its repairs let through.  Such a guess is rejected by
    its check, so an early exit costs a check, already inside the union
    bound, and a larger guess, never a wrong output.  A floor raised at
    round 0 is proven like any other, so it too only skips guesses.

    Convergence is charged to mu2.  The guesses start at k = min(0, 2 -
    bit_length(t0)) and reach the cap, t >= #F*#G, by k = bit_length(t0)
    at the latest, since #F*#G <= t0^2 < t0*2^bit_length(t0), and floors,
    the exponent floor included, are at most #F*#G, so they only skip
    guesses below the cap: at most 2*bit_length(t0) - 1 guesses, fewer than
    _MAX_DOUBLINGS for every t0 < 2^32.  Below the cap every output is
    certified by its check and every floor is proven, whatever round 0
    did, so the bound counts only the first guess at the cap.  There every
    job is honest, and its short round is gated off (interp_sum_sp: sum
    #F_i*#G_i <= #pairs*#F*#G falls short of the gate), so each job runs
    its pool rounds alone, from h* = 0, and fails to end on its target
    with probability at most its budget.  When it does end there and p
    does not collide, h = F*G, which verify_sp always accepts.  So the
    loop fails to converge with probability at most mu1/2 (p) plus the
    budgets of the first guess at the cap, at most two jobs: mu1/2 +
    2*(mu2 - mu1/2)/2 = mu2.  At mu2 = mu1/2 the jobs get mu1/8 each
    (ProductParams), and the bound is mu2 + mu1/4.
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
    n = F.sparsity * G.sparsity  # no product has more terms
    D = F.degree + G.degree  # >= 2 once constants are gone
    if ring.is_field and ring.char <= D:
        raise CharacteristicTooSmallError(
            f"characteristic {ring.char} must exceed deg F + deg G = {D}")

    lam = lambda_no_collision(n, D, mu1 / 2.0)
    # below lam no p in [lam, 2*lam] wraps an operand: p = lam reduces nothing
    p = random_prime(lam, rng) if max(F.degree, G.degree) >= lam else lam
    # unless an operand wraps, F_p = F and G_p = G and h1 is F*G itself,
    # whose exponents stay <= D < char
    wraps = F.degree >= p or G.degree >= p
    if wraps and ring.is_field and ring.char <= 2 * p:
        raise CharacteristicTooSmallError(
            f"characteristic {ring.char} must exceed 2p = {2 * p} for exponent recovery")

    eps = mu1  # halved before each check
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
    exp_floor = None  # counted at the first overflow
    for _ in range(_MAX_DOUBLINGS):
        t = _guess(t0, k)
        floor = exp_floor or 0
        try:
            h = interp_sum_sp([(F_p, G_p)], t, mu_interp, rng)
            if wraps:
                # the slot triples of F*G mod X^p - 1: X*(F*G)' at r is h2's
                # slot r - 1
                h2 = interp_sum_sp(deriv_pairs, t, mu_interp, rng)
                deriv = dict(cyclic_reduce(h2, p).terms)
                slots = [(r, c, deriv.get((r - 1) % p, 0)) for r, c in cyclic_reduce(h, p).terms]
                C = height_bound([(F, G)]) if ring.kind == "integers" else None
                h = find_terms(p, ring, slots, D, C)
            eps /= 2.0
            if verify_sp(F, G, h, eps, rng):
                return h
        except SparsityBoundError as err:
            # h* left a nonzero residue, so it is wrong: no check, and no
            # guess whose 2t-term output cannot hold floor terms
            if exp_floor is None:
                exp_floor = _exponent_floor(F, G)
            floor = max(err.floor, exp_floor)
        if t < n:
            k += 1
            while 2 * _guess(t0, k) < floor:
                k += 1
    raise RetryBudgetError("sparsity-doubling loop failed to converge")
