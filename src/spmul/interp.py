"""Sparse interpolation of a sum of sparse products from cyclic residues.

Each round reduces the target modulo X^p - 1 for a random prime p among
the first O(T log D) primes.  A term c*X^e of the target that does not
collide with another term mod p shows up in the residue as c*X^(e mod p)
and in the derivative's residue as (c*e)*X^((e-1) mod p), so e pops out
of one division.  Both residues come from one pass over the term pairs
(cyclic_product_residue): grouping each operand's terms by e mod p into
slots that carry sum c and sum e*c gives both the product's slot sums and
its derivative's, by the product rule.  The slot sums are carried as
integer images (RingSpec.lift), accumulated either pair by pair or through
the integer kernel poly.dense_cyclic_mul, and dropped back into the
operands' ring once per slot.  Rounds accumulate recovered terms into a
running approximation h* and correct earlier mistakes automatically, because
wrong terms reappear negated in later residues.

A job ends at the first round whose update explains both residues of
H - h*: then H - h* - update vanishes mod X^p - 1, and so does its
derivative.  That takes two counts, not another residue walk.  find_terms
emits at most one term per residue slot r, with e = r (mod p) and that
slot's c, and then e*c is exactly the derivative slot's coefficient at
(r - 1) mod p, which is nonzero whenever e > 0 (over a field, e <= D <
char keeps e nonzero).  Distinct r give distinct slots, so update's
residues are sub-polynomials of the observed ones, and equal to them iff
#update = #residue and #residue_d = #{(e, c) in update : e > 0}.  The
zero residue pair is the empty case.  The rule is a stopping rule, not
a certificate: p was used to build the update, so a collision at p can
make a wrong h* look explained.  The caller's verifier (product.py)
certifies the result.
"""

from __future__ import annotations

import math
import operator

from .arith import RandomSource, first_primes
from .errors import CharacteristicTooSmallError, SparsityBoundError
from .poly import SparsePoly, _same_ring, add, dense_cyclic_mul, height_bound, zero_poly
from .rings import RingSpec, add_mul_count


def _dense_is_cheaper(p: int, slotted, work: int) -> bool:
    """Whether three packed products per pair beat work sparse slot-pair steps.

    Costs are in sparse steps (one slot pair, about 0.25 us).  A packed
    product of p slots w bits wide takes about 3.2*p + (p*w)^1.585 / 8300
    steps: packing and unpacking, then Karatsuba on the packed integers.
    Both constants were fitted to timings of the two routes at 101 <= p <=
    35521 on example2 and random integer pairs (CPython 3.11, x86-64).
    """
    dense = 3 * 3.2 * p * len(slotted)
    if dense >= work:
        return False
    pbits = p.bit_length() + 2
    for fs, gs in slotted:
        fc, fd, gc, gd = (max((abs(t[i]) for t in slots), default=0).bit_length()
                          for slots in (fs, gs) for i in (1, 2))
        for w in (fc + gc, fd + gc, fc + gd):
            dense += (p * (w + pbits)) ** 1.585 / 8300
    return dense < work


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
    ring = _same_ring(H_p, Hprime_p)
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


def _slot_sums(F: SparsePoly, p: int) -> list:
    """F's terms grouped by e mod p: [(r, sum c, sum e*c)], sums in the ring.

    A slot can keep sum e*c with sum c cancelled (1 - X^p at r = 0); only
    slots where both sums vanish are left out.
    """
    ring = F.ring
    sums: dict = {}
    if ring.kind == "ext_field":
        for e, c in F.terms:
            r = e % p
            if r in sums:
                s, d = sums[r]
                sums[r] = ([a + b for a, b in zip(s, c)], [a + e * b for a, b in zip(d, c)])
            else:
                sums[r] = (c, [e * b for b in c])
        q = ring.q
        out = [(r, tuple(a % q for a in s), tuple(a % q for a in d)) for r, (s, d) in sums.items()]
        zero = ring.zero()
        return [t for t in out if t[1] != zero or t[2] != zero]
    for e, c in F.terms:
        r = e % p
        if r in sums:
            s, d = sums[r]
            sums[r] = (s + c, d + e * c)
        else:
            sums[r] = (c, e * c)
    if ring.is_field:
        q = ring.q
        sums = {r: (s % q, d % q) for r, (s, d) in sums.items()}
    return [(r, s, d) for r, (s, d) in sums.items() if s or d]


def cyclic_product_residue(pairs, minus: SparsePoly, p: int, limit: int):
    """(H mod X^p - 1, H' mod X^p - 1) for H = sum F_i*G_i - minus, from one
    pass over the term pairs and without the full products.  interp_sum_sp
    passes its running h* as minus and its overflow bound as limit.  Every
    F_i, G_i and minus must share one ring (RingMismatchError otherwise),
    which the residues live in.

    Each operand's terms are grouped into slots r = e mod p carrying
    c = sum c_j and d = sum e_j*c_j.  A pair of slots (r1, r2) stands for
    term products of exponent e = k (mod p), k = r1 + r2 mod p, whose
    derivative terms e*c1*c2*X^(e-1) sum to d1*c2 + c1*d2 in slot k - 1; so
    it adds c1*c2 to slot k of H and d1*c2 + c1*d2 to slot k - 1 of H'.  The
    sums are accumulated over integer images (RingSpec.lift) and each slot
    is dropped back into the ring once.  Two equivalent routes accumulate
    them: direct sparse accumulation over the slot pairs, charged 3 ring
    mults per pair, or three packed dense cyclic convolutions per pair over
    Z.  The one the cost model _dense_is_cheaper predicts faster is taken.
    As soon as either residue has N > limit terms, the rest of the tail is
    skipped and SparsityBoundError(N - #minus) raised: reduction modulo
    X^p - 1 only merges terms, and differentiation adds none, so N <=
    #(sum F_i*G_i - minus) <= #(sum F_i*G_i) + #minus.  Empty pairs raise
    ValueError: there is no ring to take.
    """
    if not pairs:
        raise ValueError("pairs must be nonempty")
    ring = _same_ring(*(F for pair in pairs for F in pair), minus)
    slotted = [(_slot_sums(F, p), _slot_sums(G, p)) for F, G in pairs]
    work = sum(len(fs) * len(gs) for fs, gs in slotted)
    # a slot of F_i meets at most one slot of G_i in any one slot, and a
    # derivative slot takes two products per such meeting
    width = ring.lift_width(2 * sum(min(len(fs), len(gs)) for fs, gs in slotted))
    if width is not None:
        lift = ring.lift
        slotted = [([(r, lift(c, width), lift(d, width)) for r, c, d in fs],
                    [(r, lift(c, width), lift(d, width)) for r, c, d in gs])
                   for fs, gs in slotted]
    # both routes key the derivative's slots by k; the shift to k - 1 comes last
    if _dense_is_cheaper(p, slotted, work):
        vec, dvec = [0] * p, [0] * p
        for fs, gs in slotted:
            fc, fd, gc, gd = [0] * p, [0] * p, [0] * p, [0] * p
            for r, c, d in fs:
                fc[r], fd[r] = c, d
            for r, c, d in gs:
                gc[r], gd[r] = c, d
            for out, a, b in ((vec, fc, gc), (dvec, fd, gc), (dvec, fc, gd)):
                out[:] = map(operator.add, out, dense_cyclic_mul(a, b))
        acc, dacc = dict(enumerate(vec)), dict(enumerate(dvec))
    else:
        acc, dacc = {}, {}
        for fs, gs in slotted:
            for r1, c1, d1 in fs:
                for r2, c2, d2 in gs:
                    k = r1 + r2
                    if k >= p:
                        k -= p
                    if k in acc:
                        acc[k] += c1 * c2
                        dacc[k] += d1 * c2 + c1 * d2
                    else:
                        acc[k] = c1 * c2
                        dacc[k] = d1 * c2 + c1 * d2
        add_mul_count(3 * work)
    # images have nonnegative digits, so minus enters negated
    for r, c, d in _slot_sums(minus, p):
        acc[r] = acc.get(r, 0) + ring.lift(ring.neg(c), width)
        dacc[r] = dacc.get(r, 0) + ring.lift(ring.neg(d), width)

    zero = ring.zero()
    drop = ring.drop if ring.is_field else None

    def settle(slots: dict, shift: int):
        items = ((k, v) for k, v in slots.items() if v)
        if drop is not None:
            items = ((k, drop(v, width)) for k, v in items)
        terms = [((k - shift) % p if shift else k, c) for k, c in items if c != zero]
        if len(terms) > limit:
            raise SparsityBoundError(len(terms) - minus.sparsity)
        terms.sort()
        return SparsePoly(ring, tuple(terms))

    return settle(acc, 0), settle(dacc, 1)


def _trim(H: SparsePoly, T: int, C: int | None) -> SparsePoly:
    """H without its terms above height C, cut to its 2T lowest terms.  No degree
    filter: find_terms emits only e <= D - 1, and h* holds only its updates."""
    terms = H.terms
    if C is not None:
        terms = [(e, c) for e, c in terms if abs(c) <= C]
    if len(terms) > 2 * T:
        terms = terms[: 2 * T]  # already sorted: keeps the lowest degrees
    return SparsePoly(H.ring, tuple(terms))


def interp_sum_sp(pairs, T: int, mu: float, rng: RandomSource) -> SparsePoly:
    """Interpolate H = sum F_i*G_i, for nonempty pairs sharing one ring
    (RingMismatchError otherwise), a sparsity bound T >= 1 and a failure
    budget 0 < mu < 1.

    The bounds that follow from the pairs are derived, not passed: D = 1 +
    the largest deg F_i + deg G_i over pairs with no zero side (at least
    2) strictly bounds the degree of H, and over Z, C = poly.height_bound
    bounds its height.  The output has at most 2T terms, degree < D, and
    (over Z) height <= C.  A job ends at the first round whose find_terms
    update explains both residues of H - h* (h* the running approximation;
    see the module docstring for the count test) and whose _trim keeps
    every term of h* + update, so that H - h* and its derivative vanish
    mod X^p - 1 at that round's p.

    Either residue of H - h* with N terms proves #H >= N - #h*: H - h* and
    its derivative have at most #H + #h* terms, and reduction only merges
    them.  Once a residue has more than min(3T, 2T + #h*) terms, the job
    raises SparsityBoundError with floor = N - #h*, a proven lower bound
    on #H, and returns nothing.  When 2T + #h* binds, floor > 2T and no
    output of at most 2T terms can be H; when 3T binds, floor > T, which
    no honest job (T >= #H) reaches.  The caller can skip checking the job
    and size its next guess from the floor.

    For an honest job (T >= #H), the job ends at the round that brings h*
    to H (or the next one, if _trim dropped terms on the way), because
    H - h* is then zero; mu bounds the probability that the round cap runs
    out first.  Neither mu nor the cap bounds an early exit on a wrong h*,
    which needs terms of H - h* to collide at that round's p into a term
    consistent with both residues.  The output is certified only by
    verifying it.
    """
    if not pairs:
        raise ValueError("pairs must be nonempty")
    ring = _same_ring(*(F for pair in pairs for F in pair))
    if T < 1:
        raise ValueError("T must be >= 1")
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie in (0, 1)")
    D = max([2] + [F.degree + G.degree + 1 for F, G in pairs if F.terms and G.terms])
    C = height_bound(pairs) if ring.kind == "integers" else None
    # exponents are read back as coefficient ratios, up to D - 1
    if ring.is_field and ring.char < D:
        raise CharacteristicTooSmallError(
            f"characteristic {ring.char} must exceed the largest exponent {D - 1}")
    # each round halves the missing terms with constant probability, so
    # log2(2T) rounds to find everything plus log2(1/mu) to drive the
    # failure budget down, plus slack
    rounds = math.ceil(math.log2(2 * T)) + math.ceil(math.log2(1.0 / mu)) + 2
    double_c = 2 * C if C is not None else None
    h_star = zero_poly(ring)
    # rounds draw p from the first 2*floor(6.4*(T-1)*log2 D) primes
    n_pool = max(1, math.floor((32.0 / 5.0) * (T - 1) * math.log2(D)))
    primes = first_primes(2 * n_pool)
    for _ in range(rounds):
        p = primes[rng.randrange(len(primes))]
        # both residues of H - h* have at most #H + #h* terms, so more than
        # 2T + #h* prove #H > 2T, and _trim keeps at most 2T terms: no later
        # round can reach H, so the walk raises SparsityBoundError at once.
        # An honest job (T >= #H) stays within T + #h* <= 3T and never
        # gets there.
        limit = min(3 * T, 2 * T + h_star.sparsity)
        residue, residue_d = cyclic_product_residue(pairs, h_star, p, limit=limit)
        update = find_terms(p, residue, residue_d, D - 1, double_c)
        total = add(h_star, update)
        h_star = _trim(total, T, C)
        # update explains both residues exactly and _trim kept all of it:
        # H - h* now vanishes mod X^p - 1, and so does its derivative
        if (update.sparsity == residue.sparsity
                and residue_d.sparsity == sum(1 for e, _ in update.terms if e)
                and h_star.sparsity == total.sparsity):
            break
    return h_star
