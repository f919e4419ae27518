"""Sparse interpolation of a sum of sparse products from cyclic residues.

Each round reduces the target H modulo X^p - 1 for a random prime p among
the first O(T k(D)) primes, k(D) = O(log D / log log D) being the most
distinct prime factors a positive integer below D can have
(arith._omega_bound).  The round's residue is a list of slot triples
(r, c, d) in no particular order, one per slot r < p: c is the
coefficient of H mod X^p - 1 at X^r and d that of X*H' mod X^p - 1, the
sum of e*c_e over the terms c_e*X^e of H in the slot.  A term c*X^e of
the target that does not collide with another term mod p is alone in
slot e mod p, where d = e*c, so e pops out of one division.  The
triples come from one pass over the term pairs (cyclic_product_residue):
each operand's terms, grouped by e mod p into slots carrying the same
(r, sum c, sum e*c), give the product's c and d by the product rule.  The slot sums are carried as
integer images (RingSpec.lift), accumulated either pair by pair or through
the integer kernel poly.dense_cyclic_mul, and dropped back into the
operands' ring once per slot; nothing is sorted until the round sorts
its update by exponent.  Rounds accumulate recovered terms into a running
approximation h* and correct earlier mistakes automatically, because wrong
terms reappear negated in later residues; h* enters the walk as the slot
triples of -h*, which seed its accumulators in every ring.

Most slots of a walk at a pool prime need no division.  A slot that
exactly one slot pair reaches, both of its slots holding one term,
c1*X^e1 and c2*X^e2, and that holds no term of h*, holds the term
c1*c2*X^(e1+e2) of H - h* and nothing else: one product gives it, exact,
and it passes every test find_terms would make of its triple.  The walk
emits such lone slots as terms, at one ring mult each against the price
list's _PAIR_MULS per slot pair (the way Arnold and Roche read off the
terms that avoid collisions), and find_terms divides only the other
slots.

The same slots stop a walk that would overflow (more terms than the round
can use).  A slot that exactly one slot pair reaches, and that h* leaves
empty, holds the product of that pair's two c sums, nonzero when both are,
so the count of such slots is a proven lower bound on #H.  The walk
records its slot pairs before it multiplies any, counts those slots, and
raises when they are too many, without a ring product
(cyclic_product_residue).

A job ends at the first round whose update explains or repairs every slot
triple of H - h*: then H - h* - update vanishes mod X^p - 1, and so does X
times its derivative.  That takes one count and the repairs, not another
residue walk.  The update holds the lone terms, each exactly its slot's
terms, and find_terms' terms: at most one per slot r, and only from a
triple with c nonzero, with e = r (mod p), that slot's c, and e*c = d.
Distinct r give distinct slots, so update's residues are sub-polynomials
of the observed ones, and the slots its terms land in are explained:
their c and d are matched.  The other slots, where find_terms emits
nothing (a collision, or a c cancelled while d is not), are repaired
exactly from the operands (_repair): the term products c1*c2*X^(e1+e2)
with e1 + e2 in such a slot k are found by bucketing one operand of each
pair by e mod p, summed by exponent and taken less h*'s terms in slot
k.  Those are the terms of H - h* in slot k, every exponent with all of
its products, so h* + update equals H on every repaired slot.  A repair
is made only when it costs less than the walk a second round would take;
otherwise the job walks again, as every round did before.  The empty
list is the zero case.
The rule is a stopping rule, not a certificate: p was used to build the
update, so a collision at p can make a wrong h* look explained.  The
caller's verifier (product.py) certifies the result.

A job's first round may walk at a prime of the order of its sparsity
bound T instead of a pool prime, the way Arnold and Roche reduce modulo
primes of the order of the output and repair collisions afterwards
("Output-sensitive algorithms for sumset and sparse polynomial
multiplication", ISSAC 2015).  Round 0 walks at a random prime in
[4T, 8T] only where the term pairs reach the packing price at the top of
that range (the price list), so random outputs, which fill their term
pairs and collide at such a prime, skip it.  It is a round like
the others: its update seeds h*, which the pool rounds correct as they
correct each other's, a floor it raises is proven like theirs, and an
exit at its prime is certified by the caller's verifier like any other.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .arith import RandomSource, _omega_bound, first_primes, random_prime
from .errors import CharacteristicTooSmallError, SparsityBoundError
from .poly import (SparsePoly, _same_ring, add, dense_cyclic_mul, height_bound, negate,
                   zero_poly)
from .rings import RingSpec, add_mul_count


# The price list.  Every cost rule of this module reads its prices from
# here, all in one unit: one slot pair of the sparse walk, about 0.25 us
# (CPython 3.11, x86-64).
# - A slot pair takes _PAIR_MULS ring products, c1*c2, d1*c2 and c1*d2.
#   The sparse walk charges them per pair landing in a general slot (a
#   lone slot takes c1*c2 alone), and the dense route forms each as one
#   packed product.
# - Packing and unpacking one slot of one packed product takes _PACK = 3.2
#   units, kept as a fraction so that a floor compares exactly in
#   integers (_packing_over).  Past it, a packed product of p slots w bits
#   wide takes (p*w)^1.585 / 8300 units of Karatsuba (_dense_is_cheaper).
#   Both constants were fitted to timings of the two routes at
#   101 <= p <= 35521 on example2 and random integer pairs.
# - An operand term read into its slot sums, and each term visit of
#   _repair (bucketing, lookup, product), takes one unit.
# - Round 0 draws its prime from [_SHORT*T, 2*_SHORT*T] = [4T, 8T]
#   (random_prime), and runs only where the term pairs reach the packing
#   price at the top of that range (interp_sum_sp).
_PAIR_MULS = 3
_PACK = Fraction(16, 5)
_SHORT = 4


def _packing_over(p: int, n: int, work: int) -> int:
    """How far packing and unpacking n pairs' products at p slots costs
    more than work, in units of 1/_PACK.denominator: an integer, so that
    its sign compares the two exactly."""
    return _PAIR_MULS * p * n * _PACK.numerator - work * _PACK.denominator


def _dense_is_cheaper(p: int, slotted, work: int) -> bool:
    """Whether the dense route's packed products, _PAIR_MULS per pair, cost
    less than work, the sparse walk's slot pairs (prices in the price
    list): packing and unpacking, then Karatsuba on the packed integers."""
    over = _packing_over(p, len(slotted), work)
    if over >= 0:
        return False
    karatsuba = 0.0
    pbits = p.bit_length() + 2
    for fs, gs in slotted:
        fc, fd, gc, gd = (max((abs(t[i]) for t in slots), default=0).bit_length()
                          for slots in (fs, gs) for i in (1, 2))
        for w in (fc + gc, fd + gc, fc + gd):
            karatsuba += (p * (w + pbits)) ** 1.585 / 8300
    # what work leaves once the packing is paid
    return karatsuba < -over / _PACK.denominator


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


def find_terms(p: int, ring: RingSpec, slots, D: int, C: int | None, *,
               missed: list | None = None) -> SparsePoly:
    """Recover candidate terms of H from its slot triples modulo X^p - 1.

    slots are triples (r, c, d) with r < p, in any order, as
    cyclic_product_residue returns them: c is the coefficient of H mod
    X^p - 1 at X^r and d that of X*H' mod X^p - 1, the sum of e*c_e over
    the terms c_e*X^e of H in slot r.  A term c*X^e alone in its slot has
    d = e*c, so e = d/c.  A term is emitted only if c is nonzero, the
    division is valid (exact over Z; a prime-subfield element over
    F_{q^s}), 0 <= e <= D, e = r (mod p), and |c| <= C over Z.  Every term
    of the true H that did not collide mod X^p - 1 is recovered; colliding
    terms may produce spurious output.  Distinct slots give distinct e, so
    the output is sorted once, by e.

    missed, when given, receives the r of every slot that emits no term, in
    no particular order: the slots less {e mod p} over the output, found
    without reducing the output's exponents again.
    """
    if ring.is_field and ring.char <= D:
        raise CharacteristicTooSmallError(
            f"characteristic {ring.char} must exceed the degree bound {D}")
    if slots and max(map(operator.itemgetter(0), slots)) >= p:
        raise ValueError("slots must lie below p")

    lost = [] if missed is None else missed
    out = []
    if ring.is_field:
        # an element lies in the prime subfield iff it is below q, and
        # D < q, so the degree test below does both
        live = [t for t in slots if t[1]]
        if len(live) < len(slots):
            lost.extend(r for r, c, _ in slots if not c)
        invs = _batch_inverse(ring, [c for _, c, _ in live]) if live else []
        mul = ring.mul
        for (r, c, d), inv in zip(live, invs):
            e = mul(d, inv)
            if e <= D and e % p == r:
                out.append((e, c))
            else:
                lost.append(r)
    else:
        bound = math.inf if C is None else C
        for r, c, d in slots:
            if c and -bound <= c <= bound:
                e, rem = divmod(d, c)
                if not rem and 0 <= e <= D and e % p == r:
                    out.append((e, c))
                    continue
            lost.append(r)
    out.sort(key=operator.itemgetter(0))
    return SparsePoly(ring, tuple(out))


def _slot_sums(F: SparsePoly, p: int, width: int | None) -> list:
    """F's terms grouped by e mod p: [(r, sum c, sum e*c, e)], each sum as
    its integer image at width (RingSpec.lift): the value itself over Z,
    the value mod q over F_q, lift(drop(.)) over F_{q^s}.  e is the
    exponent of the slot's one term, or None where it holds more than one.

    A slot can keep sum e*c with sum c cancelled (1 - X^p at r = 0); only
    slots where both sums vanish are left out.  Over F_{q^s} the sums are
    taken over images of the field's own width, dropped once per slot and
    lifted again at width.
    """
    ring = F.ring
    terms = F.terms
    # a digit of a sum is at most #F * deg F * (q - 1), within the
    # n * s * (q - 1)^2 that lift_width(n) holds
    own = ring.lift_width(F.sparsity * (F.degree + 1)) if terms else None
    if own is not None:
        terms = [(e, ring.lift(c, own)) for e, c in terms]
    slots: dict = {}
    for e, c in terms:
        r = e % p
        if r in slots:
            _, s, d, _ = slots[r]
            slots[r] = (r, s + c, d + e * c, None)
        else:
            slots[r] = (r, c, e * c, e)
    if ring.is_field:
        drop, lift = ring.drop, ring.lift
        slots = {r: (r, lift(drop(s, own), width), lift(drop(d, own), width), e)
                 for r, s, d, e in slots.values()}
    return [t for t in slots.values() if t[1] or t[2]]


def cyclic_product_residue(pairs, minus: SparsePoly, p: int, limit: int) -> tuple:
    """The residue of H = sum F_i*G_i - minus modulo X^p - 1, from one
    pass over the term pairs and without the full products, as (triples,
    lone).  triples is the list of (r, c, d), in no particular order, one
    per slot r < p that is not lone (below) and where c or d is nonzero, c
    the coefficient of H mod X^p - 1 at X^r and d = sum e*c_e over the
    terms c_e*X^e of H in slot r, the coefficient of X*H' mod X^p - 1
    there.  lone is the list of terms (e, c), in no particular order, one
    per lone slot, each the only term of H in its slot.  interp_sum_sp
    passes its running h* as minus and its overflow bound as limit.  Every
    F_i, G_i and minus must share one ring (RingMismatchError otherwise),
    which c and d live in.

    Each operand's terms are grouped into slots r = e mod p carrying
    c = sum c_j and d = sum e_j*c_j (_slot_sums, the same slots).  A pair
    of slots (r1, r2) stands for term products of exponent e = k (mod p),
    k = r1 + r2 mod p, with e*c1*c2 summing to d1*c2 + c1*d2 by the
    product rule; so it adds c1*c2 to c and d1*c2 + c1*d2 to d at slot k.
    The sums are accumulated over integer images (RingSpec.lift) and each
    slot is dropped back into the ring once.  Two equivalent routes
    accumulate them: direct sparse accumulation over the slot pairs, or
    one packed dense cyclic convolution over Z per product of a slot pair.
    The one _dense_is_cheaper prices lower (the price list) is taken.
    Every slot sum, minus's included, is an image at one width, sized from
    term counts: a slot gains at most sum min(#F_i, #G_i) products in c,
    twice that in d, and one image of minus.  minus enters first and the
    same way in every ring: the slots of -minus (_slot_sums) seed both
    routes' accumulators, so a slot where minus's terms cancel both sums
    adds nothing.

    Once the residue is formed, the count of nonzero c (the terms of
    H mod X^p - 1) is checked first, then that of nonzero d (the terms of X*H' mod X^p - 1): as soon as one
    is N > limit, SparsityBoundError(N - #minus) is raised.  Reduction
    modulo X^p - 1 only merges terms, and X*H' has no more terms than H,
    so N <= #(sum F_i*G_i - minus) <= #(sum F_i*G_i) + #minus.  A lone
    term c*X^e counts as a nonzero c, and as a nonzero d unless e = 0.

    The sparse route reads lone slots as terms.  Let k be a slot that
    exactly one slot pair (r1, r2) reaches over all pairs, where r1 holds
    one term c1*X^e1 of F_i and r2 one term c2*X^e2 of G_i, and that holds
    no term of minus.  Then the only term product in slot k is
    c1*c2*X^(e1+e2), nonzero as Z and every field have no zero divisors,
    and nothing cancels it: H's terms in slot k are that one term, an
    exact term of H, with c = c1*c2 and d = (e1+e2)*c1*c2.  find_terms
    would read it from that triple, as every test it makes holds: c is
    nonzero, d/c = e1 + e2, e1 + e2 = k (mod p), and under interp_sum_sp's
    bounds e1 + e2 <= D - 1, below a field's characteristic, and, over Z,
    |c1*c2| <= C.  Such a slot's term (e1 + e2, c1*c2) goes to lone; a
    slot reached once and then by a later pair is a general slot, with
    both pairs' sums.  The dense route reads no lone slot: its lone is
    empty.

    The sparse route can prove the overflow before any ring product.  Its
    first pass only records where each slot pair lands: the one pair that
    has reached a slot so far, or, for a general slot (reached twice, or
    holding a term of minus), every pair that reaches it.  Let S be the
    number of slots that exactly one slot pair (r1, r2) reaches, with c1
    and c2 nonzero, and that hold no term of minus.  The c of H at such a
    slot is c1*c2, nonzero since Z and every field have no zero divisors,
    and it is also the c of sum F_i*G_i there, minus having nothing there.
    So #(sum F_i*G_i) >= #(sum F_i*G_i mod X^p - 1) >= S, and S > limit
    raises SparsityBoundError(S), with no ring product taken or charged.
    S is counted only when more than limit slots are reached once, as it
    cannot exceed limit otherwise.  Past the count, the walk forms the
    general slots' sums and the lone terms and checks the counts above.
    It charges the price list's _PAIR_MULS ring mults per slot pair that
    lands in a general slot and 1 per lone slot, its one product c1*c2.

    Empty pairs raise ValueError: there is no ring to take.
    """
    if not pairs:
        raise ValueError("pairs must be nonempty")
    ring = _same_ring(*(F for pair in pairs for F in pair), minus)
    # a slot of F_i meets at most one slot of G_i in any one slot, so a
    # slot takes at most min(#F_i, #G_i) products per pair, d two per
    # meeting, and minus adds one image
    width = ring.lift_width(2 * sum(min(F.sparsity, G.sparsity) for F, G in pairs))
    slotted = [(_slot_sums(F, p, width), _slot_sums(G, p, width)) for F, G in pairs]
    # h* is subtracted here alone: its slot triples seed the accumulators
    seed = _slot_sums(negate(minus), p, width)
    work = sum(len(fs) * len(gs) for fs, gs in slotted)
    read = []  # the lone slots' terms (e, c)
    dense = _dense_is_cheaper(p, slotted, work)
    if dense:
        vec, dvec = [0] * p, [0] * p
        for r, c, d, _ in seed:
            vec[r], dvec[r] = c, d
        for fs, gs in slotted:
            fc, fd, gc, gd = [0] * p, [0] * p, [0] * p, [0] * p
            for r, c, d, _ in fs:
                fc[r], fd[r] = c, d
            for r, c, d, _ in gs:
                gc[r], gd[r] = c, d
            for out, a, b in ((vec, fc, gc), (dvec, fd, gc), (dvec, fc, gd)):
                out[:] = map(operator.add, out, dense_cyclic_mul(a, b))
        slots = zip(range(p), vec, dvec)
    else:
        # First pass, no ring product: once[k] is the one slot pair that has
        # reached k so far, and general[k] every pair of a slot k reached
        # twice or holding a term of minus (each such slot starts there, so
        # a slot outside general holds no term of minus)
        general = {e % p: [] for e, _ in minus.terms}
        once: dict = {}
        for fs, gs in slotted:
            for t1 in fs:
                r1 = t1[0]
                for t2 in gs:
                    k = r1 + t2[0]
                    if k >= p:
                        k -= p
                    if k in general:
                        general[k].append((t1, t2))
                    elif k in once:
                        general[k] = [once.pop(k), (t1, t2)]
                    else:
                        once[k] = (t1, t2)
        # S, the overflow proven without a ring product (docstring)
        if len(once) > limit:
            n = sum(1 for t1, t2 in once.values() if t1[1] and t2[1])
            if n > limit:
                raise SparsityBoundError(n)
        seeded = {r: (c, d) for r, c, d, _ in seed}
        slots = []
        for k, kept in general.items():
            c, d = seeded.get(k, (0, 0))
            for (_, c1, d1, _), (_, c2, d2, _) in kept:
                c += c1 * c2
                d += d1 * c2 + c1 * d2
            slots.append((k, c, d))
        for k, ((_, c1, d1, e1), (_, c2, d2, e2)) in once.items():
            if e1 is not None and e2 is not None:
                read.append((e1 + e2, c1 * c2))
            else:
                slots.append((k, c1 * c2, d1 * c2 + c1 * d2))
        add_mul_count(_PAIR_MULS * (work - len(read)) + len(read))

    if ring.is_field:
        drop = ring.drop
        slots = ((r, drop(c, width), drop(d, width)) for r, c, d in slots)
        read = [(e, drop(c, width)) for e, c in read]
    slots = [t for t in slots if t[1] or t[2]]
    if len(slots) + len(read) > limit:
        # a lone term c*X^e has c != 0, and d = e*c != 0 unless e = 0
        for i, extra in ((1, len(read)), (2, sum(1 for e, _ in read if e))):
            n = sum(1 for t in slots if t[i]) + extra
            if n > limit:
                raise SparsityBoundError(n - minus.sparsity)
    return slots, read


def _repair(pairs, minus: SparsePoly, p: int, ks) -> SparsePoly | None:
    """The terms of H = sum F_i*G_i - minus whose exponents lie in the
    slots ks modulo X^p - 1, exact, or None when finding them would cost
    no less than walking the pairs again.

    A term product c1*c2*X^(e1+e2) lies in slot k iff e2 = k - e1 (mod
    p), so with each pair's larger operand bucketed by e mod p, every
    product landing in slot k is found by one lookup per term of the
    smaller operand.  Summed by exponent, they are the terms of
    sum F_i*G_i in the slots ks, every exponent with all of its products;
    minus's terms in those slots are then subtracted.  Each product takes
    one ring.mul.

    The cost rule compares prices from the price list, one unit per term
    visit.  The repair takes sum #large_i (bucketing) + u*sum #small_i
    (lookups, u = #ks) + the products landing in the u slots.  A walk
    takes sum (#F_i + #G_i) for its slot sums plus _PAIR_MULS per slot
    pair, its charge for a pair landing in a general slot.  The walk is
    priced at this round's p; a second round also pays find_terms and
    _trim, left out in the walk's favour, and reads its lone slots at one
    product instead of _PAIR_MULS, left out in the repair's.
    """
    ring = minus.ring
    u = len(ks)
    walk = cost = 0
    plan = []
    for F, G in pairs:
        small, large = (F, G) if F.sparsity <= G.sparsity else (G, F)
        buckets: dict = {}
        for e, c in large.terms:
            buckets.setdefault(e % p, []).append((e, c))
        plan.append((small.terms, buckets))
        slots = len({e % p for e, _ in small.terms})
        walk += F.sparsity + G.sparsity + _PAIR_MULS * slots * len(buckets)
        cost += large.sparsity + u * small.sparsity
    if cost >= walk:
        return None
    hits = []
    for terms, buckets in plan:
        for e1, c1 in terms:
            for k in ks:
                bucket = buckets.get((k - e1) % p)
                if bucket:
                    hits.append((e1, c1, bucket))
                    cost += len(bucket)
    if cost >= walk:
        return None
    acc: dict = {}
    for e1, c1, bucket in hits:
        for e2, c2 in bucket:
            e = e1 + e2
            c = ring.mul(c1, c2)
            acc[e] = ring.add(acc[e], c) if e in acc else c
    repaired = set(ks)
    for e, c in minus.terms:
        if e % p in repaired:
            acc[e] = ring.sub(acc[e], c) if e in acc else ring.neg(c)
    return SparsePoly(ring, tuple(sorted((e, c) for e, c in acc.items() if c)))


def _trim(H: SparsePoly, T: int, C: int | None) -> SparsePoly:
    """H without its terms above height C, cut to its 2T lowest terms.  No
    degree filter: find_terms and _repair emit only e <= D - 1, the walk's
    lone terms have e = e1 + e2 <= deg F_i + deg G_i <= D - 1, and h*
    holds only their updates.  The height filter builds a new list only
    when some |c| exceeds C."""
    terms = H.terms
    if C is not None and H.height() > C:
        terms = [(e, c) for e, c in terms if abs(c) <= C]
    if len(terms) > 2 * T:
        terms = terms[: 2 * T]  # already sorted: keeps the lowest degrees
    return SparsePoly(H.ring, tuple(terms))


def _round(pairs, h_star: SparsePoly, p: int, T: int, D: int, C: int | None):
    """One round of interp_sum_sp at p: the walk, whose lone slots are terms
    of the update, find_terms' terms of the other slots and the repair of
    the slots it leaves.  Returns the new h* and whether the job ends
    there: every slot triple of H - h* explained or repaired, and _trim
    keeping all of h* + update, so that H less the new h* vanishes mod
    X^p - 1, and so does its derivative."""
    ring = h_star.ring
    # both residues of H - h* have at most #H + #h* terms, so more than
    # 2T + #h* prove #H > 2T, and _trim keeps at most 2T terms: no later
    # round can reach H, so the walk raises SparsityBoundError at once.
    # An honest job (T >= #H) stays within T + #h* <= 3T and never
    # gets there.
    limit = min(3 * T, 2 * T + h_star.sparsity)
    slots, lone = cyclic_product_residue(pairs, h_star, p, limit=limit)
    missed: list = []
    found = find_terms(p, ring, slots, D - 1, 2 * C if C is not None else None,
                       missed=missed)
    terms = [*found.terms, *lone]
    explained = not missed
    if missed:
        # the slots no update term explains, repaired from the operands
        # when that costs less than another walk
        fixed = _repair(pairs, h_star, p, missed)
        if fixed is not None:
            terms += fixed.terms
            explained = True
    # no exponent repeats: the lone terms, find_terms' terms and the repair
    # come from distinct slots, so one sort joins them
    update = SparsePoly(ring, tuple(sorted(terms, key=operator.itemgetter(0))))
    total = add(h_star, update)
    trimmed = _trim(total, T, C)
    return trimmed, explained and trimmed.sparsity == total.sparsity


def interp_sum_sp(pairs, T: int, mu: float, rng: RandomSource) -> SparsePoly:
    """Interpolate H = sum F_i*G_i, for nonempty pairs sharing one ring
    (RingMismatchError otherwise), a sparsity bound T >= 1 and a failure
    budget 0 < mu < 1.

    The bounds that follow from the pairs are derived, not passed: D = 1 +
    the largest deg F_i + deg G_i over pairs with no zero side (at least
    2) strictly bounds the degree of H, and over Z, C = poly.height_bound
    bounds its height.  The output has at most 2T terms, degree < D, and
    (over Z) height <= C.  A job ends at the first round where every slot
    triple of H - h* (h* the running approximation) is explained by a
    find_terms term or repaired, and whose _trim keeps every term of
    h* + update, so that H - h* and its derivative vanish mod X^p - 1 at
    that round's p (module docstring).

    A repaired slot is exact.  The terms of sum F_i*G_i whose exponents
    are = k (mod p) are the sums, by exponent, of the products
    c1*c2*X^(e1+e2) over the term pairs of each F_i, G_i with e1 + e2 = k
    (mod p), and _repair forms every one of those products: for each
    term e1 of the smaller operand, all terms e2 = k - e1 (mod p) of the
    larger.  Less h*'s terms in slot k, that is H - h* restricted to slot
    k, so h* + update holds exactly H's terms there, whatever h* held.
    The repair is made only when its lookups and products cost less than
    another walk (_repair's cost rule); a refused repair leaves the round
    unexplained, and the job takes its next round.

    The repair adds one early exit.  Without it, a round with colliding
    slots ended the job on a wrong h* only if find_terms read every one of
    them as a term; with it, one such misread slot is enough, the others
    being repaired.  A colliding slot r is misread when its d/c reads as
    an exponent e <= D - 1 with e = r (mod p).  Such an exit needs a
    collision at p, and a fixed pair of terms of H - h* collides only
    under the primes dividing their exponent difference, at most k(D)
    primes of the pool, as in the pool argument below.  A wrong h* that
    exits this way is rejected by the caller's verifier (verify_sp), so
    mu1 is untouched.

    Either residue of H - h* with N terms (its triples' nonzero c, or
    nonzero d) proves #H >= N - #h*: H - h* and X times its derivative
    have at most #H + #h* terms, and reduction only merges them.  Once a
    residue has more than min(3T, 2T + #h*) terms, the job
    raises SparsityBoundError with floor = N - #h*, a proven lower bound
    on #H, and returns nothing.  When 2T + #h* binds, floor > 2T and no
    output of at most 2T terms can be H; when 3T binds, floor > T, which
    no honest job (T >= #H) reaches.  The caller can skip checking the job
    and size its next guess from the floor.

    The walk counts its own single hits before any ring product, too.  A
    slot that exactly one slot pair (r1, r2) reaches, with both c sums
    nonzero and no term of h* in it, holds c1*c2, nonzero over Z and over
    a field, as H's own coefficient there; so S such slots prove #H >= S.
    More than min(3T, 2T + #h*) >= 2T of them raise SparsityBoundError(S),
    a floor above 2T that no honest job reaches, with no ring product
    taken (cyclic_product_residue).  S may be below N - #h*, so the next
    guess may be smaller than the residue's own count would make it;
    every floor is still a lower bound on #H.

    For an honest job (T >= #H) that starts its pool rounds from h* = 0,
    they end at the round that brings h* to H (or the next one, if _trim
    dropped terms on the way), because H - h* is then zero; mu bounds the
    probability that the round cap runs out first.  Neither mu nor the cap
    bounds an early exit on a wrong h*, which needs terms of H - h* to
    collide at that round's p into a term consistent with its slot's c and
    d.  The output is certified only by verifying it.

    A job whose term pairs, sum #F_i*#G_i, reach the packing price of its
    pairs at the top of round 0's prime range (the price list: the floor
    of _dense_is_cheaper, compared exactly) runs one round more, and its
    round 0 walks at a random prime in that range instead of a pool prime.
    That round follows the rules of every round.  Its h* is zero, so its limit is 2T, and a
    SparsityBoundError it raises carries a proven floor above 2T: no
    output of at most 2T terms, from any round at this T, can be H.  Its
    update seeds the pool rounds, just as each pool round seeds the next,
    and they correct its wrong terms as they correct their own.  A wrong
    early exit at the short prime needs a collision there, as a misread
    repair does; p is not drawn from the pool, so no share of bad primes
    bounds it, and the pool rounds after it start from its h*, not from
    zero, so mu does not bound their failure either.  Both are left to the
    caller's verifier, where they cost a check and a larger guess, not a
    wrong output.  The gate is off at every T >= max #F_i*#G_i, where
    sum #F_i*#G_i <= #pairs*T, far below that price: a job sized to hold
    any of its products runs the pool rounds alone, from h* = 0, and mu
    bounds its failure.  Below the price, the output fills a large share
    of the term pairs (random products) and collides at a prime of the
    order of T, so the round is mostly wasted: a gate of
    sum #F_i*#G_i >= 8T would let the T = 512 job of a random 64 x 64
    product walk its 4096 pairs sparsely at a p in [2048, 4096], where
    they collide.

    Each round draws its prime p uniformly from a pool, the first
    2*ceil(6.4*(T-1)*k(D)) primes, where k(D) = arith._omega_bound(D) is
    the largest k with p_1*...*p_k < D.  For one term c*X^e of a
    T-sparse H, the bad primes are those under which it collides: the
    divisors of some difference e' - e over the other exponents e' of H.
    There are at most T - 1 such differences, each a nonzero integer of
    absolute value below D, so each has at most k(D) distinct prime
    factors, and at most (T-1)*k(D) primes are bad for the term.  The
    share of bad primes in the pool is then at most
    (T-1)*k(D) / (2*ceil(6.4*(T-1)*k(D))) <= 1/12.8 for every T and D, the
    constant share behind the round count's "halves the missing terms
    with constant probability".  The ceiling matters at small (T-1)*k(D):
    a floor gives T = 2, D = 100 a pool of 38 primes, 3 of them (2, 3, 5
    for e' - e = 30) bad.  Counting prime factors with multiplicity
    (log2 D) would give the same share from a larger pool: 31 against
    k(D) = 9 at D = 2*10^9.
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
    # log2(2T) rounds to find everything plus -log2(mu) (1/mu overflows
    # for a subnormal mu) to drive the failure budget down, plus slack
    rounds = math.ceil(math.log2(2 * T)) + math.ceil(-math.log2(mu)) + 2
    # the pool sized above: 2*ceil(6.4*(T-1)*k(D)) primes, the ceiling
    # taken in exact integer arithmetic (6.4 = 32/5)
    n_pool = max(1, -(-32 * (T - 1) * _omega_bound(D) // 5))
    primes = first_primes(2 * n_pool)
    h_star = zero_poly(ring)
    # where the term pairs reach the packing price at the top of round 0's
    # range, round 0 walks at a prime in it and every later round at a
    # pool prime
    work = sum(F.sparsity * G.sparsity for F, G in pairs)
    short = _packing_over(2 * _SHORT * T, len(pairs), work) <= 0
    for i in range(rounds + short):
        p = random_prime(_SHORT * T, rng) if i < short else primes[rng.randrange(len(primes))]
        h_star, done = _round(pairs, h_star, p, T, D, C)
        if done:
            break
    return h_star
