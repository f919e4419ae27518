import itertools
import math
import random
from collections import Counter

import pytest

from spmul import (CharacteristicTooSmallError, ProductParams, RandomSource,
                   RingMismatchError, SparsityBoundError, add, canonicalize,
                   ext_field, find_terms, integers, interp_sum_sp,
                   mul_count, naive_mul, negate, prime_field,
                   reset_mul_count, sparse_product, sub, zero_poly)
from spmul import interp
from spmul.interp import cyclic_product_residue
from spmul.poly import SparsePoly, cyclic_reduce, derivative, height_bound

from helpers import Q62, monomial, rand_sparse

ZZ = integers()
_DENSE_IS_CHEAPER = interp._dense_is_cheaper

F_EX = canonicalize([(7, 2), (0, 2), (14, 1)], ZZ)
G_EX = canonicalize([(13, 3), (8, 5), (0, 3)], ZZ)


def _slots_of(h, p):
    """Slot triples of h mod X^p - 1, from h's own terms: (r, sum c,
    sum e*c) over the terms c*X^e with e = r (mod p), the slots where
    either sum is nonzero, sorted by r."""
    ring = h.ring
    sums = {}
    for e, c in h.terms:
        sc, sd = sums.get(e % p, (ring.zero(), ring.zero()))
        sums[e % p] = (ring.add(sc, c), ring.add(sd, ring.smul(c, e)))
    return [(r, c, d) for r, (c, d) in sorted(sums.items()) if c or d]


class TestFindTerms:
    def test_clean_recovery(self):
        # H = 5X^9 + 3X^2 at p = 5: slot 2 holds 3 and 2*3, slot 4 holds 5
        # and 9*5
        h = canonicalize([(9, 5), (2, 3)], ZZ)
        slots = [(2, 3, 6), (4, 5, 45)]
        assert slots == _slots_of(h, 5)
        assert find_terms(5, ZZ, slots, 9, 5) == h

    def test_zero_residues(self):
        assert find_terms(5, ZZ, [], 10, 10).is_zero

    def test_collision_rejected_by_inexact_division(self):
        # H = X^6 + X at p = 5 collides in slot 1: c = 2, d = 6 + 1 = 7
        h = canonicalize([(6, 1), (1, 1)], ZZ)
        slots = _slots_of(h, 5)
        assert slots == [(1, 2, 7)]
        assert find_terms(5, ZZ, slots, 6, 2).is_zero

    def test_completeness_distinct_residues(self):
        rnd = random.Random(1)
        for _ in range(100):
            p = rnd.choice([11, 13, 17, 19])
            residues = rnd.sample(range(p), rnd.randint(1, 8))
            terms = [(r + p * rnd.randrange(50), rnd.randint(1, 99))
                     for r in residues]
            h = canonicalize(terms, ZZ)
            out = find_terms(p, ZZ, _slots_of(h, p), h.degree, h.height())
            assert out == h

    def test_prime_field_recovery(self):
        fq = prime_field(Q62)
        h = canonicalize([(10 ** 7, 3), (123, 9)], fq)
        p = 101
        slots = sorted((e % p, c, c * e % Q62) for e, c in h.terms)
        assert slots == _slots_of(h, p)
        assert find_terms(p, fq, slots, 10 ** 7, None) == h

    def test_height_filter(self):
        h = canonicalize([(9, 50)], ZZ)
        slots = [(4, 50, 450)]
        assert find_terms(5, ZZ, slots, 9, 49).is_zero
        assert find_terms(5, ZZ, slots, 9, 50) == h

    def test_characteristic_guard(self):
        with pytest.raises(CharacteristicTooSmallError):
            find_terms(7, prime_field(5), [], 6, None)

    def test_ratio_outside_the_prime_subfield_rejected(self):
        # over F_101^2 the ratio (0,1)/(1,0) = Y is no exponent; the ratio
        # (3,0)/(1,0) = 3 is, and 3 = r (mod 7)
        f = ext_field(101, 2)
        one, y, three = f.coerce((1, 0)), f.coerce((0, 1)), f.coerce((3, 0))
        assert find_terms(7, f, [(3, one, y)], 50, None).is_zero
        assert find_terms(7, f, [(3, one, three)], 50, None) == canonicalize([(3, (1, 0))], f)

    def test_exponent_off_its_residue_slot_rejected(self):
        # 10/2 gives e = 5, which does not sit in slot r = 3 mod 7; 6/2
        # gives e = 3, which does
        assert find_terms(7, ZZ, [(3, 2, 10)], 20, None).is_zero
        assert find_terms(7, ZZ, [(3, 2, 6)], 20, None) == canonicalize([(3, 2)], ZZ)

    def test_slots_at_or_above_p_raise(self):
        # wherever the offending triple sits: triples come in any order
        for slots in ([(3, 2, 6), (7, 1, 7)], [(7, 1, 7), (3, 2, 6)]):
            with pytest.raises(ValueError, match="below p"):
                find_terms(7, ZZ, slots, 20, None)

    def test_shuffled_triples_give_the_same_terms(self):
        # colliding slots included: the output is the same polynomial,
        # its terms sorted by exponent, for any order of the triples
        rnd = random.Random(4)
        for ring in (ZZ, prime_field(Q62), ext_field(Q62, 2)):
            for _ in range(30):
                p = rnd.choice([11, 31, 101])
                h = rand_sparse(rnd, ring, 40, 3000, 99)
                C = h.height() if ring is ZZ else None
                slots = _slots_of(h, p)
                want = find_terms(p, ring, slots, h.degree, C)
                assert [e for e, _ in want.terms] == sorted({e for e, _ in want.terms})
                rnd.shuffle(slots)
                assert find_terms(p, ring, slots, h.degree, C) == want


    def test_missed_slots_are_the_slots_the_output_leaves(self):
        # missed receives every slot that emits no term, each once: slots
        # where terms collide, and slot r, whose c cancels (c*X^r -
        # c*X^(r+p)) while d = -p*c does not.  Passing it changes nothing
        # in the output
        rnd = random.Random(45)
        for ring in (ZZ, prime_field(101), ext_field(Q62, 2)):
            collided = 0
            for _ in range(30):
                p = rnd.choice([7, 11, 13])
                h = rand_sparse(rnd, ring, 12, 80, 99)
                c, r = h.terms[0][1], rnd.randrange(p)
                h = SparsePoly(ring, tuple(sorted(
                    [(e, x) for e, x in h.terms if e % p != r] + [(r, c), (r + p, ring.neg(c))])))
                C = h.height() if ring is ZZ else None
                slots = _slots_of(h, p)
                rnd.shuffle(slots)
                missed = []
                out = find_terms(p, ring, slots, h.degree, C, missed=missed)
                assert out == find_terms(p, ring, slots, h.degree, C)
                hit = {e % p for e, _ in out.terms}
                assert sorted(missed) == sorted(s[0] for s in slots if s[0] not in hit)
                assert r in missed
                collided += any(m != r for m in missed)
            assert collided >= 10


def _direct_slots(pairs, minus, p, ring):
    """Slot triples of H = sum F_i*G_i - minus mod X^p - 1, by schoolbook."""
    h = zero_poly(ring)
    for f, g in pairs:
        h = add(h, naive_mul(f, g))
    return _slots_of(sub(h, minus), p)


def _all_triples(ring, p, walk):
    """A walk's (triples, lone terms) as the triples of all its slots,
    sorted by r as _direct_slots lists them: a lone term c*X^e is the
    triple (e mod p, c, e*c)."""
    slots, lone = walk
    return sorted(slots + [(e % p, c, ring.smul(c, e)) for e, c in lone])


def _residue_by_route(monkeypatch, dense, pairs, minus, p):
    """cyclic_product_residue with the route pinned, as _all_triples: the
    cost model is replaced by a constant answer.  No residue modulo
    X^p - 1 has more than p terms, so limit = p never binds, and no count
    of single-hit slots passes it."""
    monkeypatch.setattr(interp, "_dense_is_cheaper", lambda *_: dense)
    return _all_triples(minus.ring, p, cyclic_product_residue(pairs, minus, p, limit=p))


def _watch_rounds(monkeypatch) -> list:
    """List that receives interp_sum_sp's running approximation after each
    round: every round ends in interp._trim."""
    rounds = []
    real_trim = interp._trim

    def trim(*args):
        rounds.append(real_trim(*args))
        return rounds[-1]

    monkeypatch.setattr(interp, "_trim", trim)
    return rounds


def _pin_round_primes(monkeypatch, primes) -> None:
    """Make interp_sum_sp's rounds walk at primes, in order: its pool
    becomes one entry that reads the next prime on every draw."""
    seq = iter(primes)

    class Pool:
        def __len__(self):
            return 1

        def __getitem__(self, i):
            return next(seq)

    monkeypatch.setattr(interp, "first_primes", lambda n: Pool())


def _watch_repairs(monkeypatch) -> list:
    """List that receives (p, sorted slots, result) for every _repair call,
    the result None when the cost rule refused it."""
    repairs = []
    real = interp._repair

    def repair(pairs, minus, p, ks):
        repairs.append((p, sorted(ks), real(pairs, minus, p, ks)))
        return repairs[-1][2]

    monkeypatch.setattr(interp, "_repair", repair)
    return repairs


def _in_slots(h, p, ks):
    """The terms of h whose exponents lie in the slots ks mod X^p - 1."""
    return SparsePoly(h.ring, tuple(t for t in h.terms if t[0] % p in ks))


class TestCyclicProductResidue:
    def test_sparse_and_dense_routes_agree(self, monkeypatch):
        rnd = random.Random(2)
        for ring in (ZZ, prime_field(101), ext_field(Q62, 2), ext_field(101, 3)):
            for _ in range(40):
                p = rnd.choice([7, 31, 101])
                pairs = [(rand_sparse(rnd, ring, 6, 10 ** 4, 99),
                          rand_sparse(rnd, ring, 6, 10 ** 4, 99))
                         for _ in range(rnd.randint(1, 2))]
                minus = rand_sparse(rnd, ring, 5, 10 ** 4, 99)
                sparse = _residue_by_route(monkeypatch, False, pairs, minus, p)
                dense = _residue_by_route(monkeypatch, True, pairs, minus, p)
                assert sparse == dense
                # and both equal the direct computation
                assert sparse == _direct_slots(pairs, minus, p, ring)

    def test_slot_triples_and_floors_match_schoolbook(self, monkeypatch):
        # every triple, a lone term's included, is (coefficient of H - minus
        # at r, sum of e*c over its terms in slot r), from naive_mul.  Below
        # either count the walk raises.  The sparse route first raises the
        # single-hit count S when S > limit, before any ring product; past
        # that, and on the dense route, the count of nonzero c is checked
        # before that of nonzero d, with the floor N - #minus
        rnd = random.Random(8)
        for ring in (ZZ, prime_field(Q62), ext_field(101, 3)):
            cases = []
            for _ in range(12):
                p = rnd.choice([5, 11, 31])
                pairs = [(rand_sparse(rnd, ring, 5, 200, 9), rand_sparse(rnd, ring, 5, 200, 9))
                         for _ in range(rnd.randint(1, 2))]
                if rnd.random() < 0.5:
                    # (1 - X^p)*g leaves slots with c = 0 and d != 0
                    pairs.append((canonicalize([(0, 1), (p, -1)], ring),
                                  rand_sparse(rnd, ring, 5, 200, 9)))
                cases.append((p, pairs, rand_sparse(rnd, ring, 4, 200, 9)))
            # minus terms sharing slot 3: X^3 - X^(3+p) cancels its c sum and
            # keeps d = -p, X^3 - 2X^(3+p) + X^(3+2p) cancels both, so minus
            # leaves that slot alone; 2X * (X^2 + 3X^5 + 4X^(p+7)) reaches
            # slots 3, 6 and 8 once each, and the single-hit count still
            # leaves slot 3 out, as minus has terms there
            p = 11
            pairs = [(canonicalize([(1, 2)], ring),
                      canonicalize([(2, 1), (5, 3), (p + 7, 4)], ring))]
            for minus, kept in ((canonicalize([(3, 1), (3 + p, -1)], ring), [3]),
                                (canonicalize([(3, 1), (3 + p, -2), (3 + 2 * p, 1)], ring), [])):
                assert [r for r, _, _, _ in interp._slot_sums(minus, p, None)] == kept
                assert _single_hit_count(pairs, minus, p) == 2
                cases.append((p, pairs, minus))
            # each operand's slots (r, c, d, e) are its own slot triples,
            # at width None as ring elements and at the width the walk sizes
            # (None over Z and F_q) as their images, and e is the exponent of
            # the slot's one term, or None where a direct count finds more
            # than one
            ones = []
            for p, pairs, minus in cases:
                walk_width = ring.lift_width(2 * sum(min(f.sparsity, g.sparsity)
                                                     for f, g in pairs))
                assert (walk_width is None) == (ring.kind != "ext_field")
                for h in (*itertools.chain.from_iterable(pairs), minus):
                    count = Counter(e % p for e, _ in h.terms)
                    exponent = {e % p: e for e, _ in h.terms}
                    for width in {None, walk_width}:
                        got = sorted(interp._slot_sums(h, p, width))
                        assert [(r, c, d) for r, c, d, _ in got] == [
                            (r, ring.lift(c, width), ring.lift(d, width))
                            for r, c, d in _slots_of(h, p)]
                        for r, _, _, e in got:
                            assert e == (exponent[r] if count[r] == 1 else None)
                            ones.append(e is not None)
            assert any(ones) and not all(ones)
            counted = 0
            for p, pairs, minus in cases:
                want = _direct_slots(pairs, minus, p, ring)
                n_c = sum(1 for _, c, _ in want if c)
                n_d = sum(1 for _, _, d in want if d)
                single = _single_hit_count(pairs, minus, p)
                for dense in (False, True):
                    monkeypatch.setattr(interp, "_dense_is_cheaper", lambda *_, _d=dense: _d)
                    for limit in range(len(want) + 1):
                        if max(n_c, n_d) <= limit:
                            got = cyclic_product_residue(pairs, minus, p, limit)
                            assert _all_triples(ring, p, got) == want
                            continue
                        reset_mul_count()
                        with pytest.raises(SparsityBoundError) as err:
                            cyclic_product_residue(pairs, minus, p, limit)
                        if not dense and single > limit:
                            assert err.value.floor == single and mul_count() == 0
                            counted += 1
                            continue
                        n = n_c if n_c > limit else n_d
                        assert err.value.floor == n - minus.sparsity
            assert counted >= 10

    def test_colliding_exponents_keep_the_derivative(self, monkeypatch):
        # 1 - X^p and X^(p+3) - X^3 vanish mod X^p - 1 while X times their
        # derivatives do not, so slots whose c sums cancel must keep their d
        for ring in (ZZ, prime_field(101), ext_field(Q62, 2), ext_field(101, 3)):
            p = 7
            # the ints 1 and -1 are constants of every ring
            f = canonicalize([(0, 1), (p, -1)], ring)
            g = canonicalize([(p + 3, 1), (3, -1)], ring)
            h = canonicalize([(1, 1), (2 * p + 5, 1)], ring)
            for pairs, minus in (([(f, h)], zero_poly(ring)), ([(h, f), (g, h)], g),
                                 ([(h, h)], add(naive_mul(h, h), f))):
                want = _direct_slots(pairs, minus, p, ring)
                assert any(d and not c for _, c, d in want)
                for dense in (False, True):
                    assert _residue_by_route(monkeypatch, dense, pairs, minus, p) == want

    def test_ext_field_worst_case_digits(self, monkeypatch):
        # full residues with all coefficients q-1 put the most products into
        # every slot, and each slot's d sums twice as many; the minus term
        # pushes the digits the other way
        for ring in (ext_field(3, 5), ext_field(Q62, 2)):
            top = (ring.q - 1,) * ring.s
            p = 13
            full = canonicalize([(e, top) for e in range(p)], ring)
            pairs = [(full, full), (full, full)]
            for minus in (zero_poly(ring), full):
                want = _direct_slots(pairs, minus, p, ring)
                for dense in (False, True):
                    assert _residue_by_route(monkeypatch, dense, pairs, minus, p) == want

    def test_prime_field_routes_agree(self, monkeypatch):
        fq = prime_field(101)
        rnd = random.Random(3)
        for _ in range(25):
            p = rnd.choice([7, 31])
            pairs = [(rand_sparse(rnd, fq, 6, 10 ** 3),
                      rand_sparse(rnd, fq, 6, 10 ** 3))]
            sparse = _residue_by_route(monkeypatch, False, pairs, zero_poly(fq), p)
            dense = _residue_by_route(monkeypatch, True, pairs, zero_poly(fq), p)
            assert sparse == dense

    def test_route_follows_measured_costs(self, monkeypatch):
        # one example2 pair at T = 256: the packed products took about 3 ms
        # against 21 ms sparse at p = 1009, and 110 ms against 60 ms at
        # p = 16411, where the old rule (term products > 4p) chose them
        dense_ps = []
        real = interp.dense_cyclic_mul
        monkeypatch.setattr(interp, "dense_cyclic_mul",
                            lambda a, b: dense_ps.append(len(a)) or real(a, b))
        T = 256
        f = canonicalize([(i, 1) for i in range(T)], ZZ)
        g = canonicalize([(T * i + 1, 1) for i in range(T)] + [(T * i, -1) for i in range(T)], ZZ)
        for p, dense in ((1009, True), (16411, False)):
            dense_ps.clear()
            cyclic_product_residue([(f, g)], zero_poly(ZZ), p, limit=p)
            assert dense_ps == ([p] * 3 if dense else [])

    def test_limit_stops_at_overflow(self):
        f = canonicalize([(e, 1) for e in range(5)], ZZ)
        pairs = [(f, f)]  # H = f^2 has 9 terms
        zero = zero_poly(ZZ)
        want = _direct_slots(pairs, zero, 101, ZZ)
        assert _all_triples(ZZ, 101, cyclic_product_residue(pairs, zero, 101, limit=9)) == want
        with pytest.raises(SparsityBoundError) as err:
            cyclic_product_residue(pairs, zero, 101, limit=8)
        assert err.value.floor == 9
        # minus = 1 + X^200 cancels slot 0 and adds slot 99: the residue
        # of f^2 - minus keeps N = 9 terms, which proves #f^2 >= 9 - 2
        minus = canonicalize([(0, 1), (200, 1)], ZZ)
        want = _direct_slots(pairs, minus, 101, ZZ)
        assert sum(1 for _, c, _ in want if c) == 9
        assert _all_triples(ZZ, 101, cyclic_product_residue(pairs, minus, 101, limit=9)) == want
        with pytest.raises(SparsityBoundError) as err:
            cyclic_product_residue(pairs, minus, 101, limit=8)
        assert err.value.floor == 9 - 2
        # (X^7 - 1)(X + X^2 + X^3) vanishes mod X^7 - 1, X times its
        # derivative leaves 7X + 7X^2 + 7X^3, so only the d count overflows
        pairs = [(canonicalize([(7, 1), (0, -1)], ZZ), canonicalize([(1, 1), (2, 1), (3, 1)], ZZ))]
        want = _direct_slots(pairs, zero, 7, ZZ)
        assert want == [(1, 0, 7), (2, 0, 7), (3, 0, 7)]
        assert _all_triples(ZZ, 7, cyclic_product_residue(pairs, zero, 7, limit=3)) == want
        with pytest.raises(SparsityBoundError) as err:
            cyclic_product_residue(pairs, zero, 7, limit=2)
        assert err.value.floor == 3

    def test_ring_comes_from_the_operands(self, monkeypatch):
        f101 = prime_field(101)
        f = canonicalize([(1, 50), (4, 99)], f101)
        g = canonicalize([(0, 77), (1, 25)], f101)
        # (50X + 99X^4)(77 + 25X) = 12X + 38X^2 + 48X^4 + 51X^5 over F_101
        zero = zero_poly(f101)
        want = _direct_slots([(f, g)], zero, 5, f101)
        assert [(r, c) for r, c, _ in want] == [(0, 51), (1, 12), (2, 38), (4, 48)]
        for dense in (False, True):
            assert _residue_by_route(monkeypatch, dense, [(f, g)], zero, 5) == want
        # an operand from another ring is refused, not silently reduced
        fz = canonicalize([(1, 3)], ZZ)
        for pairs, minus in (([(f, g), (fz, fz)], zero), ([(f, fz)], zero),
                             ([(f, g)], canonicalize([(2, 1)], ZZ)),
                             ([(fz, fz)], canonicalize([(2, 1)], f101))):
            with pytest.raises(RingMismatchError):
                cyclic_product_residue(pairs, minus, 5, limit=5)

    def test_empty_pairs_raise(self):
        # with no operands there is no ring to take the residues in
        for minus in (zero_poly(ZZ), canonicalize([(2, 1)], ZZ)):
            with pytest.raises(ValueError, match="pairs must be nonempty"):
                cyclic_product_residue([], minus, 5, limit=5)


def _lone_slots(pairs, minus, p) -> set:
    """Brute force: the slots k that exactly one slot pair (r1, r2), r1 +
    r2 = k (mod p), reaches over all pairs, both of whose slots hold one
    term, and that hold no term of minus."""
    hits, barred = {}, {e % p for e, _ in minus.terms}
    for f, g in pairs:
        f_n, g_n = (Counter(e % p for e, _ in h.terms) for h in (f, g))
        for r1, _, _ in _slots_of(f, p):
            for r2, _, _ in _slots_of(g, p):
                k = (r1 + r2) % p
                hits[k] = hits.get(k, 0) + 1
                if f_n[r1] > 1 or g_n[r2] > 1:
                    barred.add(k)
    return {k for k, n in hits.items() if n == 1 and k not in barred}


def _walk_work(pairs, p) -> int:
    """The sparse walk's slot pairs: sum of #slots(F_i) * #slots(G_i)."""
    return sum(len(_slots_of(f, p)) * len(_slots_of(g, p)) for f, g in pairs)


def _walk(pairs, minus, p, limit):
    """cyclic_product_residue's (triples, lone terms), or the floor it
    raised."""
    try:
        return cyclic_product_residue(pairs, minus, p, limit)
    except SparsityBoundError as err:
        return err.floor


def _floor_of(want, single, minus, limit):
    """The floor the sparse walk raises at limit, from the schoolbook
    triples want and the single-hit count, or None when it returns: the
    single-hit count when it exceeds limit, else the first of the counts
    of nonzero c and of nonzero d above limit, less #minus."""
    if single > limit:
        return single
    for n in (sum(1 for _, c, _ in want if c), sum(1 for _, _, d in want if d)):
        if n > limit:
            return n - minus.sparsity
    return None


LONE_RINGS = [ZZ, prime_field(Q62), ext_field(101, 3), ext_field(10007, 2)]
LONE_IDS = ["Z", "F_Q62", "F_101^3", "F_10007^2"]


class TestLoneSlots:
    """A slot k that one slot pair alone reaches, both of its slots holding
    one term, c1*X^e1 and c2*X^e2, and no term of minus, holds the term
    c1*c2*X^(e1+e2) and nothing else; the sparse walk emits that term
    instead of its triple."""

    @staticmethod
    def _bounds(pairs, ring):
        """find_terms' D and C as interp_sum_sp's rounds pass them."""
        D = max(f.degree + g.degree for f, g in pairs)
        C = 2 * height_bound(pairs) if ring.kind == "integers" else None
        return D, C

    def _assert_same_reading(self, pairs, minus, p, ring) -> int:
        """The triples and the lone terms are the schoolbook triples, split,
        and find_terms reads the triples plus the lone terms as exactly the
        terms, and the missed slots, it reads from the schoolbook triples.
        Returns the number of lone terms."""
        full = _direct_slots(pairs, minus, p, ring)
        part, lone = _walk(pairs, minus, p, p)
        assert _all_triples(ring, p, (part, lone)) == full
        assert {e % p for e, _ in lone} == _lone_slots(pairs, minus, p)
        D, C = self._bounds(pairs, ring)
        m_full, m_part = [], []
        want = find_terms(p, ring, full, D, C, missed=m_full)
        got = find_terms(p, ring, part, D, C, missed=m_part)
        assert sorted(got.terms + tuple(lone)) == list(want.terms)
        assert sorted(m_part) == sorted(m_full)
        return len(lone)

    @pytest.mark.parametrize("ring", LONE_RINGS, ids=LONE_IDS)
    def test_lone_terms_read_as_find_terms_reads_them(self, monkeypatch, ring):
        monkeypatch.setattr(interp, "_dense_is_cheaper", lambda *_: False)
        rnd = random.Random(47)
        emax = 50 if ring.char == 101 else 5000  # D stays below the characteristic
        lone = general = 0
        for _ in range(30):
            p = rnd.choice([11, 53, 211, 1009])
            pairs = [(rand_sparse(rnd, ring, 8, emax, 2 ** 20),
                      rand_sparse(rnd, ring, 8, emax, 2 ** 20))
                     for _ in range(rnd.randint(1, 2))]
            minus = rand_sparse(rnd, ring, 6, emax, 2 ** 20) if rnd.random() < 0.5 \
                else zero_poly(ring)
            n = self._assert_same_reading(pairs, minus, p, ring)
            lone += n
            general += n < _walk_work(pairs, p)
        assert lone >= 200 and general >= 10

    @pytest.mark.parametrize("ring", LONE_RINGS, ids=LONE_IDS)
    def test_edge_cases(self, monkeypatch, ring):
        monkeypatch.setattr(interp, "_dense_is_cheaper", lambda *_: False)
        p = 11
        one = ring.coerce(1)
        zero = zero_poly(ring)

        def poly(*exps):
            return canonicalize([(e, one) for e in exps], ring)

        # e1 + e2 = 0: (1 + X)(1 + X^2) reaches 0, 1, 2 and 3 once each,
        # and slot 0's lone term is X^0, whose d = 0
        pairs = [(poly(0, 1), poly(0, 2))]
        _, lone = _walk(pairs, zero, p, p)
        assert sorted(lone) == [(e, one) for e in range(4)]
        assert self._assert_same_reading(pairs, zero, p, ring) == 4
        # terms of minus in an otherwise lone slot bar slot 3 from the lone
        # read, and find_terms reads it from its triple: 2X^(3+p), and
        # X^3 - 2X^(3+p) + X^(3+2p), whose c and d sums both cancel
        two = ring.add(one, one)
        for minus in (canonicalize([(3 + p, two)], ring),
                      canonicalize([(3, one), (3 + p, ring.neg(two)), (3 + 2 * p, one)], ring)):
            part, lone = _walk(pairs, minus, p, p)
            assert sorted(e for e, _ in lone) == [0, 1, 2] and [t[0] for t in part] == [3]
            assert self._assert_same_reading(pairs, minus, p, ring) == 3
        # a slot reached once in each of two pairs, as the h2 job's
        # deriv_pairs reach it: X*X^2 and X^2*X both land in slot 3, which
        # is general; slots 1 and 5 stay lone
        pairs = [(poly(1), poly(0, 2)), (poly(2), poly(1, 3))]
        part, lone = _walk(pairs, zero, p, p)
        assert sorted(e for e, _ in lone) == [1, 5] and [t[0] for t in part] == [3]
        assert self._assert_same_reading(pairs, zero, p, ring) == 2
        # an operand slot holding two terms: X + X^(1+p) fills slot 1 of F,
        # so the slots it reaches are general, though each is reached once
        pairs = [(poly(1, 1 + p, 4), poly(2))]
        part, lone = _walk(pairs, zero, p, p)
        assert lone == [(6, one)] and [t[0] for t in part] == [3]
        assert self._assert_same_reading(pairs, zero, p, ring) == 1

    @pytest.mark.parametrize("ring", LONE_RINGS, ids=LONE_IDS)
    def test_floors_do_not_depend_on_lone(self, monkeypatch, ring):
        # every limit from 0 to the residue's size: the walk raises the
        # floor the schoolbook triples and the single-hit count give, or
        # returns them, lone terms included.  Both operands hold X^0, so
        # slot 0 is often a lone slot whose term X^0 has d = 0, where the
        # count of nonzero c and that of nonzero d differ
        monkeypatch.setattr(interp, "_dense_is_cheaper", lambda *_: False)
        rnd = random.Random(48)
        emax = 50 if ring.char == 101 else 5000
        counted = overflowed = zero_lone = 0
        for _ in range(12):
            p = rnd.choice([53, 211])
            f, g = (add(rand_sparse(rnd, ring, 6, emax, 2 ** 20), monomial(ring, 0, 1))
                    for _ in range(2))
            pairs = [(f, g)]
            minus = canonicalize([(p + 1, ring.coerce(1))], ring) if rnd.random() < 0.5 \
                else zero_poly(ring)
            zero_lone += 0 in _lone_slots(pairs, minus, p)
            want = _direct_slots(pairs, minus, p, ring)
            single = _single_hit_count(pairs, minus, p)
            for limit in range(f.sparsity * g.sparsity + 2):
                got = _walk(pairs, minus, p, limit)
                floor = _floor_of(want, single, minus, limit)
                if floor is None:
                    assert _all_triples(ring, p, got) == want
                else:
                    assert got == floor
                    counted += single > limit
                    overflowed += single <= limit
        assert counted >= 30 and overflowed >= 6 and zero_lone >= 6


def _single_hit_count(pairs, minus, p):
    """Brute force: the slots k reached by exactly one slot pair (r1, r2),
    r1 + r2 = k (mod p), over all pairs, both of whose c sums are nonzero,
    and holding no term of minus."""
    hits, barred = {}, {e % p for e, _ in minus.terms}
    for f, g in pairs:
        for r1, c1, _ in _slots_of(f, p):
            for r2, c2, _ in _slots_of(g, p):
                k = (r1 + r2) % p
                hits[k] = hits.get(k, 0) + 1
                if not (c1 and c2):
                    barred.add(k)
    return sum(1 for k, n in hits.items() if n == 1 and k not in barred)


class TestExponentFloor:
    """A slot that one slot pair alone reaches, with both c sums nonzero
    and no term of minus, holds their nonzero product, so S such slots
    prove #H >= S.  The sparse walk counts them from its first pass and
    raises S when S > limit, before any ring product."""

    @pytest.fixture(autouse=True)
    def _sparse(self, monkeypatch):
        monkeypatch.setattr(interp, "_dense_is_cheaper", lambda *_: False)

    def test_raised_floor_is_the_single_hit_count(self):
        # at every limit below the single-hit count, the walk raises that
        # count with no ring mult charged; above it, it raises the
        # schoolbook floor or returns the schoolbook triples
        rnd = random.Random(36)
        raised = 0
        for ring in (ZZ, prime_field(Q62), ext_field(101, 3)):
            for _ in range(30):
                p = rnd.choice([5, 11, 31, 101])
                pairs = [(rand_sparse(rnd, ring, 8, 300, 9), rand_sparse(rnd, ring, 8, 300, 9))
                         for _ in range(rnd.randint(1, 2))]
                if rnd.random() < 0.4:
                    # (1 - X^p)*g, on either side: a slot whose c cancels
                    # reaches no count
                    pair = (canonicalize([(0, 1), (p, -1)], ring),
                            rand_sparse(rnd, ring, 5, 300, 9))
                    pairs.append(pair if rnd.random() < 0.5 else pair[::-1])
                minus = (rand_sparse(rnd, ring, 4, 300, 9) if rnd.random() < 0.7
                         else zero_poly(ring))
                want = _direct_slots(pairs, minus, p, ring)
                single = _single_hit_count(pairs, minus, p)
                for limit in range(len(want) + 1):
                    reset_mul_count()
                    got = _walk(pairs, minus, p, limit)
                    floor = _floor_of(want, single, minus, limit)
                    if single > limit:
                        raised += 1
                        assert got == single and mul_count() == 0
                    elif floor is None:
                        assert _all_triples(ring, p, got) == want
                    else:
                        assert got == floor
        assert raised > 300

    def test_limit_zero_never_stops_early(self):
        # the count has no early exit: at limit 0 the walk raises whenever
        # one slot is reached once, before any ring product
        rnd = random.Random(5)
        for ring in (ZZ, prime_field(101), ext_field(Q62, 2)):
            for _ in range(20):
                p = rnd.choice([7, 31])
                pairs = [(rand_sparse(rnd, ring, 6, 200, 9), rand_sparse(rnd, ring, 6, 200, 9))
                         for _ in range(rnd.randint(1, 2))]
                minus = rand_sparse(rnd, ring, 3, 200, 9)
                single = _single_hit_count(pairs, minus, p)
                reset_mul_count()
                with pytest.raises(SparsityBoundError) as err:
                    cyclic_product_residue(pairs, minus, p, 0)
                if single:
                    assert err.value.floor == single and mul_count() == 0

    def test_cancelled_slots_and_two_pairs(self):
        for ring in (ZZ, prime_field(101), ext_field(101, 3)):
            p = 31
            f = canonicalize([(0, 1), (p, -1)], ring)  # slot 0: c = 0, d = -p
            g = canonicalize([(e, 1) for e in (1, 5, 9)], ring)
            # every slot of f*g comes from f's cancelled slot: nothing counts,
            # though X*(f*g)' has three terms, so the walk takes its three
            # slot pairs' products and raises the count of nonzero d
            for pair in ((f, g), (g, f)):
                assert _single_hit_count([pair], zero_poly(ring), p) == 0
                reset_mul_count()
                assert _walk([pair], zero_poly(ring), p, 2) == 3
                assert mul_count() == 3 * 3
            # x*g reaches slots 2, 6 and 10 once each; g*g's nine slot
            # pairs reach 2 and 18 once, 6 and 14 twice, 10 three times.
            # Across both pairs only 18 is hit once, unless minus bars it
            x = canonicalize([(1, 1)], ring)
            pairs = [(x, g), (g, g)]
            for barred, single in ((14, 1), (18, 0)):
                minus = canonicalize([(barred + p, 1)], ring)
                assert _single_hit_count(pairs, minus, p) == single
                want = _direct_slots(pairs, minus, p, ring)
                assert _walk(pairs, minus, p, 0) == _floor_of(want, single, minus, 0)

    def test_structured_sum_has_nothing_to_count(self):
        # the sumset of 64 + 64 terms on one progression: every sum but the
        # first and the last is reached more than once, so two slots are
        # reached once, the walk has no count to raise, and it takes every
        # product: 3 per slot pair in a general slot, 1 per lone slot
        n, p = 64, 100003
        f = canonicalize([(3 * i, 1 + i) for i in range(n)], ZZ)
        g = canonicalize([(3 * i + 1, 2 + i) for i in range(n)], ZZ)
        zero = zero_poly(ZZ)
        assert _single_hit_count([(f, g)], zero, p) == len(_lone_slots([(f, g)], zero, p)) == 2
        want = _direct_slots([(f, g)], zero, p, ZZ)
        reset_mul_count()
        got = cyclic_product_residue([(f, g)], zero, p, 2 * n - 1)
        assert len(got[1]) == 2 and mul_count() == 3 * (n * n - 2) + 2
        assert _all_triples(ZZ, p, got) == want

    @pytest.mark.parametrize("ring", [ZZ, prime_field(Q62), ext_field(101, 3)],
                             ids=["Z", "F_Q62", "F_101^3"])
    def test_count_raises_where_few_slots_were_expected_once(self, ring):
        # 25 pairs of (1 + X + ... + X^4)(1 + X^5 + ... + X^20) reach slots
        # 0..24 once each, and (1 - X^p)*X^40 reaches slot 40 from a slot
        # whose c cancels.  work = 26 pairs landing at random in p = 101
        # slots would leave work*e^(-work/p) = 20.1 <= 2*limit slots
        # reached once; here 25 are, more than limit = 20.  Slot 40 and
        # slot 7, which holds a term of minus, are not counted, so the
        # walk raises 24 before any ring product
        p, limit = 101, 20
        one = ring.coerce(1)
        f = canonicalize([(i, one) for i in range(5)], ring)
        g = canonicalize([(5 * j, one) for j in range(5)], ring)
        pairs = [(f, g), (canonicalize([(0, 1), (p, -1)], ring), canonicalize([(40, one)], ring))]
        minus = canonicalize([(7 + p, one)], ring)
        work = _walk_work(pairs, p)
        assert work * math.exp(-work / p) <= 2 * limit
        assert len(_lone_slots(pairs, zero_poly(ring), p)) == 25
        assert _single_hit_count(pairs, minus, p) == 24
        reset_mul_count()
        assert _walk(pairs, minus, p, limit) == 24 and mul_count() == 0

    @pytest.mark.parametrize("free", [False, True], ids=["sparse", "free"])
    def test_products_whose_walks_raise_from_their_count(self, monkeypatch, free):
        # every sparse walk of a product that raises with no ring mult
        # charged raises its single-hit count, and some walk of these
        # random products, whose sums are nearly all distinct, ends that
        # way, whether the sparse route is pinned or the cost model picks it
        model = _DENSE_IS_CHEAPER if free else (lambda *_: False)
        dense = []

        def dense_is_cheaper(*args):
            dense.append(model(*args))
            return dense[-1]

        monkeypatch.setattr(interp, "_dense_is_cheaper", dense_is_cheaper)
        real = interp.cyclic_product_residue
        counted = []

        def cyclic_product_residue(pairs, minus, p, limit):
            reset_mul_count()
            dense.clear()
            try:
                return real(pairs, minus, p, limit)
            except SparsityBoundError as err:
                if dense == [False] and mul_count() == 0:
                    assert err.floor == _single_hit_count(pairs, minus, p) > limit
                    counted.append(err.floor)
                raise

        monkeypatch.setattr(interp, "cyclic_product_residue", cyclic_product_residue)
        rnd = random.Random(64)
        params = ProductParams(2 ** -21, 2 ** -21)
        for t in (1, 3, 16, 40, 64):
            f = rand_sparse(rnd, ZZ, t, 10 ** 9, 2 ** 30)
            g = rand_sparse(rnd, ZZ, t, 10 ** 9, 2 ** 30)
            assert sparse_product(f, g, params, RandomSource(t)) == naive_mul(f, g)
        assert counted


class TestTrim:
    H = canonicalize([(0, 3), (5, -4), (9, 2)], ZZ)

    def test_keeping_every_term_returns_the_argument(self):
        for T, C in ((2, 4), (2, None), (5, 10 ** 9)):
            assert interp._trim(self.H, T, C) is self.H
        f = canonicalize([(1, 6), (4, 2)], prime_field(7))
        assert interp._trim(f, 1, None) is f
        z = zero_poly(ZZ)
        assert interp._trim(z, 1, 0) is z

    def test_filtering_or_cutting_builds_a_new_polynomial(self):
        for T, C, terms in ((1, None, ((0, 3), (5, -4))),  # cut to 2T = 2
                            (2, 3, ((0, 3), (9, 2))),  # -4 filtered out
                            (1, 2, ((9, 2),))):  # both
            got = interp._trim(self.H, T, C)
            assert got is not self.H and got.terms == terms
        # a filtered polynomial's height is its own, not H's
        assert interp._trim(self.H, 2, 3).height() == 3


class TestInterpSumSP:
    def test_example_product(self):
        h = naive_mul(F_EX, G_EX)
        hits = sum(interp_sum_sp([(F_EX, G_EX)], 9, 0.25, RandomSource(seed)) == h
                   for seed in range(40))
        assert hits >= 30  # failure budget 1/4

    @pytest.mark.parametrize("mu", [1e-310, 5e-324])
    def test_subnormal_budget(self, mu):
        # 1/mu overflows; the round count comes from -log2(mu) (1030, 1074)
        h = naive_mul(F_EX, G_EX)
        assert interp_sum_sp([(F_EX, G_EX)], 9, mu, RandomSource(0)) == h

    def test_identity_factor(self):
        one = monomial(ZZ, 0, 1)
        hits = sum(interp_sum_sp([(F_EX, one)], 3, 0.25, RandomSource(seed)) == F_EX
                   for seed in range(30))
        assert hits >= 22

    def test_cancellation_to_zero(self):
        pairs = [(F_EX, G_EX), (negate(F_EX), G_EX)]
        for seed in range(10):
            assert interp_sum_sp(pairs, 5, 0.25, RandomSource(seed)).is_zero

    def test_shape_contract_with_adversarial_bounds(self):
        rnd = random.Random(4)
        raised = 0
        for seed in range(60):
            f = rand_sparse(rnd, ZZ, 10, 10 ** 4, 2 ** 16)
            g = rand_sparse(rnd, ZZ, 10, 10 ** 4, 2 ** 16)
            T = 2  # far too small on purpose
            try:
                out = interp_sum_sp([(f, g)], T, 0.25, RandomSource(seed))
            except SparsityBoundError as err:
                # the floor is sound: a proven lower bound on #H
                assert 0 < err.floor <= naive_mul(f, g).sparsity
                raised += 1
                continue
            assert out.sparsity <= 2 * T
            # D = deg f + deg g + 1 and C = height_bound([(f, g)]), from the pair
            assert out.is_zero or out.degree <= f.degree + g.degree
            assert out.height() <= height_bound([(f, g)])
        assert 0 < raised < 60  # both outcomes are exercised

    def test_success_rate_with_true_bounds(self):
        rnd = random.Random(5)
        ok = 0
        trials = 300
        for seed in range(trials):
            f = rand_sparse(rnd, ZZ, 6, 10 ** 5, 2 ** 20)
            g = rand_sparse(rnd, ZZ, 6, 10 ** 5, 2 ** 20)
            h = naive_mul(f, g)
            ok += interp_sum_sp([(f, g)], max(1, h.sparsity), 0.25, RandomSource(seed)) == h
        assert ok >= 225  # >= (1 - mu) fraction at mu = 1/4

    def test_monotone_progress(self, monkeypatch):
        rounds = _watch_rounds(monkeypatch)
        rnd = random.Random(6)
        improved = total = 0
        for seed in range(60):
            f = rand_sparse(rnd, ZZ, 8, 10 ** 5, 2 ** 20)
            g = rand_sparse(rnd, ZZ, 8, 10 ** 5, 2 ** 20)
            h = naive_mul(f, g)
            rounds.clear()
            interp_sum_sp([(f, g)], max(1, h.sparsity), 0.25, RandomSource(seed))
            missing = [h.sparsity] + [sub(h, h_star).sparsity for h_star in rounds]
            for before, after in zip(missing, missing[1:]):
                total += 1
                improved += after <= before
        assert improved >= 0.9 * total

    def test_guess_below_half_stops_after_one_pass(self, monkeypatch):
        # H = 1 + X + ... + X^35 has 36 > 2T terms, whose 36 sums are
        # distinct: at a pool prime above 35 the first walk reaches 36
        # slots once each, more than 2T + #h* = 30, which proves no round
        # can reach H.  It raises that count as the floor, before any ring
        # product
        f = canonicalize([(i, 1) for i in range(6)], ZZ)
        g = canonicalize([(6 * j, 1) for j in range(6)], ZZ)
        rounds = _watch_rounds(monkeypatch)
        primes = []
        real = interp.cyclic_product_residue

        def cyclic_product_residue(pairs, minus, p, limit):
            primes.append(p)
            return real(pairs, minus, p, limit)

        monkeypatch.setattr(interp, "cyclic_product_residue", cyclic_product_residue)
        for seed in range(10):
            rounds.clear()
            primes.clear()
            reset_mul_count()
            with pytest.raises(SparsityBoundError) as err:
                interp_sum_sp([(f, g)], 15, 0.25, RandomSource(seed))
            charged = mul_count()
            [p] = primes
            assert p > 35
            assert not interp._dense_is_cheaper(p, [(_slots_of(f, p), _slots_of(g, p))], 36)
            assert rounds == [] and err.value.floor == 36 and charged == 0
        # and at primes where slots collide, walked with no limit: 3 ring
        # mults per slot pair landing in a general slot, 1 per lone slot
        general = 0
        for p in (5, 7, 11, 13, 31, 37):
            work, n = _walk_work([(f, g)], p), len(_lone_slots([(f, g)], zero_poly(ZZ), p))
            reset_mul_count()
            real([(f, g)], zero_poly(ZZ), p, 36)
            assert mul_count() == 3 * (work - n) + n
            general += n < work
        assert general >= 4

    def test_guess_within_half_still_recovers(self):
        # T < #H = 36 <= 2T: the residue stays within 2T + #h*, and the
        # 2T-term output can hold H, so the rounds run and find it
        f = canonicalize([(i, 1) for i in range(6)], ZZ)
        g = canonicalize([(6 * j, 1) for j in range(6)], ZZ)
        h = naive_mul(f, g)
        for seed in range(10):
            assert interp_sum_sp([(f, g)], 20, 0.25, RandomSource(seed)) == h

    def test_derivative_residue_keeps_the_job_running(self, monkeypatch):
        # H = X^100 - X^2 at p = 7: both terms sit in slot 2, whose triple
        # is (2, 0, 100 - 2): the coefficients cancel, d does not.  The
        # first round recovers nothing, as c = 0; that triple, which no
        # update term explains, is repaired from the operands, so the job
        # returns H from its first round and never h* = 0
        f = monomial(ZZ, 2, 1)
        g = canonicalize([(98, 1), (0, -1)], ZZ)
        h = naive_mul(f, g)
        rounds = _watch_rounds(monkeypatch)
        repairs = _watch_repairs(monkeypatch)
        walks = []
        real = interp.cyclic_product_residue

        def cyclic_product_residue(*args, **kwargs):
            walks.append(real(*args, **kwargs))
            return walks[-1]

        monkeypatch.setattr(interp, "cyclic_product_residue", cyclic_product_residue)
        _pin_round_primes(monkeypatch, itertools.repeat(7))
        assert interp_sum_sp([(f, g)], 2, 0.25, RandomSource(0)) == h
        assert walks == [([(2, 0, 98)], [])]
        assert repairs == [(7, [2], h)]
        assert rounds == [h]

    @pytest.mark.parametrize("T, D", [(T, D) for T in (2, 16, 128)
                                      for D in (10 ** 2, 10 ** 4, 10 ** 9, 2 ** 64) if T < D / 4])
    def test_pool_bounds_the_bad_primes_of_every_term(self, monkeypatch, T, D):
        # exponent sets whose differences are multiples of primorials, the
        # integers with the most distinct prime factors: an arithmetic
        # progression whose step is a primorial, and multiples of the
        # largest primorials below D (for T = 2, 0 and the largest one).
        # Over every prime of the job's pool, each term collides with
        # another under at most 1/12.8 of them
        primorials = [1]
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53):
            if primorials[-1] * p >= D:
                break
            primorials.append(primorials[-1] * p)
        step = max(P for P in primorials if (T - 1) * P < D)
        multiples = [0]
        for P in reversed(primorials[1:]):
            for e in range(P, D, P):
                if len(multiples) == T:
                    break
                if e not in multiples:
                    multiples.append(e)
        pools = []
        real = interp.first_primes
        monkeypatch.setattr(interp, "first_primes", lambda n: pools.append(real(n)) or pools[-1])
        rnd = random.Random(T)
        for exps in ([i * step for i in range(T)], multiples):
            assert len(set(exps)) == T and max(exps) < D
            # the product F*X^s has degree D - 1, so the job's degree bound is D
            f = canonicalize([(e, rnd.choice((-1, 1)) * rnd.randint(1, 2 ** 20)) for e in exps], ZZ)
            g = monomial(ZZ, D - 1 - max(exps), 1)
            pools.clear()
            assert interp_sum_sp([(f, g)], T, 0.25, RandomSource(T)) == naive_mul(f, g)
            pool = pools[0]
            bad = [0] * T
            for p in pool:
                slots = {}
                for e in exps:
                    slots[e % p] = slots.get(e % p, 0) + 1
                for i, e in enumerate(exps):
                    bad[i] += slots[e % p] > 1
            # max(bad) <= |pool| / 12.8, in integers
            assert 64 * max(bad) <= 5 * len(pool), (exps, max(bad), len(pool))

    def test_field_interpolation(self):
        fq = prime_field(Q62)
        rnd = random.Random(7)
        for seed in range(25):
            f = rand_sparse(rnd, fq, 5, 10 ** 4)
            g = rand_sparse(rnd, fq, 5, 10 ** 4)
            h = naive_mul(f, g)
            out = interp_sum_sp([(f, g)], max(1, h.sparsity), 0.25, RandomSource(seed))
            if out == h:
                break
        else:
            pytest.fail("field interpolation never succeeded")

    def test_characteristic_guard(self):
        # exponents are read up to D - 1 = deg f + deg g, so q = D is the
        # smallest q allowed: f*f of degree 6 over F_5 raises, g*g of degree
        # 4 interpolates
        f5 = prime_field(5)
        f = canonicalize([(0, 1), (3, 1)], f5)
        with pytest.raises(CharacteristicTooSmallError):
            interp_sum_sp([(f, f)], 4, 0.25, RandomSource(0))
        g = canonicalize([(0, 1), (2, 1)], f5)
        assert g.degree + g.degree + 1 == 5  # the D of the pair (g, g)
        for seed in range(5):
            out = interp_sum_sp([(g, g)], 4, 0.25, RandomSource(seed))
            assert out.degree < 5
            if out == naive_mul(g, g):
                break
        else:
            pytest.fail("interpolation at q = D never succeeded")

    def test_job_validation(self):
        rng = RandomSource(0)
        with pytest.raises(ValueError, match="T must be"):
            interp_sum_sp([(F_EX, G_EX)], 0, 0.25, rng)
        with pytest.raises(ValueError, match="pairs must be nonempty"):
            interp_sum_sp([], 1, 0.25, rng)
        for mu in (0.0, 1.0):
            with pytest.raises(ValueError, match="mu must"):
                interp_sum_sp([(F_EX, G_EX)], 1, mu, rng)
        with pytest.raises(RingMismatchError):
            interp_sum_sp([(F_EX, monomial(prime_field(5), 0, 1))], 1, 0.25, rng)


# F*G at p = 5 and a second prime: 6X^5 sits alone in slot 0, every other
# product term in slot 1 or 2.  At 53 slot 5 holds 6X^5, 9108X^2072 and
# 504X^3132, and no other slot holds two terms; at 1009 none does
F_TWO = canonicalize([(5, 3), (741, -89), (1561, 21), (1731, -99)], ZZ)
G_TWO = canonicalize([(0, 2), (341, -92), (1571, 24), (1646, -42)], ZZ)


class TestRepair:
    RINGS = [ZZ, prime_field(Q62), ext_field(101, 3)]

    @staticmethod
    def _poly(rnd, ring, t):
        # exponents below 50 keep D below 101, the characteristic of F_101^3
        return rand_sparse(rnd, ring, t, 50 if ring.kind == "ext_field" else 10 ** 4, 2 ** 16)

    def _pairs(self, rnd, ring, n):
        return [(self._poly(rnd, ring, 6), self._poly(rnd, ring, 6)) for _ in range(n)]

    @pytest.mark.parametrize("ring", RINGS, ids=["Z", "F_Q62", "F_101^3"])
    def test_repaired_slots_match_schoolbook(self, ring):
        # the repair of slots ks is H - minus restricted to ks, with minus's
        # terms inside ks subtracted and those outside left alone
        rnd = random.Random(11)
        for _ in range(30):
            p = rnd.choice([7, 13, 31])
            pairs = self._pairs(rnd, ring, rnd.randint(1, 2))
            minus = self._poly(rnd, ring, 4)
            h = zero_poly(ring)
            for f, g in pairs:
                h = add(h, naive_mul(f, g))
            slots = [r for r, _, _ in _direct_slots(pairs, minus, p, ring)]
            ks = rnd.sample(slots, min(len(slots), 2)) + [minus.terms[0][0] % p]
            ks = list(set(ks))
            assert interp._repair(pairs, minus, p, ks) == _in_slots(sub(h, minus), p, set(ks))

    @pytest.mark.parametrize("ring", RINGS, ids=["Z", "F_Q62", "F_101^3"])
    def test_colliding_job_ends_in_one_round(self, monkeypatch, ring):
        # every round at p = 23: #F*#G products of up to 36 collide in 23
        # slots, the slots find_terms leaves are repaired, and the job
        # returns the schoolbook product from its first round
        rnd = random.Random(12)
        rounds = _watch_rounds(monkeypatch)
        repairs = _watch_repairs(monkeypatch)
        _pin_round_primes(monkeypatch, itertools.repeat(23))
        repaired = 0
        for seed in range(15):
            f, g = self._pairs(rnd, ring, 1)[0]
            h = naive_mul(f, g)
            rounds.clear()
            repairs.clear()
            assert interp_sum_sp([(f, g)], max(1, h.sparsity), 0.25, RandomSource(seed)) == h
            if repairs and repairs[0][2] is not None:
                repaired += 1
                assert len(rounds) == 1
        assert repaired >= 8

    def test_two_pair_job(self, monkeypatch):
        # product.py's h2 job: (F_p, G_p') + (F_p', G_p) with the operands
        # reduced mod X^997 - 1, every round at p = 23
        rnd = random.Random(13)
        rounds = _watch_rounds(monkeypatch)
        repairs = _watch_repairs(monkeypatch)
        _pin_round_primes(monkeypatch, itertools.repeat(23))
        repaired = 0
        for seed in range(15):
            f, g = self._pairs(rnd, ZZ, 1)[0]
            f_p, g_p = cyclic_reduce(f, 997), cyclic_reduce(g, 997)
            pairs = [(f_p, cyclic_reduce(derivative(g), 997)),
                     (cyclic_reduce(derivative(f), 997), g_p)]
            h = add(naive_mul(*pairs[0]), naive_mul(*pairs[1]))
            rounds.clear()
            repairs.clear()
            assert interp_sum_sp(pairs, max(1, h.sparsity), 0.25, RandomSource(seed)) == h
            if repairs and repairs[0][2] is not None:
                repaired += 1
                assert len(rounds) == 1
        assert repaired >= 8

    @pytest.mark.parametrize("p2", [1009, 53])
    def test_refused_repair_takes_a_second_round(self, monkeypatch, p2):
        # at p = 5 slot 0 gives 6X^5, and slots 1 and 2 hold 6 and 9
        # products: repairing them takes 4 bucketing and 2*4 lookup steps
        # and 15 products, 27 in all, against 8 + 3*2*2 = 20 for another
        # walk, so the cost rule refuses and the job walks again at p2,
        # with h* = 6X^5 subtracted term by term.  At 1009 nothing
        # collides and no slot is left; at 53 slot 5 holds 6X^5 and two more
        # terms, and its repair subtracts h*'s term from the products there
        h = naive_mul(F_TWO, G_TWO)
        rounds = _watch_rounds(monkeypatch)
        repairs = _watch_repairs(monkeypatch)
        minus = []
        real = interp.cyclic_product_residue

        def cyclic_product_residue(pairs, h_star, p, limit):
            minus.append(h_star)
            return real(pairs, h_star, p, limit)

        monkeypatch.setattr(interp, "cyclic_product_residue", cyclic_product_residue)
        _pin_round_primes(monkeypatch, [5, p2])
        assert interp_sum_sp([(F_TWO, G_TWO)], 16, 0.25, RandomSource(0)) == h
        six = monomial(ZZ, 5, 6)
        assert minus == [zero_poly(ZZ), six]
        assert rounds == [six, h]
        assert repairs[0] == (5, [1, 2], None)
        if p2 == 1009:
            assert len(repairs) == 1
        else:
            assert repairs[1] == (53, [5], _in_slots(sub(h, six), 53, {5}))
            assert repairs[1][2].sparsity == 2

    @pytest.mark.parametrize("ring", RINGS, ids=["Z", "F_Q62", "F_101^3"])
    def test_one_ring_mult_per_product(self, ring):
        rnd = random.Random(14)
        for _ in range(20):
            p = rnd.choice([7, 13, 31])
            pairs = self._pairs(rnd, ring, rnd.randint(1, 2))
            ks = rnd.sample(range(p), 2)
            products = sum(1 for f, g in pairs for e1, _ in f.terms for e2, _ in g.terms
                           if (e1 + e2) % p in ks)
            reset_mul_count()
            out = interp._repair(pairs, zero_poly(ring), p, ks)
            assert out is not None and mul_count() == products


class TestShortRound:
    # example2 at 26: H = X^676 - 1, with 676 = 4*13^2.  A job at T = 2
    # passes the short round's gate (26*52 term pairs against 3*3.2*16),
    # so its round 0 walks at random_prime(8) and its later rounds at pool
    # primes, the first 52
    F26 = canonicalize([(i, 1) for i in range(26)], ZZ)
    G26 = canonicalize([(26 * i + 1, 1) for i in range(26)]
                       + [(26 * i, -1) for i in range(26)], ZZ)

    @staticmethod
    def _pin_short_prime(monkeypatch, p) -> list:
        """Make round 0 walk at p; the returned list receives (p, minus,
        floor) for every walk, floor None unless it raised."""
        monkeypatch.setattr(interp, "random_prime", lambda lam, rng: p)
        walks = []
        real = interp.cyclic_product_residue

        def cyclic_product_residue(pairs, minus, q, limit):
            walks.append((q, minus, None))
            try:
                return real(pairs, minus, q, limit)
            except SparsityBoundError as err:
                walks[-1] = (q, minus, err.floor)
                raise

        monkeypatch.setattr(interp, "cyclic_product_residue", cyclic_product_residue)
        return walks

    @pytest.mark.parametrize("extra, seeded", [(None, ()), ((5, 3), ((5, 3),))],
                             ids=["empty", "3X^5"])
    def test_short_update_seeds_the_pool_rounds(self, monkeypatch, extra, seeded):
        # at 13 both terms of X^676 - 1 fall in slot 0, as (0, 0, 676):
        # find_terms reads nothing there, and repairing slot 0 (for the one
        # pair, 52 bucketing steps, 26 lookups and 104 products, 182) costs
        # more than a walk (78 + 3*13*2 = 156), so round 0 does not end the
        # job.  Its h* is what it read: nothing, or with a second pair
        # 3X^5 * 1, the term 3X^5 alone in slot 5.  The first pool walk
        # subtracts that h*, at a prime of the pool, and the job ends on H
        pairs = [(self.F26, self.G26)]
        h = naive_mul(self.F26, self.G26)
        if extra is not None:
            pairs.append((monomial(ZZ, extra[0], 1), monomial(ZZ, 0, extra[1])))
            h = add(h, naive_mul(*pairs[1]))
        assert h.terms == ((0, -1),) + seeded + ((676, 1),)
        walks = self._pin_short_prime(monkeypatch, 13)
        repairs = _watch_repairs(monkeypatch)
        rounds = []
        real = interp._round

        def round_(*args):
            rounds.append(real(*args))
            return rounds[-1]

        monkeypatch.setattr(interp, "_round", round_)
        pool = set(interp.first_primes(52))
        for seed in range(5):
            walks.clear()
            repairs.clear()
            rounds.clear()
            assert interp_sum_sp(pairs, 2, 0.25, RandomSource(seed)) == h
            assert walks[0] == (13, zero_poly(ZZ), None)
            assert repairs[0] == (13, [0], None)
            assert rounds[0][0].terms == seeded and not rounds[0][1]
            assert len(walks) >= 2 and walks[1][1] == rounds[0][0]
            assert all(q in pool for q, _, _ in walks[1:])

    def test_short_floor_ends_the_job(self, monkeypatch):
        # a random 13 x 13 product has about 169 terms: at T = 2 the short
        # walk at 17 fills all 17 slots, over its limit 4, and the job
        # raises that walk's floor, 17 > 2T, after that one walk
        rnd = random.Random(15)
        walks = self._pin_short_prime(monkeypatch, 17)
        for seed in range(5):
            f, g = (canonicalize([(e, rnd.randint(1, 2 ** 16))
                                  for e in rnd.sample(range(10 ** 6), 13)], ZZ)
                    for _ in "fg")
            walks.clear()
            with pytest.raises(SparsityBoundError) as err:
                interp_sum_sp([(f, g)], 2, 0.25, RandomSource(seed))
            assert walks == [(17, zero_poly(ZZ), 17)] and err.value.floor == 17
