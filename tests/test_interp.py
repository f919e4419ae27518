import random

import pytest

from spmul import (CharacteristicTooSmallError, InterpJob, RandomSource,
                   RingMismatchError, add, canonicalize, cyclic_reduce,
                   derivative, ext_field, find_terms, integers, interp_sum_sp,
                   monomial, mul_count, naive_mul, negate, prime_field,
                   reset_mul_count, sub, zero_poly)
from spmul import interp
from spmul.interp import cyclic_product_residue

from helpers import Q62, rand_sparse

ZZ = integers()

F_EX = canonicalize([(7, 2), (0, 2), (14, 1)], ZZ)
G_EX = canonicalize([(13, 3), (8, 5), (0, 3)], ZZ)


class TestFindTerms:
    def test_clean_recovery(self):
        # H = 5X^9 + 3X^2 at p = 5: residues 5X^4+3X^2 and 45X^3+6X
        h = canonicalize([(9, 5), (2, 3)], ZZ)
        h_p = canonicalize([(4, 5), (2, 3)], ZZ)
        hd_p = canonicalize([(3, 45), (1, 6)], ZZ)
        assert (h_p, hd_p) == (canonicalize(
            [(e % 5, c) for e, c in h.terms], ZZ), canonicalize(
            [(e % 5, c) for e, c in derivative(h).terms], ZZ))
        assert find_terms(5, h_p, hd_p, 9, 5) == h

    def test_zero_residues(self):
        z = zero_poly(ZZ)
        assert find_terms(5, z, z, 10, 10).is_zero

    def test_collision_rejected_by_inexact_division(self):
        # H = X^6 + X at p = 5 collides: H_p = 2X, H'_p = 7
        h = canonicalize([(6, 1), (1, 1)], ZZ)
        h_p = canonicalize([(e % 5, c) for e, c in h.terms], ZZ)
        hd_p = canonicalize([(e % 5, c) for e, c in derivative(h).terms], ZZ)
        assert h_p.terms == ((1, 2),)
        assert hd_p.terms == ((0, 7),)
        assert find_terms(5, h_p, hd_p, 6, 2).is_zero

    def test_completeness_distinct_residues(self):
        rnd = random.Random(1)
        for _ in range(100):
            p = rnd.choice([11, 13, 17, 19])
            residues = rnd.sample(range(p), rnd.randint(1, 8))
            terms = [(r + p * rnd.randrange(50), rnd.randint(1, 99))
                     for r in residues]
            h = canonicalize(terms, ZZ)
            h_p = canonicalize([(e % p, c) for e, c in h.terms], ZZ)
            hd_p = canonicalize([(e % p, c) for e, c in derivative(h).terms], ZZ)
            out = find_terms(p, h_p, hd_p, h.degree, h.height())
            assert out == h

    def test_prime_field_recovery(self):
        fq = prime_field(Q62)
        h = canonicalize([(10 ** 7, 3), (123, 9)], fq)
        p = 101
        h_p = canonicalize([(e % p, c) for e, c in h.terms], fq)
        hd_p = canonicalize([((e - 1) % p, (c * e) % Q62) for e, c in h.terms if e], fq)
        assert find_terms(p, h_p, hd_p, 10 ** 7, None) == h

    def test_height_filter(self):
        h = canonicalize([(9, 50)], ZZ)
        h_p = canonicalize([(4, 50)], ZZ)
        hd_p = canonicalize([(3, 450)], ZZ)
        assert find_terms(5, h_p, hd_p, 9, 49).is_zero
        assert find_terms(5, h_p, hd_p, 9, 50) == h

    def test_characteristic_guard(self):
        f5 = prime_field(5)
        z = zero_poly(f5)
        with pytest.raises(CharacteristicTooSmallError):
            find_terms(7, z, z, 6, None)


def _direct_residues(pairs, minus, p, ring):
    """(H mod X^p - 1, H' mod X^p - 1) for H = sum F_i*G_i - minus, by schoolbook."""
    h = zero_poly(ring)
    for f, g in pairs:
        h = add(h, naive_mul(f, g))
    if minus is not None:
        h = sub(h, minus)
    return cyclic_reduce(h, p), cyclic_reduce(derivative(h), p)


def _residue_by_route(monkeypatch, dense, *args):
    """cyclic_product_residue(*args) with the route pinned: the cost model
    is replaced by a constant answer."""
    monkeypatch.setattr(interp, "_dense_is_cheaper", lambda *_: dense)
    return cyclic_product_residue(*args)


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
                direct = zero_poly(ring)
                for f, g in pairs:
                    direct = add(direct, naive_mul(f, g))
                assert sparse[0] == cyclic_reduce(sub(direct, minus), p)
                assert sparse[1] == cyclic_reduce(derivative(sub(direct, minus)), p)

    def test_colliding_exponents_keep_the_derivative(self, monkeypatch):
        # 1 - X^p and X^(p+3) - X^3 vanish mod X^p - 1 while their derivatives
        # do not, so slots whose coefficient sums cancel must stay
        for ring in (ZZ, prime_field(101), ext_field(Q62, 2), ext_field(101, 3)):
            p = 7
            one = ring.one()
            f = canonicalize([(0, one), (p, ring.neg(one))], ring)
            g = canonicalize([(p + 3, one), (3, ring.neg(one))], ring)
            h = canonicalize([(1, one), (2 * p + 5, one)], ring)
            for pairs, minus in (([(f, h)], None), ([(h, f), (g, h)], g),
                                 ([(h, h)], add(naive_mul(h, h), f))):
                want = _direct_residues(pairs, minus, p, ring)
                assert not want[1].is_zero
                for dense in (False, True):
                    assert _residue_by_route(monkeypatch, dense, pairs, minus, p) == want

    def test_ext_field_worst_case_digits(self, monkeypatch):
        # full residues with all coefficients q-1 put the most products into
        # every slot, and the derivative's slots sum twice as many; the
        # minus term pushes the digits the other way
        for ring in (ext_field(3, 5), ext_field(Q62, 2)):
            top = (ring.q - 1,) * ring.s
            p = 13
            full = canonicalize([(e, top) for e in range(p)], ring)
            pairs = [(full, full), (full, full)]
            direct = add(naive_mul(full, full), naive_mul(full, full))
            for minus in (None, full):
                want = direct if minus is None else sub(direct, full)
                want = (cyclic_reduce(want, p), cyclic_reduce(derivative(want), p))
                for dense in (False, True):
                    assert _residue_by_route(monkeypatch, dense, pairs, minus, p) == want

    def test_prime_field_routes_agree(self, monkeypatch):
        fq = prime_field(101)
        rnd = random.Random(3)
        for _ in range(25):
            p = rnd.choice([7, 31])
            pairs = [(rand_sparse(rnd, fq, 6, 10 ** 3),
                      rand_sparse(rnd, fq, 6, 10 ** 3))]
            sparse = _residue_by_route(monkeypatch, False, pairs, None, p)
            dense = _residue_by_route(monkeypatch, True, pairs, None, p)
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
            cyclic_product_residue([(f, g)], None, p)
            assert dense_ps == ([p] * 3 if dense else [])

    def test_limit_stops_at_overflow(self):
        f = canonicalize([(e, 1) for e in range(5)], ZZ)
        pairs = [(f, f)]  # H = f^2 has 9 terms
        want = _direct_residues(pairs, None, 101, ZZ)
        assert cyclic_product_residue(pairs, None, 101, limit=9) == want
        assert cyclic_product_residue(pairs, None, 101, limit=8) is None
        # (X^7 - 1)(X + X^2 + X^3) vanishes mod X^7 - 1, its derivative
        # leaves 7 + 7X + 7X^2, so only the derivative overflows
        pairs = [(canonicalize([(7, 1), (0, -1)], ZZ), canonicalize([(1, 1), (2, 1), (3, 1)], ZZ))]
        want = _direct_residues(pairs, None, 7, ZZ)
        assert want[0].is_zero and want[1].sparsity == 3
        assert cyclic_product_residue(pairs, None, 7, limit=3) == want
        assert cyclic_product_residue(pairs, None, 7, limit=2) is None

    def test_ring_comes_from_the_operands(self, monkeypatch):
        f101 = prime_field(101)
        f = canonicalize([(1, 50), (4, 99)], f101)
        g = canonicalize([(0, 77), (1, 25)], f101)
        # (50X + 99X^4)(77 + 25X) = 12X + 38X^2 + 48X^4 + 51X^5 over F_101
        want = _direct_residues([(f, g)], None, 5, f101)
        assert want[0].terms == ((0, 51), (1, 12), (2, 38), (4, 48))
        for dense in (False, True):
            assert _residue_by_route(monkeypatch, dense, [(f, g)], None, 5) == want
        # an operand from another ring is refused, not silently reduced
        fz = canonicalize([(1, 3)], ZZ)
        for pairs, minus in (([(f, g), (fz, fz)], None), ([(f, fz)], None),
                             ([(f, g)], canonicalize([(2, 1)], ZZ)),
                             ([(fz, fz)], canonicalize([(2, 1)], f101))):
            with pytest.raises(RingMismatchError):
                cyclic_product_residue(pairs, minus, 5)

    def test_empty_pairs_raise(self):
        # with no operands there is no ring to take the residues in
        for minus in (None, canonicalize([(2, 1)], ZZ)):
            with pytest.raises(ValueError, match="pairs must be nonempty"):
                cyclic_product_residue([], minus, 5)


class TestInterpSumSP:
    def test_example_product(self):
        h = naive_mul(F_EX, G_EX)
        job = InterpJob([(F_EX, G_EX)], 9, 28, 30, 0.25)
        hits = sum(interp_sum_sp(job, RandomSource(seed)) == h for seed in range(40))
        assert hits >= 30  # failure budget 1/4

    def test_identity_factor(self):
        one = monomial(ZZ, 0, 1)
        job = InterpJob([(F_EX, one)], 3, 15, 2, 0.25)
        hits = sum(interp_sum_sp(job, RandomSource(seed)) == F_EX for seed in range(30))
        assert hits >= 22

    def test_cancellation_to_zero(self):
        job = InterpJob([(F_EX, G_EX), (negate(F_EX), G_EX)], 5, 28, 30, 0.25)
        for seed in range(10):
            assert interp_sum_sp(job, RandomSource(seed)).is_zero

    def test_shape_contract_with_adversarial_bounds(self):
        rnd = random.Random(4)
        for seed in range(60):
            f = rand_sparse(rnd, ZZ, 10, 10 ** 4, 2 ** 16)
            g = rand_sparse(rnd, ZZ, 10, 10 ** 4, 2 ** 16)
            T, D, C = 2, 50, 10  # far too small on purpose
            job = InterpJob([(f, g)], T, D, C, 0.25)
            out = interp_sum_sp(job, RandomSource(seed))
            assert out.sparsity <= 2 * T
            assert out.is_zero or out.degree < D
            assert out.height() <= C

    def test_success_rate_with_true_bounds(self):
        rnd = random.Random(5)
        ok = 0
        trials = 300
        for seed in range(trials):
            f = rand_sparse(rnd, ZZ, 6, 10 ** 5, 2 ** 20)
            g = rand_sparse(rnd, ZZ, 6, 10 ** 5, 2 ** 20)
            h = naive_mul(f, g)
            t_bound = max(1, h.sparsity)
            d_bound = max(2, (h.degree if not h.is_zero else 0) + 1)
            c_bound = max(1, h.height())
            job = InterpJob([(f, g)], t_bound, d_bound, c_bound, 0.25)
            ok += interp_sum_sp(job, RandomSource(seed)) == h
        assert ok >= 225  # >= (1 - mu) fraction at mu = 1/4

    def test_monotone_progress(self, monkeypatch):
        rounds = _watch_rounds(monkeypatch)
        rnd = random.Random(6)
        improved = total = 0
        for seed in range(60):
            f = rand_sparse(rnd, ZZ, 8, 10 ** 5, 2 ** 20)
            g = rand_sparse(rnd, ZZ, 8, 10 ** 5, 2 ** 20)
            h = naive_mul(f, g)
            t_bound = max(1, h.sparsity)
            d_bound = max(2, (h.degree if not h.is_zero else 0) + 1)
            rounds.clear()
            job = InterpJob([(f, g)], t_bound, d_bound, max(1, h.height()), 0.25)
            interp_sum_sp(job, RandomSource(seed))
            missing = [h.sparsity] + [sub(h, h_star).sparsity for h_star in rounds]
            for before, after in zip(missing, missing[1:]):
                total += 1
                improved += after <= before
        assert improved >= 0.9 * total

    def test_guess_below_half_stops_after_one_pass(self, monkeypatch):
        # H = 1 + X + ... + X^35 has 36 > 2T terms: the first residue
        # overflows 2T + #h* = 30, which proves no round can reach H
        f = canonicalize([(i, 1) for i in range(6)], ZZ)
        g = canonicalize([(6 * j, 1) for j in range(6)], ZZ)
        job = InterpJob([(f, g)], 15, 2 ** 40, 1, 0.25)
        rounds = _watch_rounds(monkeypatch)
        for seed in range(10):
            rounds.clear()
            reset_mul_count()
            out = interp_sum_sp(job, RandomSource(seed))
            assert mul_count() <= 3 * f.sparsity * g.sparsity
            assert rounds == [] and out.is_zero

    def test_guess_within_half_still_recovers(self):
        # T < #H = 36 <= 2T: the residue stays within 2T + #h*, and the
        # 2T-term output can hold H, so the rounds run and find it
        f = canonicalize([(i, 1) for i in range(6)], ZZ)
        g = canonicalize([(6 * j, 1) for j in range(6)], ZZ)
        h = naive_mul(f, g)
        job = InterpJob([(f, g)], 20, 2 ** 40, 1, 0.25)
        for seed in range(10):
            assert interp_sum_sp(job, RandomSource(seed)) == h

    def test_derivative_residue_keeps_the_job_running(self, monkeypatch):
        # H = X^100 - X^2 at p = 7: both terms sit in slot 2, where H's
        # coefficients cancel and H' leaves (100 - 2)*X^1.  The first round
        # recovers nothing yet explains the empty H residue; only the
        # derivative count keeps it from returning h* = 0.
        f = monomial(ZZ, 2, 1)
        g = canonicalize([(98, 1), (0, -1)], ZZ)
        h = naive_mul(f, g)
        job = InterpJob([(f, g)], 2, 101, 1, 0.25)

        class FirstDrawIs7(RandomSource):
            def randrange(self, n):
                # rounds draw from the first primes 2, 3, 5, 7, ...
                return 3 if not rounds else super().randrange(n)

        rounds = _watch_rounds(monkeypatch)
        for seed in range(10):
            rounds.clear()
            assert interp_sum_sp(job, FirstDrawIs7(seed)) == h
            assert rounds[0].is_zero and len(rounds) >= 2

    def test_field_interpolation(self):
        fq = prime_field(Q62)
        rnd = random.Random(7)
        for seed in range(25):
            f = rand_sparse(rnd, fq, 5, 10 ** 4)
            g = rand_sparse(rnd, fq, 5, 10 ** 4)
            h = naive_mul(f, g)
            job = InterpJob([(f, g)], max(1, h.sparsity),
                            max(2, (h.degree if not h.is_zero else 0) + 1),
                            None, 0.25)
            out = interp_sum_sp(job, RandomSource(seed))
            if out == h:
                break
        else:
            pytest.fail("field interpolation never succeeded")

    def test_characteristic_guard(self):
        f5 = prime_field(5)
        f = canonicalize([(0, 1), (3, 1)], f5)
        job_args = ([(f, f)], 4, 7, None, 0.25)
        with pytest.raises(CharacteristicTooSmallError):
            interp_sum_sp(InterpJob(*job_args), RandomSource(0))

    def test_job_validation(self):
        with pytest.raises(ValueError):
            InterpJob([(F_EX, G_EX)], 0, 10, 1, 0.25)
        with pytest.raises(ValueError):
            InterpJob([], 1, 10, 1, 0.25)
