import random
from collections import Counter
from types import SimpleNamespace

import pytest

from spmul import (CharacteristicTooSmallError, ProductParams, RandomSource,
                   RetryBudgetError, SparsePoly, SparsityBoundError, add, canonicalize,
                   ext_field,
                   first_primes, integers, lambda_no_collision,
                   multivar_product_smallchar, naive_mul, prime_field, scale,
                   sparse_product, zero_poly)
from spmul import arith, interp, product
from spmul.cli import format_poly, run_command

from helpers import Q62, as_multi, eratosthenes_primes, monomial, rand_sparse, sumset_size

ZZ = integers()
PARAMS = ProductParams(2.0 ** -20, 2.0 ** -20)

F_EX = canonicalize([(7, 2), (0, 2), (14, 1)], ZZ)
G_EX = canonicalize([(13, 3), (8, 5), (0, 3)], ZZ)
H_EX = canonicalize([(14, 1), (7, -2), (0, 2)], ZZ)


class _NoDraws(RandomSource):
    """RandomSource that fails the test on any draw."""

    def randrange(self, n):
        pytest.fail("randomness drawn")

    def randint(self, a, b):
        pytest.fail("randomness drawn")


def _watch_jobs(monkeypatch) -> list:
    """List that receives (pairs, T) for every job sparse_product
    interpolates."""
    jobs = []
    real = product.interp_sum_sp

    def interp_sum_sp(pairs, T, mu, rng):
        jobs.append((pairs, T))
        return real(pairs, T, mu, rng)

    monkeypatch.setattr(product, "interp_sum_sp", interp_sum_sp)
    return jobs


def _watch_steps(monkeypatch) -> list:
    """List that receives sparse_product's steps in order: ["job", T,
    #pairs, floor] per interpolation job, floor None unless it raised
    SparsityBoundError, and ["check", "verify_sp"] per check."""
    steps = []
    real_interp = product.interp_sum_sp

    def interp_sum_sp(pairs, T, mu, rng):
        step = ["job", T, len(pairs), None]
        steps.append(step)
        try:
            return real_interp(pairs, T, mu, rng)
        except SparsityBoundError as err:
            step[3] = err.floor
            raise

    monkeypatch.setattr(product, "interp_sum_sp", interp_sum_sp)
    real_check = product.verify_sp

    def verify_sp(*args):
        steps.append(["check", "verify_sp"])
        return real_check(*args)

    monkeypatch.setattr(product, "verify_sp", verify_sp)
    return steps


def _watch_walks(monkeypatch) -> list:
    """List that receives the prime of every cyclic_product_residue walk."""
    primes = []
    real = interp.cyclic_product_residue

    def cyclic_product_residue(pairs, minus, p, limit):
        primes.append(p)
        return real(pairs, minus, p, limit)

    monkeypatch.setattr(interp, "cyclic_product_residue", cyclic_product_residue)
    return primes


def _pool_top(T, D) -> int:
    """The largest prime an interpolation job with sparsity bound T and
    degree bound D draws its rounds from: its pool is the first
    2*ceil(6.4*(T-1)*k(D)) primes, k(D) the most distinct prime factors
    of an integer below D."""
    return first_primes(2 * max(1, -(-32 * (T - 1) * arith._omega_bound(D) // 5)))[-1]


def _lattice(t0, n) -> list:
    """The first n sparsity guesses for max(#F, #G) = t0: ceil(t0*2^j) from
    the j that puts the first in [2, 4), or from j = 0 when t0 < 2."""
    j = min(0, 2 - t0.bit_length())
    return [t0 * 2 ** (j + i) if j + i >= 0 else -(-t0 // 2 ** -(j + i)) for i in range(n)]


def _unique_sums(f, g) -> int:
    """The exponent floor's oracle: the sums e1 + e2 over supp f x supp g
    that exactly one term pair reaches."""
    hits = Counter(e1 + e2 for e1, _ in f.terms for e2, _ in g.terms)
    return sum(1 for m in hits.values() if m == 1)


def _assert_floor_rule(steps, t0, n, exp_floor) -> int:
    """Check the floor rule on one product's steps; return how many jobs
    raised.  Every job runs at a guess on the lattice of t0, starting at its
    first point.  A job that raised is followed by no check, and the next
    job is an h1 job at the smallest lattice point above it with
    2t >= max(floor, exp_floor), exp_floor being the product's exponent
    floor, counted at its first overflow; or at the same point once that is
    at least n = #F*#G, where the guesses stop growing."""
    lattice = _lattice(t0, 64)
    jobs = [step for step in steps if step[0] == "job"]
    assert jobs and jobs[0][1] == lattice[0]
    assert all(step[1] in lattice for step in jobs)
    raised = 0
    for i, step in enumerate(steps):
        if step[0] != "job" or step[3] is None:
            continue
        raised += 1
        _, t, _, floor = step
        nxt = steps[i + 1]
        assert nxt[0] == "job" and nxt[2] == 1
        if t >= n:
            assert nxt[1] == t
        else:
            assert nxt[1] == min(u for u in lattice
                                 if u > t and 2 * u >= max(floor, exp_floor))
    return raised


def _repair_pays(pairs, p, ks) -> bool:
    """_repair's cost rule for the slots ks at p, from the operands: the
    repair's steps (bucketing each larger operand, one lookup per term of
    the smaller and slot, one product per term pair landing in ks) fall
    below a walk's (each operand's terms, then 3 per pair of occupied
    slots)."""
    ks = set(ks)
    walk = cost = 0
    for F, G in pairs:
        small, large = (F, G) if F.sparsity <= G.sparsity else (G, F)
        slots = [len({e % p for e, _ in P.terms}) for P in (F, G)]
        walk += F.sparsity + G.sparsity + 3 * slots[0] * slots[1]
        cost += large.sparsity + len(ks) * small.sparsity
        cost += sum(1 for e1, _ in F.terms for e2, _ in G.terms if (e1 + e2) % p in ks)
    return cost < walk


def _random_pair(ring, sizes, emax, seed):
    """Operands with exactly sizes[i] terms, exponents below emax and
    nonzero coefficients (20-bit over Z)."""
    rnd = random.Random(seed)

    def coeff():
        if ring.kind == "integers":
            return rnd.choice((-1, 1)) * rnd.randint(1, 2 ** 20)
        return rnd.randrange(1, ring.q)

    def support(t):
        exps = set()
        while len(exps) < t:
            exps.add(rnd.randrange(emax))
        return sorted(exps)

    return tuple(canonicalize([(e, coeff()) for e in support(t)], ring) for t in sizes)


# deg F = 150 and D = 160 over F_211: a cyclic prime p <= 150 wraps F, and
# the product's exponents 0, 10, 150, 160 stay apart modulo 103 and 107
_F211_WRAPPING = (canonicalize([(0, 1), (150, 2)], prime_field(211)),
                  canonicalize([(0, 3), (10, 1)], prime_field(211)))


def example2_family(t):
    f = canonicalize([(i, 1) for i in range(t)], ZZ)
    g = canonicalize([(t * i + 1, 1) for i in range(t)]
                     + [(t * i, -1) for i in range(t)], ZZ)
    return f, g


class TestProductParams:
    def test_accepts_valid(self):
        ProductParams(0.5, 0.25)  # mu1/2 == mu2 boundary

    def test_rejects_bad(self):
        with pytest.raises(ValueError):
            ProductParams(0.0, 0.5)
        with pytest.raises(ValueError):
            ProductParams(0.5, 1.0)
        with pytest.raises(ValueError):
            ProductParams(0.9, 0.1)


class TestSparseProduct:
    def test_example_nine_terms(self):
        expected = naive_mul(F_EX, G_EX)
        for seed in range(20):
            assert sparse_product(F_EX, G_EX, PARAMS, RandomSource(seed)) == expected

    def test_example_two_terms(self):
        for seed in range(20):
            out = sparse_product(F_EX, H_EX, PARAMS, RandomSource(seed))
            assert out.terms == ((0, 4), (28, 1))

    def test_trivial_factors(self):
        one = monomial(ZZ, 0, 1)
        rng = RandomSource(0)
        assert sparse_product(F_EX, one, PARAMS, rng) == F_EX
        assert sparse_product(F_EX, zero_poly(ZZ), PARAMS, rng).is_zero
        assert sparse_product(zero_poly(ZZ), F_EX, PARAMS, rng).is_zero
        assert sparse_product(F_EX, monomial(ZZ, 0, -3), PARAMS, rng) == scale(F_EX, -3)

    @pytest.mark.parametrize("ring", [ext_field(3, 2), ext_field(Q62, 2)], ids=["F9", "FQ62^2"])
    def test_constant_operand_keeps_its_element(self, ring):
        # the shortcut multiplies by the constant's coefficient as it
        # stands: a packed element with a nonzero Y digit, coerced again,
        # would be read as the constant (its int mod q)
        rnd = random.Random(32)
        for _ in range(10):
            c = ring.coerce([rnd.randrange(ring.q), rnd.randrange(1, ring.q)])
            const = SparsePoly(ring, ((0, c),))
            g = rand_sparse(rnd, ring, 6, 50)
            for a, b in ((const, g), (g, const)):
                assert sparse_product(a, b, PARAMS, _NoDraws()) == naive_mul(a, b)

    def test_monomial_inputs(self):
        a = monomial(ZZ, 9, 4)
        b = monomial(ZZ, 5, -2)
        assert sparse_product(a, b, PARAMS, RandomSource(1)).terms == ((14, -8),)

    def test_random_oracle_agreement(self):
        rnd = random.Random(31)
        for seed in range(50):
            f = rand_sparse(rnd, ZZ, 12, 10 ** 7, 2 ** 24)
            g = rand_sparse(rnd, ZZ, 12, 10 ** 7, 2 ** 24)
            assert sparse_product(f, g, PARAMS, RandomSource(seed)) == naive_mul(f, g)

    def test_output_shape_invariants(self):
        rnd = random.Random(32)
        for seed in range(60):
            f = rand_sparse(rnd, ZZ, 8, 10 ** 5, 2 ** 20)
            g = rand_sparse(rnd, ZZ, 8, 10 ** 5, 2 ** 20)
            h = sparse_product(f, g, PARAMS, RandomSource(seed))
            s = sumset_size(f, g)
            assert h.sparsity <= f.sparsity * g.sparsity
            assert h.sparsity <= s
            t = max(f.sparsity, g.sparsity)
            assert s <= t * t
            if f.sparsity >= 2 and g.sparsity >= 2:
                assert h.sparsity >= 2  # no monomial products over an integral domain

    def test_loop_termination_statistics(self, monkeypatch):
        jobs = _watch_jobs(monkeypatch)
        rnd = random.Random(33)
        within = 0
        trials = 300
        for seed in range(trials):
            f = rand_sparse(rnd, ZZ, 10, 10 ** 6, 2 ** 16)
            g = rand_sparse(rnd, ZZ, 10, 10 ** 6, 2 ** 16)
            jobs.clear()
            h = sparse_product(f, g, PARAMS, RandomSource(seed))
            assert h == naive_mul(f, g)
            # the last job ran at the sparsity guess that passed
            within += jobs[-1][1] < 2 * max(f.sparsity, g.sparsity, h.sparsity)
        assert within >= 0.95 * trials

    def test_field_z_consistency(self):
        rnd = random.Random(34)
        fq = prime_field(Q62)
        for seed in range(100):
            # coefficients already in [0, q); product heights stay below q
            terms_f = {rnd.randrange(10 ** 6): rnd.randrange(1, 2 ** 20)
                       for _ in range(6)}
            terms_g = {rnd.randrange(10 ** 6): rnd.randrange(1, 2 ** 20)
                       for _ in range(6)}
            f_z = canonicalize(list(terms_f.items()), ZZ)
            g_z = canonicalize(list(terms_g.items()), ZZ)
            f_q = canonicalize(list(terms_f.items()), fq)
            g_q = canonicalize(list(terms_g.items()), fq)
            lhs = canonicalize(
                sparse_product(f_z, g_z, PARAMS, RandomSource(seed)).terms, fq)
            rhs = sparse_product(f_q, g_q, PARAMS, RandomSource(seed + 10 ** 6))
            assert lhs == rhs

    def test_ext_field_product(self):
        f_big = ext_field(Q62, 2)
        rnd = random.Random(35)
        for seed in range(10):
            f = rand_sparse(rnd, f_big, 6, 10 ** 4)
            g = rand_sparse(rnd, f_big, 6, 10 ** 4)
            assert sparse_product(f, g, PARAMS, RandomSource(seed)) == naive_mul(f, g)

    def test_characteristic_too_small(self):
        f5 = prime_field(5)
        f = canonicalize([(0, 1), (4, 2)], f5)
        with pytest.raises(CharacteristicTooSmallError):
            sparse_product(f, f, PARAMS, RandomSource(0))

    def test_characteristic_below_cyclic_prime(self, monkeypatch):
        # q = 211 exceeds the product degree 160 but not 2p for a cyclic
        # prime p = 107 that deg F = 150 wraps past, where exponents must
        # embed into coefficients; the error names the real constraint.
        # lam is pinned below deg F, so the prime is drawn at all
        monkeypatch.setattr(product, "lambda_no_collision", lambda T, D, eps: 100)
        monkeypatch.setattr(product, "random_prime", lambda lam, rng: 107)
        f, g = _F211_WRAPPING
        with pytest.raises(CharacteristicTooSmallError, match="2p = 214"):
            sparse_product(f, g, PARAMS, RandomSource(0))

    def test_mu_star_zero_boundary(self):
        # mu1/2 == mu2 leaves no interpolation budget; the clamp keeps the
        # round count finite and verification still gates the output
        params = ProductParams(0.5, 0.25)
        for seed in range(10):
            out = sparse_product(F_EX, G_EX, params, RandomSource(seed))
            assert out == naive_mul(F_EX, G_EX)

    @pytest.mark.parametrize("mu2, job_mu", [(0.25, 0.5 / 8), (0.3, (0.3 - 0.25) / 2)],
                             ids=["at", "above"])
    def test_job_budget_at_the_mu2_boundary(self, monkeypatch, mu2, job_mu):
        # mu2 pays for a colliding p (mu1/2) and the jobs share the rest,
        # (mu2 - mu1/2)/2 each; at mu2 = mu1/2 no rest is left and each job
        # gets mu1/8, so both wrapped jobs see it too
        mus = []
        real = product.interp_sum_sp

        def interp_sum_sp(pairs, T, mu, rng):
            mus.append(mu)
            return real(pairs, T, mu, rng)

        monkeypatch.setattr(product, "interp_sum_sp", interp_sum_sp)
        params = ProductParams(0.5, mu2)
        for f, g in ((F_EX, G_EX), _random_pair(ZZ, (6, 5), 10 ** 30, 0)):
            mus.clear()
            assert sparse_product(f, g, params, RandomSource(3)) == naive_mul(f, g)
            assert mus and set(mus) == {job_mu}

    def test_example2_products(self):
        for t in (4, 16):
            f, g = example2_family(t)
            out = sparse_product(f, g, PARAMS, RandomSource(t))
            assert out.terms == ((0, -1), (t * t, 1))


    def test_first_guess_passes_for_example2(self, monkeypatch):
        # example2's 2-term product passes at the first guess, which lies in
        # [2, 4) (32 / 16 for max(#F, #G) = 32); neither operand wraps mod
        # X^p - 1, so the h1 job is the only one, and it is checked once
        steps = _watch_steps(monkeypatch)
        f, g = example2_family(16)
        sparse_product(f, g, PARAMS, RandomSource(16))
        assert steps == [["job", 2, 1, None], ["check", "verify_sp"]]

    @pytest.mark.parametrize("t", [16, 64, pytest.param(512, marks=pytest.mark.slow)])
    def test_example2_walks_each_pair_once(self, monkeypatch, t):
        # the h1 job walks F x G once, at a prime from the pool of the first
        # guess: the round that recovers the 2-term product ends its job,
        # with no confirming walk, and no operand wraps, so no h2 job
        # follows.  The walk is counted by its prime, not by ring mults,
        # since a dense walk charges none.
        primes = _watch_walks(monkeypatch)
        f, g = example2_family(t)
        top = _pool_top(2, t * t + 1)
        for seed in range(20):
            primes.clear()
            out = sparse_product(f, g, PARAMS, RandomSource(seed))
            assert out.terms == ((0, -1), (t * t, 1))
            assert len(primes) == 1 and primes[0] <= top

    def test_doubling_budget_exhausted(self, monkeypatch):
        # a verifier that never accepts doubles the guess once per attempt
        # until the budget runs out
        jobs = _watch_jobs(monkeypatch)
        monkeypatch.setattr(product, "verify_sp", lambda *_: False)
        monkeypatch.setattr(product, "_MAX_DOUBLINGS", 3)
        with pytest.raises(RetryBudgetError):
            sparse_product(F_EX, G_EX, PARAMS, RandomSource(0))
        assert [T for _, T in jobs] == [3, 6, 12]


def small_sumset_pair(ring, n, seed):
    """Operands of n terms each on one arithmetic progression, so that the
    product has 2n - 1 terms; positive coefficients, so none cancel."""
    rnd = random.Random(seed)
    step = rnd.randrange(1, 10 ** 4)
    return tuple(canonicalize([(start + step * i, rnd.randrange(1, 2 ** 20)) for i in range(n)],
                              ring)
                 for start in (rnd.randrange(10 ** 6), rnd.randrange(10 ** 6)))


class TestFirstGuess:
    # the sparsity guess starts in [2, 4), so a small output is found at a
    # small prime; larger outputs get there through the floor rule
    Q = 2 ** 62 - 57

    @pytest.mark.parametrize("ring", [ZZ, prime_field(Q)], ids=["Z", "F_2^62-57"])
    def test_one_check_per_product(self, monkeypatch, ring):
        # a first guess of 1 can never overflow (its pool is {2, 3}), so it
        # returns an unexplained guess that is checked in vain; from [2, 4)
        # every product here takes exactly one check
        steps = _watch_steps(monkeypatch)
        families = {
            "random": lambda n, seed: _random_pair(ring, (n, n), 10 ** 6, seed),
            "small sumset": lambda n, seed: small_sumset_pair(ring, n, seed),
            "example2": lambda n, seed: tuple(canonicalize(h.terms, ring)
                                              for h in example2_family(n)),
        }
        for name, family in families.items():
            for n in (2, 3, 4, 6, 8, 12, 24, 48):
                for seed in range(8):
                    f, g = family(n, seed)
                    steps.clear()
                    assert sparse_product(f, g, PARAMS, RandomSource(seed)) == naive_mul(f, g)
                    checks = [s for s in steps if s[0] == "check"]
                    assert checks == [["check", "verify_sp"]], (name, n, seed)

    @pytest.mark.slow
    def test_example2_walks_at_small_primes(self, monkeypatch):
        # T = 2048: every walk is at a prime from the pool of a guess below
        # 4, where the first guess max(#F, #G) = 4096 walked the whole
        # F x G slot grid at a p in the hundreds of thousands
        jobs = _watch_jobs(monkeypatch)
        primes = _watch_walks(monkeypatch)
        t = 2048
        f, g = example2_family(t)
        top = _pool_top(3, t * t + 1)
        for seed in range(3):
            jobs.clear()
            primes.clear()
            out = sparse_product(f, g, PARAMS, RandomSource(seed))
            assert out.terms == ((0, -1), (t * t, 1))
            assert len(jobs) <= 2 and primes and max(primes) <= top


class TestWrappedOperands:
    # sparse_product reads the product off residues mod X^p - 1 (h1 and its
    # derivative's h2) only when an operand has degree >= p; otherwise h1 is
    # F*G itself.  The cyclic prime p lies in [lam, 2*lam], so exponents far
    # above 2*lam force the wrapped path.
    @pytest.mark.parametrize("ring, emax", [(ZZ, 10 ** 30), (prime_field(Q62), 10 ** 15)],
                             ids=["Z", "F_Q62"])
    def test_wrapped_product_runs_h2(self, monkeypatch, ring, emax):
        jobs = _watch_jobs(monkeypatch)
        for seed in range(5):
            f, g = _random_pair(ring, (6, 5), emax, seed)
            lam = lambda_no_collision(f.sparsity * g.sparsity, f.degree + g.degree,
                                      PARAMS.mu1 / 2)
            assert max(f.degree, g.degree) >= 2 * lam
            jobs.clear()
            assert sparse_product(f, g, PARAMS, RandomSource(seed)) == naive_mul(f, g)
            assert len(jobs[-1][0]) == 2

    @pytest.mark.parametrize("ring", [ZZ, prime_field(Q62)], ids=["Z", "F_Q62"])
    def test_unwrapped_product_is_h1(self, monkeypatch, ring):
        # every job interpolates F*G from the pair (F, G) itself, so it
        # derives D = deg F + deg G + 1 and, over Z, C = min(#F, #G)*||F||*||G||,
        # and the primes its rounds draw depend on the operands alone
        jobs = _watch_jobs(monkeypatch)
        pairs = [_random_pair(ring, sizes, 10 ** 4, seed)
                 for seed, sizes in enumerate([(6, 5)] * 5 + [(1, 9), (16, 16), (40, 3)])]
        if ring == ZZ:
            pairs.append(example2_family(16))
        for seed, (f, g) in enumerate(pairs):
            jobs.clear()
            assert sparse_product(f, g, PARAMS, RandomSource(seed)) == naive_mul(f, g)
            assert jobs and all(pairs == [(f, g)] for pairs, _ in jobs)


class TestProductCertificate:
    # every candidate, wrapped or not, is checked as a product,
    # verify_sp(F, G, h): a cyclic prime under which two exponents of F*G
    # collide fails every guess instead of giving a wrong output, and the
    # guesses stop growing at the first lattice point >= #F*#G, so such a
    # product ends in RetryBudgetError after jobs no larger than that point
    def test_colliding_prime_raises(self, monkeypatch):
        # 5 + 19*10^7 = 5 (mod 19): at p = 19 the terms X^5 and
        # X^(5 + 19*10^7) of F*G share a slot, which find_terms reads as
        # the one term 2*X^95000005
        monkeypatch.setattr(product, "random_prime", lambda lam, rng: 19)
        jobs = _watch_jobs(monkeypatch)
        checks = []
        real = product.verify_sp

        def verify_sp(F, G, H, eps, rng):
            checks.append((F, G))
            return real(F, G, H, eps, rng)

        monkeypatch.setattr(product, "verify_sp", verify_sp)
        f = canonicalize([(0, 1), (5 + 19 * 10 ** 7, 1)], ZZ)
        g = canonicalize([(0, 1), (5, 1)], ZZ)
        params = ProductParams(0.01, 0.01)
        assert f.degree >= lambda_no_collision(4, f.degree + g.degree, params.mu1 / 2)
        for seed in range(5):
            jobs.clear()
            checks.clear()
            with pytest.raises(RetryBudgetError):
                sparse_product(f, g, params, RandomSource(seed))
            # the lattice of t0 = 2 is 2, 4, 8, ...: no job runs above 4
            assert jobs and max(T for _, T in jobs) == 4
            assert len([T for pairs, T in jobs if len(pairs) == 1]) == product._MAX_DOUBLINGS
            assert checks and all(F == f and G == g for F, G in checks)

    @pytest.mark.parametrize("emax", [10 ** 30, 10 ** 4], ids=["wrapped", "unwrapped"])
    def test_guesses_stop_at_the_product_size(self, monkeypatch, emax):
        jobs = _watch_jobs(monkeypatch)
        monkeypatch.setattr(product, "verify_sp", lambda *_: False)
        cap = 12  # the first of 3, 6, 12, ... that holds #F*#G = 9 terms
        for seed in range(3):
            f, g = _random_pair(ZZ, (3, 3), emax, seed)
            lam = lambda_no_collision(9, f.degree + g.degree, PARAMS.mu1 / 2)
            assert (f.degree >= 2 * lam) == (emax > 10 ** 4)
            jobs.clear()
            with pytest.raises(RetryBudgetError):
                sparse_product(f, g, PARAMS, RandomSource(seed))
            guesses = [T for pairs, T in jobs if len(pairs) == 1]
            assert len(guesses) == product._MAX_DOUBLINGS
            assert max(T for _, T in jobs) == cap and guesses[-1] == cap
            assert any(len(pairs) == 2 for pairs, _ in jobs) == (emax > 10 ** 4)


class TestCollisionPrimeDraw:
    """The collision prime is drawn only when an operand has degree >= lam:
    below it no p in [lam, 2*lam] wraps an operand."""

    @pytest.mark.parametrize("ring", [ZZ, prime_field(Q62)], ids=["Z", "F_Q62"])
    def test_drawn_exactly_when_an_operand_reaches_lam(self, monkeypatch, ring):
        draws, pinned = [], []
        real_prime, real_lam = product.random_prime, product.lambda_no_collision

        def random_prime(lam, rng):
            draws.append(lam)
            return real_prime(lam, rng)

        monkeypatch.setattr(product, "random_prime", random_prime)
        monkeypatch.setattr(product, "lambda_no_collision",
                            lambda T, D, eps: pinned[0] if pinned else real_lam(T, D, eps))
        for seed in range(5):
            f, g = _random_pair(ring, (6, 5), 10 ** 4, seed)
            top = max(f.degree, g.degree)
            assert top < real_lam(f.sparsity * g.sparsity, f.degree + g.degree, PARAMS.mu1 / 2)
            # lam as computed, pinned at the larger degree, and just above it
            for pin, drawn in ((None, []), (top, [top]), (top + 1, [])):
                pinned[:] = [pin] if pin else []
                draws.clear()
                assert sparse_product(f, g, PARAMS, RandomSource(seed)) == naive_mul(f, g)
                assert draws == drawn


class TestCheckBudget:
    # the k-th check gets mu1/2^k, wrapped or not (a colliding p is charged
    # to mu2), so the checks spend less than mu1 however many guesses are
    # rejected
    @staticmethod
    def _reject_first(monkeypatch, n) -> list:
        """Record every check's (F, G, eps); the first n checks reject."""
        spent = []
        real = product.verify_sp

        def verify_sp(F, G, H, eps, rng):
            spent.append((F, G, eps))
            return len(spent) > n and real(F, G, H, eps, rng)

        monkeypatch.setattr(product, "verify_sp", verify_sp)
        return spent

    @pytest.mark.parametrize("ring", [ZZ, prime_field(Q62)], ids=["Z", "F_Q62"])
    def test_unwrapped_checks_stay_within_mu1(self, monkeypatch, ring):
        spent = self._reject_first(monkeypatch, 2)
        for seed in range(5):
            f, g = _random_pair(ring, (6, 5), 10 ** 4, seed)
            spent.clear()
            assert sparse_product(f, g, PARAMS, RandomSource(seed)) == naive_mul(f, g)
            assert len(spent) == 3 and spent[0] == (f, g, PARAMS.mu1 / 2)
            assert sum(eps for _, _, eps in spent) <= PARAMS.mu1

    @pytest.mark.parametrize("ring, emax", [(ZZ, 10 ** 30), (prime_field(Q62), 10 ** 15)],
                             ids=["Z", "F_Q62"])
    def test_wrapped_checks_stay_within_mu1(self, monkeypatch, ring, emax):
        # every check is on the operands themselves, never on a residue
        spent = self._reject_first(monkeypatch, 1)
        for seed in range(5):
            f, g = _random_pair(ring, (6, 5), emax, seed)
            spent.clear()
            assert sparse_product(f, g, PARAMS, RandomSource(seed)) == naive_mul(f, g)
            assert len(spent) >= 2 and spent[0][2] == PARAMS.mu1 / 2
            assert all(F == f and G == g for F, G, _ in spent)
            assert sum(eps for _, _, eps in spent) <= PARAMS.mu1


class TestSparsityFloor:
    # A job whose residue overflows raises SparsityBoundError with a proven
    # lower bound on its target's sparsity.  sparse_product checks no such
    # guess and jumps to the smallest guess on the doubling lattice whose
    # 2t-term output can hold the floor.
    @pytest.mark.parametrize("ring", [ZZ, prime_field(Q62)], ids=["Z", "F_Q62"])
    def test_floor_sizes_the_next_guess(self, monkeypatch, ring):
        steps = _watch_steps(monkeypatch)
        for seed in range(10):
            f, g = _random_pair(ring, (12, 12), 10 ** 6, seed)
            steps.clear()
            assert sparse_product(f, g, PARAMS, RandomSource(seed)) == naive_mul(f, g)
            # the first guess, 3 (12 / 4), cannot hold a product of about
            # 144 terms
            assert steps[0][3] is not None
            assert _assert_floor_rule(steps, 12, 144, _unique_sums(f, g)) >= 1

    @pytest.mark.parametrize("ring, emax", [(ZZ, 10 ** 30), (prime_field(Q62), 10 ** 15)],
                             ids=["Z", "F_Q62"])
    def test_wrapped_floor_sizes_the_next_guess(self, monkeypatch, ring, emax):
        steps = _watch_steps(monkeypatch)
        for seed in range(10):
            f, g = _random_pair(ring, (6, 5), emax, seed)
            lam = lambda_no_collision(f.sparsity * g.sparsity, f.degree + g.degree,
                                      PARAMS.mu1 / 2)
            assert max(f.degree, g.degree) >= 2 * lam
            steps.clear()
            assert sparse_product(f, g, PARAMS, RandomSource(seed)) == naive_mul(f, g)
            assert _assert_floor_rule(steps, 6, 30, _unique_sums(f, g)) >= 1
            # the product was read off the last guess's h1 and h2 jobs and
            # checked once
            assert [s[:3] for s in steps[-3:-1]] == [["job", steps[-3][1], 1],
                                                      ["job", steps[-3][1], 2]]
            assert steps[-3][3] is None and steps[-2][3] is None
            assert steps[-1] == ["check", "verify_sp"]

    def test_wrapped_h2_floor_is_not_checked(self, monkeypatch):
        # the first h2 job raises, with the true sparsity of its target as
        # the floor: verify_sp does not see that guess, and the next guess
        # reruns h1 at a t sized from the floor
        real = product.interp_sum_sp
        faked = []

        def interp_sum_sp(pairs, T, mu, rng):
            if len(pairs) == 2 and not faked:
                faked.append(T)
                raise SparsityBoundError(add(*(naive_mul(a, b) for a, b in pairs)).sparsity)
            return real(pairs, T, mu, rng)

        monkeypatch.setattr(product, "interp_sum_sp", interp_sum_sp)
        steps = _watch_steps(monkeypatch)
        for seed in range(10):
            f, g = _random_pair(ZZ, (6, 5), 10 ** 30, seed)
            faked.clear()
            steps.clear()
            assert sparse_product(f, g, PARAMS, RandomSource(seed)) == naive_mul(f, g)
            assert faked and _assert_floor_rule(steps, 6, 30, _unique_sums(f, g)) >= 1
            # one guess per h1 job: it is checked iff none of its jobs raised
            starts = [i for i, s in enumerate(steps) if s[0] == "job" and s[2] == 1]
            for lo, hi in zip(starts, starts[1:] + [len(steps)]):
                guess = steps[lo:hi]
                raised = any(s[0] == "job" and s[3] is not None for s in guess)
                assert (["check", "verify_sp"] in guess) == (not raised)
            raised_h2 = [s for s in steps if s[0] == "job" and s[2] == 2 and s[3] is not None]
            assert raised_h2 and raised_h2[0][1] == faked[0]

    @pytest.mark.slow
    def test_benchmark_size_takes_two_jobs(self, monkeypatch):
        # random 64 x 64 over Z: the first guess, 2, overflows at a small p,
        # and the exponent floor counted there proves about 4096 terms, so
        # the next and last job runs at 2048 (64 * 2^5, the guess the
        # doubling lattice of t0 = 64 reaches), and only it is checked
        steps = _watch_steps(monkeypatch)
        good = 0
        for seed in range(10):
            f, g = _random_pair(ZZ, (64, 64), 10 ** 9, seed)
            steps.clear()
            assert sparse_product(f, g, PARAMS, RandomSource(seed)) == naive_mul(f, g)
            _assert_floor_rule(steps, 64, 64 * 64, _unique_sums(f, g))
            jobs = [s[1] for s in steps if s[0] == "job"]
            checks = [s for s in steps if s[0] == "check"]
            good += jobs == [2, 2048] and checks == [["check", "verify_sp"]]
        assert good >= 9

    def test_round_primes_are_the_drawn_indices_primes(self, monkeypatch):
        # random 64 x 64 over Z: every prime a pool round draws is the
        # oracle's j-th prime, j the index its RandomSource gave, every
        # round 0's prime is random_prime's draw in [4T, 8T], and each
        # is the prime that round walks at
        draws = []

        class Recorder:
            def __init__(self, view):
                self.view = view

            def __len__(self):
                return len(self.view)

            def __getitem__(self, j):
                p = self.view[j]
                draws.append((j, p))
                return p

        real = interp.first_primes
        monkeypatch.setattr(interp, "first_primes", lambda n: Recorder(real(n)))
        short = []
        real_short = interp.random_prime

        def random_prime(lam, rng):
            p = real_short(lam, rng)
            short.append((lam, p))
            draws.append((None, p))
            return p

        monkeypatch.setattr(interp, "random_prime", random_prime)
        walks = _watch_walks(monkeypatch)
        for seed in range(3):
            f, g = _random_pair(ZZ, (64, 64), 10 ** 9, seed)
            assert sparse_product(f, g, PARAMS, RandomSource(seed)) == naive_mul(f, g)
        assert len(draws) >= 6 and [p for _, p in draws] == walks
        pool = [(j, p) for j, p in draws if j is not None]
        oracle = eratosthenes_primes(max(walks))
        assert max(j for j, _ in pool) > 100_000  # the final job's pool
        assert all(oracle[j] == p for j, p in pool)
        assert short and all(lam <= p <= 2 * lam and p in oracle for lam, p in short)

    @pytest.mark.parametrize("t, most", [(32, 63), (48, 63), (64, 63)])
    def test_final_job_takes_one_walk(self, monkeypatch, t, most):
        # random t x t over Z below 10^9: the final job's first walk, at a
        # prime near 3.3M at t = 64 (its short round is gated off), leaves
        # a few slots unexplained.  Wherever _repair's cost rule, computed
        # here from the operands, makes repairing them cheaper than a walk,
        # they are repaired and that job walks once; where it does not (a
        # small prime of the pool), the job walks again, and never more
        # than twice.  The 20 products take at most most pool walks in
        # all, and no job takes more than one short walk
        jobs = []
        real_job, real_walk = product.interp_sum_sp, interp.cyclic_product_residue
        real_short, real_find = interp.random_prime, interp.find_terms

        def interp_sum_sp(pairs, T, mu, rng):
            jobs.append({"walks": [], "short": 0, "missed": []})
            return real_job(pairs, T, mu, rng)

        def cyclic_product_residue(pairs, minus, p, limit):
            jobs[-1]["walks"].append((pairs, p))
            return real_walk(pairs, minus, p, limit)

        def random_prime(lam, rng):
            jobs[-1]["short"] += 1
            return real_short(lam, rng)

        def find_terms(*args, missed=None, **kwargs):
            out = real_find(*args, missed=missed, **kwargs)
            jobs[-1]["missed"].append(list(missed))
            return out

        monkeypatch.setattr(product, "interp_sum_sp", interp_sum_sp)
        monkeypatch.setattr(interp, "cyclic_product_residue", cyclic_product_residue)
        monkeypatch.setattr(interp, "random_prime", random_prime)
        monkeypatch.setattr(interp, "find_terms", find_terms)
        walks = repaired = 0
        for seed in range(20):
            f, g = _random_pair(ZZ, (t, t), 10 ** 9, seed)
            jobs.clear()
            assert sparse_product(f, g, PARAMS, RandomSource(seed)) == naive_mul(f, g)
            final = jobs[-1]
            assert final["short"] == 0 and 1 <= len(final["walks"]) <= 2
            pairs, p = final["walks"][0]
            missed = final["missed"][0]
            if missed and _repair_pays(pairs, p, missed):
                repaired += 1
            if not missed or _repair_pays(pairs, p, missed):
                assert len(final["walks"]) == 1
            assert all(job["short"] <= 1 for job in jobs)
            walks += sum(len(job["walks"]) - job["short"] for job in jobs)
        assert walks <= most and repaired >= 10

    def test_misread_colliding_slots_are_rejected_by_the_check(self, monkeypatch):
        # with +-1 coefficients, two colliding terms c*X^a + c*X^b read as
        # the one term 2c*X^((a+b)/2) whenever (a - b)/p is even; once the
        # job's other colliding slots are repaired it can end on that
        # candidate, which verify_sp must reject.  Every product of 48 is
        # still the schoolbook one, and some rejected candidates have that
        # shape
        rejected = []
        real = product.verify_sp

        def verify_sp(F, G, H, eps, rng):
            ok = real(F, G, H, eps, rng)
            if not ok:
                rejected.append((F, G, H))
            return ok

        monkeypatch.setattr(product, "verify_sp", verify_sp)
        misreads = 0
        for seed in range(48):
            rnd = random.Random(seed)
            f, g = (canonicalize([(e, rnd.choice((-1, 1)))
                                  for e in rnd.sample(range(10 ** 6), 16)], ZZ)
                    for _ in "fg")
            rejected.clear()
            assert sparse_product(f, g, PARAMS, RandomSource(seed)) == naive_mul(f, g)
            for F, G, H in rejected:
                want, got = dict(naive_mul(F, G).terms), dict(H.terms)
                missing = {e: c for e, c in want.items() if e not in got}
                misreads += any(
                    m not in want and c % 2 == 0 and any(
                        missing.get(2 * m - a) == c // 2 for a, ca in missing.items()
                        if ca == c // 2 and a != m)
                    for m, c in got.items())
        assert misreads >= 3

    def test_lattice_below_t0(self, monkeypatch):
        # t0 = 13 puts the lattice at 4, 7, 13, 26, ...: the guesses below
        # t0 are ceilings of t0 / 2^j, and every guess from t0 on is t0 * 2^j
        assert _lattice(13, 6) == [4, 7, 13, 26, 52, 104]
        steps = _watch_steps(monkeypatch)
        for seed in range(5):
            f, g = _random_pair(ZZ, (13, 13), 10 ** 6, seed)
            steps.clear()
            assert sparse_product(f, g, PARAMS, RandomSource(seed)) == naive_mul(f, g)
            assert steps[0][1] == 4 and steps[0][3] is not None
            assert _assert_floor_rule(steps, 13, 169, _unique_sums(f, g)) >= 1
        # the checker itself, with no exponent floor: after a floor of 12 at
        # guess 4, the next guess is 7 (2 * 7 >= 12), not 13
        assert _assert_floor_rule([["job", 4, 1, 12], ["job", 7, 1, None]], 13, 169, 0) == 1
        with pytest.raises(AssertionError):
            _assert_floor_rule([["job", 4, 1, 12], ["job", 13, 1, None]], 13, 169, 0)
        # an exponent floor above the job's floor sizes the guess instead:
        # 40 puts it at 26 (2 * 26 >= 40)
        assert _assert_floor_rule([["job", 4, 1, 12], ["job", 26, 1, None]], 13, 169, 40) == 1
        with pytest.raises(AssertionError):
            _assert_floor_rule([["job", 4, 1, 12], ["job", 7, 1, None]], 13, 169, 40)
        # from a guess of at least #F*#G on, the next guess is the same
        # point: for t0 = 2 and #F*#G = 3, 2 -> 4 -> 4
        steps = [["job", 2, 1, 3], ["job", 4, 1, 3], ["job", 4, 1, None]]
        assert _assert_floor_rule(steps, 2, 3, 0) == 2
        with pytest.raises(AssertionError):
            _assert_floor_rule(steps[:2] + [["job", 8, 1, None]], 2, 3, 0)


class TestShortRound:
    # A job whose term pairs reach the packing price of a walk at 8T
    # (sum #F_i*#G_i >= 3*3.2*8T*#pairs, 3 products per slot pair at 3.2 =
    # 16/5 per slot each) runs one round more, and its round 0 walks at
    # random_prime(4T), in [4T, 8T], instead of a pool prime.  A floor
    # raised there ends the job, and an update made there seeds the pool
    # rounds (interp_sum_sp)
    @staticmethod
    def _gate(pairs, T):
        # in integers: 3*3.2*8T*#pairs = 384*T*#pairs / 5
        work = sum(F.sparsity * G.sparsity for F, G in pairs)
        return 5 * work >= 384 * T * len(pairs)

    def test_gate_holds_at_its_boundary(self, monkeypatch):
        # at T = 5 with one pair the price is exactly 384 term pairs, where
        # the float product 3*3.2*8*5 = 384.00000000000006 would fail:
        # a 16 x 24 job walks round 0 at a prime in [20, 40], and a 383 x 1
        # job walks its pool primes alone
        short = []
        real = interp.random_prime

        def random_prime(lam, rng):
            short.append(lam)
            return real(lam, rng)

        monkeypatch.setattr(interp, "random_prime", random_prime)
        walks = _watch_walks(monkeypatch)
        f16 = canonicalize([(i, 1 + i) for i in range(16)], ZZ)
        g24 = canonicalize([(16 * j, 2 + j) for j in range(24)], ZZ)
        f383 = canonicalize([(i, 1 + i) for i in range(383)], ZZ)
        for pairs, gated in (([(f16, g24)], True), ([(f383, monomial(ZZ, 3, 2))], False)):
            assert self._gate(pairs, 5) == gated
            for seed in range(5):
                short.clear()
                walks.clear()
                try:
                    interp.interp_sum_sp(pairs, 5, 0.25, RandomSource(seed))
                except SparsityBoundError:
                    pass
                assert short == ([20] if gated else [])
                assert walks and (20 <= walks[0] <= 40 or not gated)

    @pytest.mark.parametrize("t", [64, 128, 256])
    def test_example2_ends_at_the_short_prime(self, monkeypatch, t):
        # the 2-term product's first job, at the guess 2, walks once, at a
        # prime in [8, 16], and its output X^(t^2) - 1 is the product
        jobs = _watch_jobs(monkeypatch)
        walks = _watch_walks(monkeypatch)
        f, g = example2_family(t)
        for seed in range(20):
            jobs.clear()
            walks.clear()
            out = sparse_product(f, g, PARAMS, RandomSource(seed))
            assert out.terms == ((0, -1), (t * t, 1))
            assert len(jobs) == 1 and len(walks) == 1
            T = jobs[0][1]
            assert self._gate(*jobs[0]) and 4 * T <= walks[0] <= 8 * T

    def test_no_short_round_where_the_gate_is_off(self, monkeypatch):
        # random 64 x 64 over Z: a job draws a short prime exactly when its
        # gate is on, at lam = 4T.  The first guess, 2, has it on, its
        # floor and the exponent floor size every later guess, and the
        # final job, which sizes the product, has it off and runs its pool
        # rounds alone
        jobs = _watch_jobs(monkeypatch)
        steps = _watch_steps(monkeypatch)
        short = []
        real = interp.random_prime

        def random_prime(lam, rng):
            short.append((len(jobs) - 1, lam))
            return real(lam, rng)

        monkeypatch.setattr(interp, "random_prime", random_prime)
        for seed in range(4):
            f, g = _random_pair(ZZ, (64, 64), 10 ** 9, seed)
            jobs.clear()
            steps.clear()
            short.clear()
            assert sparse_product(f, g, PARAMS, RandomSource(seed)) == naive_mul(f, g)
            gated = [i for i, (pairs, T) in enumerate(jobs) if self._gate(pairs, T)]
            assert short == [(i, 4 * jobs[i][1]) for i in gated]
            assert gated[:1] == [0] and not self._gate(*jobs[-1])
            _assert_floor_rule(steps, 64, 64 * 64, _unique_sums(f, g))

    @pytest.mark.parametrize("stride", [1000003, 3], ids=["large-stride", "small"])
    def test_short_floor_ends_the_job_on_sumsets(self, monkeypatch, stride):
        # f = sum (1+i) X^(K*i), g = sum (2+i) X^(K*i+1) over i < 512: 1023
        # output terms from 262,144 term pairs.  Every product takes at least
        # one job whose round 0 overflows with a proven floor above 2T, and
        # each such job ends there instead of walking the pool; each product
        # is the schoolbook one
        n = 512
        f = canonicalize([(stride * i, 1 + i) for i in range(n)], ZZ)
        g = canonicalize([(stride * i + 1, 2 + i) for i in range(n)], ZZ)
        want = naive_mul(f, g)
        assert want.sparsity == 2 * n - 1
        # per job, its events in order: "short" when round 0 draws its
        # prime, "walk" per walk, "raised" when a walk raised a floor
        jobs = []
        real_job, real_walk = product.interp_sum_sp, interp.cyclic_product_residue
        real_short = interp.random_prime

        def interp_sum_sp(pairs, T, mu, rng):
            jobs.append([])
            return real_job(pairs, T, mu, rng)

        def cyclic_product_residue(pairs, minus, p, limit):
            jobs[-1].append("walk")
            try:
                return real_walk(pairs, minus, p, limit)
            except SparsityBoundError:
                jobs[-1].append("raised")
                raise

        def random_prime(lam, rng):
            jobs[-1].append("short")
            return real_short(lam, rng)

        monkeypatch.setattr(product, "interp_sum_sp", interp_sum_sp)
        monkeypatch.setattr(interp, "cyclic_product_residue", cyclic_product_residue)
        monkeypatch.setattr(interp, "random_prime", random_prime)
        for seed in (7, 8, 9):
            jobs.clear()
            assert sparse_product(f, g, PARAMS, RandomSource(seed)) == want
            ended = [events for events in jobs if events[:3] == ["short", "walk", "raised"]]
            assert ended and all(len(events) == 3 for events in ended)


class TestProductExponentFloor:
    # At its first SparsityBoundError, sparse_product counts the sums
    # e1 + e2 over supp F x supp G that exactly one term pair reaches: each
    # has the nonzero coefficient c1*c2, so the count proves #(F*G) >= it,
    # and every later guess is sized from it as well as from the job's floor
    @pytest.mark.parametrize("ring, emax, sizes", [
        (ZZ, 10 ** 6, (12, 12)), (prime_field(Q62), 10 ** 6, (12, 12)),
        (ZZ, 10 ** 30, (12, 10)), (prime_field(Q62), 10 ** 15, (12, 10))],
        ids=["Z", "F_Q62", "Z-wrapped", "F_Q62-wrapped"])
    def test_first_overflow_jumps_to_the_unique_sum_guess(self, monkeypatch, ring, emax, sizes):
        steps = _watch_steps(monkeypatch)
        lattice = _lattice(sizes[0], 64)
        for seed in range(10):
            f, g = _random_pair(ring, sizes, emax, seed)
            steps.clear()
            assert sparse_product(f, g, PARAMS, RandomSource(seed)) == naive_mul(f, g)
            i = next(i for i, s in enumerate(steps) if s[0] == "job" and s[3] is not None)
            _, t, _, floor = steps[i]
            unique = _unique_sums(f, g)
            assert unique > floor
            nxt = min(u for u in lattice if u > t and 2 * u >= unique)
            assert steps[i + 1][:3] == ["job", nxt, 1]

    @pytest.mark.parametrize("ring", [ZZ, prime_field(101), prime_field(Q62)],
                             ids=["Z", "F101", "F_Q62"])
    def test_floor_bounds_products_whose_repeated_sums_cancel(self, ring):
        # (A + B)*(A - B) = A^2 - B^2: every cross sum a + b is reached
        # twice and cancels, and so is every a + a' with a != a'.  Over
        # random +-1 operands on a short range many sums repeat and some
        # cancel.  The floor is the count of sums reached once, or 0 where
        # the pass gave up, and never exceeds the product's term count
        rnd = random.Random(45)
        cases = [example2_family(8)] if ring is ZZ else []
        for _ in range(20):
            a, b = (rand_sparse(rnd, ring, 6, 40, 9) for _ in "ab")
            cases.append((add(a, b), add(a, scale(b, ring.neg(ring.coerce(1))))))
            f, g = (canonicalize([(e, ring.coerce(rnd.choice((-1, 1))))
                                  for e in rnd.sample(range(45), 8)], ring) for _ in "fg")
            cases.append((f, g))
        tight = 0
        for f, g in cases:
            floor = product._exponent_floor(f, g)
            want = naive_mul(f, g).sparsity
            assert floor in (0, _unique_sums(f, g)) and floor <= want
            tight += 0 < floor < f.sparsity * g.sparsity
        assert tight >= 10

    @pytest.mark.parametrize("stride", [1000003, 3], ids=["large-stride", "small"])
    def test_sumset_pass_gives_up_within_a_few_rows(self, monkeypatch, stride):
        # the sumsets of 512 + 512 terms on one progression: every row after
        # the first repeats all but one sum, so two sums stay reached once
        # and the pass gives up after two of its 512 rows, with no floor.
        # Each product counts it at most once.  Rows are the terms of F
        # read, counted by a stand-in for F whose terms count as they go
        n = 512
        f = canonicalize([(stride * i, 1 + i) for i in range(n)], ZZ)
        g = canonicalize([(stride * i + 1, 2 + i) for i in range(n)], ZZ)
        rows, counts = [], []
        real_floor = product._exponent_floor

        def counted(terms):
            for t in terms:
                rows[-1] += 1
                yield t

        def exponent_floor(F, G):
            rows.append(0)
            rows_of_f = SimpleNamespace(terms=counted(F.terms), sparsity=F.sparsity)
            counts.append(real_floor(rows_of_f, G))
            return counts[-1]

        monkeypatch.setattr(product, "_exponent_floor", exponent_floor)
        assert exponent_floor(f, g) == 0 and rows == [2]
        want = naive_mul(f, g)
        for seed in (7, 8, 9):
            rows.clear()
            counts.clear()
            assert sparse_product(f, g, PARAMS, RandomSource(seed)) == want
            assert len(rows) <= 1 and all(r <= 3 for r in rows) and set(counts) <= {0}


class TestCharacteristicBoundary:
    # Exponents are read back as coefficient ratios, so they must stay
    # below the characteristic.  A product whose operands do not wrap mod
    # X^p - 1 reads them up to D = deg F + deg G and needs char > D; a
    # wrapped one reads them under D and 2p and needs char > 2p too.  Each
    # boundary is tested on both sides.
    EPS = 1e-13

    @staticmethod
    def _pair(t, emax, seed):
        rnd = random.Random(seed)
        fq = prime_field(Q62)
        return tuple(canonicalize([(e, rnd.randrange(1, Q62)) for e in rnd.sample(range(emax), t)],
                                  fq) for _ in range(2))

    def test_unwrapped_boundary_is_d_plus_one(self, monkeypatch):
        f101 = prime_field(101)
        a = canonicalize([(0, 1), (40, 2), (50, 1)], f101)
        b = canonicalize([(0, 3), (7, 5), (50, 1)], f101)
        c = canonicalize([(0, 1), (51, 2)], f101)
        jobs = _watch_jobs(monkeypatch)
        for seed in range(5):
            # D = 100: q = D + 1 computes on the field path
            jobs.clear()
            assert sparse_product(a, b, PARAMS, RandomSource(seed)) == naive_mul(a, b)
            assert jobs and all(pairs == [(a, b)] for pairs, _ in jobs)  # D = 101
            # D = 101: q = D raises before any randomness is drawn
            with pytest.raises(CharacteristicTooSmallError, match=r"deg F \+ deg G = 101"):
                sparse_product(c, b, PARAMS, _NoDraws())

    def test_wrapped_boundary_is_2p(self, monkeypatch):
        # the cyclic prime is pinned on either side of q/2 = 105.5; deg F =
        # 150 wraps past both, and lam is pinned below deg F, so the prime
        # is drawn at all
        f, g = _F211_WRAPPING
        steps = _watch_steps(monkeypatch)
        monkeypatch.setattr(product, "lambda_no_collision", lambda T, D, eps: 100)
        for p in (103, 107):
            monkeypatch.setattr(product, "random_prime", lambda lam, rng, p=p: p)
            for seed in range(5):
                steps.clear()
                if 2 * p < 211:
                    assert sparse_product(f, g, PARAMS, RandomSource(seed)) == naive_mul(f, g)
                    assert steps[-2][2] == 2  # read off the wrapped path's h2
                else:
                    with pytest.raises(CharacteristicTooSmallError, match="2p = 214"):
                        sparse_product(f, g, PARAMS, RandomSource(seed))
                    assert steps == []

    def test_q62_boundary(self, tmp_path, monkeypatch):
        # at the budget mu1 = eps/2 that the CLI's multivar_product_field
        # gives a product, the larger pair has lam >= q, so 2p > q on every
        # draw, and the smaller has 8*lam < q.  Neither pair wraps, so
        # both need only q > D + 1 and give the exact product, and the CLI
        # keeps the larger one on the field path instead of lifting it
        # through Z
        params = ProductParams(self.EPS / 2, self.EPS / 2)
        small, large = self._pair(4, 40, 1), self._pair(8, 80, 2)
        lam_small, lam_large = (
            lambda_no_collision(f.sparsity * g.sparsity, f.degree + g.degree, params.mu1 / 2)
            for f, g in (small, large))
        assert 8 * lam_small < Q62 <= lam_large
        for seed in range(5):
            assert sparse_product(*small, params, RandomSource(seed)) == naive_mul(*small)
            assert sparse_product(*large, params, RandomSource(seed)) == naive_mul(*large)

        lifted = []

        def smallchar(*args):
            lifted.append(args)
            return multivar_product_smallchar(*args)

        monkeypatch.setattr("spmul.cli.multivar_product_smallchar", smallchar)
        a, b, out = (str(tmp_path / name) for name in ("a.poly", "b.poly", "h.poly"))
        for path, f in zip((a, b), large):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(format_poly(as_multi(f)))
        assert run_command(["mul", a, b, "-o", out, "--epsilon", str(self.EPS)]) == 0
        assert lifted == []
        with open(out, encoding="utf-8") as fh:
            assert fh.read() == format_poly(as_multi(naive_mul(*large)))


class TestSumsetSize:
    def test_example2_structural_sparsity(self):
        f, g = example2_family(16)
        assert sumset_size(f, g) == 16 * 16 + 1
        assert naive_mul(f, g).sparsity == 2

    def test_single_terms(self):
        assert sumset_size(monomial(ZZ, 3, 1), monomial(ZZ, 9, 2)) == 1

    def test_singleton_side(self):
        rnd = random.Random(35)
        f = rand_sparse(rnd, ZZ, 9, 100, 9)
        assert sumset_size(monomial(ZZ, 7, 3), f) == f.sparsity
