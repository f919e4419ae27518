import math
import os
import random
import subprocess
import sys
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spmul import (RandomSource, RetryBudgetError, first_primes, irreducible_poly,
                   is_prime, lambda_no_collision, lambda_nonzero, random_prime)
from spmul import arith
from spmul.arith import (canonical_irreducible, ceil_bound, cyclotomic_degree, is_irreducible,
                         is_primitive_root)

from helpers import (Q62, canonical_walk_oracle, eratosthenes_primes, fq_gcd_oracle,
                     trial_division_primes)


@pytest.fixture(scope="module")
def oracle_30k():
    return trial_division_primes(350_377)  # the 30000th prime


class TestIsPrime:
    def test_units_and_small(self):
        assert not is_prime(0)
        assert not is_prime(1)
        assert not is_prime(-7)
        assert is_prime(2)
        assert is_prime(41)
        assert not is_prime(42)

    def test_mersenne31_vs_trial_division(self):
        # oracle first: 2^31 - 1 has no prime factor below its square root
        n = 2 ** 31 - 1
        assert all(n % p for p in trial_division_primes(2 ** 16) if p * p <= n)
        assert is_prime(n)

    def test_agrees_with_trial_division_to_3000(self):
        oracle = set(trial_division_primes(3000))
        for n in range(3000):
            assert is_prime(n) == (n in oracle)

    def test_large_inputs(self):
        assert is_prime(Q62)
        assert not is_prime(Q62 * (2 ** 61 - 1))
        assert is_prime(2 ** 89 - 1)  # Mersenne prime above the 2^64 line
        assert not is_prime(2 ** 67 - 1)  # Mersenne composite (Cole)

    def test_psi12_is_composite(self):
        # the least strong pseudoprime to the first 12 prime bases (Sorenson
        # and Webster's psi_12), below the 13-base limit: base 41 decides it
        psi12 = 318665857834031151167461
        assert psi12 == 399165290221 * 798330580441
        assert not is_prime(psi12)
        assert not is_prime(3317044064679887385961981)  # psi_13, at the limit

    def test_agrees_with_sieve_below_a_million(self):
        oracle = bytearray(10 ** 6)
        for p in eratosthenes_primes(10 ** 6 - 1):
            oracle[p] = 1
        assert all(is_prime(n) == oracle[n] for n in range(10 ** 6))

    def test_word_bases_agree_with_thirteen_prime_bases(self):
        # below 2^64 seven bases decide what the 13 prime bases decide,
        # exactly (the 13-base test is exact up to psi_13 > 2^64)
        def thirteen(n):
            if n < 2 or n in (2, 3):
                return n >= 2
            if n % 2 == 0:
                return False
            d, r = n - 1, 0
            while d % 2 == 0:
                d, r = d // 2, r + 1
            return not any(arith._mr_composite(n, a, d, r)
                           for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
                           if a % n)

        rnd = random.Random(41)
        for _ in range(10 ** 5):
            n = rnd.randrange(2 ** rnd.randint(2, 64))
            assert is_prime(n) == thirteen(n), n
        # strong pseudoprimes to bases 2, 3, 5, 7 and to the first 9 primes
        for n in (3215031751, 3825123056546413051):
            assert not is_prime(n) and not thirteen(n)


class TestRandomPrime:
    def test_enumerated_range_lambda_21(self):
        candidates = set(trial_division_primes(42)) - set(trial_division_primes(20))
        assert candidates == {23, 29, 31, 37, 41}
        seen = set()
        for seed in range(60):
            p = random_prime(21, RandomSource(seed))
            assert p in candidates
            seen.add(p)
        assert len(seen) > 1  # actually samples

    def test_lambda_2(self):
        for seed in range(10):
            assert random_prime(2, RandomSource(seed)) in {2, 3}

    def test_deterministic_under_seed(self):
        a = random_prime(100, RandomSource(1234))
        b = random_prime(100, RandomSource(1234))
        assert a == b

    def test_many_seeded_draws_always_prime_in_range(self):
        rng = RandomSource(7)
        import random as _random
        size_rnd = _random.Random(77)
        for _ in range(10_000):
            lam = size_rnd.randrange(2, 10 ** 6)
            p = random_prime(lam, rng)
            assert lam <= p <= 2 * lam
            assert is_prime(p)

    def test_validation(self):
        with pytest.raises(ValueError):
            random_prime(1, RandomSource(0))

    def test_exhausted_budget_raises(self):
        # a source that always draws the first candidate, 9 in [8, 16], which
        # is composite: the 64 * ceil(log2 8) draws run out
        class FirstCandidate:
            draws = 0

            def randrange(self, n):
                self.draws += 1
                return 0

        rng = FirstCandidate()
        with pytest.raises(RetryBudgetError, match=r"\[8, 16\] after 192 draws"):
            random_prime(8, rng)
        assert rng.draws == 192


class TestFirstPrimes:
    def test_smallest(self):
        assert list(first_primes(4)) == [2, 3, 5, 7]
        assert list(first_primes(1)) == [2]

    def test_hundredth_ends_541(self):
        assert first_primes(100)[-1] == 541

    def test_against_trial_division_oracle(self):
        oracle = trial_division_primes(104730)  # beyond the 10^4-th prime
        assert list(first_primes(10_000)) == oracle[:10_000]

    def test_returns_read_only_view(self, oracle_30k):
        # indexing and iteration read the sieve: at random j and on both
        # sides of every block boundary, the oracle's j-th prime
        n = 30_000
        view = first_primes(n)
        assert len(view) == n and list(view) == oracle_30k[:n]
        rnd = random.Random(9)
        edges = [c + k for c in arith._BLOCK_COUNTS for k in (-1, 0) if 0 <= c + k < n]
        assert len(edges) > 100
        for j in edges + [rnd.randrange(n) for _ in range(500)]:
            assert view[j] == oracle_30k[j]
        assert view[-1] == oracle_30k[n - 1] and view[-n] == 2
        for j in (n, -n - 1):
            with pytest.raises(IndexError):
                view[j]
        with pytest.raises(TypeError):
            view[0] = 4
        assert first_primes(1)[0] == 2

    @staticmethod
    def _seed_state(monkeypatch, block):
        # the sieve's initial state, one byte per odd number up to 61 (byte
        # 0 for 2), with the block counts that go with it
        primes = set(trial_division_primes(61))
        sieve = bytearray([1] + [n in primes for n in range(3, 62, 2)])
        counts = array("q", [sum(sieve[:b * block]) for b in range(len(sieve) // block + 1)])
        monkeypatch.setattr(arith, "_SIEVE", sieve)
        monkeypatch.setattr(arith, "_BLOCK", block)
        monkeypatch.setattr(arith, "_BLOCK_COUNTS", counts)

    @staticmethod
    def _assert_counts_match():
        sieve, counts, block = arith._SIEVE, arith._BLOCK_COUNTS, arith._BLOCK
        assert len(counts) == len(sieve) // block + 1
        assert list(counts) == [sieve[:b * block].count(1) for b in range(len(counts))]

    @pytest.mark.parametrize("segment, block", [(None, None), (97, 13), (1, 1)],
                             ids=["None", "97", "1"])
    def test_uneven_growth_from_seed_state(self, monkeypatch, segment, block, oracle_30k):
        # regrow the sieve and its block counts from the initial state in
        # uneven steps, with segments that split each extension at
        # arbitrary points and blocks down to one byte
        self._seed_state(monkeypatch, block or arith._BLOCK)
        if segment is not None:
            monkeypatch.setattr(arith, "_SEGMENT", segment)
        # one-number segments cost a Python loop per odd number: stop early
        counts = (5, 18, 19, 1000, 30_000) if segment != 1 else (5, 18, 19, 1000)
        for count in counts:
            view = first_primes(count)
            assert list(view) == oracle_30k[:count]
            assert [view[j] for j in range(count)] == oracle_30k[:count]
            self._assert_counts_match()

    def test_sieves_only_to_the_largest_count_asked(self, monkeypatch):
        # each request extends the sieve to the Rosser bound of its own
        # count, not to twice the numbers already sieved
        self._seed_state(monkeypatch, arith._BLOCK)
        for count in (5000, 20_000, 60_000, 81_000):
            assert len(first_primes(count)) == count
            self._assert_counts_match()
        rosser = int(81_000 * (math.log(81_000) + math.log(math.log(81_000)))) + 16
        assert rosser == 1_111_919
        # the largest odd number sieved
        assert 2 * len(arith._SIEVE) - 1 <= rosser

    def test_table_memory_is_compact(self):
        pytest.importorskip("resource")
        src = os.path.dirname(os.path.dirname(os.path.abspath(arith.__file__)))
        code = ("import resource\n"
                "from spmul import first_primes\n"
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                "first_primes(1_500_000)\n"
                "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                "print(after - before)\n")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss: bytes vs KiB
        assert int(out) * unit < 40 * 2 ** 20

    def test_validation(self):
        with pytest.raises(ValueError):
            first_primes(0)


class TestLambdaFormulas:
    def test_no_collision_anchors(self):
        assert lambda_no_collision(1, 2, 0.5) == 21  # formula value below floor
        assert lambda_no_collision(10, math.e ** 3, 0.5) == 2000
        assert lambda_no_collision(2, math.e, 1 / 3) == 40

    def test_nonzero_anchors(self):
        assert lambda_nonzero(1, 2, 0.5) == 21
        assert lambda_nonzero(10, math.e ** 3, 0.5) == 200
        assert lambda_nonzero(100, math.e, 1 / 3) == 1000

    def test_formula_matches_direct_evaluation(self):
        for T, D, eps in [(3, 17, 0.2), (7, 10 ** 9, 0.01), (40, 2 ** 31, 0.9)]:
            assert lambda_no_collision(T, D, eps) == max(
                21, math.ceil(10.0 * T * T * math.log(D) / (3.0 * eps)))
            assert lambda_nonzero(T, D, eps) == max(
                21, math.ceil(10.0 * T * math.log(D) / (3.0 * eps)))

    @given(st.integers(1, 200), st.integers(2, 10 ** 12),
           st.sampled_from([0.9, 0.5, 0.1, 0.01, 0.001]))
    def test_monotone(self, T, D, eps):
        for fn in (lambda_no_collision, lambda_nonzero):
            assert fn(T + 1, D, eps) >= fn(T, D, eps)
            assert fn(T, D + 1, eps) >= fn(T, D, eps)
            assert fn(T, D, eps / 2) >= fn(T, D, eps)

    def test_validation(self):
        with pytest.raises(ValueError):
            lambda_no_collision(0, 10, 0.5)
        with pytest.raises(ValueError):
            lambda_no_collision(1, 1, 0.5)
        for eps in (0.0, 1.0, -0.5):
            for fn in (lambda_no_collision, lambda_nonzero):
                with pytest.raises(ValueError, match="eps must lie"):
                    fn(1, 10, eps)
        # bounds past the float range raise ValueError, not OverflowError
        tiny = 5e-324
        for call in (lambda: lambda_no_collision(1, 10, tiny),
                     lambda: lambda_nonzero(1, 10, tiny)):
            with pytest.raises(ValueError):
                call()

    def test_ceil_bound(self):
        assert ceil_bound(2.5) == 3 and ceil_bound(1.5, 4) == 6
        # a float factor times an int too large for a float
        for factors in ((math.inf,), (math.nan,), (1e300, 1e300), (2.0, 10 ** 400)):
            with pytest.raises(ValueError):
                ceil_bound(*factors)


class TestOmegaBound:
    # k(D) = _omega_bound(D): the largest k with p_1*...*p_k < D, the most
    # distinct prime factors an integer in [1, D) can have
    def test_exhaustive_below_2_16(self):
        # omega(m) from a smallest-prime-factor sieve; k(m + 1) is the
        # bound for every integer up to m, and the running maximum of
        # omega reaches it, since the largest primorial <= m lies in range
        n = 1 << 16
        spf = list(range(n))
        for r in range(2, math.isqrt(n - 1) + 1):
            if spf[r] == r:
                for j in range(r * r, n, r):
                    if spf[j] == j:
                        spf[j] = r
        most = 0
        for m in range(1, n):
            omega, v = 0, m
            while v > 1:
                r = spf[v]
                omega += 1
                while v % r == 0:
                    v //= r
            most = max(most, omega)
            assert arith._omega_bound(m + 1) == most, m

    def test_tight_at_each_primorial(self):
        primorial = 1
        for k, p in enumerate(trial_division_primes(300), start=1):
            primorial *= p
            # the primorial itself has k distinct prime factors, and is
            # the least integer that does
            assert arith._omega_bound(primorial + 1) == k
            assert arith._omega_bound(primorial) == k - 1

    def test_spot_values(self):
        # p_1*...*p_9 = 223092870 < 2*10^9 < p_1*...*p_10 = 6469693230;
        # 2^64 lies between the primorials of 47 and 53, 10^300 between
        # those of 719 and 727, the 128th and 129th primes
        assert arith._omega_bound(2 * 10 ** 9) == 9
        assert arith._omega_bound(2 ** 64) == 15
        assert arith._omega_bound(10 ** 300) == 128
        assert [arith._omega_bound(D) for D in (1, 2, 3, 6, 7)] == [0, 0, 1, 1, 2]


class TestFqGcd:
    @staticmethod
    def _times(a, b):
        out = [0] * max(0, len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return out

    @pytest.mark.parametrize("q", [2, 3, 101, Q62], ids=lambda q: f"q{q if q < 1000 else 'Q62'}")
    def test_matches_division_euclid(self, q):
        rnd = random.Random(q % 1009)

        def rand_poly(n):
            return [rnd.randrange(q) for _ in range(n)]

        for _ in range(150):
            a, b = rand_poly(rnd.randint(0, 9)), rand_poly(rnd.randint(0, 9))
            common = rand_poly(rnd.randint(1, 4))
            # a shared factor makes the gcd nontrivial; unreduced and
            # negative coefficients and zero top coefficients stay as input
            for x, y in ((a, b), (self._times(a, common), self._times(b, common)),
                         ([v - q for v in a] + [0, q], b)):
                assert arith._fq_gcd(x, y, q) == fq_gcd_oracle(x, y, q)
                assert arith._fq_gcd(y, x, q) == fq_gcd_oracle(x, y, q)
        c = rnd.randrange(1, q)
        f = rand_poly(5) + [rnd.randrange(1, q)]
        for x, y in (([], []), ([0, 0], [q]), ([c], []), ([], [c]), ([c], f),
                     (f, []), (f, f), (f, [v * c for v in f])):
            assert arith._fq_gcd(x, y, q) == fq_gcd_oracle(x, y, q)
        assert arith._fq_gcd(f, f, q) == arith._fq_gcd(f, [], q)
        assert arith._fq_gcd(f, f, q)[-1] == 1 and arith._fq_gcd([c], f, q) == [1]


class TestIrreduciblePoly:
    def test_unique_quadratic_over_f2(self):
        # enumeration: X^2+X+1 is the only monic irreducible quadratic over F_2
        quadratics = [(c0, c1, 1) for c0 in range(2) for c1 in range(2)]
        irreducible = [f for f in quadratics if is_irreducible(list(f), 2)]
        assert irreducible == [(1, 1, 1)]
        # a nonzero constant, and one that vanishes mod q, have no degree
        assert not is_irreducible([5], 7) and not is_irreducible([7], 7)
        assert irreducible_poly(2, 2) == (1, 1, 1)

    def test_linear_always_irreducible(self):
        for q in (2, 3, 5, 101, Q62):
            m = irreducible_poly(q, 1)
            assert len(m) == 2 and m[-1] == 1

    def test_degree_3_over_f5_no_roots(self):
        # a cubic is reducible iff it has a root; brute-force root search
        m = irreducible_poly(5, 3)
        assert m[-1] == 1 and len(m) == 4
        for x in range(5):
            assert sum(c * x ** i for i, c in enumerate(m)) % 5 != 0

    def test_no_roots_when_s_at_least_2(self):
        for q, s in [(3, 2), (7, 4), (11, 3), (2, 8), (5, 3)]:
            m = irreducible_poly(q, s)
            for x in range(q):
                assert sum(c * pow(x, i, q) for i, c in enumerate(m)) % q != 0

    def test_canonical_is_deterministic_and_irreducible(self):
        assert canonical_irreducible(2, 2) == (1, 1, 1)
        assert canonical_irreducible(3, 1) == (0, 1)  # X itself
        m = canonical_irreducible(3, 2)
        assert m == canonical_irreducible(3, 2)
        assert is_irreducible(list(m), 3)

    def test_canonical_matches_exhaustive_walk(self):
        # skipping the binomials when none is irreducible changes no modulus
        pairs = [(q, s) for q in trial_division_primes(59)
                 for s in range(1, 20) if q ** s <= 3 * 10 ** 5]
        assert len(pairs) > 60
        for q, s in pairs:
            assert canonical_irreducible(q, s) == canonical_walk_oracle(q, s, is_irreducible)

    def test_canonical_large_q_without_irreducible_binomial(self):
        # Q62 = 2 (mod 3), 3 (mod 4), 4 (mod 5): no Y^s + c is irreducible
        # for s = 3 .. 7, so the walk starts at Y^s + Y
        assert canonical_irreducible(Q62, 3) == (5, 1, 0, 1)
        for s in range(4, 8):
            m = canonical_irreducible(Q62, s)
            assert m[1:] == (1,) + (0,) * (s - 2) + (1,) and is_irreducible(list(m), Q62)

    def test_validation(self):
        # 8 is a primitive root mod 3, so a composite q must be rejected
        # before the cyclotomic test
        for q, s in [(4, 2), (8, 2), (5, 0)]:
            with pytest.raises(ValueError):
                irreducible_poly(q, s)

    def test_fallback_pairs_take_the_canonical_modulus(self):
        # every (q, S) with q^S <= 2^200 whose check field the verifier
        # cannot make cyclotomic below the cap
        pairs = [(q, s) for q in (2, 3, 5, 7, 11, 13, 31, 101, 257, 65537)
                 for s in range(2, 201) if q ** s <= 2 ** 200
                 and cyclotomic_degree(q, s) == s and not is_primitive_root(q, s + 1)]
        assert len(pairs) == 32
        for q, s in pairs:
            m = irreducible_poly(q, s)
            assert m == canonical_irreducible(q, s) and is_irreducible(list(m), q), (q, s)


def _generates_by_order(q, ell):
    # ell prime, q not divisible by ell, and the powers of q mod ell run
    # through all ell - 1 units before returning to 1
    if ell < 2 or any(ell % d == 0 for d in range(2, ell)) or q % ell == 0:
        return False
    x, order = q % ell, 1
    while x != 1:
        x, order = x * q % ell, order + 1
    return order == ell - 1


class TestCyclotomicModulus:
    """Phi_l = 1 + Y + ... + Y^(l-1) is irreducible over F_q exactly when
    q is a primitive root modulo the prime l, and then irreducible_poly
    returns it without walking to the canonical modulus."""

    @staticmethod
    def _no_walk(monkeypatch):
        def canonical_irreducible(q, s):
            raise AssertionError("the canonical walk ran")

        monkeypatch.setattr(arith, "canonical_irreducible", canonical_irreducible)

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 101, Q62])
    def test_predicate_matches_multiplicative_order(self, q):
        hits = 0
        for ell in range(500):
            assert is_primitive_root(q, ell) == _generates_by_order(q, ell), ell
            hits += is_primitive_root(q, ell)
        assert hits > 20

    def test_phi_irreducible_exactly_when_predicate_holds(self):
        # every l from 3 to 31, composite ones included: 1 + ... + Y^(l-1)
        # is (Y^l - 1)/(Y - 1), reducible for a composite l
        for q in trial_division_primes(13):
            for ell in range(3, 32):
                assert is_irreducible([1] * ell, q) == is_primitive_root(q, ell), (q, ell)

    @pytest.mark.parametrize("q, s", [(2, 2), (3, 4), (3, 42), (5, 16), (Q62, 2)])
    def test_cyclotomic_modulus_takes_no_draw(self, monkeypatch, q, s):
        assert is_primitive_root(q, s + 1)
        self._no_walk(monkeypatch)
        assert irreducible_poly(q, s) == (1,) * (s + 1)

    @pytest.mark.parametrize("q", [2, 3, 5, 31, 101, Q62])
    def test_cyclotomic_degree_is_least_below_the_cap(self, q):
        for s in range(1, 70):
            fits = [t for t in range(s, 2 * s) if _generates_by_order(q, t + 1)]
            assert cyclotomic_degree(q, s) == (fits[0] if fits else s)
        # the workloads' degrees: F_9 checks at S = 33 and S = 26
        assert cyclotomic_degree(3, 33) == 42 and cyclotomic_degree(3, 26) == 28

    def test_cap_leaves_q31_s2_to_the_search(self):
        # 31 = 1 (mod 3) and 1 (mod 5), so no l in [3, 5) fits; l = 7
        # would, at degree 6 = 3s, past the cap; Y^2 + 1 is irreducible as
        # 31 = 3 (mod 4)
        assert not is_primitive_root(31, 3) and is_primitive_root(31, 7)
        assert cyclotomic_degree(31, 2) == 2
        m = irreducible_poly(31, 2)
        assert m == canonical_irreducible(31, 2) == (1, 0, 1)
        assert is_irreducible(list(m), 31)

    def test_search_runs_when_the_predicate_is_patched_off(self, monkeypatch):
        monkeypatch.setattr(arith, "is_primitive_root", lambda q, ell: False)
        assert cyclotomic_degree(3, 33) == 33
        m = irreducible_poly(3, 16)
        assert m == canonical_irreducible(3, 16) and m != (1,) * 17
        assert is_irreducible(list(m), 3)
