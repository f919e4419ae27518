import math
import random

import pytest

from spmul import (RandomSource, UnsupportedRingError, add,
                   canonicalize, cyclic_reduce, derivative, eval_cyclic_product,
                   ext_field, eval_sparse, integers, lambda_nonzero, mul_count,
                   naive_mul, negate, prime_field, random_prime, reset_mul_count,
                   scale, verify_sp, verify_sum_sp, zero_poly)
from spmul import SparsePoly, arith, verify

from helpers import Q62, monomial, rand_sparse

ZZ = integers()
F101 = prime_field(101)

F_EX = canonicalize([(7, 2), (0, 2), (14, 1)], ZZ)
G_EX = canonicalize([(13, 3), (8, 5), (0, 3)], ZZ)
H_EX = canonicalize([(14, 1), (7, -2), (0, 2)], ZZ)


def _cyclic_eval_oracle(f, g, p, alpha):
    # independent route: schoolbook product mod X^p - 1, then direct evaluation
    prod = cyclic_reduce(naive_mul(cyclic_reduce(f, p), cyclic_reduce(g, p)), p)
    ring = f.ring
    acc = ring.zero()
    for e, c in prod.terms:
        acc = ring.add(acc, ring.mul(c, ring.pow(alpha, e)))
    return acc


class TestEvalCyclicProduct:
    def test_worked_example(self):
        f = canonicalize([(3, 1), (0, 1)], F101)
        g = canonicalize([(4, 1), (1, 1)], F101)
        assert _cyclic_eval_oracle(f, g, 5, 2) == 38
        assert eval_cyclic_product(f, g, 5, 2) == 38

    def test_alpha_one_gives_coefficient_sum_product(self):
        rnd = random.Random(1)
        for _ in range(25):
            f = rand_sparse(rnd, F101, 8, 40)
            g = rand_sparse(rnd, F101, 8, 40)
            expected = F101.mul(eval_sparse(f, 1), eval_sparse(g, 1))
            assert eval_cyclic_product(f, g, 41, 1) == expected

    def test_identity_factor(self):
        rnd = random.Random(2)
        f = rand_sparse(rnd, F101, 8, 17)
        one = monomial(F101, 0, 1)
        for alpha in (0, 1, 2, 57):
            assert eval_cyclic_product(f, one, 17, alpha) == eval_sparse(f, alpha)

    def test_random_vs_oracle(self):
        rnd = random.Random(3)
        for _ in range(80):
            p = rnd.choice([2, 3, 5, 11, 23, 41])
            f = rand_sparse(rnd, F101, 10, p)
            g = rand_sparse(rnd, F101, 10, p)
            alpha = rnd.randrange(101)
            assert eval_cyclic_product(f, g, p, alpha) == _cyclic_eval_oracle(f, g, p, alpha)

    def test_random_vs_oracle_extension_field(self):
        f9 = ext_field(3, 2)
        rnd = random.Random(4)
        for _ in range(25):
            p = rnd.choice([5, 7, 13])
            f = rand_sparse(rnd, f9, 6, p)
            g = rand_sparse(rnd, f9, 6, p)
            alpha = f9.rand_elem(RandomSource(rnd.randrange(10 ** 6)))
            assert eval_cyclic_product(f, g, p, alpha) == _cyclic_eval_oracle(f, g, p, alpha)

    def test_zero_factor(self):
        f = rand_sparse(random.Random(5), F101, 5, 11)
        assert eval_cyclic_product(f, zero_poly(F101), 11, 7) == 0
        assert eval_cyclic_product(zero_poly(F101), f, 11, 7) == 0

    def test_degree_check(self):
        f = canonicalize([(11, 1)], F101)
        with pytest.raises(ValueError):
            eval_cyclic_product(f, f, 11, 2)

    def test_integers_rejected(self):
        with pytest.raises(UnsupportedRingError):
            eval_cyclic_product(F_EX, G_EX, 7, 2)

    def test_operation_count_contract_small_grid(self):
        import math
        rnd = random.Random(6)
        fq = prime_field(Q62)
        for _ in range(100):
            p = rnd.choice([101, 1009, 10007, 99991])
            f = rand_sparse(rnd, fq, rnd.randint(1, 64), p)
            g = rand_sparse(rnd, fq, rnd.randint(1, 64), p)
            alpha = rnd.randrange(Q62)
            reset_mul_count()
            eval_cyclic_product(f, g, p, alpha)
            bound = 10 * (f.sparsity + g.sparsity + 2) * (math.log2(p) + 1)
            assert mul_count() <= bound


class TestBudgetSplit:
    def test_budgets_hold_across_eps(self):
        # the failure sources of one check (see verify._split) stay within
        # eps: p misses a nonzero difference with probability at most the
        # p-share (lambda_nonzero), q divides it with at most 10/(3*c2), and
        # the point is a root with at most 1/c2
        slack = 1e-9
        for eps in (2.0 ** -60, 1e-7, 1e-4, 0.01, 0.1, 0.5, 0.9, 0.999):
            share, c2 = verify._split(eps, False)
            assert 0 < share < 1 and c2 > 1
            assert share + (1 - share) / c2 <= eps + slack
            share, c2 = verify._split(eps, True)
            assert 0 < share < 1 and c2 >= 10 / 3
            assert 1 - (1 - share) * (1 - 10 / (3 * c2)) * (1 - 1 / c2) <= eps + slack


class TestVerifySP:
    def test_example_triples_true_every_seed(self):
        fg = naive_mul(F_EX, G_EX)
        fh = naive_mul(F_EX, H_EX)
        for seed in range(40):
            assert verify_sp(F_EX, G_EX, fg, 0.01, RandomSource(seed))
            assert verify_sp(F_EX, H_EX, fh, 0.01, RandomSource(seed))

    def test_corrupted_product_rejected_statistically(self):
        fg = naive_mul(F_EX, G_EX)
        bad = add(fg, monomial(ZZ, 3, 1))
        rejected = sum(
            not verify_sp(F_EX, G_EX, bad, 0.01, RandomSource(seed))
            for seed in range(300))
        assert rejected >= 291  # 0.97 of 300

    def test_quick_reject_sparsity_deterministic(self):
        f = canonicalize([(0, 1), (1, 1)], ZZ)
        g = canonicalize([(0, 1), (2, 1)], ZZ)
        too_many = canonicalize([(i, 1) for i in range(5)], ZZ)  # 5 > 2*2
        for seed in range(20):
            assert not verify_sp(f, g, too_many, 0.5, RandomSource(seed))

    def test_quick_reject_degree(self):
        h = add(naive_mul(F_EX, G_EX), monomial(ZZ, 99, 1))
        for seed in range(20):
            assert not verify_sp(F_EX, G_EX, h, 0.5, RandomSource(seed))

    def test_zero_cases(self):
        z = zero_poly(ZZ)
        rng = RandomSource(0)
        assert verify_sp(z, G_EX, z, 0.1, rng)
        assert verify_sp(F_EX, z, z, 0.1, rng)
        assert not verify_sp(z, G_EX, F_EX, 0.1, rng)
        assert not verify_sp(F_EX, G_EX, z, 0.1, rng)

    def test_large_prime_field_true_and_false(self):
        fq = prime_field(Q62)
        rnd = random.Random(7)
        for seed in range(40):
            f = rand_sparse(rnd, fq, 10, 10 ** 8)
            g = rand_sparse(rnd, fq, 10, 10 ** 8)
            h = naive_mul(f, g)
            assert verify_sp(f, g, h, 0.01, RandomSource(seed))
        rejected = 0
        for seed in range(150):
            f = rand_sparse(rnd, fq, 6, 10 ** 6)
            g = rand_sparse(rnd, fq, 6, 10 ** 6)
            bad = add(naive_mul(f, g), monomial(fq, 1, 1))
            rejected += not verify_sp(f, g, bad, 0.01, RandomSource(seed))
        assert rejected >= 145

    def test_extension_path_small_field(self):
        # q = 101 can never host the sample set, so an extension with
        # s >= 2 is always built internally
        rnd = random.Random(8)
        for seed in range(30):
            f = rand_sparse(rnd, F101, 6, 10 ** 4)
            g = rand_sparse(rnd, F101, 6, 10 ** 4)
            h = naive_mul(f, g)
            assert verify_sp(f, g, h, 0.01, RandomSource(seed))

    def test_extension_path_characteristic_2(self):
        f2 = prime_field(2)
        rnd = random.Random(9)
        for seed in range(10):
            f = rand_sparse(rnd, f2, 4, 500)
            g = rand_sparse(rnd, f2, 4, 500)
            h = naive_mul(f, g)
            assert verify_sp(f, g, h, 0.05, RandomSource(seed))
        f = canonicalize([(0, 1), (3, 1)], f2)
        g = canonicalize([(1, 1), (2, 1)], f2)
        bad = add(naive_mul(f, g), monomial(f2, 2, 1))
        rejected = sum(not verify_sp(f, g, bad, 0.05, RandomSource(s)) for s in range(60))
        assert rejected >= 54

    def test_ext_field_input_ring(self):
        f_big = ext_field(Q62, 2)  # plenty of points: generic path
        rnd = random.Random(10)
        f = rand_sparse(rnd, f_big, 4, 1000)
        g = rand_sparse(rnd, f_big, 4, 1000)
        h = naive_mul(f, g)
        assert verify_sp(f, g, h, 0.1, RandomSource(1))
        bad = add(h, monomial(f_big, 0, (1, 0)))
        assert not verify_sp(f, g, bad, 0.1, RandomSource(2))

    def test_small_ext_field_splits_into_components(self):
        # F_9 can never host the sample set; the identity is checked
        # through its F_3 coordinates in an extension of F_3 instead
        f9 = ext_field(3, 2)
        rnd = random.Random(11)
        for seed in range(60):
            f = rand_sparse(rnd, f9, 4, 1000)
            g = rand_sparse(rnd, f9, 4, 1000)
            h = naive_mul(f, g)
            assert verify_sp(f, g, h, 0.01, RandomSource(seed))
        # an error below the top term passes the structural checks, and
        # (1, 2) has coordinate sum 0 in F_3: unweighted coordinates miss it
        rejected = done = 0
        while done < 150:
            f = rand_sparse(rnd, f9, 4, 1000)
            g = rand_sparse(rnd, f9, 4, 1000)
            h = naive_mul(f, g)
            if h.sparsity < 2:
                continue
            rejected += not verify_sp(f, g, _perturbed(h, (1, 2)), 0.01, RandomSource(done))
            done += 1
        assert rejected >= 145

    def test_small_ext_field_deeper_extension(self):
        f8 = ext_field(2, 3)
        rnd = random.Random(110)
        for seed in range(25):
            f = rand_sparse(rnd, f8, 3, 400)
            g = rand_sparse(rnd, f8, 3, 400)
            h = naive_mul(f, g)
            assert verify_sp(f, g, h, 0.05, RandomSource(seed))
        f = canonicalize([(0, (1, 0, 0)), (5, (0, 1, 1))], f8)
        g = canonicalize([(2, (1, 1, 0)), (9, (0, 0, 1))], f8)
        # below the top term, with coordinate sum 0 in F_2
        bad = _perturbed(naive_mul(f, g), (0, 1, 1))
        rejected = sum(not verify_sp(f, g, bad, 0.05, RandomSource(s))
                       for s in range(60))
        assert rejected >= 54

    def test_small_ext_field_sum_identity(self):
        f9 = ext_field(3, 2)
        rnd = random.Random(111)
        for seed in range(25):
            f = rand_sparse(rnd, f9, 4, 500)
            g = rand_sparse(rnd, f9, 4, 500)
            h = derivative(naive_mul(f, g))
            pairs = [(f, derivative(g)), (derivative(f), g)]
            assert verify_sum_sp(h, pairs, 0.05, RandomSource(seed))

    def test_scaling_invariance_over_field(self):
        rnd = random.Random(12)
        fq = prime_field(Q62)
        for seed in range(25):
            f = rand_sparse(rnd, fq, 6, 10 ** 5)
            g = rand_sparse(rnd, fq, 6, 10 ** 5)
            h = naive_mul(f, g)
            c = rnd.randrange(1, Q62)
            assert verify_sp(scale(f, c), g, scale(h, c), 0.01, RandomSource(seed))
        # scaled false statements still get rejected
        rejected = 0
        for seed in range(100):
            f = rand_sparse(rnd, fq, 5, 10 ** 4)
            g = rand_sparse(rnd, fq, 5, 10 ** 4)
            bad = add(naive_mul(f, g), monomial(fq, 2, 7))
            c = rnd.randrange(1, Q62)
            rejected += not verify_sp(scale(f, c), g, scale(bad, c), 0.01, RandomSource(seed))
        assert rejected >= 95

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            verify_sp(F_EX, G_EX, F_EX, 0.0, RandomSource(0))
        with pytest.raises(ValueError):
            verify_sp(F_EX, G_EX, F_EX, 1.0, RandomSource(0))


def _watch_evaluations(monkeypatch) -> list:
    """List that receives (ring, p) for every eval_cyclic_product call the
    verifier makes: the field it evaluates in and the cyclic prime."""
    seen = []
    real = verify.eval_cyclic_product

    def eval_cyclic_product(F_p, G_p, p, alpha):
        seen.append((F_p.ring, p))
        return real(F_p, G_p, p, alpha)

    monkeypatch.setattr(verify, "eval_cyclic_product", eval_cyclic_product)
    return seen


class TestEvaluationRoutes:
    def test_small_prime_field_evaluated_in_itself(self, monkeypatch):
        # X^d * X^d = X^2d at eps = 0.9 keeps lam above D + 1 = 2d + 1, so
        # p = D + 1; F_89 itself has enough points exactly for the degrees
        # with 89 > c2*(D + 1) (c2 = 2/0.9, so D <= 39), and an extension
        # F_{89^s} hosts the rest
        c2 = verify._split(0.9, False)[1]
        seen = _watch_evaluations(monkeypatch)
        f89 = prime_field(89)
        degrees = (1, 19, 20, 30)
        assert {89 > c2 * (2 * d + 1) for d in degrees} == {True, False}

        def check_routes(d):
            assert 2 * d + 1 <= lambda_nonzero(2, max(2 * d, 2), 0.45)
            assert seen
            for ring, p in seen:
                assert p == 2 * d + 1
                assert (ring == f89) == (89 > c2 * p)
                assert ring.q == 89 and ring.size > c2 * p
            seen.clear()

        for d in degrees:
            x, x2 = monomial(f89, d, 1), monomial(f89, 2 * d, 1)
            for seed in range(20):
                assert verify_sp(x, x, x2, 0.9, RandomSource(seed))
                # #H > #F*#G: rejected before any evaluation
                assert not verify_sp(x, x, add(x2, monomial(f89, 0, 1)), 0.9, RandomSource(seed))
            check_routes(d)
            # a wrong triple that passes the structural checks reaches the
            # evaluation, in F_89 too: lhs - rhs = -X^2d vanishes only at alpha = 0
            for seed in range(20):
                assert not verify_sp(x, x, scale(x2, 2), 0.9, RandomSource(seed))
            check_routes(d)

    def test_route_per_input_ring(self, monkeypatch):
        seen = _watch_evaluations(monkeypatch)
        rnd = random.Random(15)

        def routes(ring, eps, seeds=8):
            # (evaluation ring, p, top of the generic window [lam, 2*lam])
            out = []
            for seed in range(seeds):
                f = rand_sparse(rnd, ring, 5, 10 ** 4, 2 ** 20)
                g = rand_sparse(rnd, ring, 5, 10 ** 4, 2 ** 20)
                h = naive_mul(f, g)
                seen.clear()
                assert verify_sp(f, g, h, eps, RandomSource(seed))
                lam = lambda_nonzero(f.sparsity * g.sparsity + h.sparsity,
                                     max(h.degree, 2), verify._split(eps, False)[0])
                out += [(r, p, 2 * lam) for r, p in seen]
            return out

        # Z: a random coefficient prime q, larger than p
        for ring, p, _ in routes(ZZ, 0.01):
            assert ring.kind == "prime_field" and ring.q > p
        # a 62-bit field hosts the points itself, with p drawn from the
        # generic budget split rather than the extension one
        fq = prime_field(Q62)
        for ring, p, top in routes(fq, 0.01):
            assert ring == fq and p <= top
        # F_101 is too small: a genuine extension F_{101^s}
        for ring, p, _ in routes(F101, 0.01):
            assert ring.kind == "ext_field" and ring.q == 101 and ring.s >= 2
        # a large extension field hosts the points itself
        big = ext_field(Q62, 2)
        assert {ring for ring, _, _ in routes(big, 0.01)} == {big}
        # F_9 is too small: each check evaluates in one extension of F_3,
        # with one p
        f9 = ext_field(3, 2)
        for _ in range(4):
            evaluated = routes(f9, 0.01, seeds=1)
            assert len({(ring, p) for ring, p, _ in evaluated}) == 1
            ring = evaluated[0][0]
            assert ring.kind == "ext_field" and ring.q == 3 and ring.s > 2

    def test_integer_split(self, monkeypatch):
        # over Z all three failure sources share eps: lam = lambda_nonzero at
        # the p-share eps/3, and the coefficient prime q >= c2*p for c2 =
        # 10/eps.  Exponents below 10^3 keep lam > D + 1, so p = D + 1;
        # exponents near 10^15 put lam <= D, so p comes from [lam, 2*lam]
        seen = _watch_evaluations(monkeypatch)
        rnd = random.Random(16)
        eps = 0.01
        for emax in (10 ** 3, 10 ** 15):
            for seed in range(30):
                f = rand_sparse(rnd, ZZ, 6, emax, 2 ** 20)
                g = rand_sparse(rnd, ZZ, 6, emax, 2 ** 20)
                h = naive_mul(f, g)
                if seed % 2:
                    h = _perturbed(h, 1)
                seen.clear()
                assert verify_sp(f, g, h, eps, RandomSource(seed)) == (seed % 2 == 0)
                D = f.degree + g.degree
                lam = lambda_nonzero(f.sparsity * g.sparsity + h.sparsity, max(D, 2), eps / 3)
                assert len(seen) == 1
                ring, p = seen[0]
                if emax == 10 ** 3:
                    assert D + 1 <= lam and p == D + 1
                else:
                    assert lam <= D and lam <= p <= 2 * lam
                assert ring.kind == "prime_field" and ring.q >= (10 / eps) * p


class TestHFromItsOwnTerms:
    """Over Z and F_q the verifier evaluates H from its own terms: H itself
    at p = D + 1, cyclic_reduce(H, p) on the cyclic route, and no residue
    copy of it in the evaluation field."""

    @staticmethod
    def _watch(monkeypatch) -> tuple:
        evaluated, copied = [], []
        real_eval, real_residue = verify.eval_sparse, verify._residue_in

        def eval_sparse(P, alpha, field=None):
            evaluated.append((P, field))
            return real_eval(P, alpha, field)

        def _residue_in(P, p, field):
            copied.append(P)
            return real_residue(P, p, field)

        monkeypatch.setattr(verify, "eval_sparse", eval_sparse)
        monkeypatch.setattr(verify, "_residue_in", _residue_in)
        return evaluated, copied

    @pytest.mark.parametrize("ring", [ZZ, prime_field(Q62), F101], ids=["Z", "F_Q62", "F_101"])
    @pytest.mark.parametrize("emax", [10 ** 3, 10 ** 15], ids=["p=D+1", "cyclic"])
    def test_h_is_evaluated_as_it_is(self, monkeypatch, ring, emax):
        evaluated, copied = self._watch(monkeypatch)
        seen = _watch_evaluations(monkeypatch)
        rnd = random.Random(emax % 97)
        for seed in range(6):
            f = rand_sparse(rnd, ring, 6, emax, 2 ** 40)
            g = rand_sparse(rnd, ring, 6, emax, 2 ** 40)
            h = naive_mul(f, g)
            if seed % 2:
                h = _perturbed(h, 1)
            evaluated.clear(), copied.clear(), seen.clear()
            assert verify_sp(f, g, h, 0.01, RandomSource(seed)) == (seed % 2 == 0)
            (field, p), = seen
            (P, at), = evaluated
            assert at == field
            if emax == 10 ** 3:
                assert p == h.degree + 1 and P is h
            else:
                assert p <= h.degree and P == cyclic_reduce(h, p) and P.ring == ring
            assert all(Q is not h for Q in copied) and len(copied) == 2


def _perturbed(H, err):
    """H with err added to its lowest coefficient: below the top term, so
    the support and degree checks cannot tell the triple is false."""
    return add(H, monomial(H.ring, H.terms[0][0], err))


def _field_routes(seen, ring, eps) -> list:
    """The field route of each watched evaluation, once its field is
    checked to have more than c2*p elements: "ring" (the ring itself, or a
    coefficient prime field over Z), "cyclotomic" (F_q[Y]/(Phi_(s+1)),
    s = cyclotomic_degree(q, S)) or "canonical" (canonical_irreducible(q,
    S), where no cyclotomic degree lies in [S, 2S)); S is least with
    q^S > c2*p and above the ring's own degree."""
    c2 = verify._split(eps, ring.kind == "integers")[1]
    routes = []
    for field, p in seen:
        assert field.size > c2 * p
        if field.kind != "ext_field" or field == ring:
            routes.append("ring")
            continue
        S = ring.s + 1
        while field.q ** S <= c2 * p:
            S += 1
        assert field.s == arith.cyclotomic_degree(field.q, S)
        cyclotomic = field.modulus == (1,) * (field.s + 1)
        assert cyclotomic == arith.is_primitive_root(field.q, field.s + 1)
        if not cyclotomic:
            assert field.modulus == arith.canonical_irreducible(field.q, S)
        routes.append("cyclotomic" if cyclotomic else "canonical")
    return routes


def _shifted(P, k):
    return SparsePoly(P.ring, tuple((e + k, c) for e, c in P.terms))


F8, F9, F25 = ext_field(2, 3), ext_field(3, 2), ext_field(5, 2)


class TestDegreeRoute:
    """Below lam a check takes p = D + 1 and draws no cyclic prime: a
    difference of degree <= D is its own residue mod X^(D+1) - 1."""

    RINGS = [ZZ, prime_field(Q62), F9, F8, F25, F101]
    IDS = ["Z", "Q62", "F9", "F8", "F25", "F101"]

    def _pairs(self, ring, rnd):
        # (F, G): constants (D = 0), X times a constant (D = 1), exponents
        # below 10^3 (lam > D + 1) and near 10^15 (lam <= D)
        c = ring.one()
        yield monomial(ring, 0, c), monomial(ring, 0, c)
        yield monomial(ring, 1, c), monomial(ring, 0, c)
        for emax in (10 ** 3, 10 ** 15):
            for _ in range(6):
                yield (rand_sparse(rnd, ring, 6, emax, 2 ** 20),
                       rand_sparse(rnd, ring, 6, emax, 2 ** 20))

    @pytest.mark.parametrize("ring", RINGS, ids=IDS)
    def test_p_is_d_plus_one_exactly_below_lam(self, monkeypatch, ring):
        seen = _watch_evaluations(monkeypatch)
        draws = []
        real = verify.random_prime

        def random_prime(lam, rng):
            draws.append(lam)
            return real(lam, rng)

        monkeypatch.setattr(verify, "random_prime", random_prime)
        over_z = ring.kind == "integers"
        eps = 0.01
        rnd = random.Random(17)
        routes = set()
        for seed, (f, g) in enumerate(self._pairs(ring, rnd)):
            h = naive_mul(f, g)
            D = f.degree + g.degree
            lam = lambda_nonzero(f.sparsity * g.sparsity + h.sparsity, max(D, 2),
                                 verify._split(eps, over_z)[0])
            seen.clear()
            draws.clear()
            assert verify_sp(f, g, h, eps, RandomSource(seed))
            assert len({p for _, p in seen}) == 1
            p = seen[0][1]
            cyclic = D + 1 > lam
            routes.add((D < 2, cyclic))
            if cyclic:
                assert lam <= p <= 2 * lam and draws[0] == lam
            else:
                assert p == D + 1
            assert len(draws) == cyclic + over_z
            _field_routes(seen, ring, eps)
        assert routes == {(True, False), (False, False), (False, True)}

    # exponents below 10^3, and in [5200, 6200), where every check over
    # F_8, F_9, F_25 and F_101 builds a cyclotomic extension whose products
    # take the cyclic fold (degrees 28, 16, 16 and 6)
    SOUNDNESS = ([pytest.param(ring, 0, id=i) for ring, i in zip(RINGS[:3], IDS)]
                 + [pytest.param(ring, 5200, id=f"{i}-cyclotomic")
                    for ring, i in ((F8, "F8"), (F9, "F9"), (F25, "F25"), (F101, "F101"))])

    @pytest.mark.parametrize("ring, emin", SOUNDNESS)
    def test_soundness_and_completeness(self, monkeypatch, ring, emin):
        # at eps = 0.01: at least 97% of one-coefficient perturbations are
        # rejected, and every true triple is accepted, all at p = D + 1.
        # The perturbed coefficient lies below the top term, so the
        # structural checks cannot tell the triple is false
        seen = _watch_evaluations(monkeypatch)
        err = (1,) + (0,) * (ring.s - 1) if ring.kind == "ext_field" else 1
        rnd = random.Random(18)
        rejected = seed = 0
        while seed < 200:
            f = _shifted(rand_sparse(rnd, ring, 6, 1000, 2 ** 20), emin)
            g = _shifted(rand_sparse(rnd, ring, 6, 1000, 2 ** 20), emin)
            h = naive_mul(f, g)
            if h.sparsity < 2:
                continue
            seed += 1
            seen.clear()
            assert verify_sp(f, g, h, 0.01, RandomSource(seed))
            rejected += not verify_sp(f, g, _perturbed(h, err), 0.01, RandomSource(seed))
            assert {p for _, p in seen} == {f.degree + g.degree + 1}
            routes = _field_routes(seen, ring, 0.01)
            if emin:
                assert set(routes) == {"cyclotomic"}
                assert all(field._cyclic for field, _ in seen)
        assert rejected >= 0.97 * 200


class TestSmallExtensionField:
    """A small F_{q^s} is checked in one extension of F_q through randomly
    weighted coordinates."""

    def _rejection_rate(self, ring, err, trials, seed):
        rnd = random.Random(seed)
        rejected = done = 0
        while done < trials:
            f = rand_sparse(rnd, ring, 4, 1000)
            g = rand_sparse(rnd, ring, 4, 1000)
            h = naive_mul(f, g)
            if h.sparsity < 2:
                continue
            rejected += not verify_sp(f, g, _perturbed(h, err), 0.01, RandomSource(done))
            done += 1
        return rejected / trials

    @pytest.mark.parametrize("err", [(0, 1), (1, 0), (1, 2)])
    def test_f9_error_in_one_coordinate_rejected(self, err):
        assert self._rejection_rate(ext_field(3, 2), err, 200, 120) >= 0.97

    def test_f8_error_in_top_coordinate_rejected(self):
        assert self._rejection_rate(ext_field(2, 3), (0, 0, 1), 200, 121) >= 0.97

    def test_true_triples_always_accepted(self):
        rnd = random.Random(122)
        fields = [ext_field(2, 2), ext_field(2, 3), ext_field(3, 2), ext_field(5, 2),
                  ext_field(101, 2)]
        for i in range(300):
            ring = fields[i % len(fields)]
            f = rand_sparse(rnd, ring, 5, 2000)
            g = rand_sparse(rnd, ring, 5, 2000)
            assert verify_sp(f, g, naive_mul(f, g), 0.01, RandomSource(i))

    def test_true_f9_triples_at_large_eps_never_raise(self):
        # a large eps only shrinks the check field: a true identity verifies
        # at any eps
        f9 = ext_field(3, 2)
        rnd = random.Random(124)

        def four_terms():
            return canonicalize([(e, (rnd.randrange(3), rnd.randrange(1, 3)))
                                 for e in rnd.sample(range(40), 4)], f9)

        for seed in range(300):
            f, g = four_terms(), four_terms()
            assert verify_sp(f, g, naive_mul(f, g), 0.3, RandomSource(seed))

    def _fallback_gates(self, monkeypatch, ring, pairs):
        # every true triple accepted and at least 97% of perturbed ones
        # rejected at eps = 0.01, every check on the canonical modulus
        seen = _watch_evaluations(monkeypatch)
        err = (1,) + (0,) * (ring.s - 1) if ring.kind == "ext_field" else 1
        rejected = 0
        for seed, (f, g) in enumerate(pairs):
            h = naive_mul(f, g)
            assert verify_sp(f, g, h, 0.01, RandomSource(seed))
            rejected += not verify_sp(f, g, _perturbed(h, err), 0.01, RandomSource(seed))
        assert rejected >= 0.97 * len(pairs)
        assert set(_field_routes(seen, ring, 0.01)) == {"canonical"}

    def test_fallback_search_for_q31_at_degree_2(self, monkeypatch):
        # D = 2 puts c2*p = 600 between 31 and 31^2, so S = 2; 31 = 1 (mod 3)
        # rules out Phi_3, and the cap rules out Phi_7
        f31 = prime_field(31)
        rnd = random.Random(126)

        def linear():
            return canonicalize([(0, rnd.randrange(1, 31)), (1, rnd.randrange(1, 31))], f31)

        self._fallback_gates(monkeypatch, f31, [(linear(), linear()) for _ in range(200)])

    def test_fallback_search_with_the_predicate_patched_off(self, monkeypatch):
        monkeypatch.setattr(arith, "is_primitive_root", lambda q, ell: False)
        rnd = random.Random(127)
        pairs = []
        while len(pairs) < 200:
            f, g = rand_sparse(rnd, F9, 6, 1000), rand_sparse(rnd, F9, 6, 1000)
            if naive_mul(f, g).sparsity >= 2:
                pairs.append((f, g))
        self._fallback_gates(monkeypatch, F9, pairs)

    class _Logged(RandomSource):
        """A RandomSource that logs the range of every draw."""

        def __init__(self, seed):
            super().__init__(seed)
            self.log = []

        def randrange(self, n):
            self.log.append(n)
            return super().randrange(n)

    @pytest.mark.parametrize("route", ["cyclotomic", "canonical-q31", "canonical-patched"])
    def test_check_draws_p_alpha_and_beta_only(self, monkeypatch, route):
        # whatever its modulus, a check draws p (above lam), alpha and the
        # s - 1 betas of a small F_{q^s}, and nothing for the modulus; the
        # field is a function of (q, S), so seeds that reach one S build
        # one field
        seen = _watch_evaluations(monkeypatch)
        rnd = random.Random(128)
        triples = []
        if route == "canonical-q31":
            # lam <= 137 < D + 1, and c2 = 2/0.9 with p <= 2*lam puts c2*p
            # between 31 and 31^2, so S = 2
            ring, eps = prime_field(31), 0.9
            for _ in range(8):
                d = rnd.randrange(2000, 5000)
                x = monomial(ring, d, 1)
                triples += [(x, x, monomial(ring, 2 * d, c)) for c in (1, 2)]
        else:
            if route == "canonical-patched":
                monkeypatch.setattr(arith, "is_primitive_root", lambda q, ell: False)
            ring, eps = F9, 2.0 ** -20
            for _ in range(4):
                f, g = (rand_sparse(rnd, F9, 6, 10 ** 9) for _ in range(2))
                h = naive_mul(f, g)
                triples += [(f, g, h), (f, g, _perturbed(h, (1, 0)))]
        checks, fields = [], {}
        for seed, (f, g, h) in enumerate(triples):
            rng = self._Logged(seed)
            seen.clear()
            assert verify_sp(f, g, h, eps, rng) == (h == naive_mul(f, g))
            (field, p), = set(seen)
            replay = self._Logged(seed)
            if p != h.degree + 1:  # p drawn, above lam
                lam = lambda_nonzero(f.sparsity * g.sparsity + h.sparsity, h.degree,
                                     verify._split(eps, False)[0])
                assert random_prime(lam, replay) == p
            for _ in range(ring.s):  # alpha, then the betas
                field.rand_elem(replay)
            assert rng.log == replay.log
            checks += seen
            fields.setdefault(field.s, []).append(field)
        assert set(_field_routes(checks, ring, eps)) == {route.split("-")[0]}
        assert all(len(set(same)) == 1 for same in fields.values())
        assert max(map(len, fields.values())) >= 2

    def test_one_extension_draw_per_check(self, monkeypatch):
        seen = _watch_evaluations(monkeypatch)
        moduli = []
        real = verify.irreducible_poly

        def irreducible_poly(q, s):
            moduli.append(real(q, s))
            return moduli[-1]

        monkeypatch.setattr(verify, "irreducible_poly", irreducible_poly)
        f9 = ext_field(3, 2)
        rnd = random.Random(123)

        def twelve_terms():
            return canonicalize([(e, (rnd.randrange(1, 3), rnd.randrange(3)))
                                 for e in rnd.sample(range(10 ** 9), 12)], f9)

        for seed in range(6):
            f, g = twelve_terms(), twelve_terms()
            h = naive_mul(f, g)
            for truth, H in ((True, h), (False, _perturbed(h, (1, 0)))):
                seen.clear()
                moduli.clear()
                assert verify_sp(f, g, H, 2.0 ** -20, RandomSource(seed)) == truth
                assert len(moduli) == 1
                assert {ring.modulus for ring, _ in seen} == {moduli[0]}
                assert len({ring for ring, _ in seen}) == len({p for _, p in seen}) == 1
                assert seen[0][0].q == 3


class TestVerifySumSP:
    def test_single_pair_reduces_to_verify_sp(self):
        h = naive_mul(F_EX, G_EX)
        for seed in range(20):
            assert verify_sum_sp(h, [(F_EX, G_EX)], 0.01, RandomSource(seed))

    def test_exact_cancellation(self):
        z = zero_poly(ZZ)
        for seed in range(20):
            assert verify_sum_sp(z, [(F_EX, G_EX), (F_EX, negate(G_EX))],
                                 0.01, RandomSource(seed))

    def test_product_rule_pairs(self):
        rnd = random.Random(13)
        for seed in range(25):
            f = rand_sparse(rnd, ZZ, 6, 10 ** 5, 2 ** 20)
            g = rand_sparse(rnd, ZZ, 6, 10 ** 5, 2 ** 20)
            h = derivative(naive_mul(f, g))
            pairs = [(f, derivative(g)), (derivative(f), g)]
            assert verify_sum_sp(h, pairs, 0.01, RandomSource(seed))

    def test_wrong_sum_rejected(self):
        rnd = random.Random(14)
        rejected = 0
        for seed in range(200):
            f = rand_sparse(rnd, ZZ, 5, 10 ** 4, 2 ** 16)
            g = rand_sparse(rnd, ZZ, 5, 10 ** 4, 2 ** 16)
            h = add(derivative(naive_mul(f, g)), monomial(ZZ, 1, 3))
            pairs = [(f, derivative(g)), (derivative(f), g)]
            rejected += not verify_sum_sp(h, pairs, 0.01, RandomSource(seed))
        assert rejected >= 194

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            verify_sum_sp(F_EX, [], 0.01, RandomSource(0))

    def test_all_zero_pairs(self):
        z = zero_poly(ZZ)
        assert verify_sum_sp(z, [(z, G_EX)], 0.1, RandomSource(0))
        assert not verify_sum_sp(F_EX, [(z, G_EX)], 0.1, RandomSource(0))
