"""Acceptance suite: one test per criterion, at full scale, fixed seeds.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.  Budgeted runtime for the whole module is a few
minutes; the dominant cost is the 500-instance integer oracle sweep.
"""

import math
import random
import time

from spmul import (ProductParams, RandomSource, add, canonicalize,
                   derivative, eval_cyclic_product, ext_field, first_primes,
                   integers, is_prime, mul_count,
                   multivar_product_smallchar, naive_mul, prime_field,
                   reset_mul_count, sparse_product, sparsity_estimate,
                   verify_sp, inverse_kronecker, kronecker)
from spmul.cli import run_command

from helpers import Q62, dict_mul_ring, monomial, rand_multi, rand_sparse, sumset_size

ZZ = integers()
MU20 = 2.0 ** -20
PARAMS20 = ProductParams(MU20, MU20)

F_TEXT = "ring int\nvars 1\nterm 2 7\nterm 1 14\nterm 2 0\n"
G_TEXT = "ring int\nvars 1\nterm 3 13\nterm 5 8\nterm 3 0\n"
H_TEXT = "ring int\nvars 1\nterm 1 14\nterm -2 7\nterm 2 0\n"

FG_TEXT = ("ring int\nvars 1\n"
           "term 6 0\nterm 6 7\nterm 10 8\nterm 6 13\nterm 3 14\n"
           "term 10 15\nterm 6 20\nterm 5 22\nterm 3 27\n")
FH_TEXT = "ring int\nvars 1\nterm 4 0\nterm 1 28\n"


def _report(num, desc, fn):
    try:
        fn()
    except BaseException:
        print(f"\nACCEPTANCE FAIL {num}: {desc}")
        raise
    print(f"\nACCEPTANCE PASS {num}: {desc}")


def example2_family(t):
    f = canonicalize([(i, 1) for i in range(t)], ZZ)
    g = canonicalize([(t * i + 1, 1) for i in range(t)]
                     + [(t * i, -1) for i in range(t)], ZZ)
    return f, g


def test_criterion_01_example1_byte_exact_cli(tmp_path):
    def body():
        a = tmp_path / "f.poly"
        b = tmp_path / "g.poly"
        h = tmp_path / "h.poly"
        a.write_text(F_TEXT)
        b.write_text(G_TEXT)
        h.write_text(H_TEXT)
        out = tmp_path / "out.poly"
        for seed in range(20):
            for other, expect in ((b, FG_TEXT), (h, FH_TEXT)):
                start = time.monotonic()
                rc = run_command(["mul", str(a), str(other), "-o", str(out),
                                  "--seed", str(seed)])
                elapsed = time.monotonic() - start
                assert rc == 0
                assert out.read_text() == expect
                assert elapsed < 1.0, f"seed {seed}: {elapsed:.2f}s"

    _report(1, "paper example products byte-exact through the CLI, 20 seeds, <1s each", body)


def test_criterion_02_example2_family():
    def body():
        for t in (4, 16, 64):
            f, g = example2_family(t)
            start = time.monotonic()
            product = sparse_product(f, g, PARAMS20, RandomSource(1000 + t))
            elapsed = time.monotonic() - start
            assert product.terms == ((0, -1), (t * t, 1))
            assert sumset_size(f, g) == t * t + 1
            if t == 64:
                assert elapsed < 10.0, f"{elapsed:.2f}s at T=64"

    _report(2, "structured family gives the 2-term product X^(T^2)-1, <10s at T=64", body)


def test_criterion_03_oracle_equivalence_integers():
    def body():
        rnd = random.Random(20260101)
        matches = 0
        start = time.monotonic()
        for seed in range(500):
            f = rand_sparse(rnd, ZZ, 40, 10 ** 9, 2 ** 30)
            g = rand_sparse(rnd, ZZ, 40, 10 ** 9, 2 ** 30)
            got = sparse_product(f, g, PARAMS20, RandomSource(seed))
            matches += got == naive_mul(f, g)
        elapsed = time.monotonic() - start
        assert matches >= 499, f"only {matches}/500 matched"
        assert elapsed < 600.0, f"{elapsed:.1f}s exceeds 10 minutes"

    _report(3, "500 random integer instances match the schoolbook oracle in <10min", body)


def test_criterion_04_oracle_equivalence_prime_field():
    def body():
        assert is_prime(Q62) and Q62.bit_length() == 62
        fq = prime_field(Q62)
        rnd = random.Random(20260202)
        matches = 0
        for seed in range(200):
            f = rand_sparse(rnd, fq, 40, 10 ** 9)
            g = rand_sparse(rnd, fq, 40, 10 ** 9)
            assert Q62 > f.degree + g.degree
            got = sparse_product(f, g, PARAMS20, RandomSource(seed))
            matches += got == naive_mul(f, g)
        assert matches >= 199, f"only {matches}/200 matched"

    _report(4, "200 instances over a 62-bit prime field match the oracle", body)


def test_criterion_05_verifier_completeness():
    def body():
        rnd = random.Random(20260303)
        fq_large = prime_field(Q62)
        for ring_kind, make in (
            ("integers", lambda: rand_sparse(rnd, ZZ, 8, 10 ** 5, 2 ** 20)),
            ("large prime field", lambda: rand_sparse(rnd, fq_large, 8, 10 ** 5)),
        ):
            passed = 0
            for seed in range(500):
                f, g = make(), make()
                h = naive_mul(f, g)
                passed += verify_sp(f, g, h, 0.01, RandomSource(seed))
            assert passed == 500, f"{ring_kind}: {passed}/500"
        # small fields: the verifier must build an extension with s >= 2
        # (any p it draws satisfies c2*p > q, so F_q itself never suffices)
        passed = 0
        for seed in range(500):
            q = (2, 3, 5)[seed % 3] if seed % 10 == 0 else 101
            fq = prime_field(q)
            tmax, emax = (2, 64) if q < 101 else (6, 10 ** 4)
            f = rand_sparse(rnd, fq, tmax, emax)
            g = rand_sparse(rnd, fq, tmax, emax)
            h = naive_mul(f, g)
            passed += verify_sp(f, g, h, 0.01, RandomSource(seed))
        assert passed == 500, f"extension path: {passed}/500"

    _report(5, "verifier completeness: 1500 true triples across ring kinds, zero tolerance", body)


def test_criterion_06_verifier_soundness():
    def body():
        rnd = random.Random(20260404)

        def perturb_coeff(h):
            terms = list(h.terms)
            i = rnd.randrange(len(terms))
            e, c = terms[i]
            delta = rnd.choice([-3, -2, -1, 1, 2, 3])
            return add(h, monomial(ZZ, e, delta)), True

        def perturb_shift(h):
            terms = list(h.terms)
            i = rnd.randrange(len(terms))
            e, c = terms[i]
            support = set(e2 for e2, _ in terms)
            shift = e + rnd.randint(1, 5)
            while shift in support:
                shift += 1
            return add(add(h, monomial(ZZ, e, -c)), monomial(ZZ, shift, c)), True

        def perturb_add(h):
            support = set(e for e, _ in h.terms)
            e = rnd.randrange(2 * 10 ** 5)
            while e in support:
                e = rnd.randrange(2 * 10 ** 5)
            return add(h, monomial(ZZ, e, rnd.randint(1, 9))), True

        def perturb_drop(h):
            terms = list(h.terms)
            i = rnd.randrange(len(terms))
            e, c = terms[i]
            return add(h, monomial(ZZ, e, -c)), True

        for name, perturb in (("coefficient change", perturb_coeff),
                              ("exponent shift", perturb_shift),
                              ("added term", perturb_add),
                              ("dropped term", perturb_drop)):
            rejected = 0
            for seed in range(500):
                f = rand_sparse(rnd, ZZ, 8, 10 ** 5, 2 ** 20)
                g = rand_sparse(rnd, ZZ, 8, 10 ** 5, 2 ** 20)
                h, _ = perturb(naive_mul(f, g))
                rejected += not verify_sp(f, g, h, 0.01, RandomSource(seed))
            assert rejected >= 485, f"{name}: {rejected}/500 rejected"

    _report(6, "verifier soundness >= 0.97 across four perturbation classes", body)


def test_criterion_07_operation_count_contracts():
    def body():
        fq = prime_field(Q62)
        primes_to_1e6 = [p for p in first_primes(78498) if p >= 101]
        assert primes_to_1e6[-1] < 10 ** 6
        rnd = random.Random(20260505)
        for _ in range(1000):
            # cyclic-product evaluation against its own counter bound
            p = rnd.choice(primes_to_1e6)
            f = rand_sparse(rnd, fq, rnd.randint(1, 64), p)
            g = rand_sparse(rnd, fq, rnd.randint(1, 64), p)
            alpha = rnd.randrange(Q62)
            reset_mul_count()
            eval_cyclic_product(f, g, p, alpha)
            bound = 10 * (f.sparsity + g.sparsity + 2) * (math.log2(p) + 1)
            assert mul_count() <= bound

            # full verification against the coarser per-instance bound
            emax = rnd.randrange(100, 5 * 10 ** 5)
            f2 = rand_sparse(rnd, fq, rnd.randint(1, 64), emax)
            g2 = rand_sparse(rnd, fq, rnd.randint(1, 64), emax)
            h2 = naive_mul(f2, g2)
            big_t = max(f2.sparsity, g2.sparsity, h2.sparsity)
            reset_mul_count()
            assert verify_sp(f2, g2, h2, 0.01, RandomSource(rnd.randrange(2 ** 30)))
            vbound = 40 * big_t * (math.log2(big_t * math.log2(h2.degree)) + 1)
            assert mul_count() <= vbound

    _report(7, "ring-multiplication counters stay within the quasi-linear bounds on a 1000-instance grid", body)


def test_criterion_08_sparsity_estimate_brackets():
    def body():
        rnd = random.Random(20260606)
        lower_hits = 0
        for seed in range(100):
            f = rand_multi(rnd, ZZ, 2, 4, 6, 99)
            g = rand_multi(rnd, ZZ, 2, 4, 6, 99)
            true_sparsity = len(dict_mul_ring(dict(f.terms), dict(g.terms), ZZ))
            t = sparsity_estimate(f, g, 0.05, 2, RandomSource(seed))
            assert t <= 2 * true_sparsity, f"seed {seed}: {t} > 2*{true_sparsity}"
            lower_hits += t >= true_sparsity
        assert lower_hits >= 90, f"lower bound held on only {lower_hits}/100"

    _report(8, "sparsity estimate never exceeds 2x truth and reaches truth on >=90/100", body)


def test_criterion_09_small_characteristic_products():
    def body():
        rnd = random.Random(20260707)
        for ring in (prime_field(2), ext_field(3, 2)):
            exact = 0
            for seed in range(100):
                f = rand_multi(rnd, ring, 2, 5, 6)
                g = rand_multi(rnd, ring, 2, 5, 6)
                got = multivar_product_smallchar(f, g, 0.01, RandomSource(seed))
                oracle = dict_mul_ring(dict(f.terms), dict(g.terms), ring)
                exact += dict(got.terms) == oracle
            assert exact == 100, f"{ring.kind} q={ring.q}: {exact}/100"

    _report(9, "small-characteristic products exact on 100/100 over F_2 and F_9", body)


def test_criterion_10_property_suites():
    def body():
        rnd = random.Random(20260808)
        for _ in range(500):
            n = rnd.randint(1, 4)
            dmax = rnd.randint(2, 30)
            f = rand_multi(rnd, ZZ, n, 10, dmax, 2 ** 20)
            assert inverse_kronecker(kronecker(f, dmax), dmax, n) == f
        for _ in range(500):
            f = rand_sparse(rnd, ZZ, 8, 10 ** 6, 2 ** 20)
            g = rand_sparse(rnd, ZZ, 8, 10 ** 6, 2 ** 20)
            lhs = derivative(naive_mul(f, g))
            rhs = add(naive_mul(derivative(f), g), naive_mul(f, derivative(g)))
            assert lhs == rhs

    _report(10, "kronecker round-trip and product rule hold on 500 randomized cases each", body)
