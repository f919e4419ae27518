"""The benchmark's four workloads.

Each builder turns the workload seed into inputs (with ``spmul``'s own
constructors) and returns one cycle of operations.  Every operation
carries an independent check against ``oracle`` and a schoolbook twin on
the same inputs.  Oracle work is timed separately so that it can be left
out of the set-up time.

Calls into ``spmul`` go through the module attribute at call time
(``product.sparse_product``, not a bound name), so the tracing wrappers in
``spans`` see them.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

from spmul import arith, cli, multivar, poly, product, rings, verify

from oracle import Field, example2_product, parse_poly_text, schoolbook, smallest_irreducible

EPS = 2.0 ** -20  # the CLI's default failure budget
LAMBDA = 2.0  # the CLI's default estimate factor
Q62 = 2305843009213714499  # 62-bit prime shared with the test suite
COEFF_BOUND = 2 ** 30

# (fresh measuring processes per untraced run, seconds of one warm cycle at
# the reference speed).  A run's cycle count follows from --seconds and the
# cycle's cost, never from the clock, so every run of a workload takes the
# same number of samples.  A process's first cycle is cold (the prime sieve
# runs in it), so where a process runs several cycles, it runs enough of
# them that cold samples stay a minority and each kind's median is a warm
# sample.  cli_multivar instead runs each command once per process, cold,
# as the command line does, and verify's one cycle takes several seconds.
PLAN = {"example2": (6, 1.1), "random_z": (3, 1.7), "verify": (4, 6.0),
        "cli_multivar": (6, 3.7)}


@dataclass
class Op:
    label: str  # instance label; samples are grouped by it for the ratio table
    run: Callable[[int], Any]  # op seed -> result
    check: Callable[[Any], bool]
    naive: Callable[[], Any]


@dataclass
class Workload:
    name: str
    ops: list  # one cycle of Op
    instances: list  # metadata dicts, one per distinct instance
    reaches: tuple  # traced functions every run must call
    unit: str  # what one operation is


class OracleClock:
    """Context manager accumulating the wall time spent in oracle work."""

    def __init__(self):
        self.seconds = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.seconds += time.perf_counter() - self._t0


# ---------------------------------------------------------------------------
# shared pieces

def _rand_coeff(rnd: random.Random, fld: Field):
    while True:
        if fld.q is None:
            c = rnd.randint(1 - COEFF_BOUND, COEFF_BOUND - 1)
        elif fld.is_ext:
            c = tuple(rnd.randrange(fld.q) for _ in range(fld.s))
        else:
            c = rnd.randrange(fld.q)
        if c != fld.zero():
            return c


def _rand_terms(rnd: random.Random, t: int, draw_exp, fld: Field) -> dict:
    terms: dict = {}
    while len(terms) < t:
        terms[draw_exp()] = _rand_coeff(rnd, fld)
    return terms


def _sparse(f, g, params, seed: int):
    return product.sparse_product(f, g, params, arith.RandomSource(seed))


def _verify(f, g, h, seed: int) -> bool:
    return verify.verify_sp(f, g, h, EPS, arith.RandomSource(seed))


def _naive(f, g):
    return poly.naive_mul(f, g)


def _terms_equal(want: dict, h) -> bool:
    return dict(h.terms) == want


def _is(want: bool, got) -> bool:
    return got is want


def _meta(ring: str, nvars: int, nf: int, ng: int, want: dict) -> dict:
    if nvars == 1:
        degree = max(want)
    else:
        degree = [max(e[i] for e in want) for i in range(nvars)]
    return {"ring": ring, "nvars": nvars, "#F": nf, "#G": ng, "#H": len(want), "degree": degree}


# traced functions every univariate sparse_product run calls
PRODUCT_REACHES = ("product.sparse_product", "interp.interp_sum_sp",
                   "interp.cyclic_product_residue", "interp.find_terms",
                   "verify.verify_sp", "verify.verify_sum_sp", "verify.eval_cyclic_product",
                   "poly.eval_sparse", "poly.cyclic_reduce", "poly.derivative",
                   "arith.first_primes", "arith.random_prime")


# ---------------------------------------------------------------------------
# example2: the paper's structured family, 2-term output

def build_example2(rnd, toy, oracle, workdir):
    zz = rings.integers()
    params = product.ProductParams(EPS / 2, EPS / 2)  # what the CLI passes for eps
    ops, instances = [], []
    for T in (4, 8, 16) if toy else (64, 128, 256):
        f = poly.canonicalize([(i, 1) for i in range(T)], zz)
        g = poly.canonicalize([(T * i + 1, 1) for i in range(T)]
                              + [(T * i, -1) for i in range(T)], zz)
        with oracle:
            want = example2_product(T)
        ops.append(Op(f"T={T}", partial(_sparse, f, g, params),
                      partial(_terms_equal, want), partial(_naive, f, g)))
        instances.append(_meta("Z", 1, T, 2 * T, want))
    return Workload("example2", ops, instances, PRODUCT_REACHES,
                    "one sparse_product")


# ---------------------------------------------------------------------------
# random_z: random integer polynomials, output of about #F*#G terms

def build_random_z(rnd, toy, oracle, workdir):
    zz = rings.integers()
    fld = Field()
    params = product.ProductParams(EPS / 2, EPS / 2)
    ops, instances = [], []
    for T in (4, 8) if toy else (16, 32, 48, 64):
        def draw_exp():
            return rnd.randrange(10 ** 9)
        fd = _rand_terms(rnd, T, draw_exp, fld)
        gd = _rand_terms(rnd, T, draw_exp, fld)
        f = poly.canonicalize(list(fd.items()), zz)
        g = poly.canonicalize(list(gd.items()), zz)
        with oracle:
            want = schoolbook(fd, gd, fld)
        ops.append(Op(f"#F=#G={T}", partial(_sparse, f, g, params),
                      partial(_terms_equal, want), partial(_naive, f, g)))
        instances.append(_meta("Z", 1, T, T, want))
    return Workload("random_z", ops, instances, PRODUCT_REACHES,
                    "one sparse_product")


# ---------------------------------------------------------------------------
# verify: verify_sp alone on true and false triples over three ring paths

def _f9():
    mod = smallest_irreducible(3, 2)
    return rings.ext_field(3, 2), Field(3, 2, mod)


def _bump(c, fld: Field):
    """c + 1 in the ring (the first residue over an extension)."""
    if fld.q is None:
        return c + 1
    if fld.is_ext:
        return ((c[0] + 1) % fld.q,) + tuple(c[1:])
    return (c + 1) % fld.q


def build_verify(rnd, toy, oracle, workdir):
    zz = rings.integers()
    f9_ring, f9 = _f9()
    if toy:
        cases = [("Z", zz, Field(), 5, 10), ("Q62", rings.prime_field(Q62), Field(Q62), 5, 10),
                 ("F9", f9_ring, f9, 3, 3)]
    else:
        cases = [("Z", zz, Field(), 50, 100), ("Z", zz, Field(), 100, 200),
                 ("Z", zz, Field(), 150, 300),
                 ("Q62", rings.prime_field(Q62), Field(Q62), 50, 100),
                 ("F9", f9_ring, f9, 12, 12)]
    ops, instances = [], []
    for tag, ring, fld, nf, ng in cases:
        def draw_exp():
            return rnd.randrange(10 ** 9)
        fd = _rand_terms(rnd, nf, draw_exp, fld)
        gd = _rand_terms(rnd, ng, draw_exp, fld)
        f = poly.canonicalize(list(fd.items()), ring)
        g = poly.canonicalize(list(gd.items()), ring)
        with oracle:
            want = schoolbook(fd, gd, fld)
            # change a coefficient that stays nonzero: same support, so only
            # the evaluation can tell the triple is false
            wrong = dict(want)
            keep = [e for e in sorted(wrong) if _bump(wrong[e], fld) != fld.zero()]
            e = keep[rnd.randrange(len(keep))]
            wrong[e] = _bump(wrong[e], fld)
        h_true = poly.canonicalize(list(want.items()), ring)
        h_false = poly.canonicalize(list(wrong.items()), ring)
        label = f"{tag} {nf}x{ng}"
        for truth, h in ((True, h_true), (False, h_false)):
            ops.append(Op(f"{label} {'true' if truth else 'false'}",
                          partial(_verify, f, g, h), partial(_is, truth), partial(_naive, f, g)))
        instances.append(_meta(tag, 1, nf, ng, want))
    reaches = ("verify.verify_sp", "verify.verify_sum_sp", "verify.eval_cyclic_product",
               "poly.eval_sparse", "poly.cyclic_reduce", "arith.random_prime")
    if not toy:
        reaches += ("arith.irreducible_poly",)  # the F_{q^2} path of Q62
    return Workload("verify", ops, instances, reaches, "one verify_sp")


# ---------------------------------------------------------------------------
# cli_multivar: spmul commands on 3-variable polynomial files

def _command(argv) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run_command(argv)
    return rc, buf.getvalue()


def _with_seed(argv, seed: int) -> tuple:
    return _command(argv + ["--seed", str(seed)])


def _read_back(path: Path, header, want: dict) -> bool:
    try:
        got = parse_poly_text(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return False
    return got == (header, want)


def _check_mul(path, header, want, result) -> bool:
    rc, _ = result
    return rc == 0 and _read_back(path, header, want)


def _check_verify(path, header, want, result) -> bool:
    truth = _read_back(path, header, want)
    return result == ((0, "OK\n") if truth else (1, "MISMATCH\n"))


def _check_estimate(n_true: int, result) -> bool:
    rc, out = result
    try:
        est = int(out.strip())
    except ValueError:
        return False
    return rc == 0 and n_true <= est <= LAMBDA * n_true


def build_cli_multivar(rnd, toy, oracle, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    f9_ring, f9 = _f9()
    nvars, t, dmax = (3, 3, 5) if toy else (3, 12, 50)
    cases = [("Z", rings.integers(), Field(), None),
             ("Q62", rings.prime_field(Q62), Field(Q62), (Q62, 1)),
             ("F9", f9_ring, f9, (3, 2))]
    muls, verifies, estimates, instances = [], [], [], []
    for tag, ring, fld, header in cases:
        def draw_exp():
            return tuple(rnd.randrange(dmax) for _ in range(nvars))
        fd = _rand_terms(rnd, t, draw_exp, fld)
        gd = _rand_terms(rnd, t, draw_exp, fld)
        paths = {k: workdir / f"{tag}_{k}.poly" for k in ("f", "g", "h", "naive")}
        for key, terms in (("f", fd), ("g", gd)):
            mpoly = multivar.canonicalize_multi(list(terms.items()), nvars, ring)
            paths[key].write_text(cli.format_poly(mpoly), encoding="utf-8")
        with oracle:
            want = schoolbook(fd, gd, fld)
        a, b, h = str(paths["f"]), str(paths["g"]), str(paths["h"])
        naive = partial(_command, ["mul", "--naive", a, b, "-o", str(paths["naive"])])
        muls.append(Op(f"mul {tag}", partial(_with_seed, ["mul", a, b, "-o", h]),
                       partial(_check_mul, paths["h"], header, want), naive))
        verifies.append(Op(f"verify {tag}", partial(_with_seed, ["verify", a, b, h]),
                           partial(_check_verify, paths["h"], header, want), naive))
        if tag != "F9":
            estimates.append(Op(f"estimate {tag}", partial(_with_seed, ["estimate", a, b]),
                                partial(_check_estimate, len(want)), naive))
        instances.append(_meta(tag, nvars, t, t, want))
    ops = [op for pair in zip(muls, verifies) for op in pair] + estimates
    reaches = ("cli.run_command", "cli.parse_poly", "cli.format_poly", "multivar.kronecker",
               "multivar.inverse_kronecker", "multivar.randomized_kronecker",
               "multivar.multivar_product_z", "multivar.multivar_product_field",
               "multivar.multivar_product_smallchar", "multivar.sparsity_estimate",
               "product.sparse_product", "verify.verify_sp")
    return Workload("cli_multivar", ops, instances, reaches,
                    "one spmul command")


BUILDERS = {"example2": build_example2, "random_z": build_random_z,
            "verify": build_verify, "cli_multivar": build_cli_multivar}


def plan(name: str, seconds: float, toy: bool) -> tuple:
    """(measuring processes, cycles per process) that fill about
    ``seconds`` of operation time at the reference speed."""
    if toy:
        return 2, 1
    processes, cycle_s = PLAN[name]
    return processes, max(1, round(seconds / (processes * cycle_s)))


def build(name: str, seed: int, stream: int, toy: bool, oracle: OracleClock,
          workdir: Path) -> Workload:
    """Inputs of workload ``name``, fully determined by ``seed`` and the
    measuring process's ``stream`` number."""
    rnd = random.Random(f"{name}:{seed}:{stream}")
    return BUILDERS[name](rnd, toy, oracle, workdir)
