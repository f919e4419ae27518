"""Command-line front end: polynomial files, multiply/verify/estimate
commands, and a CSV benchmark harness.

Every file parses to a MultiPoly, a one-variable file at nvars = 1, and
every command runs the multivariate path on it.

File format (line oriented, # starts a comment, bit-exact round trip):

    ring int            | field <q> <s>
    vars <n>
    term <c> <e1> ... <en>

Coefficients are decimal; over an extension field a coefficient is s
comma-separated residues, little-endian in the power basis.  Extension
fields use the canonical defining polynomial (the lexicographically
smallest monic irreducible of degree s over F_q), so a header fully
determines the ring.  Files must be canonical: no duplicate exponents,
no zero coefficients.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
import time
from itertools import zip_longest

from .arith import RandomSource
from .errors import CharacteristicTooSmallError, PolyFileError, SpmulError
from .multivar import (MultiPoly, canonicalize_multi, kronecker,
                       multivar_product_field, multivar_product_smallchar,
                       multivar_product_z, naive_mul_multi, sparsity_estimate)
from .rings import RingSpec, ext_field, integers, mul_count, prime_field, reset_mul_count

DEFAULT_EPSILON = 2.0 ** -20
DEFAULT_LAMBDA = 2.0
DEFAULT_SEED = 0
# arith.is_prime errs with probability up to 2^-80 above 3.3e24, so mul and
# verify, which draw primes, cannot honour a smaller failure budget
MIN_EPSILON = 2.0 ** -80


# ---------------------------------------------------------------------------
# polynomial files

def _parse_ring(line: str, lineno: int) -> RingSpec:
    parts = line.split()
    if parts == ["ring", "int"]:
        return integers()
    if parts and parts[0] == "field":
        if len(parts) != 3:
            raise PolyFileError(f"line {lineno}: field header needs q and s")
        try:
            q, s = int(parts[1]), int(parts[2])
        except ValueError:
            raise PolyFileError(f"line {lineno}: field parameters must be integers") from None
        try:
            return _field(q, s)
        except ValueError as exc:
            raise PolyFileError(f"line {lineno}: {exc}") from None
    raise PolyFileError(f"line {lineno}: expected 'ring int' or 'field <q> <s>'")


@functools.cache
def _field(q: int, s: int) -> RingSpec:
    # built once per (q, s) in the process, as verify parses three files
    # with one header: finding the canonical modulus of F_(101^26) alone
    # takes most of a second
    return prime_field(q) if s == 1 else ext_field(q, s)


def _parse_coeff(token: str, ring: RingSpec, lineno: int):
    try:
        residues = [int(v) for v in token.split(",")]
    except ValueError:
        raise PolyFileError(f"line {lineno}: bad coefficient {token!r}") from None
    if ring.kind == "integers":
        if len(residues) != 1:
            raise PolyFileError(f"line {lineno}: integer coefficients take one value")
    elif len(residues) != ring.s or any(not 0 <= v < ring.q for v in residues):
        raise PolyFileError(f"line {lineno}: coefficient out of field range")
    if not any(residues):
        raise PolyFileError(f"line {lineno}: zero coefficient; files must be canonical")
    return ring.coerce(residues if ring.kind == "ext_field" else residues[0])


def parse_poly(text: str) -> MultiPoly:
    """Parse a polynomial file into a MultiPoly; a one-variable file
    gives nvars = 1."""
    raw_lines = text.splitlines()
    lines = []
    for lineno, raw in enumerate(raw_lines, start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))
    # a missing header line reads as an empty line past the end of the file
    eof = (len(raw_lines) + 1, "")
    rno, rline = lines[0] if lines else eof
    ring = _parse_ring(rline, rno)
    vno, vline = lines[1] if len(lines) > 1 else eof
    vparts = vline.split()
    if len(vparts) != 2 or vparts[0] != "vars":
        raise PolyFileError(f"line {vno}: expected 'vars <n>'")
    try:
        nvars = int(vparts[1])
    except ValueError:
        raise PolyFileError(f"line {vno}: vars count must be an integer") from None
    if nvars < 1:
        raise PolyFileError(f"line {vno}: vars count must be >= 1")

    seen = set()
    terms = []
    for lineno, line in lines[2:]:
        parts = line.split()
        if parts[0] != "term":
            raise PolyFileError(f"line {lineno}: expected a term record")
        if len(parts) != 2 + nvars:
            raise PolyFileError(f"line {lineno}: term needs a coefficient and {nvars} exponents")
        c = _parse_coeff(parts[1], ring, lineno)
        try:
            exps = tuple(int(v) for v in parts[2:])
        except ValueError:
            raise PolyFileError(f"line {lineno}: exponents must be integers") from None
        if any(e < 0 for e in exps):
            raise PolyFileError(f"line {lineno}: exponents must be nonnegative")
        if exps in seen:
            raise PolyFileError(f"line {lineno}: duplicate exponent; files must be canonical")
        seen.add(exps)
        terms.append((exps, c))

    # every term is checked above and no exponent vector repeats, so
    # sorting is all that canonical form still asks
    return MultiPoly(ring, nvars, tuple(sorted(terms)))


def _ring_header(ring: RingSpec) -> str:
    if ring.kind == "integers":
        return "ring int"
    if ring.kind == "prime_field":
        return f"field {ring.q} 1"
    return f"field {ring.q} {ring.s}"


def _coeff_str(ring: RingSpec, c) -> str:
    # a field coefficient is written as its residues, as _parse_coeff reads it
    return ",".join(map(str, ring.residues(c))) if ring.is_field else str(c)


def format_poly(poly: MultiPoly) -> str:
    """Canonical text form; parse(format(p)) round-trips bit-exactly."""
    ring = poly.ring
    out = [_ring_header(ring), f"vars {poly.nvars}"]
    for exps, c in poly.terms:
        out.append(f"term {_coeff_str(ring, c)} " + " ".join(str(e) for e in exps))
    return "\n".join(out) + "\n"


def _read_poly(path: str) -> MultiPoly:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_poly(fh.read())


def _check_compatible(polys) -> None:
    first = polys[0]
    if any(p.ring != first.ring or p.nvars != first.nvars for p in polys[1:]):
        raise PolyFileError("input polynomials must share ring and variable count")


# ---------------------------------------------------------------------------
# commands

class _UsageError(SpmulError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _budget(text: str) -> float:
    try:
        eps = float(text)
    except ValueError:
        eps = math.nan
    if not MIN_EPSILON <= eps < 1.0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a failure budget in [2^-80, 1)")
    return eps


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first command and reused by every later one in the
    # process: parse_args leaves the parser unchanged
    parser = _Parser(prog="spmul", description="sparse polynomial multiplication toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mul = sub.add_parser("mul", help="multiply two polynomial files")
    p_mul.add_argument("a")
    p_mul.add_argument("b")
    p_mul.add_argument("-o", "--output", required=True)
    p_mul.add_argument("--naive", action="store_true", help="schoolbook reference path")
    p_mul.add_argument("--epsilon", type=_budget, default=DEFAULT_EPSILON)
    p_mul.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p_ver = sub.add_parser("verify", help="check whether A*B = H")
    p_ver.add_argument("a")
    p_ver.add_argument("b")
    p_ver.add_argument("h")
    p_ver.add_argument("--epsilon", type=_budget, default=DEFAULT_EPSILON)
    p_ver.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p_est = sub.add_parser("estimate", help="estimate the product sparsity")
    p_est.add_argument("a")
    p_est.add_argument("b")
    p_est.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA)
    p_est.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p_est.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p_bench = sub.add_parser("bench", help="benchmark naive vs sparse multiplication")
    p_bench.add_argument("--family", required=True, choices=["example2", "random", "multivar"])
    p_bench.add_argument("--tmin", type=int, required=True)
    p_bench.add_argument("--tmax", type=int, required=True)
    p_bench.add_argument("--out", required=True)
    p_bench.add_argument("--seed", type=int, default=DEFAULT_SEED)
    return parser


def _multiply(F: MultiPoly, G: MultiPoly, eps: float, rng: RandomSource) -> MultiPoly:
    ring = F.ring
    if ring.kind == "integers":
        return multivar_product_z(F, G, eps, rng)
    try:
        return multivar_product_field(F, G, eps, rng)
    except CharacteristicTooSmallError:
        # char <= deg F + deg G (raised before any randomness is drawn),
        # or char <= 2p once the cyclic prime p is drawn and an operand
        # wraps mod X^p - 1
        return multivar_product_smallchar(F, G, eps, rng)


def _cmd_mul(args) -> int:
    a, b = _read_poly(args.a), _read_poly(args.b)
    _check_compatible([a, b])
    rng = RandomSource(args.seed)
    product = naive_mul_multi(a, b) if args.naive else _multiply(a, b, args.epsilon, rng)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(format_poly(product))
    return 0


def _cmd_verify(args) -> int:
    a, b, h = _read_poly(args.a), _read_poly(args.b), _read_poly(args.h)
    _check_compatible([a, b, h])
    from .verify import verify_sp
    rng = RandomSource(args.seed)
    # one Kronecker map faithful on all three supports turns the question
    # univariate; the verifier itself works over any characteristic
    d = 1 + max((max(x + y, z) for x, y, z in zip_longest(
        a.var_degrees(), b.var_degrees(), h.var_degrees(), fillvalue=0)), default=0)
    ok = verify_sp(kronecker(a, d), kronecker(b, d), kronecker(h, d),
                   args.epsilon, rng)
    print("OK" if ok else "MISMATCH")
    return 0 if ok else 1


def _cmd_estimate(args) -> int:
    a, b = _read_poly(args.a), _read_poly(args.b)
    _check_compatible([a, b])
    rng = RandomSource(args.seed)
    print(sparsity_estimate(a, b, args.epsilon, args.lam, rng))
    return 0


def _bench_instance(family: str, t: int, rng: RandomSource):
    zz = integers()
    if family == "example2":
        f = canonicalize_multi([((i,), 1) for i in range(t)], 1, zz)
        g = canonicalize_multi([((t * i + 1,), 1) for i in range(t)]
                               + [((t * i,), -1) for i in range(t)], 1, zz)
        return f, g
    # random: one variable of degree below max(64, 4t^2); multivar: three
    # variables, modest per-variable degrees
    n, dmax = (1, max(64, 4 * t * t)) if family == "random" else (3, max(4, t))

    def rand_poly():
        terms = {}
        while len(terms) < t:
            c = rng.randint(-(2 ** 30), 2 ** 30)
            if c:
                terms[tuple(rng.randrange(dmax) for _ in range(n))] = c
        return canonicalize_multi(list(terms.items()), n, zz)

    return rand_poly(), rand_poly()


def _cmd_bench(args) -> int:
    if args.tmin < 1 or args.tmax < args.tmin:
        raise _UsageError("need 1 <= tmin <= tmax")
    rows = []
    trial = 0
    t = args.tmin
    while t <= args.tmax:
        seed = args.seed ^ trial  # one trial = one instance, both algorithms
        trial += 1
        f, g = _bench_instance(args.family, t, RandomSource(seed))
        d_col = max(x + y for x, y in zip(f.var_degrees(), g.var_degrees()))
        for algorithm in ("naive", "sparse"):
            rng = RandomSource(seed)
            reset_mul_count()
            start = time.perf_counter()
            if algorithm == "naive":
                result = naive_mul_multi(f, g)
            else:
                result = _multiply(f, g, DEFAULT_EPSILON, rng)
            millis = (time.perf_counter() - start) * 1000.0
            rows.append({
                "family": args.family, "T": t, "D": d_col, "algorithm": algorithm,
                "millis": f"{millis:.3f}", "ring_mults": mul_count(),
                "out_terms": result.sparsity, "seed": seed,
            })
        t *= 2
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=[
            "family", "T", "D", "algorithm", "millis", "ring_mults", "out_terms", "seed"])
        writer.writeheader()
        writer.writerows(rows)
    return 0


def run_command(argv) -> int:
    """Dispatch a CLI invocation; exit code 0/1 per command semantics,
    2 on usage, IO, or parse errors (one-line diagnostic on stderr)."""
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "mul":
            return _cmd_mul(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "estimate":
            return _cmd_estimate(args)
        return _cmd_bench(args)
    except (SpmulError, OSError, ValueError) as exc:
        print(f"spmul: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
