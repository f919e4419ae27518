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
no zero coefficients.  Term lines may come in any order, their tokens
split by any run of spaces or tabs, with LF or CRLF line ends.

parse_poly checks the term lines a column of tokens at a time: one split
of all of them, then one C-level pass per check (int over each column,
min and max for the field range and the exponents' sign, one set for
duplicate exponent vectors, one sort).  That is about 1.1 us per term
line of a one-variable file over Z and 1.4 us over F_9 (CPython 3.11,
2-core x86-64).  A file that fails a check is read again line by line, and the error names
its first bad line (counting comment and blank lines) and the first check
that line fails; a duplicate exponent is reported at its second line.
format_poly writes each term line with one %-format, about 0.4 us a line
over Z.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
import time
from itertools import compress, cycle, repeat, zip_longest
from operator import add

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

def _parse_ring(parts: list, lineno: int) -> RingSpec:
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


def parse_poly(text: str) -> MultiPoly:
    """Parse a polynomial file into a MultiPoly; a one-variable file
    gives nvars = 1.

    The term lines are checked a column of tokens at a time
    (_column_terms).  A file that fails any of those checks is read
    again line by line (_line_terms), which raises on its first bad line."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    head = []
    for lineno, parts in enumerate(map(str.split, lines), start=1):
        if parts:
            head.append((lineno, parts))
            if len(head) == 2:
                break
    # a missing header line reads as an empty line past the end of the file
    head += [(len(lines) + 1, [])] * (2 - len(head))
    (rno, rparts), (vno, vparts) = head
    ring = _parse_ring(rparts, rno)
    if len(vparts) != 2 or vparts[0] != "vars":
        raise PolyFileError(f"line {vno}: expected 'vars <n>'")
    try:
        nvars = int(vparts[1])
    except ValueError:
        raise PolyFileError(f"line {vno}: vars count must be an integer") from None
    if nvars < 1:
        raise PolyFileError(f"line {vno}: vars count must be >= 1")
    terms = _column_terms(ring, nvars, lines[vno:])
    if terms is None:
        terms = _line_terms(ring, nvars, lines, vno)
    return MultiPoly(ring, nvars, terms)


def _column_terms(ring: RingSpec, nvars: int, lines: list):
    """The sorted terms of the term lines `lines` (comments removed), or
    None if any line fails a check.  Each check is one pass over a whole
    column of the lines' tokens, split at once; work is bounded by the
    tokens present, whatever nvars is.

    With n nonblank lines and k = 2 + nvars, every line holds k tokens,
    the first of them term, when there are k * n tokens, every k-th one
    from the first is the word term, every line starts with "term", and
    every other token reads as an integer (over an extension field, as s
    of them between commas).  No token starting with "term" reads as an
    integer, so each line starts at a multiple of k, and the n lines start
    at the n such positions."""
    firsts = list(filter(None, map(str.lstrip, lines)))
    if not firsts:
        return ()
    tokens = " ".join(lines).split()
    n, k = len(firsts), 2 + nvars
    if (len(tokens) != k * n or tokens[::k].count("term") != n
            or not all(map(str.startswith, firsts, repeat("term")))):
        return None
    try:
        coeffs = _column_coeffs(ring, tokens[1::k])
        exps = list(map(int, compress(tokens, cycle((0, 0) + (1,) * nvars))))
    except ValueError:
        return None
    if coeffs is None or 0 in coeffs or min(exps) < 0:
        return None
    keys = list(zip(*[iter(exps)] * nvars))
    if len(set(keys)) != n:
        return None
    # every term is checked and no exponent vector repeats, so sorting is
    # all that canonical form still asks
    return tuple(sorted(zip(keys, coeffs)))


def _column_coeffs(ring: RingSpec, tokens: list):
    """The ring elements of the coefficient tokens, or None if one is out
    of field range; ValueError if one is not an integer (over Z) or not s
    comma-separated integers (over a field)."""
    if ring.kind == "integers":
        return list(map(int, tokens))
    s = ring.s
    if s > 1:
        if set(map(str.count, tokens, repeat(","))) != {s - 1}:
            return None
        tokens = ",".join(tokens).split(",")
    residues = list(map(int, tokens))
    if min(residues) < 0 or max(residues) >= ring.q:
        return None
    return ring.elements(residues)


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


def _line_terms(ring: RingSpec, nvars: int, lines: list, vno: int) -> tuple:
    """The sorted terms of the lines after the vars line (line vno),
    comments removed, checked one line at a time: the first bad line
    raises PolyFileError, naming the line and its first failed check."""
    seen = set()
    terms = []
    for lineno, line in enumerate(lines[vno:], start=vno + 1):
        parts = line.split()
        if not parts:
            continue
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
    return tuple(sorted(terms))


def _ring_header(ring: RingSpec) -> str:
    if ring.kind == "integers":
        return "ring int"
    if ring.kind == "prime_field":
        return f"field {ring.q} 1"
    return f"field {ring.q} {ring.s}"


def format_poly(poly: MultiPoly) -> str:
    """Canonical text form; parse(format(p)) round-trips bit-exactly."""
    ring, nvars = poly.ring, poly.nvars
    head = f"{_ring_header(ring)}\nvars {nvars}\n"
    if not poly.terms:
        return head
    exps, coeffs = zip(*poly.terms)
    # a field coefficient is written as its s residues, as parse_poly reads
    # it (s = 1 over Z and F_q); each line is one format of its
    # coefficient's digits and exponents
    digits = ring.residue_run(coeffs) if ring.is_field else coeffs
    line = "term " + ",".join(["%d"] * ring.s) + " %d" * nvars
    rows = map(add, zip(*[iter(digits)] * ring.s), exps)
    return head + "\n".join(map(line.__mod__, rows)) + "\n"


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
