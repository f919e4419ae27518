#!/usr/bin/env python3
"""A behaviour digest of spmul over a fixed corpus, for refactors and
deletions that must not change what the program computes.

    python tests/behaviour_digest.py                    # one SHA-256 per section
    python tests/behaviour_digest.py --diff OTHER_TREE  # and where OTHER_TREE differs
    python tests/behaviour_digest.py --tiny             # the small corpus

Run it from anywhere; it imports spmul from ``--tree``'s ``src/`` (this
checkout by default), and takes the corpus from this checkout: perfbench's
``example2``, ``random_z`` and ``cli_multivar`` builds at seeds 0-3, each
operation at op seeds 0 and 1, and every pair of ``tests/ci_inputs.py``
through ``mul``, ``mul --naive``, ``verify`` (of the product and of the
product with one coefficient changed) and ``estimate``, each command at the
CLI's default seed.  Every operation adds one record to each section it
touches:

* ``products``: the terms of a ``sparse_product``, or the error it raised;
* ``random_source``: a hash of the ``RandomSource`` state after it;
* ``cli``: a command's exit code, stdout, stderr and output file bytes;
* ``ring_mults``: the ``rings.mul_count()`` delta of the operation;
* ``walks``: one record per ``interp.cyclic_product_residue`` call it
  makes: the prime, the limit, the route (dense or sparse), and the floor
  the walk raised or the number of triples and of lone terms it returned.

The ``rings`` section logs F_{q^s} arithmetic directly, on one field per
reduction path of ``RingSpec._fold``: F_{Q^1} (Q a 62-bit prime), F_9,
F_{Q^2}, F_{101^3} and F_256 through the row fold, and F_{3^42} modulo
Phi_43 through the lane fold.  For each field and seed it draws elements
with ``rand_elem`` and records the residues of ``mul``, ``add``, ``sub``,
``neg``, ``pow``, ``smul``, ``inv``, ``drop`` of a lifted sum of products
and the ``coerce`` / ``residues`` round trips (or the error one raised),
then the draws' ``RandomSource`` state and the run's ``rings.mul_count()``
delta.

A section's digest is the SHA-256 of its records in corpus order.  The
digest is a tool, not a golden test: a change that draws differently on
purpose changes it.  ``--tiny`` runs the toy builds at seed 0, op seed 0,
the four wrapping pairs and the ring operations at seed 0, in under a
second; the full corpus takes about 20 s (CPython 3.11, 2-core x86-64).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECTIONS = ("products", "random_source", "cli", "ring_mults", "walks", "rings")
# a 62-bit prime, the base field of the rings section's large-q fields
Q62 = 2305843009213714499


def _records(tree: Path, tiny: bool) -> list:
    """[(section, key, value)] for the corpus, spmul imported from tree."""
    sys.path[:0] = [str(tree / "src"), str(ROOT / "perfbench"), str(HERE)]
    import ci_inputs
    import workloads
    from spmul import arith, cli, interp, product, rings
    from spmul.errors import SparsityBoundError

    out = []
    walks = []  # the current operation's walks
    route = [None]  # the current walk's route
    real_walk, real_dense = interp.cyclic_product_residue, interp._dense_is_cheaper

    def dense_is_cheaper(*args):
        dense = real_dense(*args)
        route[0] = "dense" if dense else "sparse"
        return dense

    def cyclic_product_residue(pairs, minus, p, limit, **kw):
        try:
            got = real_walk(pairs, minus, p, limit, **kw)
        except SparsityBoundError as err:
            walks.append(f"p={p} limit={limit} {route[0]} floor={err.floor}")
            raise
        # a walk that fills a lone= list returns its triples alone
        slots, lone = got if isinstance(got, tuple) else (got, kw.get("lone", ()))
        walks.append(f"p={p} limit={limit} {route[0]} triples={len(slots)} lone={len(lone)}")
        return got

    interp.cyclic_product_residue, interp._dense_is_cheaper = cyclic_product_residue, dense_is_cheaper

    def record_walks(key):
        out.extend(("walks", f"{key} walk={i}", line) for i, line in enumerate(walks))
        walks.clear()

    def command(key, argv, workdir, output=None):
        stdout, stderr = io.StringIO(), io.StringIO()
        m0 = rings.mul_count()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.run_command(argv)
        out.append(("ring_mults", key, str(rings.mul_count() - m0)))
        text = [str(rc), stdout.getvalue(), stderr.getvalue()]
        if output is not None:
            text.append(Path(output).read_text(encoding="utf-8") if Path(output).exists() else "")
        out.append(("cli", key, "\x00".join(text).replace(str(workdir), "<dir>")))
        record_walks(key)

    def sparse_product(key, f, g, params, seed):
        rng = arith.RandomSource(seed)
        m0 = rings.mul_count()
        try:
            result = repr(product.sparse_product(f, g, params, rng).terms)
        except Exception as err:  # a raised error is behaviour too
            result = f"{type(err).__name__}: {err}"
        out.append(("ring_mults", key, str(rings.mul_count() - m0)))
        out.append(("products", key, result))
        state = repr(rng._rng.getstate()).encode()
        out.append(("random_source", key, hashlib.sha256(state).hexdigest()))
        record_walks(key)

    def ring_ops(name, field, seed, count):
        rng = arith.RandomSource(seed)
        q, s, res = field.q, field.s, field.residues
        m0 = rings.mul_count()
        width = field.lift_width(2)
        for i in range(count):
            a, b, c, d = (field.rand_elem(rng) for _ in range(4))
            e = rng.randrange(1 << 70)
            image = sum(field.lift(x, width) * field.lift(y, width) for x, y in ((a, b), (c, d)))
            image += field.lift(a, width)
            raw = [rng.randrange(6 * q) - 3 * q for _ in range(rng.randrange(s + 1))]
            ops = {
                "mul": lambda: res(field.mul(a, b)),
                "add": lambda: res(field.add(a, b)),
                "sub": lambda: res(field.sub(a, b)), "neg": lambda: res(field.neg(a)),
                "pow": lambda: res(field.pow(a, e)), "smul": lambda: res(field.smul(c, e)),
                "inv": lambda: res(field.inv(a)), "drop": lambda: res(field.drop(image, width)),
                "coerce": lambda: res(field.coerce(raw)),
                "coerce int": lambda: res(field.coerce(e - (1 << 69))),
                "residues": lambda: field.coerce(res(c)) == c,
            }
            for op, run in ops.items():
                try:
                    value = repr(run())
                except Exception as err:  # a raised error is behaviour too
                    value = f"{type(err).__name__}: {err}"
                out.append(("rings", f"{name} seed={seed} i={i} {op}", value))
        state = repr(rng._rng.getstate()).encode()
        out.append(("rings", f"{name} seed={seed} draws", hashlib.sha256(state).hexdigest()))
        out.append(("rings", f"{name} seed={seed} ring_mults", str(rings.mul_count() - m0)))

    for name, field in (("F_(Q62^1)", rings.ext_field(Q62, 1)), ("F_9", rings.ext_field(3, 2)),
                        ("F_(Q62^2)", rings.ext_field(Q62, 2)),
                        ("F_(101^3)", rings.ext_field(101, 3)), ("F_256", rings.ext_field(2, 8)),
                        ("F_(3^42)", rings.RingSpec("ext_field", q=3, s=42, modulus=(1,) * 43))):
        for seed in (0,) if tiny else range(3):
            ring_ops(name, field, seed, 4 if tiny else 25)

    seeds, op_seeds = ((0,), (0,)) if tiny else (range(4), (0, 1))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in ("example2", "random_z", "cli_multivar"):
            for seed in seeds:
                workdir = tmp / f"{name}-{seed}"
                load = workloads.build(name, seed, 0, tiny, workloads.OracleClock(), workdir)
                for op_seed in op_seeds:
                    for i, op in enumerate(load.ops):
                        key = f"{name} seed={seed} op={i} {op.label} op_seed={op_seed}"
                        args = op.run.args
                        if name == "cli_multivar":
                            argv = [*args[0], "--seed", str(op_seed)]
                            output = argv[argv.index("-o") + 1] if "-o" in argv else None
                            command(key, argv, workdir, output)
                        else:
                            sparse_product(key, *args, op_seed)

        files = ci_inputs.wrapping_pairs()
        if not tiny:
            for make in (ci_inputs.trivariate_pairs, ci_inputs.f256_pair,
                         ci_inputs.extension_pair, ci_inputs.quadratic_pair,
                         ci_inputs.random_pair, ci_inputs.random_pair_128,
                         ci_inputs.large_pair, ci_inputs.small_field_pair,
                         ci_inputs.small_field_pair_2):
                files.update(make())
        workdir = tmp / "ci"
        workdir.mkdir()
        for file_name, text in files.items():
            (workdir / file_name).write_text(text, encoding="utf-8")
        for a_name in sorted(n for n in files if n.endswith("a.poly")):
            stem = a_name[:-len("a.poly")]
            a, b = str(workdir / a_name), str(workdir / f"{stem}b.poly")
            h, naive, bad = (str(workdir / f"{stem}{x}.poly") for x in ("h", "naive", "bad"))
            command(f"ci {stem} mul", ["mul", a, b, "-o", h], workdir, h)
            command(f"ci {stem} mul --naive", ["mul", "--naive", a, b, "-o", naive],
                    workdir, naive)
            command(f"ci {stem} verify", ["verify", a, b, h], workdir)
            Path(bad).write_text(_changed(Path(h).read_text(encoding="utf-8")), encoding="utf-8")
            command(f"ci {stem} verify changed", ["verify", a, b, bad], workdir)
            command(f"ci {stem} estimate", ["estimate", a, b], workdir)
    return out


def _changed(text: str) -> str:
    """A polynomial file with the first coefficient that stays nonzero
    when its first F_q residue (or integer value) is raised by 1."""
    lines = text.splitlines(keepends=True)
    head = lines[0].split()
    q = int(head[1]) if head[0] == "field" else None
    for i, line in enumerate(lines):
        if not line.startswith("term"):
            continue
        _, c, *exps = line.split()
        residues = [int(x) for x in c.split(",")]
        residues[0] += 1
        if q is not None:
            residues[0] %= q
        if any(residues):
            lines[i] = f"term {','.join(map(str, residues))} {' '.join(exps)}\n"
            break
    return "".join(lines)


def digests(records) -> dict:
    """{section: SHA-256 of its records in order}."""
    hashes = {s: hashlib.sha256() for s in SECTIONS}
    for section, key, value in records:
        hashes[section].update(f"{key}\t{value}\n".encode())
    return {s: h.hexdigest() for s, h in hashes.items()}


def records_of(tree: Path, tiny: bool) -> list:
    """The records of tree, from a fresh interpreter."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--tree", str(tree), "--records"]
    if tiny:
        argv.append("--tiny")
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    return [tuple(json.loads(line)) for line in done.stdout.splitlines()]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="checkout whose src/spmul is digested (default: this one)")
    parser.add_argument("--diff", type=Path, metavar="OTHER_TREE",
                        help="also digest OTHER_TREE and print the first differing records")
    parser.add_argument("--tiny", action="store_true", help="the small corpus")
    parser.add_argument("--records", action="store_true",
                        help="print the records as JSON lines instead of digests")
    args = parser.parse_args()
    if args.records:
        for record in _records(args.tree.resolve(), args.tiny):
            print(json.dumps(record))
        return
    mine = records_of(args.tree.resolve(), args.tiny)
    for section, digest in digests(mine).items():
        print(f"{section} {digest}")
    if args.diff is None:
        return
    other = records_of(args.diff.resolve(), args.tiny)
    theirs = digests(other)
    for section, digest in digests(mine).items():
        same = digest == theirs[section]
        print(f"{section}: {'same' if same else 'differs'} ({args.diff}: {theirs[section]})")
        if same:
            continue
        a = [r for r in mine if r[0] == section]
        b = [r for r in other if r[0] == section]
        shown = 0
        for ra, rb in zip(a, b):
            if ra != rb and shown < 3:
                print(f"  {ra[1]}\n    here:  {ra[2][:200]!r}\n    there: {rb[2][:200]!r}")
                shown += 1
        if len(a) != len(b):
            print(f"  {len(a)} records here, {len(b)} there")


if __name__ == "__main__":
    main()
