#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of spmul.

Run from the root of a source checkout (the ``spmul`` package is imported
from ``src/``, nothing is installed):

    python3 perfbench/run.py --workload example2 --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload verify --seed 1 --seconds 5 --toy

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that gives the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record (environment, instances,
sample counts, ratios, self-checks) goes to ``perfbench/results/``.
See ``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
RESULTS = HERE / "results"

NAMES = ("example2", "random_z", "verify", "cli_multivar")

# printed and recorded, not gated: schoolbook is the reference the speed
# claims are stated against, not something a user of spmul waits for, and
# its memory-bound dict work swings with the host more than the metrics do
REFERENCE = {"naive_s": "s"}

NAIVE_PASSES = 2  # schoolbook passes over one cycle's inputs, after the cycles
WORKER_TIMEOUT_S = 150.0

# Host-speed calibration.  On a shared 2-vCPU host the same pure-Python
# work ran up to 1.8x slower from one minute to the next, in CPU time as
# well as wall time.  A fixed kernel, timed after every operation, tracks
# that drift; a process's times are scaled by (CAL_REF_S / k) ** CAL_EXPONENT,
# k the mean of its kernel timings, and so reported as seconds at the
# reference speed.  A mean, because the host flips between a fast and a
# slow state every few seconds: the median of such bimodal timings jumps
# between the modes.  The exponent is below 1 because the operations feel
# the host state less than the kernel does: measured, from about 0.5 times
# as much (verify) to fully (example2); 0.75 keeps the error left by a
# sustained shift s within s ** 0.25 for all of them.  The kernel is the
# benchmark's own code, so a change to spmul cannot move it.
CAL_REF_S = 0.002
CAL_EXPONENT = 0.75
CAL_P = (1 << 61) - 1


def _die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_spmul() -> None:
    """Put the checkout's src/ first on the path and import spmul from it."""
    sys.path.insert(0, str(SRC))
    try:
        import spmul
    except ImportError as exc:
        _die(f"cannot import spmul from {SRC}: {exc}")
    if Path(spmul.__file__).resolve().parent != (SRC / "spmul").resolve():
        _die(f"spmul came from {spmul.__file__}, not from {SRC}")


def _spec_metrics(section: str) -> dict:
    """Names and units of one metric list of BENCHMARK.json."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        _die(f"cannot read BENCHMARK.json: {exc}")
    return {m["name"]: m["unit"] for m in spec[section]}


# ---------------------------------------------------------------------------
# statistics

def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of n samples beyond it."""
    return max(50, (100 * (n - 10)) // n)


def percentile(values, pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct * len(ordered) / 100))
    return ordered[rank - 1]


def op_seed(seed: int, stream: int, cycle: int, j: int) -> int:
    return (seed * 1_000_003 + stream) * 1_000_003 + cycle * 101 + j


def _kernel() -> int:
    """The calibration work: products mod a 61-bit prime, dict updates
    and a sort, the kinds of work spmul's inner loops do."""
    counts: dict = {}
    pairs = []
    x = 12345
    for _ in range(2000):
        x = x * 1103515245 % CAL_P
        k = x & 511
        counts[k] = counts.get(k, 0) + x
        pairs.append((k, x))
    pairs.sort()
    return len(counts)


def speed_scale(cals) -> float:
    """Factor from a process's measured seconds to the reference speed."""
    return (CAL_REF_S / statistics.fmean(cals)) ** CAL_EXPONENT


def calibrate() -> float:
    """Seconds of the calibration kernel, best of three."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


# ---------------------------------------------------------------------------
# environment

def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "platform": platform.platform(),
            "git_commit": _git_commit(), "seed": seed}


# ---------------------------------------------------------------------------
# the measured phase

class Phase:
    """Runs whole cycles of operations, timing each and checking its output,
    and times the calibration kernel after every operation."""

    def __init__(self, wl, seed: int, stream: int):
        self.wl, self.seed, self.stream = wl, seed, stream
        self.times: list = []  # (cycle, position in cycle, seconds)
        self.naive: list = [[] for _ in wl.ops]  # schoolbook seconds per position
        self.cals: list = []  # calibration kernel seconds
        self.failures: list = []
        self.attempted = 0
        self.traced_ops: list = []  # (first span, end span, seconds, ring mults)

    def run_cycle(self, cycle: int, tracer=None) -> None:
        from spmul import rings
        for j, op in enumerate(self.wl.ops):
            lo = tracer.mark() if tracer else 0
            m0 = rings.mul_count()
            t0 = time.perf_counter()
            try:
                out, err = op.run(op_seed(self.seed, self.stream, cycle, j)), None
            except Exception as exc:  # a raised exception is a failed operation
                out, err = None, exc
            dt = time.perf_counter() - t0
            mults = rings.mul_count() - m0
            if tracer:
                self.traced_ops.append((lo, tracer.mark(), dt, mults))
            self.cals.append(calibrate())
            self.attempted += 1
            self.times.append((cycle, j, dt))
            if err is not None:
                self.failures.append(f"{op.label} (cycle {cycle}): raised {err!r}")
            elif not op.check(out):
                self.failures.append(f"{op.label} (cycle {cycle}): wrong output")

    def naive_pass(self) -> None:
        for j, op in enumerate(self.wl.ops):
            t0 = time.perf_counter()
            op.naive()
            self.naive[j].append(time.perf_counter() - t0)
            self.cals.append(calibrate())

    def seconds(self, cycles) -> list:
        """Operation seconds at the reference speed, of the given cycles."""
        scale = speed_scale(self.cals)
        return [t * scale for c, _, t in self.times if c in cycles]


def run_phase(phase, cycles: int, tracer=None) -> None:
    """Run `cycles` whole cycles.  With a tracer, even cycles are traced
    and odd ones are not, so the two compare under the same warm state."""
    gc.collect()
    for cycle in range(cycles):
        traced = tracer is not None and cycle % 2 == 0
        if traced:
            tracer.install()
        try:
            phase.run_cycle(cycle, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()


# ---------------------------------------------------------------------------
# untraced: fresh measuring processes, one at a time

def worker(args) -> None:
    """One measuring process: build the inputs, say READY (the parent
    times set-up up to here), run the cycles and then the schoolbook
    passes, and print the samples as JSON."""
    import workloads
    t0 = time.perf_counter()
    first_cal = calibrate()
    excluded = time.perf_counter() - t0
    oracle = workloads.OracleClock()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        wl = workloads.build(args.workload, args.seed, args.worker, args.toy, oracle, workdir)
        print(f"READY {excluded + oracle.seconds!r}", flush=True)
        phase = Phase(wl, args.seed, args.worker)
        phase.cals.append(first_cal)
        _, cycles = workloads.plan(args.workload, args.seconds, args.toy)
        run_phase(phase, cycles)
        # before schoolbook runs: the figure covers set-up and the operations
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for _ in range(NAIVE_PASSES):
            phase.naive_pass()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"labels": [op.label for op in wl.ops], "unit": wl.unit,
                      "instances": wl.instances, "cals": phase.cals,
                      "times": phase.times, "naive": phase.naive, "cycles": cycles,
                      "failures": phase.failures, "attempted": phase.attempted,
                      "peak_rss_mb": peak_rss_mb}))


def spawn_worker(args, index: int) -> dict:
    """Run measuring process `index` and time its set-up from the start."""
    cmd = [sys.executable, str(HERE / "run.py"), "--worker", str(index),
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", repr(args.seconds)]
    cmd += ["--toy"] if args.toy else []
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        t1 = time.perf_counter()
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not ready.startswith("READY ") or not rest.strip():
        raise RuntimeError(f"measuring process {index} failed with code {proc.returncode}")
    res = json.loads(rest.strip().splitlines()[-1])
    res["setup_s"] = t1 - t0 - float(ready.split()[1])
    return res


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    import workloads
    record = {"workload": args.workload, "trace": args.trace, "toy": args.toy,
              "seconds": args.seconds, "environment": environment(args.seed),
              "calibration_ref_s": CAL_REF_S, "calibration_exponent": CAL_EXPONENT}
    processes, cycles = workloads.plan(args.workload, args.seconds, args.toy)
    if args.trace == 0:
        workers = [spawn_worker(args, i) for i in range(processes)]
        record.update(op_unit=workers[0]["unit"], ops_per_cycle=len(workers[0]["labels"]),
                      instances=[w["instances"] for w in workers])
        result = _end_to_end(workers, record)
        attempted = sum(w["attempted"] for w in workers)
        failures = [f for w in workers for f in w["failures"]]
    else:
        import spans
        oracle = workloads.OracleClock()
        workdir = WORK / f"{args.workload}-{os.getpid()}"
        cycles = max(3, (processes * cycles) | 1)  # odd: traced cycles 0, 2, ..., untraced 1, 3, ...
        try:
            wl = workloads.build(args.workload, args.seed, 0, args.toy, oracle, workdir)
            record.update(op_unit=wl.unit, instances=[wl.instances], ops_per_cycle=len(wl.ops))
            tracer = spans.Tracer()
            phase = Phase(wl, args.seed, 0)
            run_phase(phase, cycles, tracer)
            # one more cycle, on the toy instances since the trace hook is
            # slow, to check that every call goes through a wrapper
            toy = Phase(workloads.build(args.workload, args.seed, 0, True, oracle,
                                        workdir / "census"), args.seed, 0)
            unwrapped = spans.census(tracer, lambda: toy.run_cycle(0, tracer))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        result = _per_layer(wl, phase, cycles, tracer, spans, record, unwrapped)
        attempted = phase.attempted + toy.attempted
        failures = phase.failures + toy.failures

    failed = len(failures)
    record.update(attempted=attempted, failed=failed, failed_frac=failed / attempted,
                  failures=failures[:20])
    print(f"failed_frac = {failed / attempted:.6g} (failed operations / attempted; "
          f"{failed} of {attempted})")
    for msg in failures[:5]:
        print(f"  FAILED {msg}")
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    print(f"record written to {out.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


def _time_metrics(workers, kinds: int, norm: bool) -> tuple:
    """The timed end-to-end metrics, at the reference speed (`norm`) or
    as measured, and each operation kind's median and schoolbook seconds."""
    for w in workers:
        w["scale"] = speed_scale(w["cals"]) if norm else 1.0
    times = [t * w["scale"] for w in workers for _, _, t in w["times"]]
    # the samples cluster by operation kind, and with an even number of
    # kinds the pooled median falls in the gap between two clusters, where
    # it hinges on two extreme samples; the median of the kinds' medians
    # is the same statistic taken at the clusters' centres
    kind_p50 = [statistics.median(t * w["scale"] for w in workers for _, k, t in w["times"]
                                  if k == j) for j in range(kinds)]
    naive = [statistics.median(t * w["scale"] for w in workers for t in w["naive"][j])
             for j in range(kinds)]
    rates = [len(w["times"]) / sum(t * w["scale"] for _, _, t in w["times"]) for w in workers]
    values = {
        "setup_s": statistics.median(w["setup_s"] * w["scale"] for w in workers),
        "op_p50_s": statistics.median(kind_p50),
        "op_tail_s": percentile(times, tail_percentile(len(times))),
        "ops_per_s": statistics.median(rates),
        "naive_s": sum(naive),
    }
    return values, kind_p50, naive


def _end_to_end(workers, record) -> dict:
    labels, unit = workers[0]["labels"], workers[0]["unit"]
    values, kind_p50, naive = _time_metrics(workers, len(labels), True)
    measured, _, _ = _time_metrics(workers, len(labels), False)
    values["peak_rss_mb"] = measured["peak_rss_mb"] = statistics.median(
        w["peak_rss_mb"] for w in workers)
    n = sum(len(w["times"]) for w in workers)
    pct = tail_percentile(n)
    cycles = sum(w["cycles"] for w in workers)
    n_naive = sum(len(w["naive"][0]) for w in workers)
    notes = {
        "setup_s": f"median of {len(workers)} fresh processes, start to inputs ready",
        "op_p50_s": f"median over {len(labels)} operation kinds of each kind's median; "
                    f"{n} samples, one per {unit}, {cycles} cycles in {len(workers)} processes",
        "op_tail_s": f"p{pct} of {n} samples, {n - math.ceil(pct * n / 100)} beyond it",
        "ops_per_s": f"median over {len(workers)} processes of operations / operation time",
        "naive_s": f"reference, not gated: schoolbook on the inputs of the {len(labels)} "
                   f"operations of a cycle, sum of per-operation medians of {n_naive} reps",
        "peak_rss_mb": f"median over {len(workers)} processes of ru_maxrss, "
                       f"read before schoolbook runs",
    }
    units = _spec_metrics("end_to_end") | REFERENCE
    missing = [name for name in units if name not in values]
    if missing:
        _die(f"BENCHMARK.json names metrics this run does not make: {missing}")
    print(f"times are at the reference speed (calibration kernel {CAL_REF_S * 1e3:g} ms); "
          f"as measured in brackets")
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit} [{measured[name]:.6g}]  ({notes[name]})")
    ratios = {}
    print("sparse / schoolbook per instance (derived, not gated):")
    for j, label in enumerate(labels):
        ratios[label] = {"op_p50_s": kind_p50[j], "naive_s": naive[j],
                         "ratio": kind_p50[j] / naive[j]}
        print(f"  {label:24s} {kind_p50[j]:10.5f} s / {naive[j]:10.5f} s = "
              f"{kind_p50[j] / naive[j]:9.2f}")
    record.update(samples=n, cycles=cycles, tail_percentile=pct, ratios=ratios,
                  metric_notes=notes,
                  processes=[{"setup_s": w["setup_s"], "peak_rss_mb": w["peak_rss_mb"],
                              "cycles": w["cycles"],
                              "calibration_s": statistics.fmean(w["cals"]),
                              "calibrations": w["cals"]}
                             for w in workers],
                  samples_by_process=[w["times"] for w in workers],
                  metrics={k: _metric(values[k], u) for k, u in units.items()},
                  metrics_as_measured={k: _metric(measured[k], u) for k, u in units.items()})
    return {name: _metric(values[name], unit)
            for name, unit in _spec_metrics("end_to_end").items()}


def _per_layer(wl, phase, cycles, tracer, spans, record, unwrapped) -> dict:
    traced_ops = phase.traced_ops
    layers, checks = spans.layer_metrics(tracer.spans, traced_ops)
    traced = statistics.median(phase.seconds(range(2, cycles, 2)))
    plain = statistics.median(phase.seconds(range(1, cycles, 2)))
    layers["trace.op_p50_s"] = traced
    layers["trace.overhead_s"] = traced - plain
    layers["trace.remainder_frac"] = checks["remainder_frac_s"]
    checks["unwrapped_calls"] = unwrapped
    checks["not_reached"] = spans.missing(tracer.spans, wl.reaches)
    print(f"traced op_p50_s = {traced:.6g} s, untraced = {plain:.6g} s, "
          f"overhead = {traced - plain:.4g} s ({cycles} cycles, even ones traced; "
          f"at the reference speed)")
    problems = [f"{key}: {calls} calls, {seen} through a wrapper"
                for key, (calls, seen) in unwrapped.items()]
    problems += [f"never called: {key}" for key in checks["not_reached"]]
    print(f"self-check: {'ok' if not problems else 'FAILED: ' + '; '.join(problems)}")
    print(f"largest self time: {checks['largest_self_s']}; share of ring mults under "
          f"eval_cyclic_product/eval_sparse: {checks['eval_share_of_ring_mults']:.3f}; "
          f"untraced remainder: {checks['remainder_frac_s']:.4f} of op time")
    units = _spec_metrics("per_layer")
    missing = [name for name in units if name not in layers]
    if missing:
        _die(f"BENCHMARK.json names metrics this run does not make: {missing}")
    for name, unit in units.items():
        print(f"{name} = {layers[name]:.6g} {unit}")
    record.update(samples=len(phase.times), cycles=cycles, traced_ops=len(traced_ops),
                  layers=layers, checks=checks)
    RESULTS.mkdir(exist_ok=True)
    span_file = RESULTS / f"{wl.name}-seed{record['environment']['seed']}-spans.jsonl"
    with open(span_file, "w", encoding="utf-8") as fh:
        for lo, hi, dt, mults in traced_ops:
            fh.write(json.dumps({"op_s": dt, "op_ring_mults": mults, "first_span": lo,
                                 "spans": tracer.spans[lo:hi]}) + "\n")
    return {name: _metric(layers[name], unit) for name, unit in units.items()}


# ---------------------------------------------------------------------------
# all workloads, one fresh process each

def run_all(args) -> int:
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        cmd += ["--toy"] if args.toy else []
        print(f"=== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"=== {name} exited with code {proc.returncode}")
            return 1
        results[name] = json.loads(lines[-1])
    print("=== summary")
    for name, res in results.items():
        row = ", ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in res["metrics"].items()
                        if args.trace == 0 or k.startswith("trace."))
        print(f"{name}: correct={res['correct']} failed={res['failed']}/{res['attempted']}; {row}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spmul benchmark")
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy sizes: every workload in seconds")
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    _import_spmul()
    if args.worker is not None:
        worker(args)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
