"""Toy-size smoke test of the benchmark.

Runs every workload of BENCHMARK.json at toy sizes, untraced and traced,
in a few seconds each, and checks that the result line names every
metric BENCHMARK.json lists, with its unit.  Also checks that the traced
run's self-check catches a call that bypasses the wrappers, and that the
benchmark refuses to run without the library next to it.

    python3 perfbench/test_smoke.py
    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int, toy: bool = True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0.5", "--trace", str(trace)] + (["--toy"] if toy else [])
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


def _check(workload: str, trace: int) -> None:
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end" if trace == 0 else "per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{workload}: metrics differ from BENCHMARK.json"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if trace == 0:
            assert m["value"] > 0, f"{workload}: {name} is not positive"
    if trace == 1:
        assert "self-check: ok" in proc.stdout, proc.stdout


def test_end_to_end_metrics():
    for workload in WORKLOADS:
        _check(workload, 0)


def test_per_layer_metrics():
    for workload in WORKLOADS:
        _check(workload, 1)


def test_census_catches_unwrapped_call():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import spans
    from spmul import poly, rings
    f = poly.canonicalize([(0, 1), (3, 2)], rings.integers())
    held = poly.derivative  # taken before the wrappers go in, so never wrapped
    found = spans.census(spans.Tracer(), lambda: (poly.derivative(f), held(f)))
    assert found == {"poly.derivative": (2, 1)}, found


def test_fails_without_library():
    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
        proc = _run(bare, WORKLOADS[0], 0, toy=False)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    for test in (test_end_to_end_metrics, test_per_layer_metrics,
                 test_census_catches_unwrapped_call, test_fails_without_library):
        test()
        print(f"{test.__name__}: ok")
