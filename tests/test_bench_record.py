"""BENCH_workloads.json, the committed summary of one full benchmark run,
holds every workload and end-to-end metric that BENCHMARK.json declares."""

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str):
    return json.loads((ROOT / name).read_text(encoding="utf-8"))


def test_record_holds_every_workload_and_metric():
    spec, record = _load("BENCHMARK.json"), _load("BENCH_workloads.json")
    assert record["command"].split()[:2] == spec["command"]
    assert "--workload all" in record["command"] and "--trace 0" in record["command"]
    assert record["python"].split(".")[0] == str(sys.version_info.major)
    assert isinstance(record["cpu_count"], int) and record["cpu_count"] >= 1
    summary = record["summary"]
    assert set(summary) == {w["name"] for w in spec["workloads"]}
    for name, res in summary.items():
        assert res["correct"] is True and res["failed"] == 0 < res["attempted"], name
        for metric in spec["end_to_end"]:
            got = res["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"], (name, metric["name"])
            assert isinstance(got["value"], float) and math.isfinite(got["value"]), (name, metric)
            assert got["value"] > 0, (name, metric["name"])
