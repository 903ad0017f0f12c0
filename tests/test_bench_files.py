"""The recorded benchmark results: every BENCH_<pr>.json at the root of the
repository, as `perfbench/baseline.py --out` writes it, covers the benchmark
that BENCHMARK.json declares."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_bench_file_exists():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_bench_file_covers_the_declared_benchmark(path):
    report = json.loads(path.read_text())
    assert re.fullmatch(r"[0-9a-f]{64}", report["facts"]["source_sha256"])
    metrics = [m["name"] for m in DECLARED["end_to_end"]]
    for workload in (w["name"] for w in DECLARED["workloads"]):
        entry = report["workloads"][workload]
        for metric in metrics:
            summary = entry["summary"][metric]
            assert summary["q1"] <= summary["median"] <= summary["q3"], (workload, metric)
        assert entry["runs"] and all(run["failed"] == 0 for run in entry["runs"]), workload
