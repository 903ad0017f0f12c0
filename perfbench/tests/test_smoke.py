"""Tiny-size runs of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((common.ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = ("polyring.ntt_calls_per_hide", "polyring.inv_ntt_calls_per_hide",
                "lfsr.raw_bits_per_step", "stream.reseeds")


@pytest.fixture(scope="module")
def lw():
    return common.load_lwerng()


def tiny_run(lw, name, seed, trace):
    result, details = run.run(lw, name, seed, seconds=0.05, trace=trace, setup_repeats=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert details["failed_frac"] == 0.0
    section = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in section}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    json.dumps(result, allow_nan=False)
    return result["metrics"]


def test_declared_workloads_match_harness():
    assert tuple(w["name"] for w in DECLARED["workloads"]) == common.WORKLOADS


@pytest.mark.parametrize("name", common.WORKLOADS)
def test_end_to_end_run(lw, name):
    metrics = tiny_run(lw, name, seed=1, trace=False)
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("name,reseeds", [
    ("stream_default", 8.0), ("stream_bare", 0.0), ("seed_churn", 0.0),
    ("distinguish", 0.0), ("battery", 8.0)])
def test_traced_counts_repeat_exactly(lw, name, reseeds):
    first = tiny_run(lw, name, seed=1, trace=True)
    second = tiny_run(lw, name, seed=2, trace=True)
    for key in EXACT_COUNTS:
        assert first[key]["value"] == second[key]["value"], key
    assert first["polyring.ntt_calls_per_hide"]["value"] == 20
    assert first["polyring.inv_ntt_calls_per_hide"]["value"] == 4
    assert first["stream.reseeds"]["value"] == reseeds


def test_times_scale_with_the_reference():
    class Workload:
        block = 4
        window = 2

    lat = [0.001, 0.002, 0.001, 0.004] * 2
    raw = run.summarize(Workload, lat, [1.0] * 4)
    half = run.summarize(Workload, lat, [0.5] * 4)
    assert half["ops_per_s"] == pytest.approx(2 * raw["ops_per_s"])
    assert half["op_ms_p50"] == pytest.approx(raw["op_ms_p50"] / 2)
    assert half["op_ms_p99"] == pytest.approx(raw["op_ms_p99"] / 2)
    for kind in reference.LOOPS:
        assert 0.0 < reference.scale(kind, 0.0) < math.inf
    assert 0.0 < reference.interpreter_scale() < math.inf


def test_changed_output_counts_as_failed(lw):
    w = workloads.make(lw, "seed_churn", 1)
    w.setup()
    i, gen, data = w.op()
    assert w.after((i, gen, data)) == 0
    assert w.after((i, gen, bytes(len(data)))) == 1


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(DECLARED))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream_bare",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
