"""Layered benchmark of lwerng.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its `src/`.
Workloads (see BENCHMARK.json for why each exists):

  stream_default  one Generator at the default reseed interval, 4 KiB reads
  stream_bare     the same reads at reseed_interval=0
  seed_churn      a fresh Generator per key, 32 bytes each
  distinguish     distinguishing experiment, mode hiding_vs_uniform
  battery         statistical battery over a buffer built in set-up

Every workload is a loop of operations (a 4 KiB read, a key, an experiment
or a battery pass) timed in whole blocks for `--seconds`.  Each block is followed by the
reference loop, and every time is reported scaled to the reference machine
speed (reference.py); the raw figures are in the details line.  With
`--trace 0` it reports the end-to-end metrics of BENCHMARK.json; with
`--trace 1` it measures half the time untraced and half traced, then runs the
layer probe, and reports the per-layer metrics.  Every output is checked
against `expected/`; a mismatch counts as a failed operation.  The
second-to-last stdout line holds the machine facts and the workload's own
figures; the last line is the result.
"""

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import reference
from common import BENCH_DIR, ROOT, SRC, WORKLOADS, BenchError, HarnessError, load_lwerng

REF_SHARE = 0.1  # reference-loop time per window, as a share of the window's time
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120


def measure(w, seconds: float, rec=None):
    """Time w.op() in whole blocks until `seconds` have passed.

    After every window of `w.window` operations the workload's reference
    loop runs for a tenth of the window's time and gives the window's scale
    (see reference.py).  Returns the raw latency of every operation, the
    scale of every window and the failed count.  With a tracing recorder,
    lwerng calls made by the checks between operations are kept apart from
    the operations' own spans.
    """
    between = rec.between if rec is not None else contextlib.nullcontext
    lat = []
    scales = []
    failed = 0
    deadline = time.perf_counter() + seconds
    while not lat or len(lat) % w.block or time.perf_counter() < deadline:
        window_s = 0.0
        for _ in range(w.window):
            t0 = time.perf_counter()
            out = w.op()
            dt = time.perf_counter() - t0
            lat.append(dt)
            window_s += dt
            with between():
                failed += w.after(out)
        scales.append(reference.scale(w.reference, REF_SHARE * window_s))
    return lat, scales, failed


def p99(xs) -> float:
    return statistics.quantiles(xs, n=100, method="inclusive")[98] if len(xs) > 1 else xs[0]


def summarize(w, lat, scales) -> dict:
    """Median of per-block rates, and median and p99 latency per operation,
    in reference seconds.  Pass scales of 1.0 for the raw figures."""
    ref = [x * scales[i // w.window] for i, x in enumerate(lat)]
    rates = [w.block / sum(ref[i:i + w.block]) for i in range(0, len(ref), w.block)]
    return {
        "ops_per_s": statistics.median(rates),
        "op_ms_p50": statistics.median(ref) * 1e3,
        "op_ms_p99": p99(ref) * 1e3,
    }


def figures(w, lat, scales) -> dict:
    """The workload's own figures, scaled and raw, with the sample count."""
    raw = [1.0] * len(scales)
    return {
        "scaled": w.named(summarize(w, lat, scales)),
        "raw": w.named(summarize(w, lat, raw)),
        "machine_speed": statistics.median(scales),
        "operations": len(lat),
    }


def setup_in_fresh_interpreter(name: str, seed: int):
    """(wall s, import s) of a new interpreter that imports lwerng, calls
    default_params() and builds the workload's inputs."""
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_child.py"), name, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise BenchError(f"set-up failed: {done.stderr.strip()}")
    return wall, json.loads(done.stdout.splitlines()[-1])["import_s"]


def reseeds_per_mib(w) -> float:
    """Reseeds per MiB of the workload's stream output; must not vary."""
    rates = {reseeds * (1 << 20) / nbytes for reseeds, nbytes in w.units}
    if len(rates) > 1:
        raise HarnessError(f"reseeds per MiB drifted: {sorted(rates)}")
    return rates.pop() if rates else 0.0


def machine_facts(name: str, seed: int) -> dict:
    import hashlib

    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "lwerng").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "workload": name,
        "seed": seed,
    }


def run(lw, name: str, seed: int, seconds: float, trace: bool,
        setup_repeats: int = SETUP_REPEATS):
    """(result, details) of one run; the result holds the declared metrics."""
    import tracing
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if trace else "end_to_end"]}

    setups = []
    for _ in range(setup_repeats):
        wall, import_s = setup_in_fresh_interpreter(name, seed)
        k = reference.interpreter_scale()
        setups.append((wall, import_s, k))
    w = workloads.make(lw, name, seed)
    w.setup()
    details = {"facts": machine_facts(name, seed),
               "reference": {"loop": w.reference,
                             "unit_s": {k: u for k, (_, u, _) in reference.LOOPS.items()},
                             "interpreter_unit_s": reference.INTERPRETER_UNIT_S},
               "setup_s": {"scaled": [s * k for s, _, k in setups],
                           "raw": [s for s, _, _ in setups]},
               "import_s": {"scaled": [i * k for _, i, k in setups],
                            "raw": [i for _, i, _ in setups]}}

    if not trace:
        lat, scales, failed = measure(w, seconds)
        values = dict(summarize(w, lat, scales),
                      setup_s=statistics.median(details["setup_s"]["scaled"]))
        details["workload"] = figures(w, lat, scales)
    else:
        lat_u, scales_u, failed_u = measure(w, seconds / 2)
        untraced = summarize(w, lat_u, scales_u)
        details["untraced"] = figures(w, lat_u, scales_u)
        probe = tracing.Probe(lw)
        t0 = time.perf_counter()
        step_s, bits_per_step = probe.steps()
        step_s *= reference.scale("python", REF_SHARE * (time.perf_counter() - t0))
        rec = tracing.Recorder()
        with tracing.instrument(rec):
            lat_t, scales_t, failed_t = measure(w, seconds / 2, rec)
            rec.phase = "probe"
            t0 = time.perf_counter()
            probe.run_layers()
            probe_s = time.perf_counter() - t0
        traced = summarize(w, lat_t, scales_t)
        details["traced"] = figures(w, lat_t, scales_t)
        lat, failed = lat_u + lat_t, failed_u + failed_t
        values = tracing.layer_metrics(rec, sum(lat_t), {
            "workload": statistics.median(scales_t),
            "probe": reference.scale("python", REF_SHARE * probe_s)})
        values.update({
            "import.lwerng_s": statistics.median(details["import_s"]["scaled"]),
            "lfsr.step_us": step_s * 1e6,
            "lfsr.raw_bits_per_step": bits_per_step,
            "trace.overhead_share": 1.0 - traced["ops_per_s"] / untraced["ops_per_s"],
        })
    reseeds = reseeds_per_mib(w)
    if trace:
        values["stream.reseeds"] = reseeds

    details["failed_frac"] = failed / len(lat)
    result = {
        "correct": failed == 0,
        "attempted": len(lat),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    return result, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        lw = load_lwerng()
        result, details = run(lw, args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
