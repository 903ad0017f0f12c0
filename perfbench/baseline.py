"""Run every workload on seeds 1 to 10 and summarise each end-to-end metric.

    python3 perfbench/baseline.py [--out FILE]

Run from the root of a checkout.  Each run is `run.py --trace 0` in its own
interpreter, one after another, with the `run_seconds` of BENCHMARK.json.
For every workload and metric it prints the median and the spread (distance
between the first and third quartile, as a share of the median), and marks a
spread that exceeds the metric's bound.  With `--out` it also writes the runs,
the summary and the machine facts of the first run as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = range(1, 11)


def one_run(workload: str, seed: int, seconds: int) -> tuple:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed: {done.stderr.strip()}")
    details, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    return details, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    report = {"run_seconds": declared["run_seconds"], "seeds": list(SEEDS),
              "facts": None, "workloads": {}}
    ok = True
    for name in (w["name"] for w in declared["workloads"]):
        runs = []
        for seed in SEEDS:
            t0 = time.perf_counter()
            details, result = one_run(name, seed, declared["run_seconds"])
            if not result["correct"]:
                ok = False
            report["facts"] = report["facts"] or details["facts"]
            runs.append({"seed": seed, "wall_s": time.perf_counter() - t0,
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": {k: m["value"] for k, m in result["metrics"].items()},
                         "figures": details["workload"],
                         "setup": {k: details[k] for k in ("setup_s", "import_s")}})
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v:.6g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        summary = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            summary[metric] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
            flag = "" if metric == "setup_s" or spread <= bound else "  OVER BOUND"
            print(f"{name} {metric}: median {median:.6g} spread {spread:.4f} "
                  f"(bound {bound}){flag}", flush=True)
            ok = ok and bool(metric == "setup_s" or spread <= bound)
        report["workloads"][name] = {"summary": summary, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
