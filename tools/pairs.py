"""Run the benchmark in two checkouts in alternating pairs and judge a claim.

Usage: python tools/pairs.py PARENT CHANGE --workload W [--pairs 10]
       [--seconds 14] [--seed0 N]

PARENT and CHANGE are checkout roots.  Pair i runs

    python3 perfbench/run.py --workload W --seed N+i --seconds S --trace 0

in each of them, the parent first in even pairs and the change first in odd
ones.  Every run's end-to-end metrics are printed with `correct` and
`failed`; then, per metric, the medians, the parent's quartiles, the pairs
the change won and whether a gain may be claimed: at least ten pairs ran,
the change won at least nine tenths of them (ties count for neither) and
the medians differ, in the better direction, by more than the parent's
quartile spread.  Then comes the no-regression verdict against the metric's
bound, a fraction of the parent's median (see `verdict`).  Last, the medians
of the workload's own figures unscaled, from each run's details line.

The metric names, directions and bounds are read from the BENCHMARK.json
next to this file's directory, which the tool does not change.  Only the
standard library is used.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def summary(parent: list, change: list, better: str) -> dict:
    """Medians, the parent's quartiles, wins and the verdict of one metric.

    `parent[i]` and `change[i]` are pair i's values; `better` is "higher"
    or "lower".  Quartiles are `statistics.quantiles` cut points (its
    default, exclusive method).
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two or more pairs of equal length")
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    med_p, med_c = statistics.median(parent), statistics.median(change)
    gain = sign * (med_c - med_p)
    return {"parent_median": med_p, "change_median": med_c, "parent_q1": q1,
            "parent_q3": q3, "wins": wins, "pairs": len(parent),
            "claim_met": len(parent) >= 10 and 10 * wins >= 9 * len(parent)
            and gain > q3 - q1}


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    """The no-regression verdict of one metric with relative bound `bound`.

    "unresolved" when the parent's quartile spread is wider than the bound
    and not every change run beats every parent run; else "worse by more
    than bound" when the change's median is worse than the parent's by more
    than the bound; else "within bound".  Both widths are fractions of the
    parent's median.
    """
    sign = 1 if better == "higher" else -1
    q1, _, q3 = statistics.quantiles(parent, n=4)
    med_p = statistics.median(parent)
    beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
    if (q3 - q1) / med_p > bound and not beats_all:
        return "unresolved"
    if sign * (med_p - statistics.median(change)) / med_p > bound:
        return "worse by more than bound"
    return "within bound"


def run_once(root: str, workload: str, seed: int, seconds: float) -> tuple:
    """The result line of one harness run in checkout `root`, and the raw
    (unscaled) workload figures of its details line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: run.py exited {proc.returncode}: {proc.stderr.strip()}")
    details, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return result, details["workload"]["raw"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=14)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args(argv)
    metrics = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    runs = {"parent": [], "change": []}
    raws = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            res, raw = run_once(getattr(args, side), args.workload, seed, args.seconds)
            runs[side].append(res)
            raws[side].append(raw)
            values = " ".join(f"{name}={res['metrics'][name]['value']:.4g}" for name in metrics)
            print(f"pair {i} seed {seed} {side:6s} {values} correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", flush=True)
    for name, m in metrics.items():
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        s = summary(parent, change, m["better"])
        print(f"{name} ({m['better']} is better): median {s['parent_median']:.4g} -> "
              f"{s['change_median']:.4g}, parent quartiles {s['parent_q1']:.4g}-"
              f"{s['parent_q3']:.4g}, change won {s['wins']}/{s['pairs']}, "
              f"claim {'met' if s['claim_met'] else 'not met'}, "
              f"{verdict(parent, change, m['better'], m['bound'])} ({m['bound']:g})")
    for name in raws["parent"][0]:
        medians = [statistics.median(r[name] for r in raws[side]) for side in ("parent", "change")]
        print(f"raw {name}: median {medians[0]:.4g} -> {medians[1]:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
