"""Record the outputs the benchmark checks against.

    python3 perfbench/record.py

Writes perfbench/expected/<workload>.json for every workload, covering every
pool entry the runs can visit.  Run it only when the stream is meant to
change, and say so.
"""

import json

from common import (
    BATTERY_BYTES,
    BATTERY_POOL,
    BLOCK_READS,
    CHURN_BYTES,
    CHURN_POOL,
    EXPECTED_DIR,
    EXPERIMENT_POOL,
    READ_BYTES,
    STREAM_BLOCKS,
    STREAM_POOL,
    TRIALS,
    WORKLOADS,
    digest16,
    entropy,
    experiment_seed,
    load_lwerng,
)
from workloads import MODE, hit_counts


def record_stream(lw, name, interval):
    p = lw.default_params()
    digests = []
    for i in range(STREAM_POOL):
        gen = lw.Generator(entropy(lw, name, i), p, interval)
        digests.append([digest16(gen.next_bytes(BLOCK_READS * READ_BYTES))
                        for _ in range(STREAM_BLOCKS)])
    return {"digests": digests}


def record_churn(lw):
    p = lw.default_params()
    return {"digests": [
        digest16(lw.Generator(entropy(lw, "seed_churn", i), p).next_bytes(CHURN_BYTES))
        for i in range(CHURN_POOL)]}


def record_distinguish(lw):
    p = lw.default_params()
    return {"hits": [hit_counts(lw.distinguishing_experiment(TRIALS, p, mode=MODE,
                                                             seed=experiment_seed(i)))
                     for i in range(EXPERIMENT_POOL)]}


def record_battery(lw):
    p = lw.default_params()
    pvalues = []
    for i in range(BATTERY_POOL):
        buf = lw.Generator(entropy(lw, "battery", i), p).next_bytes(BATTERY_BYTES)
        pvalues.append([t.p_value for t in lw.run_battery(buf, 8 * BATTERY_BYTES)])
    return {"pvalues": pvalues}


def main():
    lw = load_lwerng()
    recorders = {
        "stream_default": lambda: record_stream(lw, "stream_default", lw.DEFAULT_RESEED_INTERVAL),
        "stream_bare": lambda: record_stream(lw, "stream_bare", 0),
        "seed_churn": lambda: record_churn(lw),
        "distinguish": lambda: record_distinguish(lw),
        "battery": lambda: record_battery(lw),
    }
    EXPECTED_DIR.mkdir(exist_ok=True)
    for name in WORKLOADS:
        (EXPECTED_DIR / f"{name}.json").write_text(json.dumps(recorders[name]()) + "\n")
        print(f"recorded {name}")


if __name__ == "__main__":
    main()
