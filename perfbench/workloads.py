"""The five workloads.  Each drives only the public API of lwerng.

A workload builds its inputs in `setup()`, then the harness times `op()`
repeatedly and hands every result to `after()`, which checks it against the
recorded outputs and returns the number of failed operations.  Everything in
`after()` is outside the timed region.  `block` is the number of operations
per throughput block; the harness always finishes a started block, so every
timed byte is checked.  `window` (a divisor of `block`) is the number of
operations between two runs of the `reference` loop (see reference.py).
"""

import hashlib
import itertools
import math

from common import (
    BATTERY_BYTES,
    BATTERY_POOL,
    BLOCK_READS,
    CHURN_BYTES,
    CHURN_POOL,
    EXPERIMENT_POOL,
    READ_BYTES,
    STREAM_BLOCKS,
    STREAM_POOL,
    TRIALS,
    digest16,
    entropy,
    experiment_seed,
    load_expected,
    order,
)

MODE = "hiding_vs_uniform"


class StreamWorkload:
    """One generator read in 4 KiB calls; `interval` is the reseed interval.

    The run walks the recorded keys in the seed's order, 8 MiB per key.  A
    key switch builds the next generator outside the timed region.
    """

    block = BLOCK_READS
    window = 32  # 128 KiB: one reseed epoch at the default interval
    reference = "python"

    def __init__(self, lw, name: str, seed: int, interval: int):
        self.lw = lw
        self.name = name
        self.interval = interval
        self.expected = load_expected(name)["digests"]
        self.keys = itertools.cycle(order(name, seed, STREAM_POOL))
        self.reads = 0
        self.units = []  # (reseeds, bytes) per 1 MiB block

    def setup(self):
        self.params = self.lw.default_params()
        self._next_key()

    def _next_key(self):
        self.key = next(self.keys)
        self.gen = self.lw.Generator(entropy(self.lw, self.name, self.key),
                                     self.params, self.interval)
        self.block_no = 0
        self.generation_mark = 0
        self.hash = hashlib.sha256()

    def op(self):
        return self.gen.next_bytes(READ_BYTES)

    def after(self, out) -> int:
        self.hash.update(out)
        self.reads += 1
        if self.reads % BLOCK_READS:
            return 0
        ok = self.hash.hexdigest()[:16] == self.expected[self.key][self.block_no]
        self.units.append((self.gen.generation - self.generation_mark,
                           BLOCK_READS * READ_BYTES))
        self.generation_mark = self.gen.generation
        self.block_no += 1
        self.hash = hashlib.sha256()
        if self.block_no == STREAM_BLOCKS:
            self._next_key()
        return 0 if ok else BLOCK_READS

    def named(self, summary) -> dict:
        return {
            "stream_mbit_s": summary["ops_per_s"] * READ_BYTES * 8 / 1e6,
            "read_ms_p50": summary["op_ms_p50"],
            "read_ms_p99": summary["op_ms_p99"],
        }


class SeedChurn:
    """A fresh default-interval Generator per key, each reading 32 bytes.

    A block is one key, so a burst of contention spoils one rate sample,
    not the whole block it falls in.
    """

    block = 1
    window = 1
    reference = "python"

    def __init__(self, lw, seed: int):
        self.lw = lw
        self.expected = load_expected("seed_churn")["digests"]
        self.seed = seed
        self.units = []  # (reseeds, bytes) per key

    def setup(self):
        self.params = self.lw.default_params()
        self.inputs = itertools.cycle(
            [(i, entropy(self.lw, "seed_churn", i))
             for i in order("seed_churn", self.seed, CHURN_POOL)])

    def op(self):
        i, ent = next(self.inputs)
        gen = self.lw.Generator(ent, self.params)
        return i, gen, gen.next_bytes(CHURN_BYTES)

    def after(self, out) -> int:
        i, gen, data = out
        self.units.append((gen.generation, len(data)))
        return 0 if digest16(data) == self.expected[i] else 1

    def named(self, summary) -> dict:
        return {
            "keys_per_s": summary["ops_per_s"],
            "key_ms_p50": summary["op_ms_p50"],
            "key_ms_p99": summary["op_ms_p99"],
        }


class Distinguish:
    """One operation is a distinguishing experiment at TRIALS trials, on the
    seed's walk through the recorded experiment seeds."""

    block = 1
    window = 1
    reference = "ntt"

    def __init__(self, lw, seed: int):
        self.lw = lw
        self.expected = load_expected("distinguish")["hits"]
        self.experiments = itertools.cycle(order("experiment", seed, EXPERIMENT_POOL))
        self.units = []

    def setup(self):
        self.params = self.lw.default_params()

    def op(self):
        i = next(self.experiments)
        return i, self.lw.distinguishing_experiment(
            TRIALS, self.params, mode=MODE, seed=experiment_seed(i))

    def after(self, out) -> int:
        i, report = out
        return 0 if hit_counts(report) == self.expected[i] else 1

    def named(self, summary) -> dict:
        return {"distinguish_trials_s": summary["ops_per_s"] * TRIALS}


class Battery:
    """One operation is `run_battery` over a 4 Mbit buffer built in set-up
    from the seed's pick of the recorded buffer keys."""

    block = 1
    window = 1
    reference = "bits"

    def __init__(self, lw, seed: int):
        self.lw = lw
        self.key = order("battery", seed, BATTERY_POOL)[0]
        self.expected = load_expected("battery")["pvalues"][self.key]
        self.units = []  # (reseeds, bytes) of the buffer

    def setup(self):
        self.params = self.lw.default_params()
        gen = self.lw.Generator(entropy(self.lw, "battery", self.key), self.params)
        self.buffer = gen.next_bytes(BATTERY_BYTES)
        self.units.append((gen.generation, BATTERY_BYTES))

    def op(self):
        return self.lw.run_battery(self.buffer, 8 * BATTERY_BYTES)

    def after(self, tests) -> int:
        ok = all(math.isclose(t.p_value, want, rel_tol=1e-9, abs_tol=0.0)
                 for t, want in zip(tests, self.expected, strict=True))
        return 0 if ok else 1

    def named(self, summary) -> dict:
        return {"battery_mbit_s": summary["ops_per_s"] * 8 * BATTERY_BYTES / 1e6}


def hit_counts(report) -> list:
    """Exact hits of both arms, recovered from the reported hit rates."""
    t = report.trials
    return ([round(r.hit_rate_a * t) for r in report.results]
            + [round(r.hit_rate_b * t) for r in report.results])


def make(lw, name: str, seed: int):
    if name == "stream_default":
        return StreamWorkload(lw, name, seed, lw.DEFAULT_RESEED_INTERVAL)
    if name == "stream_bare":
        return StreamWorkload(lw, name, seed, 0)
    if name == "seed_churn":
        return SeedChurn(lw, seed)
    if name == "distinguish":
        return Distinguish(lw, seed)
    if name == "battery":
        return Battery(lw, seed)
    raise ValueError(f"unknown workload {name!r}")
