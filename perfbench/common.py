"""Shared pieces of the benchmark: where the library lives, how inputs are
derived from the workload seed, and the recorded expectations.

Every input is derived through SHAKE-256.  Each workload has a pool of
entropy inputs whose outputs were recorded once (`record.py`); the workload
seed picks the order in which a run walks the pool, so every byte a run
measures can be checked exactly against the recording.
"""

import hashlib
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED_DIR = BENCH_DIR / "expected"

WORKLOADS = ("stream_default", "stream_bare", "seed_churn", "distinguish", "battery")

READ_BYTES = 4096           # one stream operation: a 4 KiB next_bytes call
BLOCK_READS = 256           # reads per 1 MiB block (8 reseed epochs)
STREAM_POOL = 32            # recorded keys per stream workload
STREAM_BLOCKS = 8           # recorded MiB per stream key
CHURN_POOL = 2048           # recorded keys for seed_churn
CHURN_BYTES = 32
EXPERIMENT_POOL = 64        # recorded distinguishing-experiment seeds
BATTERY_POOL = 32           # recorded battery buffers
TRIALS = 1000               # smallest trial count the experiment accepts
BATTERY_BYTES = 1 << 19     # 4 Mbit battery buffer, built in set-up
PROBE_LABEL = "probe"       # fixed inputs of the traced layer probe


class BenchError(Exception):
    """The benchmark cannot run here (missing library or expectations)."""


class HarnessError(BenchError):
    """A count that must repeat exactly did not."""


def load_lwerng():
    """Import lwerng from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "lwerng" / "__init__.py").is_file():
        raise BenchError(f"no lwerng sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lwerng

    if not Path(lwerng.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"lwerng imported from {lwerng.__file__}, not {SRC}")
    return lwerng


def shake(*parts, nbytes: int = 32) -> bytes:
    return hashlib.shake_256("/".join(map(str, parts)).encode()).digest(nbytes)


def entropy(lwerng, label: str, index: int):
    """Pool entry `index` of `label` as a 32-byte entropy input."""
    return lwerng.EntropyInput(shake("lwerng-perfbench", label, index))


def experiment_seed(index: int) -> int:
    return int.from_bytes(shake("lwerng-perfbench", "experiment", index, nbytes=8), "big")


def order(label: str, seed: int, size: int) -> list:
    """The seed's permutation of a pool of `size` entries."""
    return sorted(range(size), key=lambda i: shake("order", label, seed, i))


def digest16(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def load_expected(workload: str) -> dict:
    path = EXPECTED_DIR / f"{workload}.json"
    if not path.is_file():
        raise BenchError(f"missing recorded outputs {path}; run record.py")
    return json.loads(path.read_text())
