"""Reference loops: fixed work that gauges how fast the machine runs at the
moment.

On a shared host the same code runs up to twice as fast or as slow from one
minute to the next, with no steal time showing, because neighbours share the
cores and caches.  Raw times from two runs then differ by more than any
change worth measuring.  So the harness times a reference loop after every
window of operations and scales the window's times by
`unit_s / (time of one unit now)`: every figure is reported in seconds of a
machine on which one unit takes `unit_s`.

Contention slows interpreted code and array code of different sizes by
different amounts, so there are three loops and each workload uses the one
whose work is like its own:

* `python`: shifts and masks on 256-bit integers (the register machine),
  modular arithmetic on lists of 256 coefficients and SHAKE-256
  (concealment).
* `ntt`: butterfly stages with products reduced through a float reciprocal
  over a (4096, 256) int64 array, 8 MB like the distinguishing experiment's
  batches.
* `bits`: unpacking, pair counts, run counts, block means and a lag-1 word
  product over a 4 Mbit buffer, whose int64 temporaries (32 MB) stream
  through memory as the battery's do.

Set-up is timed in fresh interpreters, where starting up and importing
numpy and scipy dominate, so its reference is another kind of work:
`interpreter_scale()` times a fresh interpreter that imports just those.

None of them calls lwerng, so a change to the library moves the scaled
figures by its full effect.
"""

import hashlib
import subprocess
import sys
import time

import numpy as np

# Wall time of the interpreter reference on the same host as LOOPS below.
INTERPRETER_UNIT_S = 0.5
INTERPRETER_TIMEOUT_S = 120
_M256 = (1 << 256) - 1
_Q = 8380417


def python_unit() -> int:
    """One unit of interpreted work; returns a value so none of it is skipped."""
    x = 0x123456789ABCDEF0FEDCBA9876543210 | (1 << 255)
    y = 0x0F0F0F0F0F0F0F0F0F0F
    acc = 0
    for i in range(400):
        s = i % 29 + 1
        m = (1 << s) - 1
        lo = x & m
        x = ((x >> s) | ((lo ^ y & m) << (256 - s))) & _M256
        y ^= x >> 3
        acc ^= lo
    coeffs = list(range(1, 257))
    for _ in range(6):
        coeffs = [(c * 1753 + acc) % _Q for c in coeffs]
        acc = sum(coeffs) % _Q
        acc ^= hashlib.shake_256(acc.to_bytes(4, "little")).digest(64)[0]
    return acc


_NTT_ROWS = 4096
_NTT_HALVES = (128, 64, 32, 16, 8, 4, 2, 1)
_NTT_RNG = np.random.default_rng(12345)
_NTT_IN = _NTT_RNG.integers(0, _Q, size=(_NTT_ROWS, 256), dtype=np.int64)
_NTT_ZETAS = [_NTT_RNG.integers(1, _Q, size=(256 // (2 * h), 1), dtype=np.int64)
              for h in _NTT_HALVES]


def ntt_unit() -> int:
    """One unit of butterfly work on int64 arrays; returns a value so none of
    it is skipped."""
    out = _NTT_IN.copy()
    for half, zs in zip(_NTT_HALVES, _NTT_ZETAS):
        x = out.reshape(_NTT_ROWS, 256 // (2 * half), 2, half)
        f0 = x[:, :, 0, :].copy()
        t = x[:, :, 1, :] * zs
        t -= (t * (1.0 / _Q)).astype(np.int64) * _Q
        t += _Q * (t < 0)
        hi = f0 + t
        hi -= _Q * (hi >= _Q)
        lo = f0 - t
        lo += _Q * (lo < 0)
        x[:, :, 0, :] = hi
        x[:, :, 1, :] = lo
    return int(out[0, 0]) ^ int(out[-1, -1])


_BITS = np.random.default_rng(12345).integers(0, 256, size=1 << 19, dtype=np.uint8)


def bits_unit() -> int:
    """One unit of memory-streaming bit work; returns a value so none of it
    is skipped."""
    bits = np.unpackbits(_BITS, bitorder="little")
    ext = np.concatenate([bits, bits[:1]])
    pairs = 2 * ext[:-1].astype(np.int64) + ext[1:]
    c2 = np.bincount(pairs, minlength=4)
    runs = int(np.count_nonzero(bits[1:] != bits[:-1]))
    means = bits.reshape(-1, 128).mean(axis=1)
    w = _BITS.view("<u8").astype(np.float64)
    return int(c2[0]) ^ runs ^ int(means.sum()) ^ int(w[:-1] @ w[1:]) % 7


# (unit, its median time on the shared 2-CPU Intel Xeon host where the
# benchmark was first measured, with Python 3.11.7 and numpy 2.4.6, and the
# fewest units one measurement runs).  Changing a time rescales every figure
# that uses the loop.
LOOPS = {
    "python": (python_unit, 4.0e-4, 4),
    "ntt": (ntt_unit, 1.0e-1, 1),
    "bits": (bits_unit, 4.7e-2, 1),
}


def scale(kind: str, min_seconds: float) -> float:
    """Factor that turns times measured just now into reference seconds.

    Runs loop `kind` for at least its fewest units and `min_seconds`.
    """
    unit, unit_s, min_units = LOOPS[kind]
    n = 0
    t0 = time.perf_counter()
    while True:
        unit()
        n += 1
        elapsed = time.perf_counter() - t0
        if n >= min_units and elapsed >= min_seconds:
            return unit_s * n / elapsed


def interpreter_scale() -> float:
    """Factor that turns a fresh interpreter's times, measured just before,
    into reference seconds."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, scipy.special"],
                   check=True, capture_output=True, timeout=INTERPRETER_TIMEOUT_S)
    return INTERPRETER_UNIT_S / (time.perf_counter() - t0)
