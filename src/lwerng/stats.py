"""Built-in randomness battery, raw dump for external suites, and the
3-bit scatter-index export.

The battery is a desk-scale screen: monobit frequency, block frequency
(block 128), runs, overlapping 2-bit serial, byte chi-square (256 bins) and
64-bit word lag-1 serial correlation.  Verdict thresholds follow the usual
external-suite convention: fail below 1e-6, weak below 0.005.

The four bit-level tests (NIST SP 800-22 frequency, block frequency, runs
and serial with m = 2) are functions of three integer counts, so the
battery never unpacks the buffer to one byte per bit.  One pass views the
packed bytes as little-endian 64-bit words, clears the bits past nbits in
the last word, and takes from the popcounts:

* ``ones``, the number of set bits;
* the ones in each 128-bit block (two words);
* ``T``, the number of unequal adjacent pairs (j, j+1) with j + 1 < nbits:
  the popcount of ``w ^ (w >> 1) ^ (next_word << 63)``, built in place in
  one shifted copy of the words;
* the first and the last bit.

Runs counts ``v = T + 1`` runs.  The serial test's cyclic pair counts
follow in closed form: round the cycle, 01 and 10 pairs alternate, so with
``c = (T + [first != last]) // 2`` they are ``c01 = c10 = c``,
``c11 = ones - c`` and ``c00 = n - ones - c``.  Every count is an exact
integer, so each statistic equals the per-bit computation's to the last
bit (``tests/oracles.py::ref_battery`` is that computation).

The byte chi-square counts the 2^16 byte pairs of a little-endian 16-bit
view, with ``np.add.at``, which casts the indices in small buffers where
``np.bincount`` would copy them all to intp.  Byte value v occurs as
the low byte of pairs[:, v] and the high byte of pairs[v, :], so the 256
counts are the column sums plus the row sums; an odd trailing byte adds one.
The serial correlation builds each 64-bit word's float64 as
``hi * 2**32 + lo`` from its two 32-bit halves.  ``hi * 2**32`` is exact,
so the one add is correctly rounded and equals the uint64 -> float64 cast,
ties to even included.

The three chi-square p-values (block frequency, serial, byte chi-square)
are Q(a, x), the regularized upper incomplete gamma function, with 2a the
degrees of freedom, a positive integer, and x half the statistic.  For
such a, Q(a, x) = P(Poisson(x) < a): the sum of the terms
t_c = x^c e^-x / Gamma(c + 1) over c = a - 1, a - 2, ... >= 0, plus
erfc(sqrt(x)) when a is a half-integer.  `_gammaincc` takes the largest
term, the one with c nearest x, in Temme's form
c * log1pmx((x - c) / c) - ln(2 pi c) / 2 - stirling(c), which avoids the
cancellation in c ln x - x - lgamma(c + 1), and reaches the others by
running products of the ratios x / c upward and c / x downward, cut off
10 sqrt(x) + 40 terms either side of it, where the terms are below
e^-50 of the largest.  Against `scipy.special.gammaincc` the p-values
agree to a relative 1e-12 (tests/test_stats.py).

The raw dump is a headerless byte file of the generator output, bit-exact
under the LSB-first packing, suitable for `dieharder -g 201 -f <file>`.
"""

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientBits, check_int
from .stream import Generator

FAIL_P = 1e-6
WEAK_P = 0.005

MIN_BATTERY_BITS = 1_000_000
BLOCK_BITS = 128  # block frequency block: two 64-bit words
_DUMP_CHUNK_BYTES = 1 << 20  # one generator read per chunk of a raw dump


@dataclass
class TestReport:
    __test__ = False  # the name collides with pytest's collector otherwise

    test_name: str
    statistic: float
    p_value: float
    verdict: str

    @staticmethod
    def from_p(name: str, statistic: float, p: float) -> "TestReport":
        p = min(max(p, 0.0), 1.0)
        verdict = "fail" if p < FAIL_P else ("weak" if p < WEAK_P else "pass")
        return TestReport(name, statistic, p, verdict)

    def line(self) -> str:
        return (
            f"{self.test_name:<20} statistic={self.statistic:14.4f} "
            f"p={self.p_value:.6g} {self.verdict.upper()}"
        )


def _take_bytes(source, nbytes: int) -> bytes:
    """Materialize nbytes from a bytes-like buffer or a generator object."""
    if isinstance(source, (bytes, bytearray, memoryview)):
        if len(source) < nbytes:
            raise InsufficientBits(f"buffer holds {len(source)} bytes, need {nbytes}")
        return bytes(source[:nbytes])
    return source.next_bytes(nbytes)


def run_battery(source, nbits: int) -> list:
    """Run all six tests over the first nbits of the source."""
    check_int("nbits", nbits)
    if nbits < MIN_BATTERY_BITS:
        raise InsufficientBits(f"battery needs >= {MIN_BATTERY_BITS} bits, got {nbits}")
    data = _take_bytes(source, (nbits + 7) // 8)
    c = _bit_counts(data, nbits)
    return [
        TestReport.from_p("monobit", *_monobit(c)),
        TestReport.from_p("block_frequency", *_block_frequency(c)),
        TestReport.from_p("runs", *_runs(c)),
        TestReport.from_p("serial_2bit", *_serial_2bit(c)),
        TestReport.from_p("byte_chi_square", *_byte_chi_square(data, nbits)),
        TestReport.from_p("serial_corr_64", *_serial_corr_64(data, nbits)),
    ]


@dataclass(frozen=True)
class _BitCounts:
    n: int
    ones: int
    block_ones: np.ndarray  # ones in each whole BLOCK_BITS block
    transitions: int  # unequal pairs (j, j+1), j + 1 < n
    first: int
    last: int


def _bit_counts(data: bytes, nbits: int) -> _BitCounts:
    """One popcount pass over the first nbits of data as 64-bit words."""
    words = np.zeros((nbits + 63) // 64, dtype="<u8")
    words.view(np.uint8)[: len(data)] = np.frombuffer(data, dtype=np.uint8)
    words[-1] &= np.uint64(((1 << 64) - 1) >> (-nbits % 64))  # clear bits past nbits
    pop = np.bitwise_count(words)
    nblocks = nbits // BLOCK_BITS
    block_ones = np.add(pop[0 : 2 * nblocks : 2], pop[1 : 2 * nblocks : 2],
                        dtype=np.int64)
    first = int(words[0]) & 1
    last = int(words[-1] >> ((nbits - 1) % 64)) & 1
    diff = words >> 1
    diff ^= words
    words <<= 63  # each word's bit 0, moved to bit 63 for the word before it
    diff[:-1] ^= words[1:]
    # diff's bit nbits-1 compares the last bit with the cleared bit past it
    transitions = int(np.bitwise_count(diff).sum()) - last
    return _BitCounts(nbits, int(pop.sum()), block_ones, transitions, first, last)


def _monobit(c):
    n = c.n
    s = abs(2 * c.ones - n)
    return float(s) / math.sqrt(n), math.erfc(s / math.sqrt(2 * n))


def _block_frequency(c):
    # 4 M sum((k/M - 1/2)^2) = 4 sum((k - M/2)^2) / M, exact for M a power of two
    dev = int(((c.block_ones - BLOCK_BITS // 2) ** 2).sum())
    chi2 = 4.0 * dev / BLOCK_BITS
    return chi2, _gammaincc(c.block_ones.size / 2.0, chi2 / 2.0)


def _runs(c):
    n = c.n
    pi = c.ones / n
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):  # frequency precondition
        return float("inf"), 0.0
    v = c.transitions + 1
    num = abs(v - 2.0 * n * pi * (1 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1 - pi)
    return num / den, math.erfc(num / den / math.sqrt(2))


def _serial_2bit(c):
    """Overlapping serial test with pattern length 2 (cyclic extension)."""
    n, ones = c.n, c.ones
    cross = (c.transitions + (c.first != c.last)) // 2  # 01 pairs = 10 pairs
    psi2 = (4.0 / n) * ((n - ones - cross) ** 2 + 2 * cross**2 + (ones - cross) ** 2) - n
    psi1 = (2.0 / n) * ((n - ones) ** 2 + ones**2) - n
    delta = psi2 - psi1
    return delta, _gammaincc(1.0, delta / 2.0)


def _byte_chi_square(data, nbits):
    nbytes = nbits // 8
    raw = np.frombuffer(data, dtype=np.uint8, count=nbytes)
    # byte pairs (lo, hi) of the "<u2" view: pairs[hi, lo]
    pairs = np.zeros((256, 256), dtype=np.int64)
    np.add.at(pairs.reshape(-1), raw[: nbytes & ~1].view("<u2"), 1)
    counts = pairs.sum(axis=0) + pairs.sum(axis=1)
    if nbytes % 2:
        counts[raw[-1]] += 1
    expected = nbytes / 256.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    return chi2, _gammaincc(255 / 2.0, chi2 / 2.0)


def _serial_corr_64(data, nbits):
    """Lag-1 serial correlation of consecutive 64-bit words (normal approx)."""
    half = np.frombuffer(data, dtype="<u4", count=2 * (nbits // 64))
    # hi * 2^32 is exact, so the one add rounds like the uint64 -> float64 cast
    w = half[1::2].astype(np.float64)
    w *= 2.0**32
    w += half[0::2]
    n = w.size
    w -= w.mean()
    num = float((w[:-1] * w[1:]).sum())
    den = float((w * w).sum())
    r = num / den if den else 0.0
    mu = -1.0 / (n - 1)
    sigma = math.sqrt(n * (n - 3.0) / ((n + 1.0) * (n - 1.0) ** 2))
    z = abs(r - mu) / sigma
    return r, math.erfc(z / math.sqrt(2))


def _gammaincc(a: float, x: float) -> float:
    """Q(a, x) for 2a a positive integer: P(chi-square with 2a degrees of
    freedom > 2x).  The module docstring gives the method; x <= 0 gives 1.

    Raises:
        ValueError: 2a is not a positive integer.
    """
    if not (a > 0 and float(2 * a).is_integer()):
        raise ValueError(f"a={a}: 2a must be a positive integer")
    if x <= 0:
        return 1.0
    c_min = a % 1  # 0, or 1/2 for a half-integer: c runs over c_min + j, j < count
    count = int(a - c_min)
    q = math.erfc(math.sqrt(x)) if c_min else 0.0
    if count == 0:
        return q
    j0 = min(max(round(x - c_min), 0), count - 1)
    c0 = c_min + j0
    span = int(10 * math.sqrt(x)) + 40
    total = 1.0  # the terms over the largest one, t_(c0)
    if j0:  # below it, t_(c-1) / t_c = c / x
        total += float(np.cumprod(np.arange(c0, c0 - min(j0, span), -1.0) / x).sum())
    if j0 < count - 1:  # above it, t_c / t_(c-1) = x / c
        stop = c0 + 1 + min(count - 1 - j0, span)
        total += float(np.cumprod(x / np.arange(c0 + 1, stop)).sum())
    return q + math.exp(_log_poisson_term(c0, x)) * total


def _log_poisson_term(c: float, x: float) -> float:
    """ln(x^c e^-x / Gamma(c + 1)) for c >= 0 and x > 0."""
    if c < 10:
        return c * math.log(x) - x - math.lgamma(c + 1)
    # lgamma(c + 1) = c ln c - c + ln(2 pi c) / 2 + stirling, and the
    # asymptotic series for stirling is within 2e-14 from c = 10 on
    r = 1.0 / (c * c)
    stirling = (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / c
    return c * _log1pmx((x - c) / c) - 0.5 * math.log(2 * math.pi * c) - stirling


def _log1pmx(u: float) -> float:
    """ln(1 + u) - u, to a relative few ulp also where the two cancel."""
    if abs(u) >= 0.5:
        return math.log1p(u) - u
    total, power, k = 0.0, u, 1
    while True:  # the sum over k >= 2 of (-1)^(k+1) u^k / k
        k += 1
        power *= -u
        term = power / k
        total += term
        if abs(term) <= 1e-17 * abs(total):
            return total


@contextmanager
def _opened(sink, mode: str):
    """`sink` itself if it is a file object, else the path opened in `mode`."""
    if hasattr(sink, "write"):
        yield sink
    else:
        with open(sink, mode) as fh:
            yield fh


def dump_raw(source: Generator, nbytes: int, sink) -> None:
    """Write exactly nbytes of a generator's stream to a path or file object.

    A source that is not a `Generator`, or an nbytes that is not an int
    >= 0, raises ValueError before the sink is opened, so an existing file
    keeps its bytes."""
    if not isinstance(source, Generator):
        raise ValueError(f"dump_raw reads a Generator, not {type(source).__name__}")
    check_int("nbytes", nbytes, 0)
    with _opened(sink, "wb") as fh:
        left = nbytes
        while left > 0:
            take = min(_DUMP_CHUNK_BYTES, left)
            fh.write(source.next_bytes(take))
            left -= take


def scatter_indexes(source, count: int) -> np.ndarray:
    """3-bit indexes in [0, 7], LSB-first: the first bit consumed is the LSB."""
    check_int("count", count, 1)
    data = _take_bytes(source, (3 * count + 7) // 8)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    bits = bits[: 3 * count].reshape(count, 3)
    return bits[:, 0] | (bits[:, 1] << 1) | (bits[:, 2] << 2)


def write_scatter_csv(indexes, sink) -> None:
    """`position,index` rows for external plotting."""
    with _opened(sink, "w") as fh:
        fh.write("position,index\n")
        for pos, ix in enumerate(indexes):
            fh.write(f"{pos},{ix}\n")
