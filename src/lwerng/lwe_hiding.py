"""Seed concealment: the designated row b = sum_j A[0][j]*s_j + e_0 +
r_0*floor(q/2) of an LWE sample A*s + e + r*floor(q/2), the one polynomial
the register machine reads and so the only row drawn; and an empirical
distinguishing experiment between concealed and uniform samples of
_SAMPLE_ROWS ring elements, with uniform against uniform as its null.

One ring serves all of it: `polyring`'s transforms run on the designated
row's stacked entries for `hide` and on the experiment's trials, and
`_combine` adds error and payload to either.  The experiment runs in two
stages per chunk of trials: a draw stage takes every random draw of the
chunk in a fixed order and forms the transform-domain row products, then a
block stage walks the chunk in blocks of trials small enough to stay in
cache, and per block inverts the products, combines them and scores both
arms.

The payload bits r_0 are recoverable only with the secret.  `hide` discards
A[0], s, e_0 and r_0 and returns only b; anyone holding the entropy input
can redraw them with the public samplers, since `hide` is defined by them.
"""

import json
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from . import polyring
from .errors import InsufficientTrials, check_int
from .params import Params, resolve_params
from .sampling import (
    EntropyInput,
    expand_matrix,
    sample_error,
    sample_secret,
    seed_payload,
)


@dataclass
class HiddenSeed:
    """The concealed seed b = A[0]*s + e_0 + r_0*floor(q/2), the one
    polynomial `hide` computes, as a list of degree ints; and its parameters."""

    b: list
    params: Params


def hide(ent: EntropyInput, p: Params) -> HiddenSeed:
    """Conceal the payload derived from `ent` under the designated sample.

    Deterministic in `ent`: the designated matrix row, the secret, the
    error polynomial and the payload expand from it under their domain
    labels.
    """
    prod = polyring.mat_vec_mul(expand_matrix(ent, p), sample_secret(ent, p), p)[0]
    e = sample_error(ent, p)
    r = seed_payload(ent, p)
    # a list of ints, as HiddenSeed documents: callers compare b with ==
    return HiddenSeed(b=_combine(prod, e, r, p).tolist(), params=p)


def _combine(prod, e, r, p: Params) -> np.ndarray:
    """prod + e + r*floor(q/2) mod q, elementwise over int64 arrays of one shape."""
    x = r * (p.q // 2)
    x += prod
    x += e
    return polyring.reduce_mod(x, p.q)


# --- distinguishing experiment -------------------------------------------

MODES = ("hiding_vs_uniform", "uniform_vs_uniform")

MIN_TRIALS = 1000
# ring elements per experiment sample: a whole sample A*s + e + r*floor(q/2)
# of a 4-row matrix, not only the one row `hide` conceals, so at degree 256
# each distinguisher reads 1024 coefficients; the hit counts depend on it
_SAMPLE_ROWS = 4
# trials per chunk of the experiment's draw stage: bounds its
# (trials, _SAMPLE_ROWS*degree) draws and fixes the order of the rng's draws,
# so the hit counts depend on it
_EXPERIMENT_CHUNK = 2048
# coefficients per block of the block stage, which inverts, combines and
# scores a chunk's trials a block at a time: 2^16 int64 is 512 KB, so one
# block and its temporaries stay in a 2 MiB L2.  A block is
# max(1, _BLOCK_COEFFS // width) trials, 64 at the default ring.  On a 2-CPU
# Xeon with 2 MiB of L2 per core, a scan of 32, 64, 128 and 256 trials per
# block ran the `distinguish` benchmark workload fastest at 32 and 64, and
# 64 beat 32 in alternating pairs; the whole 1000-trial chunk at once ran
# ~13% fewer experiments a second.  The hit counts do not depend on it:
# blocks only split work that is elementwise or per trial.
_BLOCK_COEFFS = 1 << 16

# median of the chi-square distribution with 15 degrees of freedom; the
# threshold only has to be applied identically to both arms
_CHI2_15_MEDIAN = 14.3389


@dataclass
class DistinguisherResult:
    name: str
    hits_a: int
    hits_b: int
    hit_rate_a: float
    hit_rate_b: float
    advantage: float
    sigma: float


@dataclass
class AdvantageReport:
    mode: str
    trials: int
    seed: int
    results: list

    def to_json(self) -> str:
        """The whole report, hit counts included, as one strict JSON object."""
        return json.dumps(asdict(self), allow_nan=False)

    def to_text(self) -> str:
        lines = [f"mode={self.mode} trials={self.trials}"]
        for r in self.results:
            lines.append(
                f"{r.name:<16} advantage={r.advantage:.6f} "
                f"ci3s=±{3 * r.sigma:.6f} hit_rate_a={r.hit_rate_a:.4f} "
                f"hit_rate_b={r.hit_rate_b:.4f}"
            )
        return "\n".join(lines)


def distinguishing_experiment(
    trials: int,
    p: Params = None,
    mode: str = "hiding_vs_uniform",
    seed: int = 0,
) -> AdvantageReport:
    """Empirical advantage of a fixed distinguisher battery between two arms.

    Modes:
        hiding_vs_uniform: concealed samples (fresh uniform A of
            _SAMPLE_ROWS rows, fresh secret, fresh error and payload per
            trial) against uniform samples of _SAMPLE_ROWS ring elements.
        uniform_vs_uniform: null control, both arms uniform.

    Each distinguisher maps one sample (_SAMPLE_ROWS*degree coefficients)
    to {0, 1}; the advantage is |hit_rate_a - hit_rate_b| with a binomial
    sigma.  A trials or seed that is a bool or not an int raises ValueError,
    as does a p that is neither a Params nor None (the default set).
    """
    p = resolve_params(p)
    check_int("trials", trials)
    check_int("seed", seed)
    if trials < MIN_TRIALS:
        raise InsufficientTrials(f"trials={trials} < {MIN_TRIALS}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")

    rng = np.random.default_rng(seed)
    width = _SAMPLE_ROWS * p.degree
    step = max(1, _BLOCK_COEFFS // width)
    hiding = mode == "hiding_vs_uniform"
    hits_a, hits_b = Counter(), Counter()
    for done in range(0, trials, _EXPERIMENT_CHUNK):
        t = min(_EXPERIMENT_CHUNK, trials - done)
        if hiding:
            drawn = _hiding_draws(rng, t, p)
        else:
            arm_a = rng.integers(0, p.q, size=(t, width), dtype=np.int64)
        arm_b = rng.integers(0, p.q, size=(t, width), dtype=np.int64)
        for lo in range(0, t, step):
            blk = slice(lo, lo + step)
            a = _hiding_block(drawn, blk, p) if hiding else arm_a[blk]
            hits_a.update(_distinguisher_hits(a, p.q))
            hits_b.update(_distinguisher_hits(arm_b[blk], p.q))

    results = []
    for name in _DISTINGUISHER_NAMES:
        ra = hits_a[name] / trials
        rb = hits_b[name] / trials
        sigma = (ra * (1 - ra) / trials + rb * (1 - rb) / trials) ** 0.5
        results.append(DistinguisherResult(name, hits_a[name], hits_b[name], ra, rb,
                                           abs(ra - rb), sigma))
    return AdvantageReport(mode=mode, trials=trials, seed=seed, results=results)


_DISTINGUISHER_NAMES = ("coef_chi2", "serial_corr", "high_bit_weight")


def _distinguisher_hits(samples: np.ndarray, q: int) -> dict:
    """Vectorized battery over samples of shape (T, coeffs); returns hit counts."""
    t_count, width = samples.shape
    # chi-square of the coefficients against uniform over 16 equal bins; the
    # bin index floor(16c/q) plus 16 per row is built in one fresh array
    flat = samples * 16
    flat //= q
    flat += np.arange(0, 16 * t_count, 16, dtype=np.int64)[:, None]
    counts = np.bincount(flat.ravel(), minlength=t_count * 16).reshape(t_count, 16)
    expected = width / 16
    chi2 = ((counts - expected) ** 2 / expected).sum(axis=1)
    chi2_hits = chi2 > _CHI2_15_MEDIAN

    # sign of the lag-1 serial correlation of the coefficients centred on
    # (q - 1)/2, summed exactly in int64: each product is at most
    # ((q - 1)/2)^2 and a row has fewer than _SAMPLE_ROWS * degree of them,
    # so |sum| < degree * (q - 1)^2 < 2^54 for every ring `validate` admits.
    # A sum of exactly 0 is no hit.
    centred = samples - (q - 1) // 2
    corr_hits = np.einsum("ij,ij->i", centred[:, :-1], centred[:, 1:]) > 0

    # Hamming weight of the per-coefficient high bit, 1 iff q/4 < c < 3q/4:
    # q is odd, so neither bound is an integer and that is bins 4 to 11
    hb_hits = 2 * counts[:, 4:12].sum(axis=1) > width

    return {
        "coef_chi2": int(chi2_hits.sum()),
        "serial_corr": int(corr_hits.sum()),
        "high_bit_weight": int(hb_hits.sum()),
    }


def _hiding_draws(rng, t: int, p: Params) -> tuple:
    """The draw stage of t concealed samples: (b_hat, e, r), each (t, rows, degree).

    The uniform matrix is drawn directly in the transform domain (the
    transform is a bijection, so the distribution is identical) and the
    ternary secret is transformed; b_hat holds the rows' products, still in
    the transform domain, e the errors and r the payload bits.
    `_hiding_block` finishes any block of trials of them.
    """
    q = p.q
    d = p.degree
    # centred secret in [-eta, eta], as sample_secret draws it
    s = rng.integers(-p.eta, p.eta + 1, size=(t, p.n, d), dtype=np.int64)
    s_hat = polyring.ntt(s, p)
    # the secret and, after the rows, its transform go as soon as they are
    # used: the stage then peaks at its products and two error draws, below
    # what the block stage holds (its three arrays and arm b)
    del s
    b_hat = np.empty((t, _SAMPLE_ROWS, d), dtype=np.int64)
    # Entries are drawn one at a time, row by row; that order fixes the
    # output for a seed.  Each entry is multiplied by its secret polynomial
    # in its own fresh buffer.  A row's n products, each below q^2 < 2^52,
    # are summed unreduced and reduced once by polyring.reduce_mod, as in
    # mat_vec_mul: validate's n <= 256 keeps the sum below 2^60.  One
    # accumulator lives across the rows: variants that freed it per row, or
    # held a whole row of entries, ran the `distinguish` benchmark workload
    # up to 20% slower (glibc heap trimming).  The inverse transform is left
    # to the block stage, which reads b_hat a cache-sized block at a time.
    acc = np.empty((t, d), dtype=np.int64)
    for i in range(_SAMPLE_ROWS):
        acc.fill(0)
        for j in range(p.n):
            a_ij = rng.integers(0, q, size=(t, d), dtype=np.int64)
            acc += np.multiply(a_ij, s_hat[:, j, :], out=a_ij)
        b_hat[:, i, :] = polyring.reduce_mod(acc, q)
    del s_hat, acc
    shape = (t, _SAMPLE_ROWS, d)
    e = _binomial(rng, shape, p.eta)
    e -= _binomial(rng, shape, p.eta)
    r = rng.integers(0, 2, size=shape, dtype=np.int64)
    return b_hat, e, r


def _hiding_block(drawn: tuple, blk: slice, p: Params) -> np.ndarray:
    """The block stage: the concealed samples of trials `blk` of `drawn`,
    `_hiding_draws`'s (b_hat, e, r), as a (trials, rows * degree) array."""
    b_hat, e, r = (x[blk] for x in drawn)
    b = polyring.inv_ntt(b_hat, p)
    return _combine(b, e, r, p).reshape(len(b), _SAMPLE_ROWS * p.degree)


def _binomial(rng, shape, eta: int) -> np.ndarray:
    """Sums of eta fair bits, one per entry of `shape`.

    The bits are summed into the view of their first column, so at eta = 1
    the sum costs no pass; the result may be a strided view of the draw.
    """
    bits = rng.integers(0, 2, size=shape + (eta,), dtype=np.int64)
    total = bits[..., 0]
    for k in range(1, eta):
        total += bits[..., k]
    return total
