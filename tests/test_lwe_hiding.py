import tracemalloc

import numpy as np
import pytest

from lwerng import polyring as pr
from lwerng.errors import InconsistentLayout, InsufficientTrials
from lwerng.lfsr import initialize
from lwerng.params import Params
from lwerng.lwe_hiding import (
    MODES,
    _SAMPLE_ROWS,
    _distinguisher_hits,
    _hiding_block,
    _hiding_draws,
    distinguishing_experiment,
    hide,
)
from lwerng.sampling import sample_secret

from conftest import degenerate_pair_advantages, fixed_ent
from oracles import conv_negacyclic, distinguisher_hits_oracle, hide_oracle, hide_transcript


def test_hide_deterministic_1000_calls(ent_zero, params):
    first = hide(ent_zero, params).b.tolist()
    for _ in range(999):
        assert hide(ent_zero, params).b.tolist() == first


def test_designated_polynomial_fills_8192_bits(ent_zero, params):
    # the fill reads each of the 256 coefficients, all below q < 2^32, as one
    # 32-bit word: 4 x 256 register bits and the rest the whitening mask
    hs = hide(ent_zero, params)
    assert len(hs.b) == 256 and all(0 <= c < params.q for c in hs.b)
    assert 256 * 32 == 4 * 256 + initialize(hs).mask_bits == 8192


def test_hidden_seed_is_a_read_only_int64_array(ent_zero, params, toy_params):
    for p in (params, toy_params):
        b = hide(ent_zero, p).b
        assert b.dtype == np.int64 and b.shape == (p.degree,)
        with pytest.raises(ValueError):
            b[0] = 1


def test_toy_hide_matches_schoolbook_oracle(toy_params):
    for tag in range(20):
        hs = hide(fixed_ent(tag), toy_params)
        a, s, e, r = hide_transcript(fixed_ent(tag), toy_params)
        assert hs.b.tolist() == hide_oracle(a, s, e, r, toy_params.q)


def test_widest_row_hides_exactly():
    # n = 256 is the widest row the one-byte column label j names
    p = Params(q=97, n=256, degree=16)
    for tag in range(2):
        hs = hide(fixed_ent(tag), p)
        assert hs.b.tolist() == hide_oracle(*hide_transcript(fixed_ent(tag), p), p.q)
    with pytest.raises(InconsistentLayout):
        Params(q=97, n=257, degree=16)


def test_transcript_replay_exact(params):
    # b - A[0]*s - e_0 - r_0*floor(q/2) == 0 with A[0]*s recomputed independently
    half = params.q // 2
    for tag in range(10):
        hs = hide(fixed_ent(tag), params)
        a, s, e, r = hide_transcript(fixed_ent(tag), params)
        prod = np.zeros(params.degree, dtype=np.int64)
        for j in range(params.n):
            prod += conv_negacyclic(a[j], s[j], params.q)
        residue = (
            np.array(hs.b, dtype=np.int64)
            - prod
            - np.array(e, dtype=np.int64)
            - np.array(r, dtype=np.int64) * half
        ) % params.q
        assert not residue.any()


def replay_hiding_batch(seed, t, p, draw_error):
    """t concealed samples of the experiment rebuilt one at a time from the
    draws `_hiding_draws` takes.

    The matrix is mapped out of the transform domain and goes through
    mat_vec_mul; draw_error(rng, shape) replays the error draw.
    """
    q, d = p.q, p.degree
    rng = np.random.default_rng(seed)
    s = (rng.integers(0, 2 * p.eta + 1, size=(t, p.n, d), dtype=np.int64) - p.eta) % q
    a_hat = [[rng.integers(0, q, size=(t, d), dtype=np.int64) for _ in range(p.n)]
             for _ in range(_SAMPLE_ROWS)]
    shape = (t, _SAMPLE_ROWS, d)
    e = draw_error(rng, shape)
    r = rng.integers(0, 2, size=shape)
    samples = []
    for k in range(t):
        mat = [[pr.inv_ntt(entry[k], p) for entry in row] for row in a_hat]
        prod = pr.mat_vec_mul(mat, s[k], p)
        samples.append(((prod + e[k] + r[k] * (q // 2)) % q).ravel())
    return np.array(samples)


def hiding_batch(seed, t, p, blocks=(slice(None),)):
    """t concealed samples: the draw stage, then the block stage over
    `blocks` of trials, concatenated."""
    drawn = _hiding_draws(np.random.default_rng(seed), t, p)
    return np.concatenate([_hiding_block(drawn, blk, p) for blk in blocks])


def test_vectorized_ring_agrees_with_polyring(params):
    expected = replay_hiding_batch(
        3, 3, params,
        lambda rng, shape: rng.integers(0, 2, size=shape) - rng.integers(0, 2, size=shape))
    assert np.array_equal(hiding_batch(3, 3, params), expected)
    # the block stage splits at any trial: two blocks give the same samples
    assert np.array_equal(hiding_batch(3, 3, params, (slice(0, 1), slice(1, 3))), expected)


def test_vectorized_error_follows_eta():
    # at eta = 2 each error coefficient is two bits minus two bits
    p = Params(eta=2)

    def binomial_2(rng, shape):
        return (rng.integers(0, 2, size=shape + (2,)).sum(axis=-1)
                - rng.integers(0, 2, size=shape + (2,)).sum(axis=-1))

    assert np.array_equal(hiding_batch(4, 3, p), replay_hiding_batch(4, 3, p, binomial_2))


def test_marginal_uniformity_of_hidden_coefficient(params):
    # fixed invertible-entry secret, fresh uniform matrix row per sample:
    # coefficient 0 of the product is uniform over [0, q)
    trials = 100_000
    chunk = 10_000
    rng = np.random.default_rng(4)
    s = sample_secret(fixed_ent(7), params)
    s_hat = pr.ntt(s, params)
    assert all((row != 0).any() for row in s_hat)  # transform-invertible enough
    coeff0 = []
    for _ in range(trials // chunk):
        acc = np.zeros((chunk, params.degree), dtype=np.int64)
        for j in range(params.n):
            a_j = rng.integers(0, params.q, size=(chunk, params.degree), dtype=np.int64)
            acc += a_j * s_hat[j] % params.q
        b = pr.inv_ntt(acc % params.q, params)
        coeff0.append(b[:, 0])
    bins = np.bincount(np.concatenate(coeff0) * 64 // params.q, minlength=64)
    from scipy.stats import chisquare
    _, p_value = chisquare(bins)
    assert p_value > 0.001


def test_experiment_rejects_insufficient_trials(params):
    with pytest.raises(InsufficientTrials):
        distinguishing_experiment(999, params)


def test_experiment_uniform_null(params):
    report = distinguishing_experiment(10_000, params, mode="uniform_vs_uniform", seed=1)
    for res in report.results:
        assert res.advantage <= 3 * max(res.sigma, (0.5 / report.trials) ** 0.5)


def test_experiment_hiding_null_smoke(params):
    report = distinguishing_experiment(10_000, params, mode="hiding_vs_uniform", seed=2)
    for res in report.results:
        assert res.advantage <= 3 * max(res.sigma, (0.5 / report.trials) ** 0.5)


# (coef_chi2, serial_corr, high_bit_weight) hits of arm a and arm b; they pin
# the sample width and the order of the rng's draws.  1000 trials is one
# chunk; 2100 crosses the chunk seam at 2048 and ends in a ragged block
EXPERIMENT_HITS = {
    (1000, 0, "hiding_vs_uniform"): ((492, 489), (496, 512), (511, 490)),
    (1000, 0, "uniform_vs_uniform"): ((475, 503), (508, 503), (505, 476)),
    (1000, 7, "hiding_vs_uniform"): ((507, 514), (525, 508), (480, 485)),
    (1000, 7, "uniform_vs_uniform"): ((509, 507), (489, 476), (496, 495)),
    (2100, 0, "hiding_vs_uniform"): ((1089, 1049), (1072, 1080), (1025, 1001)),
    (2100, 7, "uniform_vs_uniform"): ((1067, 1051), (1020, 1070), (1038, 1032)),
}


@pytest.mark.parametrize("trials, seed, mode", [
    # a one-chunk case is named by its seed and mode alone
    pytest.param(t, s, m, id=f"{s}-{m}" if t == 1000 else f"{t}-{s}-{m}")
    for t, s, m in EXPERIMENT_HITS])
def test_experiment_hit_counts_golden(trials, seed, mode):
    report = distinguishing_experiment(trials, mode=mode, seed=seed)
    assert [r.name for r in report.results] == ["coef_chi2", "serial_corr", "high_bit_weight"]
    hits = tuple((r.hits_a, r.hits_b) for r in report.results)
    assert hits == EXPERIMENT_HITS[trials, seed, mode]


def test_experiment_memory_is_bounded(params):
    # the block stage inverts, combines and scores a block of trials at a
    # time, so a 1000-trial experiment holds its draws and one block's
    # temporaries, not whole-chunk temporaries; the warm-up call builds the
    # cached transform matrices first
    distinguishing_experiment(1000, params, seed=1)
    tracemalloc.start()
    try:
        distinguishing_experiment(1000, params, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


def test_experiment_positive_control(params):
    # the high-bit distinguisher has power: it separates the degenerate pair
    assert degenerate_pair_advantages(params)["high_bit_weight"] > 0.9


@pytest.mark.parametrize("q", [8380417, 257, 17])
def test_distinguisher_hits_match_scalar_oracle(q):
    # coefficients on either side of every bin edge ceil(kq/16) and of the
    # high-bit bounds q/4 and 3q/4, where the bins and the high bit could slip
    edges = [-(-k * q // 16) for k in range(1, 16)]
    boundary = ([0, q - 1, q // 4, q // 4 + 1, 3 * q // 4, 3 * q // 4 + 1]
                + edges + [e - 1 for e in edges])
    rng = np.random.default_rng(q)
    mid = (q - 1) // 2
    for width in (64, 37):
        # rows of mid with exact centred lag-1 sums 0, +1 and -1: a tie is no hit
        ties = np.full((3, width), mid, dtype=np.int64)
        ties[0, 10] = mid + 1
        ties[1, 10:12] = mid + 1
        ties[2, 10:12] = mid + 1, mid - 1
        assert [_distinguisher_hits(row[None], q)["serial_corr"] for row in ties] == [0, 1, 0]
        rows = np.array([[c] * width for c in boundary]
                        + [rng.choice(boundary, size=width) for _ in range(200)]
                        + ties.tolist(),
                        dtype=np.int64)
        hits = _distinguisher_hits(rows, q)
        assert hits == distinguisher_hits_oracle(rows, q)
        assert all(0 < h < len(rows) for h in hits.values())


def test_modes_are_the_claim_and_its_null():
    assert MODES == ("hiding_vs_uniform", "uniform_vs_uniform")
    with pytest.raises(ValueError):
        distinguishing_experiment(1000, mode="positive_control")


def test_report_serialization(params):
    report = distinguishing_experiment(1000, params, mode="uniform_vs_uniform", seed=4)
    text = report.to_text()
    lines = text.splitlines()
    assert lines[0].startswith("mode=uniform_vs_uniform")
    assert len(lines) == 1 + len(report.results)
    for res, line in zip(report.results, lines[1:]):
        assert res.name in line and "advantage=" in line
