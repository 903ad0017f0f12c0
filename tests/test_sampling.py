import hashlib

import numpy as np
import pytest
from scipy.stats import chisquare

from lwerng import sampling
from lwerng.params import Params
from lwerng.sampling import (
    EntropyInput,
    derive_reseed_entropy,
    expand_matrix,
    sample_error,
    sample_secret,
    seed_payload,
)

from conftest import fixed_ent
from oracles import ref_expand_matrix, ref_sample_error, ref_sample_secret, ref_seed_payload


def test_entropy_input_length_checked():
    with pytest.raises(ValueError):
        EntropyInput(bytes(31))
    with pytest.raises(ValueError):
        EntropyInput(bytes(33))
    assert EntropyInput.from_hex("00" * 32).data == bytes(32)


def test_reseed_entropy_is_labelled_shake_digest(ent_zero, ent_one):
    # label 0x04 || generation as 8 bytes big-endian, first 32 bytes of the XOF
    for ent in (ent_zero, ent_one):
        for g in (1, 2, 255, 256, 1 << 40):
            expected = hashlib.shake_256(ent.data + b"\x04" + g.to_bytes(8, "big")).digest(32)
            assert derive_reseed_entropy(ent, g).data == expected


@pytest.mark.parametrize("sampler", [expand_matrix, sample_secret, sample_error, seed_payload])
def test_samplers_deterministic(sampler, ent_zero, params):
    assert np.array_equal(sampler(ent_zero, params), sampler(ent_zero, params))


def test_flipped_entropy_changes_matrix(ent_zero, ent_one, params):
    assert not np.array_equal(expand_matrix(ent_zero, params), expand_matrix(ent_one, params))


def test_matrix_shape_and_range(ent_zero, params):
    # only the designated row 0 is drawn
    mat = expand_matrix(ent_zero, params).tolist()
    assert len(mat) == 1 and all(len(row) == params.n for row in mat)
    for row in mat:
        for poly in row:
            assert len(poly) == params.degree
            assert all(0 <= c < params.q for c in poly)


def test_matrix_uniformity_chi_square(params):
    # ~1e6 coefficient draws pooled over derived entropy inputs
    draws = []
    needed = 1_000_000
    tag = 0
    while len(draws) < needed:
        mat = expand_matrix(fixed_ent(tag), params).tolist()
        for row in mat:
            for poly in row:
                draws.extend(poly)
        tag += 1
    arr = np.array(draws[:needed], dtype=np.int64)
    bins = np.bincount(arr * 64 // params.q, minlength=64)
    _, p_value = chisquare(bins)
    assert p_value > 0.001


def test_secret_support(ent_zero, params):
    s = sample_secret(ent_zero, params).tolist()
    assert len(s) == params.n
    allowed = {-1, 0, 1}
    for poly in s:
        assert set(poly) <= allowed


def test_secret_uniform_on_support(params):
    counts = {0: 0, 1: 0, -1: 0}
    total = 0
    tag = 1000
    while total < 1_000_000:
        for poly in sample_secret(fixed_ent(tag), params).tolist():
            for c in poly:
                counts[c] += 1
                total += 1
        tag += 1
    for v in (-1, 0, 1):
        assert abs(counts[v] / total - 1 / 3) < 0.005


def test_error_support_bounded(params):
    # four inputs, 1024 coefficients, starting at the all-zero input
    for tag in range(4):
        e = sample_error(fixed_ent(tag), params).tolist()
        assert len(e) == params.degree
        for c in e:
            assert abs(c) <= params.eta


def test_error_centered_binomial_frequencies(params):
    counts = {0: 0, 1: 0, -1: 0}
    total = 0
    tag = 2000
    while total < 1_000_000:
        for c in sample_error(fixed_ent(tag), params).tolist():
            counts[c] += 1
            total += 1
        tag += 1
    assert abs(counts[0] / total - 0.5) < 0.005
    assert abs(counts[1] / total - 0.25) < 0.005
    assert abs(counts[-1] / total - 0.25) < 0.005


def test_payload_bits(params):
    # four inputs, 1024 bits, starting at the all-zero input
    for tag in range(4):
        r = seed_payload(fixed_ent(tag), params).tolist()
        assert len(r) == params.degree == 256
        assert set(r) <= {0, 1}


def test_payload_monobit_over_fixed_inputs(params):
    # 20 groups of four consecutive inputs, 1024 bits each
    for tag in range(3000, 3080, 4):
        ones = sum(sum(seed_payload(fixed_ent(tag + i), params).tolist()) for i in range(4))
        assert 0.44 <= ones / 1024 <= 0.56


def test_domain_separation_cross_correlation(ent_zero):
    n_bits = 1_000_000
    a = hashlib.shake_256(ent_zero.data + b"\x01").digest(n_bits // 8)
    b = hashlib.shake_256(ent_zero.data + b"\x03").digest(n_bits // 8)
    xa = np.unpackbits(np.frombuffer(a, dtype=np.uint8)).astype(np.float64) * 2 - 1
    xb = np.unpackbits(np.frombuffer(b, dtype=np.uint8)).astype(np.float64) * 2 - 1
    corr = float((xa * xb).mean())
    assert abs(corr) < 0.01


def test_reseed_derivation_distinct(ent_zero):
    e1 = derive_reseed_entropy(ent_zero, 1)
    e2 = derive_reseed_entropy(ent_zero, 2)
    assert e1 != e2 and e1 != ent_zero
    assert derive_reseed_entropy(ent_zero, 1) == e1


@pytest.mark.parametrize("which", ["params", "toy_params", "eta2", "eta3", "eta4", "eta8",
                                   "eta128", "q97", "widest_q"])
def test_samplers_match_sequential_reference(which, request):
    # eta = 2 and 3 accept 5/8 and 7/8 of the 3-bit secret reads; eta = 4, 8
    # and 128 read 4-, 5- and 9-bit fields, two per byte, eight per 40-bit
    # group and eight per 72-bit group; q97 makes 8-bit matrix reads; widest_q
    # reads 25-bit fields through 32-bit reads, the widest fields any
    # admitted ring has (degree 16 admits q < 2^25)
    p = {"eta2": Params(eta=2), "eta3": Params(eta=3), "eta4": Params(eta=4),
         "eta8": Params(eta=8), "eta128": Params(eta=128), "q97": Params(q=97, degree=16),
         "widest_q": Params(q=33554273, degree=16)}.get(which)
    if p is None:
        p = request.getfixturevalue(which)
    for tag in range(4000, 4006):
        ent = fixed_ent(tag)
        assert expand_matrix(ent, p)[0].tolist() == ref_expand_matrix(ent, p)
        assert sample_secret(ent, p).tolist() == ref_sample_secret(ent, p)
        assert sample_error(ent, p).tolist() == ref_sample_error(ent, p)
        assert seed_payload(ent, p).tolist() == ref_seed_payload(ent, p)


@pytest.mark.parametrize("n", [1, 4, 8])
def test_matrix_is_row_zero_of_the_reference(n):
    # the entries labelled 0x00 || 0x00 || j, j < n, as the one row drawn
    p = Params(n=n)
    for tag in range(4100, 4103):
        ent = fixed_ent(tag)
        mat = expand_matrix(ent, p)
        assert mat.shape == (1, p.n, p.degree)
        assert mat[0].tolist() == ref_expand_matrix(ent, p)


def test_short_digest_is_read_again(toy_params, monkeypatch):
    # at q = 257 about half the matrix draws are rejected, so some entries
    # run short of their first digest and are read again at a longer length
    reads = {}
    xof = sampling._xof

    class Recording:
        def __init__(self, ent, label):
            self._xof = xof(ent, label)
            self._label = label

        def digest(self, n):
            reads.setdefault(self._label, []).append(n)
            return self._xof.digest(n)

    monkeypatch.setattr(sampling, "_xof", Recording)
    reread = 0
    for tag in range(4000, 4006):
        reads.clear()
        ent = fixed_ent(tag)
        assert expand_matrix(ent, toy_params)[0].tolist() == ref_expand_matrix(ent, toy_params)
        reread += sum(len(lengths) > 1 for lengths in reads.values())
    assert reread > 0
