import hashlib
import io

import math

import numpy as np
import pytest
from oracles import ref_battery
from scipy.special import gammaincc

from lwerng.errors import InsufficientBits
from lwerng.sampling import EntropyInput
from lwerng.stats import (
    BLOCK_BITS,
    FAIL_P,
    WEAK_P,
    TestReport,
    _gammaincc,
    dump_raw,
    run_battery,
    scatter_indexes,
    write_scatter_csv,
)
from lwerng.stream import Generator

N_BITS = 1_000_000

# engine output for two pinned seeds, recorded once from the bit-list
# reference machine (tests/oracles.py) driving the same concealment
GOLDEN_ZERO_SEED = bytes.fromhex("a6db192bc9247286f3de24096bf37620")
GOLDEN_COUNT_SEED = bytes.fromhex("7f0f6adc02c5b10204d67a22472a502e")


def shake_stream(nbytes, tag=b"control"):
    """Reference known-good stream for battery control runs."""
    return hashlib.shake_256(tag).digest(nbytes)


def test_verdict_thresholds():
    assert TestReport.from_p("x", 0.0, FAIL_P / 2).verdict == "fail"
    assert TestReport.from_p("x", 0.0, (FAIL_P + WEAK_P) / 2).verdict == "weak"
    assert TestReport.from_p("x", 0.0, WEAK_P * 2).verdict == "pass"


def test_battery_requires_enough_bits():
    with pytest.raises(InsufficientBits):
        run_battery(bytes(1000), 999_999)
    with pytest.raises(InsufficientBits):
        run_battery(bytes(10), N_BITS)  # buffer shorter than requested


def test_all_zero_stream_fails_monobit():
    reports = {r.test_name: r for r in run_battery(bytes(N_BITS // 8), N_BITS)}
    assert reports["monobit"].p_value < 1e-6
    assert reports["monobit"].verdict == "fail"


def test_alternating_stream_fails_runs():
    data = bytes([0b01010101]) * (N_BITS // 8)
    reports = {r.test_name: r for r in run_battery(data, N_BITS)}
    assert reports["runs"].verdict == "fail"


def test_control_stream_passes_battery():
    reports = run_battery(shake_stream(10_000_000 // 8), 10_000_000)
    assert len(reports) == 6
    for r in reports:
        assert r.verdict == "pass", r.line()


def test_battery_p_values_uniformish_over_repetitions():
    # 100 control repetitions: no test may hit the fail threshold twice
    fails = 0
    for rep in range(100):
        data = shake_stream(N_BITS // 8, tag=b"rep%d" % rep)
        fails += sum(r.p_value < 1e-6 for r in run_battery(data, N_BITS))
    assert fails <= 1


# straddle the byte, word and 128-bit block boundaries
BATTERY_NBITS = [N_BITS + k for k in (0, 1, 7, 63, 64, 65, 127, 129)] + [
    4_194_241, 4_194_303, 1 << 22]


def words_from_2_63(nwords):
    """Words in [2^63, 2^64), every other one a float64 rounding tie."""
    # float64 keeps the top 53 bits of such a word, so its low 11 bits round;
    # 0x400 there is a tie, broken to even on bit 11
    words = np.random.default_rng(2063).integers(
        1 << 63, 1 << 64, size=nwords, dtype=np.uint64)
    words[::2] = (words[::2] & ~np.uint64(0x7FF)) | np.uint64(0x400)
    words[:4] = [1 << 63, (1 << 63) | 0x400, (1 << 63) | 0xC00, (1 << 64) - 1]
    ties = words[(words & np.uint64(0x7FF)) == 0x400]
    assert set((ties >> np.uint64(11)) & np.uint64(1)) == {0, 1}
    return words.astype("<u8").tobytes()


@pytest.fixture(scope="module")
def battery_buffers():
    nbytes = (1 << 19) + 16
    gen = Generator(EntropyInput(bytes(range(32)))).next_bytes(nbytes)
    return {"generator": gen, "shake": shake_stream(nbytes, tag=b"exact"),
            "words_from_2_63": words_from_2_63(nbytes // 8)}


def assert_battery_exact(data, nbits):
    # name, statistic and verdict are equal; the p-value is the in-house
    # chi-square tail against the oracle's scipy one, so it agrees to a
    # relative 1e-12, or both are below 1e-300
    got, ref = run_battery(data, nbits), ref_battery(data, nbits)
    assert [(r.test_name, r.statistic, r.verdict) for r in got] == [
        (r.test_name, r.statistic, r.verdict) for r in ref]
    for g, r in zip(got, ref):
        assert (abs(g.p_value - r.p_value) <= 1e-12 * r.p_value
                or max(g.p_value, r.p_value) < 1e-300), (g, r)


@pytest.mark.parametrize("nbits", BATTERY_NBITS)
def test_battery_matches_reference(battery_buffers, nbits):
    for data in battery_buffers.values():
        assert_battery_exact(data, nbits)
    if nbits % 8:
        # set the unused bits of the last byte: the battery must ignore them
        tail = bytearray(battery_buffers["shake"])
        tail[nbits // 8] |= (0xFF << (nbits % 8)) & 0xFF
        assert_battery_exact(bytes(tail), nbits)
    if nbits < 2 * N_BITS:  # the 10^6 + k lengths already cross every boundary
        for fill in (0x00, 0xFF, 0x55, 0xAA):
            assert_battery_exact(bytes([fill]) * ((nbits + 7) // 8), nbits)


# the battery's a values: serial (1), byte chi-square (255/2) and block
# frequency at 1 Mbit (7812 blocks) and 4 Mbit (32768 blocks), and others
# up to 2^17 including half-integers
GAMMAINCC_A = [0.5, 1, 1.5, 2, 5.5, 10, 10.5, 30, 127.5, 1000, 1000.5,
               N_BITS // BLOCK_BITS / 2, (1 << 22) // BLOCK_BITS / 2, 131072]


@pytest.mark.parametrize("a", GAMMAINCC_A)
def test_gammaincc_matches_scipy(a):
    # x from a - 10 sqrt(a) to a + 40 sqrt(a) and toward 0, where Q >= 1e-30
    s = math.sqrt(a)
    xs = np.concatenate([np.linspace(max(a - 10 * s, 0.01), a + 40 * s, 101),
                         [1e-9, 1e-3, 0.3, 0.5, 0.7, 1.0, 2.0, 9.5, 10.0, 10.5]])
    checked = 0
    for x in xs.tolist():
        ref = float(gammaincc(a, x))
        if ref >= 1e-30:
            assert abs(_gammaincc(a, x) - ref) <= 1e-12 * ref, (a, x)
            checked += 1
    assert checked >= 40


def test_gammaincc_closed_forms():
    for x in (1e-12, 1e-3, 0.5, 1.0, 2.5, 10.0, 50.0, 300.0):
        assert _gammaincc(1.0, x) == pytest.approx(math.exp(-x), rel=1e-14, abs=0)
        assert _gammaincc(0.5, x) == pytest.approx(math.erfc(math.sqrt(x)), rel=1e-14, abs=0)
        # Q(a + 1, x) = Q(a, x) + x^a e^-x / Gamma(a + 1)
        assert _gammaincc(2.0, x) == pytest.approx((1 + x) * math.exp(-x), rel=1e-13, abs=0)
    assert _gammaincc(127.5, 0.0) == _gammaincc(1, 0.0) == 1.0


@pytest.mark.parametrize("a", [1, 10.5, 127.5, 3906, 16384])
def test_gammaincc_monotone_in_x(a):
    # non-increasing up to rounding: near Q = 1 the sum of the terms wobbles
    # in its last few ulp, as the largest term moves from one c to the next
    s = math.sqrt(a)
    q = [_gammaincc(a, x) for x in np.linspace(max(a - 12 * s, 0.0), a + 12 * s, 1000)]
    assert q[0] > 0.99 and q[-1] < 1e-5
    assert all(hi * (1 + 1e-13) >= lo for hi, lo in zip(q, q[1:]))


@pytest.mark.parametrize("a", [0, -1, -0.5, 0.25, 1.3, 127.25, float("nan"), float("inf")])
def test_gammaincc_rejects_a_off_the_half_integers(a):
    with pytest.raises(ValueError):
        _gammaincc(a, 1.0)


def test_report_line_format():
    rep = TestReport.from_p("monobit", 1.5, 0.25)
    assert "monobit" in rep.line() and "PASS" in rep.line()


def test_dump_raw_golden_vector(ent_zero):
    sink = io.BytesIO()
    dump_raw(Generator(ent_zero), 16, sink)
    assert sink.getvalue() == GOLDEN_ZERO_SEED

    ent = EntropyInput(bytes(range(32)))
    sink = io.BytesIO()
    dump_raw(Generator(ent), 16, sink)
    assert sink.getvalue() == GOLDEN_COUNT_SEED


def test_dump_raw_negative_size_keeps_the_file(tmp_path, ent_zero):
    path = tmp_path / "kept.bin"
    path.write_bytes(b"7 bytes")
    with pytest.raises(ValueError):
        dump_raw(Generator(ent_zero), -1, str(path))
    assert path.read_bytes() == b"7 bytes"


@pytest.mark.parametrize("nbytes", [2.5, True])
def test_dump_raw_non_int_size_keeps_the_file(tmp_path, ent_zero, nbytes):
    path = tmp_path / "kept.bin"
    path.write_bytes(b"7 bytes")
    with pytest.raises(ValueError):
        dump_raw(Generator(ent_zero), nbytes, str(path))
    assert path.read_bytes() == b"7 bytes"


@pytest.mark.parametrize("source", [bytes(64), bytearray(64)], ids=["bytes", "bytearray"])
def test_dump_raw_reads_only_a_generator(tmp_path, source):
    # a buffer source once wrote its first chunk again for every chunk
    path = tmp_path / "kept.bin"
    path.write_bytes(b"7 bytes")
    with pytest.raises(ValueError):
        dump_raw(source, 16, str(path))
    assert path.read_bytes() == b"7 bytes"


def test_dump_raw_reproducible(tmp_path, ent_zero):
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    dump_raw(Generator(ent_zero), 4096, str(p1))
    dump_raw(Generator(ent_zero), 4096, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.stat().st_size == 4096


def test_dump_raw_exact_length(tmp_path, ent_zero):
    path = tmp_path / "c.bin"
    dump_raw(Generator(ent_zero), 3_000_001, str(path))
    assert path.stat().st_size == 3_000_001


def test_dump_matches_generator_stream(ent_zero):
    sink = io.BytesIO()
    dump_raw(Generator(ent_zero), 100_000, sink)
    assert sink.getvalue() == Generator(ent_zero).next_bytes(100_000)


def test_scatter_encoding_forced():
    # stream bits 000 111 010 -> indexes 0, 7, 2 (LSB-first)
    bits = [0, 0, 0, 1, 1, 1, 0, 1, 0]
    byte0 = sum(b << i for i, b in enumerate(bits[:8]))
    byte1 = bits[8]
    assert list(scatter_indexes(bytes([byte0, byte1]), 3)) == [0, 7, 2]


def test_scatter_constant_zero():
    assert list(scatter_indexes(bytes(100), 50)) == [0] * 50


def test_scatter_range_and_count(ent_zero):
    ix = scatter_indexes(Generator(ent_zero), 10_000)
    assert len(ix) == 10_000
    assert ix.min() >= 0 and ix.max() <= 7


def test_scatter_csv(tmp_path):
    path = tmp_path / "scatter.csv"
    write_scatter_csv(np.array([3, 0, 7], dtype=np.uint8), str(path))
    assert path.read_text() == "position,index\n0,3\n1,0\n2,7\n"
    sink = io.StringIO()
    write_scatter_csv(np.array([3, 0, 7], dtype=np.uint8), sink)
    assert sink.getvalue() == path.read_text()


def test_scatter_rejects_zero_count(ent_zero):
    with pytest.raises(ValueError):
        scatter_indexes(Generator(ent_zero), 0)
