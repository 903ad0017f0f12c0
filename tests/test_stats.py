import hashlib
import io

import numpy as np
import pytest
from oracles import ref_battery

from lwerng.errors import InsufficientBits
from lwerng.sampling import EntropyInput
from lwerng.stats import (
    FAIL_P,
    WEAK_P,
    TestReport,
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
    # TestReport equality is == on name, statistic, p-value and verdict
    assert run_battery(data, nbits) == ref_battery(data, nbits)


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
