"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The external-suite
reproduction of criterion 1 needs a dieharder binary and an opt-in
environment variable; everything else is self-contained.
"""

import os
import random
import shutil
import statistics
import subprocess
import time

import numpy as np
import pytest

from lwerng import polyring as pr
from lwerng.cli import bench_rates
from lwerng.lfsr import BankState, LfsrBank, initialize
from lwerng.lwe_hiding import distinguishing_experiment, hide
from lwerng.params import default_params
from lwerng.qkd import run_session
from lwerng.sampling import EntropyInput
from lwerng.stats import run_battery, scatter_indexes
from lwerng.stream import Generator

from conftest import degenerate_pair_advantages, fixed_ent
from oracles import conv_negacyclic, hide_oracle, hide_transcript, loop_negacyclic

ENT = EntropyInput(bytes(32))

# throughput figure reported for the original native implementation of this
# generator design, reproducible only to order of magnitude across hardware
BASELINE_MBIT_S = 33.109


def verdict(num: int, name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_battery_desk_scale():
    nbits = 10_000_000
    reports = run_battery(Generator(ENT), nbits)
    bad = [r for r in reports if r.verdict != "pass"]
    verdict(
        1, "internal-battery",
        not bad,
        f"{len(reports)} tests on {nbits} bits, "
        + (f"non-pass: {[r.line() for r in bad]}" if bad else "all pass"),
    )


@pytest.mark.skipif(
    not os.environ.get("LWERNG_DIEHARDER") or shutil.which("dieharder") is None,
    reason="full external run is opt-in: set LWERNG_DIEHARDER=1 with dieharder installed",
)
def test_criterion_01_dieharder_full(tmp_path):
    path = tmp_path / "dump.bin"
    from lwerng.stats import dump_raw

    dump_raw(Generator(ENT), 1_100_000_000, str(path))
    out = subprocess.run(
        ["dieharder", "-a", "-g", "201", "-f", str(path)],
        capture_output=True, text=True, timeout=4 * 3600,
    ).stdout
    failed = out.count("FAILED")
    weak = out.count("WEAK")
    verdict(1, "dieharder-full", failed == 0 and weak <= 2,
            f"FAILED={failed} WEAK={weak}")


def test_criterion_02_throughput():
    rates = bench_rates(ENT, 4_000_000, runs=3, reseed_interval=0)
    measured = statistics.median(rates)
    verdict(
        2, "throughput",
        measured >= 10.0,
        f"measured {measured:.3f} Mbit/s single-threaded; "
        f"reported baseline {BASELINE_MBIT_S} Mbit/s (hardware-dependent)",
    )


def test_criterion_03_ntt_vs_schoolbook():
    p = default_params()
    rng = random.Random(2024)
    t0 = time.perf_counter()
    pairs = 10_000
    a = [[rng.randrange(p.q) for _ in range(p.degree)] for _ in range(pairs)]
    b = [[rng.randrange(p.q) for _ in range(p.degree)] for _ in range(pairs)]
    # every product in one batched call of the package ring
    prods = pr.inv_ntt(pr.ntt(a, p) * pr.ntt(b, p) % p.q, p).tolist()
    for i in range(pairs):
        assert prods[i] == conv_negacyclic(a[i], b[i], p.q), f"pair {i}"
    elapsed = time.perf_counter() - t0
    # the nested-loop oracle agrees too (spot check, it is O(n^2))
    for i in range(3):
        assert prods[i] == loop_negacyclic(a[i], b[i], p.q)
    verdict(3, "ntt-correctness", elapsed < 60.0,
            f"{pairs} pairs exact at q={p.q}, N={p.degree} in {elapsed:.1f}s")


def test_criterion_04_hiding_algebra(toy_params):
    p = default_params()
    half = p.q // 2
    hides = 1000
    for tag in range(hides):
        hs = hide(fixed_ent(tag), p)
        a, s, e, r = hide_transcript(fixed_ent(tag), p)
        prod = np.zeros(p.degree, dtype=np.int64)
        for j in range(p.n):
            prod += conv_negacyclic(a[j], s[j], p.q)
        residue = (
            np.array(hs.b, dtype=np.int64)
            - prod
            - np.array(e, dtype=np.int64)
            - np.array(r, dtype=np.int64) * half
        ) % p.q
        assert not residue.any(), f"replay residue nonzero at hide {tag}"
    for tag in range(50):
        hs = hide(fixed_ent(tag), toy_params)
        a, s, e, r = hide_transcript(fixed_ent(tag), toy_params)
        assert hs.b.tolist() == hide_oracle(a, s, e, r, toy_params.q)
    verdict(4, "hiding-algebra", True,
            f"{hides} designated-row replays exact; 50 toy-ring hides match the oracle")


def test_criterion_05_distinguishing():
    trials = 100_000
    report = distinguishing_experiment(trials, mode="hiding_vs_uniform", seed=0)
    worst = max(
        (r.advantage / max(r.sigma, (0.5 / trials) ** 0.5), r.name)
        for r in report.results
    )
    null_ok = worst[0] <= 3.0
    # positive control: the high-bit distinguisher separates A = s = e = 0
    # concealing r = 1 from the plain sample
    control = degenerate_pair_advantages(default_params())["high_bit_weight"]
    verdict(
        5, "distinguishing",
        null_ok and control > 0.9,
        f"{trials} trials, worst |adv|/sigma = {worst[0]:.2f} ({worst[1]}); "
        f"positive control advantage {control:.3f}",
    )


def test_criterion_06_bit_budget():
    p = default_params()
    hs = hide(ENT, p)
    bank = initialize(hs)
    identities = (
        p.degree * 32 == 8192
        and len(bank.regs) * 256 == 1024
        and bank.mask_bits == 7168
        and len(bank.regs) * 256 + bank.mask_bits == 8192
        and all(r < (1 << 256) for r in bank.regs)
        and bank.mask < (1 << bank.mask_bits)
    )
    # the registers hold exactly coefficients 0..31, the mask exactly 32..255
    fill_words = sorted(
        (bank.regs[reg] >> (32 * i)) & 0xFFFFFFFF for reg in range(4) for i in range(8)
    )
    identities = identities and fill_words == sorted(hs.b[:32])
    mask_words = [(bank.mask >> (32 * i)) & 0xFFFFFFFF for i in range(224)]
    identities = identities and mask_words == hs.b[32:].tolist()
    verdict(6, "bit-budget", identities,
            "8192 = 256x32 split as 4x256 register bits + 7168 mask bits")


def test_criterion_07_output_count_law():
    p = default_params()
    bank = initialize(hide(ENT, p))
    steps = 10_000
    for _ in range(steps):
        word = (bank.regs[3] >> (32 * bank.coeff_cursor)) & 0xFFFFFFFF
        expected = 3 * sum(
            pos for pos in range(1, 33) if (word >> (pos - 1)) & 1
        ) + bin(word).count("1")
        _, width = bank.step()
        assert width == expected
    zero_bank = LfsrBank(p, BankState([1, 2, 3, 5 << 32], 1))
    _, w_zero = zero_bank.step()
    rng = random.Random(7)
    full_bank = LfsrBank(
        p, BankState([rng.getrandbits(256) for _ in range(3)] + [0xFFFFFFFF], 1)
    )
    _, w_full = full_bank.step()
    verdict(7, "output-count-law", w_zero == 0 and w_full == 1616,
            f"{steps} instrumented steps; w=0 -> 0 bits, w=0xFFFFFFFF -> {w_full} bits")


def test_criterion_08_qkd_demo():
    t0 = time.perf_counter()
    n = 1_000_000
    clean = run_session(fixed_ent(1), fixed_ent(2), n)
    tapped = run_session(
        fixed_ent(1), fixed_ent(2), n,
        adversary="intercept_resend", ent_eve=fixed_ent(3),
    )
    elapsed = time.perf_counter() - t0
    ok = (
        abs(clean.sift_fraction - 0.5) <= 0.003
        and clean.qber == 0.0
        and abs(tapped.qber - 0.25) <= 0.005
        and elapsed < 30.0
    )
    verdict(
        8, "qkd-demo", ok,
        f"n={n}: sift {clean.sift_fraction:.4f}, clean qber {clean.qber}, "
        f"intercept qber {tapped.qber:.4f}, {elapsed:.1f}s",
    )


def test_criterion_09_avalanche():
    nbits = 1_000_000
    flipped = EntropyInput(bytes([ENT.data[0] ^ 0x01]) + ENT.data[1:])
    a = Generator(ENT).next_bytes(nbits // 8)
    b = Generator(flipped).next_bytes(nbits // 8)
    diff = int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
    fraction = bin(diff).count("1") / nbits
    verdict(9, "avalanche", abs(fraction - 0.5) <= 0.01,
            f"one-bit seed flip -> Hamming fraction {fraction:.4f} over {nbits} bits")


def test_criterion_10_scatter_uniformity():
    count = 1_000_000
    indexes = scatter_indexes(Generator(ENT), count)
    bins = np.bincount(indexes, minlength=8)
    worst = int(np.abs(bins - count // 8).max())
    verdict(10, "scatter-uniformity", worst <= 1200,
            f"{count} 3-bit indexes, worst bin deviation {worst} (tolerance 1200)")
