import copy
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from lwerng import stream
from lwerng.errors import DegenerateState
from lwerng.lfsr import BankState, LfsrBank, initialize
from lwerng.lwe_hiding import hide
from lwerng.sampling import EntropyInput, derive_reseed_entropy
from lwerng.stream import DEFAULT_RESEED_INTERVAL, Generator, epoch_bank

from conftest import fixed_ent
from oracles import MASK_BITS, IntBank, int_emit


def test_determinism_ten_million_bits(ent_zero):
    a = Generator(ent_zero).next_bytes(1_250_000)
    b = Generator(ent_zero).next_bytes(1_250_000)
    assert a == b


def test_chunked_reads_concatenate(ent_zero):
    whole = Generator(ent_zero).next_bytes(4096)
    gen = Generator(ent_zero)
    parts = b"".join(gen.next_bytes(n) for n in (1, 2, 509, 512, 1024, 2048))
    assert parts == whole


def test_zero_read(ent_zero):
    gen = Generator(ent_zero)
    assert gen.next_bytes(0) == b""
    with pytest.raises(ValueError):
        gen.next_bytes(-1)


def test_avalanche_on_seed_flip(ent_zero):
    flipped = EntropyInput(bytes([ent_zero.data[0] ^ 0x01]) + ent_zero.data[1:])
    nbits = 1_000_000
    a = Generator(ent_zero).next_bytes(nbits // 8)
    b = Generator(flipped).next_bytes(nbits // 8)
    diff = int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
    fraction = bin(diff).count("1") / nbits
    assert 0.49 <= fraction <= 0.51


def test_no_reseed_when_disabled(ent_zero):
    gen = Generator(ent_zero, reseed_interval=0)
    gen.next_bytes(300_000)  # > 2^20 bits
    assert gen.generation == 0
    assert gen._ent is None  # entropy not retained without auto-reseed


def test_default_reseed_interval(ent_zero):
    gen = Generator(ent_zero)
    assert gen.reseed_interval == DEFAULT_RESEED_INTERVAL == 1 << 20
    gen.next_bytes(131_072)  # exactly 2^20 bits
    assert gen.generation == 1
    assert gen.bits_emitted == 0


def test_reseed_boundary_differential(ent_zero):
    interval = 1024  # bits -> boundary at byte 128
    with_reseed = Generator(ent_zero, reseed_interval=interval).next_bytes(256)
    without = Generator(ent_zero, reseed_interval=0).next_bytes(256)
    assert with_reseed[:128] == without[:128]
    assert with_reseed[128:] != without[128:]


def test_reseed_deterministic(ent_zero):
    a = Generator(ent_zero, reseed_interval=1024).next_bytes(1024)
    b = Generator(ent_zero, reseed_interval=1024).next_bytes(1024)
    assert a == b


def test_reseed_interval_not_byte_aligned(ent_zero):
    # interval 1001 bits forces mid-byte segment splits
    a = Generator(ent_zero, reseed_interval=1001).next_bytes(512)
    gen = Generator(ent_zero, reseed_interval=1001)
    b = gen.next_bytes(100) + gen.next_bytes(412)
    assert a == b
    assert gen.generation == (512 * 8) // 1001


@pytest.mark.parametrize("interval", [1001, (1 << 18) + 5])
def test_matches_epoch_by_epoch_reference(ent_zero, params, interval):
    # epoch k is int_emit on the bank of hide(e_k), e_0 = ent and e_k the
    # derived reseed entropy, the epochs concatenated LSB-first.  Reads of
    # mixed sizes cover at least three epochs; at (1 << 18) + 5 one read puts
    # a 5-bit segment, carried into the next epoch, right after a full
    # 2^18-bit segment.
    sizes = itertools.cycle((1, 7, 4095, 40000, 3))
    gen = Generator(ent_zero, reseed_interval=interval)
    got = b""
    while 8 * len(got) < 3 * interval:
        got += gen.next_bytes(next(sizes))
    ref = 0
    for k in range(-(-8 * len(got) // interval)):
        ent = derive_reseed_entropy(ent_zero, k) if k else ent_zero
        bank = initialize(hide(ent, params))
        ref |= int_emit(IntBank(bank.regs, bank.mask), interval) << (k * interval)
    nbits = 8 * len(got)
    assert got == (ref & ((1 << nbits) - 1)).to_bytes(len(got), "little")


def test_generation_counter(ent_zero):
    gen = Generator(ent_zero, reseed_interval=1024)
    gen.next_bytes(128 * 5)
    assert gen.generation == 5


@pytest.mark.parametrize("interval", [2.5, True, "8", None])
def test_non_integer_reseed_interval_rejected(ent_zero, interval):
    with pytest.raises(ValueError):
        Generator(ent_zero, reseed_interval=interval)


def test_non_integer_read_steps_nothing(ent_zero):
    gen = Generator(ent_zero, reseed_interval=0)
    before = gen.bank.state()
    with pytest.raises(ValueError):
        gen.next_bytes(2.0)
    assert gen.bank.state() == before and gen.bits_emitted == 0


def test_large_read_memory_is_bounded(ent_zero):
    # a read packs each segment into its output as it lands, so a 1 MiB read
    # holds the output and one segment's walk, not the whole read one byte
    # per bit; the warm-up read grows the shared gather index first
    gen = Generator(ent_zero, reseed_interval=0)
    gen.next_bytes(1 << 20)
    tracemalloc.start()
    try:
        gen.next_bytes(1 << 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_distinct_seeds_distinct_streams():
    streams = {Generator(fixed_ent(tag)).next_bytes(32) for tag in range(20)}
    assert len(streams) == 20


def test_output_not_trivially_biased(ent_zero):
    data = Generator(ent_zero).next_bytes(125_000)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    assert abs(bits.mean() - 0.5) < 0.01


def dying_bank(params):
    """The rng(19) state of test_lfsr: its master empties after 18 raw bits."""
    rng = random.Random(19)
    return LfsrBank(params, BankState([rng.getrandbits(256) for _ in range(3)] + [0b101],
                                      rng.getrandbits(MASK_BITS)))


def packed(bits):
    return np.packbits(bits, bitorder="little").tobytes()


def test_failed_read_keeps_its_bits(ent_zero, params, monkeypatch):
    # with 8-bit segments, next_bytes(3) takes two segments before the third
    # meets the empty master; a retry reads the bits a fresh run gives
    monkeypatch.setattr(stream, "_EMIT_CHUNK_BITS", 8)
    fresh = packed(dying_bank(params).emit_bits(16))
    gen = Generator(ent_zero, params, reseed_interval=0)
    gen.bank = dying_bank(params)
    with pytest.raises(DegenerateState):
        gen.next_bytes(3)
    assert gen.bits_emitted == 0
    assert gen.next_bytes(2) == fresh
    assert gen.bits_emitted == 16
    with pytest.raises(DegenerateState):
        gen.next_bytes(1)


def test_failed_reseed_keeps_the_epoch(ent_zero, monkeypatch):
    # the first reseed's fill fails once; the failed read returns nothing and
    # the retry gives epoch 0 and then epoch 1, as a fresh run does
    fresh = Generator(ent_zero, reseed_interval=64).next_bytes(24)
    gen = Generator(ent_zero, reseed_interval=64)
    fills = []

    def fail_once(hs):
        fills.append(hs)
        if len(fills) == 1:
            raise DegenerateState("injected")
        return initialize(hs)

    monkeypatch.setattr(stream, "initialize", fail_once)
    with pytest.raises(DegenerateState):
        gen.next_bytes(8)
    assert (gen.generation, gen.bits_emitted) == (0, 0)
    assert gen.next_bytes(8) + gen.next_bytes(16) == fresh
    assert gen.generation == 3


def test_failed_read_after_a_reseed_restores_the_epoch(ent_zero, params, monkeypatch):
    # every reseed fills the dying bank: a read across the boundary fails on
    # every retry, and a read that stops short gives what a fresh run gives
    gen = Generator(ent_zero, params, reseed_interval=64)
    epoch0 = Generator(ent_zero, params, reseed_interval=0).next_bytes(8)
    monkeypatch.setattr(stream, "initialize", lambda hs: dying_bank(params))
    for _ in range(2):
        with pytest.raises(DegenerateState):
            gen.next_bytes(24)
        assert (gen.generation, gen.bits_emitted) == (0, 0)
    assert gen.next_bytes(8) == epoch0
    with pytest.raises(DegenerateState):
        gen.next_bytes(16)
    assert (gen.generation, gen.bits_emitted) == (1, 0)
    assert gen.next_bytes(2) == packed(dying_bank(params).emit_bits(16))


def test_failed_read_restores_pending_bits(ent_zero, params):
    # next_bytes(1) leaves the rest of its last step pending; the failed read
    # after it must restore them, so the retry reads on as a fresh run does
    fresh = packed(dying_bank(params).emit_bits(16))
    gen = Generator(ent_zero, params, reseed_interval=0)
    gen.bank = dying_bank(params)
    assert gen.next_bytes(1) == fresh[:1]
    assert gen.bank.state().pending
    with pytest.raises(DegenerateState):
        gen.next_bytes(2)
    assert gen.bits_emitted == 8
    assert gen.next_bytes(1) == fresh[1:]


@pytest.mark.parametrize("size", [1, 5, 4096])
@pytest.mark.parametrize("interval", [0, DEFAULT_RESEED_INTERVAL])
def test_copied_state_continues_the_stream(ent_zero, interval, size):
    # a bank between reads holds pending bits; one built from its state emits
    # what it would and reports the same state.  At the default interval the
    # read ends inside epoch 1.
    gen = Generator(ent_zero, reseed_interval=interval)
    gen.next_bytes(interval // 8 + size)
    bank = gen.bank
    copy = LfsrBank(gen.params, bank.state())
    assert copy.state() == bank.state() and bank.state().pending
    assert np.array_equal(copy.emit_bits(10_000), bank.emit_bits(10_000))
    assert copy.state() == bank.state()


def test_shallow_copy_leaves_the_bank_as_it_was(ent_zero, params):
    # a read steps copy.copy(bank); the copy must share nothing it writes
    bank = initialize(hide(ent_zero, params))
    bank.emit_bits(100)
    before = bank.state()
    assert before.pending
    twin = copy.copy(bank)
    # the first read is served from the shared pending bits alone
    bits = np.concatenate([twin.emit_bits(n) for n in (1, 3 * MASK_BITS + 1001, 50)])
    assert twin.state().pending  # the copy stopped mid-step
    assert bank.state() == before
    assert np.array_equal(bank.emit_bits(bits.size), bits)
    assert bank.state() == twin.state()


def test_failed_read_of_any_kind_changes_nothing(ent_zero, monkeypatch):
    # not only DegenerateState: an error in a reseed leaves the generator as it was
    fresh = Generator(ent_zero, reseed_interval=64).next_bytes(16)
    gen = Generator(ent_zero, reseed_interval=64)
    assert gen.next_bytes(3) == fresh[:3]
    bank = gen.bank

    def broken(ent, generation):
        raise RuntimeError("injected")

    monkeypatch.setattr(stream, "derive_reseed_entropy", broken)
    with pytest.raises(RuntimeError):
        gen.next_bytes(8)
    assert gen.bank is bank and (gen.generation, gen.bits_emitted) == (0, 24)
    monkeypatch.undo()
    assert gen.next_bytes(13) == fresh[3:]


@pytest.mark.parametrize("k", [0, 1, 2])
def test_epoch_bank_is_the_bank_after_k_reseeds(ent_zero, params, k):
    # a read that ends exactly on the k-th reseed leaves the fresh bank of
    # epoch k, no bits pending
    interval = 1000 * 8
    gen = Generator(ent_zero, params, reseed_interval=interval)
    gen.next_bytes(k * interval // 8)
    assert (gen.generation, gen.bits_emitted) == (k, 0)
    assert gen.bank.state() == epoch_bank(ent_zero, k, params).state()
