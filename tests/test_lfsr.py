import random

import numpy as np
import pytest

from lwerng import lfsr
from lwerng.errors import DegenerateState
from lwerng.lfsr import BankState, LfsrBank, _feed, _gather, initialize
from lwerng.lwe_hiding import HiddenSeed, hide
from lwerng.params import Params

from oracles import (
    MASK_BITS,
    IntBank,
    bits_to_int,
    int_emit,
    int_step,
    ref_emit,
    ref_initialize,
    ref_step,
    word_to_bits,
)


def int64(coeffs):
    return np.array(coeffs, dtype=np.int64)


def fake_seed(coeffs, params):
    """HiddenSeed wrapper around explicit designated-polynomial coefficients."""
    return HiddenSeed(b=int64(coeffs), params=params)


def regs_from_oracle(oracle_regs):
    return [bits_to_int(bits) for bits in oracle_regs]


def as_int(bits):
    """An emitted bit array as the LSB-first integer of its bits."""
    return int.from_bytes(np.packbits(bits, bitorder="little"), "little")


def test_initialize_counting_coefficients(params):
    # coefficients 0..31 tie every round, so register j gets j, j+4, ..., j+28
    coeffs = list(range(256))
    bank = initialize(fake_seed(coeffs, params))
    for j in range(4):
        expected = 0
        for i in range(8):
            expected |= (4 * i + j) << (32 * i)
        assert bank.regs[j] == expected
    # mask is coefficients 32..255 as consecutive little-endian words
    expected_mask = 0
    for i, c in enumerate(range(32, 256)):
        expected_mask |= c << (32 * i)
    assert bank.mask == expected_mask
    assert bank.coeff_cursor == 0 and bank.mask_cursor == 0


def test_initialize_matches_reference(params):
    rng = random.Random(100)
    for _ in range(50):
        coeffs = [rng.getrandbits(32) % params.q for _ in range(256)]
        bank = initialize(fake_seed(coeffs, params))
        oracle_regs, oracle_mask = ref_initialize(coeffs)
        assert bank.regs == regs_from_oracle(oracle_regs)
        assert bank.mask == bits_to_int(oracle_mask)


def _fill_word(rng, q):
    """A coefficient, one time in three within 64 of q."""
    return rng.randrange(q - 64, q) if rng.random() < 1 / 3 else rng.randrange(q)


def _branch_words(rng, q, branch):
    """Words (u1, u2, u3, u4) of L1..L4 in one round whose comparison in the
    next round takes `branch`: "tie" (u1^u2 == u3^u4), "swap" (u3^u4 >
    u1^u2) or "keep" (u1^u2 > u3^u4)."""
    while True:
        u = [_fill_word(rng, q) for _ in range(4)]
        if branch == "tie":
            u[3] = u[0] ^ u[1] ^ u[2]
            if u[3] < q:
                return u
        elif u[0] ^ u[1] != u[2] ^ u[3]:
            if (u[2] ^ u[3] > u[0] ^ u[1]) != (branch == "swap"):
                u = u[2:] + u[:2]
            return u


def _branch_fill(rng, q, branches):
    """32 fill coefficients whose comparison in round r takes branches[r - 1].

    Round r - 1's register words are chosen for round r's comparison, then
    handed out in round r - 1's own fill order."""
    coeffs = []
    for rnd, branch in enumerate(branches + ["keep"]):
        u = _branch_words(rng, q, branch)
        swapped = rnd > 0 and branches[rnd - 1] == "swap"
        coeffs += u[2:] + u[:2] if swapped else u
    return coeffs


def test_initialize_one_pass_fill_on_every_branch(params):
    # each of the seven comparisons chosen per vector: ties, swaps, ties in
    # the round after a swap and swaps in consecutive rounds, with words near q
    rng = random.Random(131)
    q, seen = params.q, set()
    for _ in range(300):
        branches = [rng.choice(["tie", "swap", "keep"]) for _ in range(7)]
        coeffs = _branch_fill(rng, q, branches) + [_fill_word(rng, q) for _ in range(224)]
        oracle_regs, oracle_mask = ref_initialize(coeffs)
        regs = regs_from_oracle(oracle_regs)
        if regs[3] == 0:
            continue
        # the oracle took the branches the vector was built for
        for rnd, branch in enumerate(branches, 1):
            w = [reg >> (32 * (rnd - 1)) & 0xFFFFFFFF for reg in regs]
            x12, x34 = w[0] ^ w[1], w[2] ^ w[3]
            assert branch == ("tie" if x12 == x34 else "swap" if x34 > x12 else "keep")
            seen.add((branches[rnd - 2] if rnd > 1 else None, branch))
        bank = initialize(fake_seed(coeffs, params))
        assert bank.regs == regs
        assert bank.mask == bits_to_int(oracle_mask)
    assert {("swap", "tie"), ("swap", "swap"), ("keep", "tie"), ("tie", "swap")} <= seen


@pytest.mark.parametrize("p", [Params(q=16776961, degree=64), Params(q=257, degree=64)],
                         ids=["widest_q", "degree64"])
def test_initialize_matches_reference_at_other_geometries(p):
    # coefficients up to q - 1 < 2^24, the widest q that degree 64 (the
    # smallest the registers fill from) admits, fill every word to its top
    # set bit; degree 64 leaves a 1024-bit mask of 32 words
    rng = random.Random(101)
    for trial in range(20):
        coeffs = [rng.randrange(p.q) for _ in range(p.degree)]
        if trial == 0:
            coeffs = [p.q - 1] * p.degree
        bank = initialize(fake_seed(coeffs, p))
        oracle_regs, oracle_mask = ref_initialize(coeffs, bank.mask_bits)
        assert bank.regs == regs_from_oracle(oracle_regs)
        assert bank.mask == bits_to_int(oracle_mask)


def test_initialize_order_swap_branch(params):
    # x34 > x12 in round 1 sends the first two coefficients to L3, L4
    coeffs = [0, 0, 0, 1] + list(range(100, 128)) + [0] * 224
    bank = initialize(fake_seed(coeffs, params))
    assert (bank.regs[2] >> 32) & 0xFFFFFFFF == 100  # L3 word 1
    assert (bank.regs[3] >> 32) & 0xFFFFFFFF == 101  # L4 word 1
    assert (bank.regs[0] >> 32) & 0xFFFFFFFF == 102  # L1 word 1
    assert (bank.regs[1] >> 32) & 0xFFFFFFFF == 103  # L2 word 1


def test_initialize_locality_of_coefficient_zero(params):
    base = list(range(256))
    changed = [9] + base[1:]
    bank_a = initialize(fake_seed(base, params))
    bank_b = initialize(fake_seed(changed, params))
    assert bank_a.regs[0] != bank_b.regs[0]
    assert bank_a.regs[0] ^ bank_b.regs[0] == 9  # only word 0 differs
    assert bank_a.regs[1:] == bank_b.regs[1:]
    assert bank_a.mask == bank_b.mask


def test_all_zero_seed(params):
    zero = fake_seed([0] * 256, params)
    with pytest.raises(DegenerateState):
        initialize(zero)


def test_zero_master_rejected(params):
    # ties every round keep the index order, so L4 collects the zeros at
    # positions 4r+3; nonzero slaves with an all-zero master can never emit
    coeffs = [1, 1, 0, 0] * 8 + [0] * 224
    with pytest.raises(DegenerateState):
        initialize(fake_seed(coeffs, params))


def test_no_mask_words_rejected():
    # degree 32 fills the four registers exactly and leaves no mask word;
    # degree 16 cannot even fill them
    p = Params(q=193, degree=32)
    with pytest.raises(DegenerateState):
        initialize(fake_seed(range(1, 33), p))
    with pytest.raises(DegenerateState):
        initialize(fake_seed(range(1, 17), Params(q=97, degree=16)))


def counting_with(index, value):
    """Coefficients 1..256 with one replaced."""
    coeffs = list(range(1, 257))
    coeffs[index] = value
    return coeffs


@pytest.mark.parametrize("b", [
    int64(range(1, 256)),
    int64(range(1, 258)),
    int64(range(1, 11)),
    int64([-1] + list(range(1, 256))),
    int64([8380417] + list(range(1, 256))),
    int64([1 << 32] + list(range(1, 256))),
    np.array(counting_with(100, 1.5)),
    np.array(counting_with(30, 2.9)),
    np.array(counting_with(100, "7")),
    np.array(counting_with(5, 3.0)),
    list(range(1, 257)),
], ids=["short", "long", "ten", "negative", "q", "two_to_32", "fraction", "fraction_in_fill",
        "string", "integral_float", "list"])
def test_hidden_seed_rejects_malformed_polynomial(params, b):
    # only an int64 array of degree coefficients in [0, q) is a designated
    # polynomial: a float or str array, or a list of valid ints, is not
    with pytest.raises(ValueError):
        HiddenSeed(b=b, params=params)


def test_hidden_seed_holds_b_read_only(params):
    mine = int64(range(1, 257))
    hs = HiddenSeed(b=mine, params=params)
    assert hs.b is mine and not mine.flags.writeable
    # a view is held as a copy, so writing its base cannot reach b
    base = int64(range(1, 257))
    hs = HiddenSeed(b=base[:], params=params)
    base[0] = params.q
    assert hs.b[0] == 1
    with pytest.raises(ValueError):
        hs.b[0] = 2


def test_fill_bit_layout(params):
    # rule 1: bit 32*i + j of the fill is bit j of coefficient i, so mask bit
    # 32*(i - 32) + j is bit j of coefficient i
    rng = random.Random(117)
    coeffs = [rng.randrange(1, params.q) for _ in range(256)]
    bank = initialize(fake_seed(coeffs, params))
    for i, j in [(32, 0), (32, 22), (33, 0), (100, 7), (255, 22), (255, 31)]:
        assert bank.mask >> (32 * (i - 32) + j) & 1 == coeffs[i] >> j & 1
    coeffs = [1] * 32 + [0] * 224
    coeffs[35] = 0x0102
    bank = initialize(fake_seed(coeffs, params))
    assert bank.mask == 0x0102 << 96
    # register words hold coefficients whole: word 0 of L1 is coefficient 0
    assert bank.regs[0] & 0xFFFFFFFF == 1 and bank.regs[0] >> 32 & 0xFFFFFFFF == 1


def test_injected_state_without_mask_words_rejected():
    # injected state fails like initialize, not later in emit_bits
    with pytest.raises(DegenerateState):
        LfsrBank(Params(q=193, degree=32), BankState((1, 1, 1, 1), 0))


@pytest.mark.parametrize("state", [
    dict(regs=(1, 2, 3)),
    dict(regs=(1, 2, 3, 4, 5)),
    dict(regs=(1, 2, 3, 1 << 256)),
    dict(regs=(1 << 300, 2, 3, 4)),
    dict(regs=(1, -2, 3, 4)),
    dict(mask=1 << 7168),
    dict(mask=-1),
    dict(coeff_cursor=8),
    dict(coeff_cursor=-1),
    dict(mask_cursor=7168),
    dict(mask_cursor=-5),
    dict(pending=b"\x01\x02"),
    dict(regs=(1.5, 2, 3, 4)),
    dict(mask=5.0),
    dict(coeff_cursor=1.0),
    dict(mask_cursor=2.0),
    dict(pending="\x01"),
], ids=["three_regs", "five_regs", "master_wide", "slave_wide", "negative_reg",
        "mask_wide", "negative_mask", "coeff_cursor_8", "negative_coeff_cursor",
        "mask_cursor_wraps", "negative_mask_cursor", "pending_not_a_bit",
        "float_reg", "float_mask", "float_coeff_cursor", "float_mask_cursor",
        "pending_str"])
def test_injected_state_out_of_range_rejected(params, state):
    # state the machine cannot hold fails at injection, not somewhere in
    # emission; each case moves one field of an accepted state out of range.
    # The accepted state holds every field's upper edge but L1..L3's.
    valid = dict(regs=(1, 2, 3, (1 << 256) - 1), mask=(1 << 7168) - 1, coeff_cursor=7,
                 mask_cursor=7167, pending=b"\x01\x00")
    LfsrBank(params, BankState(**valid))
    with pytest.raises(ValueError):
        LfsrBank(params, BankState(**{**valid, **state}))


def test_step_zero_word(params):
    bank = LfsrBank(params, BankState([5, 6, 7, 2 << 32], 0))
    regs_before = list(bank.regs)
    v, w = bank.step()
    assert (v, w) == (0, 0)
    assert bank.regs == regs_before  # nothing shifts on an all-zero word
    assert bank.coeff_cursor == 1


@pytest.mark.parametrize("regs", [[5, 6, 7, 2 << 32], [5, 6, 7, 0xFFFFFFFF], [5, 6, 7, 0]],
                         ids=["zero_word", "full_word", "zero_master"])
def test_walk_takes_one_step_for_nothing_needed(params, regs):
    # one step entry and one cursor move, whatever the word; a zero word's
    # entry is 0 and gathers to no bits
    bank = LfsrBank(params, BankState(regs, 0))
    slaves, words = bank._walk(0)
    assert len(words) == 8
    assert bank.coeff_cursor == 1
    assert (not any(words)) == (regs[3] & 0xFFFFFFFF == 0)
    assert (_gather(slaves, words).size == 0) == (not any(words))


def test_step_single_bit_word(params):
    # w = 1: slaves shift 1 bit, master shifts 1 bit, 4 output bits total
    bank = LfsrBank(params, BankState([0b10, 0b11, 0b01, 1], 0))
    v, w = bank.step()
    assert w == 3 * 1 + 1
    # ejected LSBs: l1o=0, l2o=1, l3o=1, then l4o=1
    assert v == 0b1110


def test_step_full_word_bit_count(params):
    # S = 528 pops take three FIFO moves: 256, 256 and 16 bits
    rng = random.Random(101)
    regs = [rng.getrandbits(256) for _ in range(3)] + [0xFFFFFFFF]
    bank = LfsrBank(params, BankState(regs, 0))
    v, w = bank.step()
    assert w == 3 * sum(range(1, 33)) + 32 == 1616
    expected_regs, cursor, expected_v, _ = int_step(regs, 0)
    assert v == expected_v
    assert bank.regs == expected_regs and bank.coeff_cursor == cursor


def test_peak_read_across_two_blocks(params):
    # a step whose pop S ends in the last 32 bits of a 256-bit block reads its
    # peak from that block and the next; S in (224, 256) and (480, 512) ends
    # there from a fresh walk, the second after one whole block
    rng = random.Random(118)
    cases = {False: 0, True: 0}
    while min(cases.values()) < 20:
        w = rng.getrandbits(32)
        if cases[True] < cases[False]:
            # each bit set with probability 7/8: S > 480 is then common
            w |= rng.getrandbits(32) | rng.getrandbits(32)
        s = _feed(w)[1]
        if s % 256 <= 224:
            continue
        cases[s > 256] += 1
        regs = [rng.getrandbits(256) for _ in range(3)] + [rng.getrandbits(224) << 32 | w]
        bank = LfsrBank(params, BankState(regs, 0))
        v, nbits = bank.step()
        expected_regs, cursor, expected_v, expected_nbits = int_step(regs, 0)
        assert (v, nbits) == (expected_v, expected_nbits), hex(w)
        assert bank.regs == expected_regs and bank.coeff_cursor == cursor, hex(w)


def chunk_loop(w):
    """W's chunks and S by walking w's set bits one at a time."""
    feed = off = 0
    for pos in range(1, 33):
        if (w >> (pos - 1)) & 1:
            feed |= (w & ((1 << pos) - 1)) << off
            off += pos
    return feed, off


def test_byte_tables_match_chunk_loop():
    rng = random.Random(110)
    words = [(rng.getrandbits(32) & ~(0xFF << (8 * j))) | (b << (8 * j))
             for j in range(4) for b in range(256)]
    words += [b << (8 * j) for j in range(4) for b in range(256)]
    words += [rng.getrandbits(32) for _ in range(2000)] + [0xFFFFFFFF]
    for w in words:
        assert _feed(w) == chunk_loop(w), hex(w)
    assert _feed(0xFFFFFFFF)[1] == 528


def test_step_matches_reference(params):
    rng = random.Random(102)
    for _ in range(20):
        coeffs = [rng.getrandbits(32) % params.q for _ in range(256)]
        bank = initialize(fake_seed(coeffs, params))
        oracle_regs, _ = ref_initialize(coeffs)
        cursor = 0
        for _ in range(50):
            v, w = bank.step()
            oracle_regs, cursor, out_bits = ref_step(oracle_regs, cursor)
            assert w == len(out_bits)
            assert v == bits_to_int(out_bits)
            assert bank.regs == regs_from_oracle(oracle_regs)
            assert bank.coeff_cursor == cursor


def test_output_count_law_instrumented(params):
    rng = random.Random(103)
    coeffs = [rng.getrandbits(32) % params.q for _ in range(256)]
    bank = initialize(fake_seed(coeffs, params))
    for _ in range(1000):
        word = (bank.regs[3] >> (32 * bank.coeff_cursor)) & 0xFFFFFFFF
        expected = 3 * sum(
            p for p in range(1, 33) if (word >> (p - 1)) & 1
        ) + bin(word).count("1")
        _, w = bank.step()
        assert w == expected


def test_register_width_conserved(params):
    rng = random.Random(104)
    coeffs = [rng.getrandbits(32) % params.q for _ in range(256)]
    bank = initialize(fake_seed(coeffs, params))
    for _ in range(200):
        bank.step()
        assert all(0 <= r < (1 << 256) for r in bank.regs)


def test_emit_zero_bits(params):
    rng = random.Random(105)
    coeffs = [rng.getrandbits(32) % params.q for _ in range(256)]
    bank = initialize(fake_seed(coeffs, params))
    regs_before = list(bank.regs)
    assert bank.emit_bits(0).size == 0
    assert bank.regs == regs_before


def test_emit_with_zero_mask_equals_raw(params):
    rng = random.Random(106)
    regs = [rng.getrandbits(256) for _ in range(4)]
    bank_a = LfsrBank(params, BankState(regs, 0))
    bank_b = LfsrBank(params, BankState(regs, 0))
    raw_v, raw_w = bank_b.step()
    emitted = bank_a.emit_bits(raw_w)
    assert as_int(emitted) == raw_v


def test_emit_chunking_invariance(params):
    rng = random.Random(107)
    coeffs = [rng.getrandbits(32) % params.q for _ in range(256)]
    bank_a = initialize(fake_seed(coeffs, params))
    bank_b = initialize(fake_seed(coeffs, params))
    lo = bank_a.emit_bits(64)
    hi = bank_a.emit_bits(64)
    combined = bank_b.emit_bits(128)
    assert as_int(combined) == as_int(lo) | (as_int(hi) << 64)


def test_emit_matches_reference_whitening(params):
    rng = random.Random(108)
    for _ in range(5):
        coeffs = [rng.getrandbits(32) % params.q for _ in range(256)]
        bank = initialize(fake_seed(coeffs, params))
        oracle_regs, oracle_mask = ref_initialize(coeffs)
        got = bank.emit_bits(4096)
        expected = ref_emit(oracle_regs, oracle_mask, 0, 0, 4096)
        assert as_int(got) == bits_to_int(expected)


def test_emit_from_zero_master_raises(params):
    bank = LfsrBank(params, BankState([1, 2, 3, 0], 1))
    with pytest.raises(DegenerateState):
        bank.emit_bits(8)


def test_degenerate_emit_keeps_buffered_bits(params):
    # one step empties the master: its 4 raw bits are buffered before the raise
    state = BankState((3, 0, 0, 1), 0)
    raw_v, raw_w = LfsrBank(params, state).step()
    assert raw_w == 4
    bank = LfsrBank(params, state)
    with pytest.raises(DegenerateState):
        bank.emit_bits(100)
    assert bank.regs[3] == 0
    assert as_int(bank.emit_bits(4)) == raw_v


def test_emit_matches_int_emit_long(params):
    # >= 20480 steps per state in reads that split steps and cross the
    # 7168-bit mask period; the end state must match too.  The last state's
    # master starts with six zero words, so the first batches step through
    # zero words among emitting ones.
    sizes = [1, 5, 7, 100, 811, 7169, 32768, 3, 98304, 14336, 0, 1616]
    banks = []
    for seed in (112, 113, 114):
        rng = random.Random(seed)
        coeffs = [rng.getrandbits(32) % params.q for _ in range(256)]
        banks.append(initialize(fake_seed(coeffs, params)))
    rng = random.Random(116)
    regs = [rng.getrandbits(256) for _ in range(3)] + [rng.getrandbits(64) << 192]
    banks.append(LfsrBank(params, BankState(regs, rng.getrandbits(MASK_BITS))))
    for k, bank in enumerate(banks):
        ref = IntBank(bank.regs, bank.mask)
        i = 0
        while ref.steps < 20480:
            n = sizes[i % len(sizes)]
            got = bank.emit_bits(n)
            assert got.size == n, (k, i, n)
            assert as_int(got) == int_emit(ref, n), (k, i, n)
            i += 1
        assert bank.regs == ref.regs
        assert bank.coeff_cursor == ref.coeff_cursor
        assert bank.mask_cursor == ref.mask_cursor


def test_degenerate_inside_one_emit(params):
    # the master empties on the second emitting step (ninth step) of one
    # request; a later read gets exactly the bits stepped out before that
    rng = random.Random(19)
    state = dict(regs=[rng.getrandbits(256) for _ in range(3)] + [0b101],
                 mask=rng.getrandbits(MASK_BITS))
    bank = LfsrBank(params, BankState(**state))
    ref = IntBank(**state)
    with pytest.raises(DegenerateState):
        bank.emit_bits(10_000)
    with pytest.raises(DegenerateState):
        int_emit(ref, 10_000)
    assert ref.steps == 9 and ref.buflen > 4
    assert bank.regs == ref.regs and bank.regs[3] == 0
    assert bank.coeff_cursor == ref.coeff_cursor
    assert bank.mask_cursor == ref.mask_cursor
    assert as_int(bank.emit_bits(ref.buflen)) == int_emit(ref, ref.buflen)
    with pytest.raises(DegenerateState):
        bank.emit_bits(1)


def _steps_to_raw_end(regs, start, end):
    """Raw bits of the first steps from `regs` that take mask cursor `start`
    to `end` bits past a period boundary, or None within four periods."""
    cursor = got = 0
    while start + got < 4 * MASK_BITS:
        regs, cursor, _, w = int_step(regs, cursor)
        got += w
        if start + got > MASK_BITS and (start + got - end) % MASK_BITS == 0:
            return got
    return None


@pytest.mark.parametrize("end", [-1, 0, 1], ids=["before", "at", "after"])
@pytest.mark.parametrize("start", [0, 1, MASK_BITS - 1], ids=["c0", "c1", "cP-1"])
def test_emit_around_mask_period_boundary(params, start, end):
    # whitening XORs the mask repeated from the cursor, so raw bit g meets
    # mask bit (cursor + g) mod the period; reads and walks that end one bit
    # either side of a period boundary must match int_emit.  The first read
    # spans three periods, the last sequence starts with a walk inside the
    # first period.
    rng = random.Random(120 + 3 * start + end)
    mask = rng.getrandbits(MASK_BITS)
    regs = [rng.getrandbits(256) for _ in range(4)]
    reads = [3 * MASK_BITS - start + end, 1000]
    # a state whose walk for the whole request ends there too
    while (got := _steps_to_raw_end(regs, start, end)) is None:
        regs = [rng.getrandbits(256) for _ in range(4)]
    for sizes in (reads, [got, 1000], [100, 3000]):
        bank = LfsrBank(params, BankState(regs, mask, 0, start))
        ref = IntBank(regs, mask, 0, start)
        for n in sizes:
            assert as_int(bank.emit_bits(n)) == int_emit(ref, n), (n, sizes)
            assert bank.mask_cursor == ref.mask_cursor


def test_one_large_emit_equals_4kib_pieces(params, monkeypatch):
    # the gather's shared index base starts empty and grows for each
    monkeypatch.setattr(lfsr, "_BASE", np.arange(0))
    rng = random.Random(121)
    state = BankState([rng.getrandbits(256) for _ in range(4)], rng.getrandbits(MASK_BITS))
    n = 2**20 + 13
    pieces = LfsrBank(params, state)
    small = np.concatenate([pieces.emit_bits(min(32768, n - k)) for k in range(0, n, 32768)])
    assert lfsr._BASE.size < 2**20
    whole = LfsrBank(params, state)
    assert np.array_equal(whole.emit_bits(n), small)
    assert lfsr._BASE.size >= 2**20 and not lfsr._BASE.flags.writeable
    assert whole.state() == pieces.state()


def test_mask_cursor_wraps(params):
    rng = random.Random(109)
    coeffs = [rng.getrandbits(32) % params.q for _ in range(256)]
    bank = initialize(fake_seed(coeffs, params))
    bank.emit_bits(2 * MASK_BITS + 5)
    assert 0 <= bank.mask_cursor < MASK_BITS


def test_trace_record_and_format(params):
    bank = LfsrBank(params, BankState([0b10, 0b11, 0b01, 1], 0))
    assert bank.step() == (0b1110, 4)
    # every step, zero words included, emits what int_step does
    rng = random.Random(115)
    regs = [rng.getrandbits(256) for _ in range(3)] + [rng.getrandbits(64) << 192]
    bank = LfsrBank(params, BankState(regs, 0))
    cursor = 0
    for _ in range(24):
        regs, cursor, ev, ew = int_step(regs, cursor)
        assert bank.step() == (ev, ew)


def test_initialize_from_real_hide(ent_zero, params):
    bank = initialize(hide(ent_zero, params))
    total_reg_bits = sum(r.bit_length() for r in bank.regs)
    assert 0 < total_reg_bits <= 4 * 256
    assert bank.mask.bit_length() <= MASK_BITS


def test_identical_seed_identical_stream_prefix(ent_zero, params):
    hs = hide(ent_zero, params)
    a = initialize(hs).emit_bits(1_000_000)
    b = initialize(hs).emit_bits(1_000_000)
    assert as_int(a) == as_int(b)
