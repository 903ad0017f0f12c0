"""Four-register master/slave expansion machine.

Registers are 256-bit integers viewed as 8 words of 32 bits, word 0 at the
LSB end.  L4 is the master: its word at `coeff_cursor` governs one step.
Shifts move toward the LSB; feedback enters at the vacated MSB end.  Raw
output is whitened by XOR against a 7168-bit cyclic mask.

Normative rules this module fixes (stated here once, tests hold them):

  * Initialization reads coefficient i of the designated polynomial, in
    [0, q), as one 32-bit word: bit 32*i + j of the fill is bit j of
    coefficient i.  Round 0 fills word 0 of L1..L4 with coefficients 0..3.
    Rounds r = 1..7 fill word r: compare x12 = (word r-1 of L1) ^ (word r-1
    of L2) against x34 likewise for L3, L4 as unsigned ints.  x12 > x34 or
    a tie gives fill order L1, L2, L3, L4; x34 > x12 gives L3, L4, L1, L2.
    Coefficients 4r..4r+3 are handed out in ascending order; the fill order
    only selects which register receives which coefficient.  Coefficients
    32..degree-1 are the whitening mask, so mask bit 32*(i-32) + j is bit j
    of coefficient i: (degree - 32) * 32 bits, 7168 at degree 256.  A ring
    of degree 32 or less leaves no mask word and raises DegenerateState.
  * One step reads the governing word w once and walks its set bits at
    1-based positions p in ascending order.  For each: slaves shift p bits;
    the ejected low bits l1o/l2o/l3o join the raw output in that order;
    feedback is l1o^l2o into L1, l2o^l3o into L2, l3o^(low p bits of w)
    into L3.  Afterwards L4 shifts by c = popcount(w); its ejected bits
    join the output; feedback is the low c bits of the unsigned max of the
    three slave registers' current word-0 values (after their shifts this
    step) XOR the ejected bits.  Including the master's own word in that
    max would zero the feedback whenever the master holds the largest word
    and drive it toward an all-zero absorbing state, so the max ranges over
    the monitored slaves only.  The cursor then advances mod 8.
  * Raw bits per step = 3 * sum(positions of set bits) + popcount(w).
  * A step with w = 0 emits nothing and only advances the cursor, so a
    master register equal to 0 can never emit again; that state raises
    DegenerateState.

Multi-bit quantities travel LSB-first everywhere: ejected bits, feedback
words, output chunks and the byte packing downstream.

How the machine runs.  Every shift of a step pops the same number of bits
from the three slaves, so on a shared time index t (bits popped so far) each
slave is a FIFO with a lag-256 recurrence:

    x1[t+256] = x1[t] ^ x2[t]
    x2[t+256] = x2[t] ^ x3[t]
    x3[t+256] = x3[t] ^ W[t]

where W concatenates, over each step's set bits p in ascending order, the
low p bits of w.  The register contents do not depend on where a step's
segments begin and end; only the output interleave does.  So each slave's
stream is a run of 256-bit blocks, block k+1 being block k of x1^x2, x2^x3
and x3^W, and emission runs in two phases:

  1. A sequential walk on Python ints (`LfsrBank._walk`).  Per step it builds
     the step's stretch of W and S = sum of positions from per-byte tables,
     ORs the stretch into the block's W at the step's offset, moves the
     offset on by S (and the slaves on by a block each time it passes 256),
     reads the peak at the new offset and updates the master.  Each slave
     keeps the blocks it enters in a list of its own, and the slaves advance
     by in-place XORs.  Every step adds one 64-bit entry, w | l4o << 32 with
     l4o the master's ejected bits, packed at the end as an array("Q").
     Every step, a zero word's included, goes through this one body; a zero
     word's entry is 0 and gathers to no bits.  `emit_bits` walks until its
     request is met and `step` walks one step.
  2. One vectorised pass per batch (`_gather`): the three slave streams and
     the step entries are unpacked together, the run-gather index is built
     from the bits of each step's word (per position p, p bits of each slave
     stream from where the step's pop begins; then the master's bits) as the
     repeated run starts plus a shared, read-only arange, and the raw bits
     are gathered.  `emit_bits` whitens them in place in three slices: the
     rest of the mask from `mask_cursor`, the whole periods through a
     (k, mask_bits) view, then a head of the mask.  So raw bit g meets mask
     bit g mod mask_bits, whatever the step boundaries.  It hands them on as
     a bit array, and the stream packs them into bytes.  Bits past the
     request stay pending; a `BankState` includes them, so a bank built from
     it continues exactly.
"""

from array import array
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateState, check_int
from .lwe_hiding import HiddenSeed
from .params import Params

_M32 = 0xFFFFFFFF
_WORD_BITS = 32  # one coefficient's word in the fill
_REGS = 4
_REG_BITS = 256
_REG_MASK = (1 << _REG_BITS) - 1
_CURSORS = _REG_BITS // _WORD_BITS  # words per register
_FILL_WORDS = _REGS * _CURSORS  # coefficients 0..31 fill the registers


def _byte_tables(j: int):
    """(G, H, S) over the 256 values b of byte j of a governing word.

    The set bits of b sit at positions p = 8j+k+1 and, in ascending order,
    contribute the chunks w & (2^p - 1) back to back.  A chunk's low 8j bits
    are w's low bytes, so the run of chunks is (w & (2^(8j) - 1)) * G[b] |
    H[b]: G has a one at each chunk's offset and H holds bits 8j..p-1 of
    each chunk.  Chunks are at least 8j+1 bits apart, so the product never
    carries.  S[b] is the run's width, the sum of the positions.
    """
    gs, hs, ss = [], [], []
    for b in range(256):
        g = h = off = 0
        for k in range(8):
            if b >> k & 1:
                g |= 1 << off
                h |= (b & ((2 << k) - 1)) << (8 * j + off)
                off += 8 * j + k + 1
        gs.append(g)
        hs.append(h)
        ss.append(off)
    return tuple(gs), tuple(hs), tuple(ss)


(_G0, _H0, _S0), (_G1, _H1, _S1), (_G2, _H2, _S2), (_G3, _H3, _S3) = (
    _byte_tables(j) for j in range(_WORD_BITS // 8))


def _feed(w: int):
    """(W, S): the chunks w & (2^p - 1) over w's set bits p, ascending, and their width."""
    b0, b1, b2, b3 = w & 0xFF, w >> 8 & 0xFF, w >> 16 & 0xFF, w >> 24
    s1 = _S0[b0]
    s2 = s1 + _S1[b1]
    s3 = s2 + _S2[b2]
    feed = (_H0[b0]
            | ((w & 0xFF) * _G1[b1] | _H1[b1]) << s1
            | ((w & 0xFFFF) * _G2[b2] | _H2[b2]) << s2
            | ((w & 0xFFFFFF) * _G3[b3] | _H3[b3]) << s3)
    return feed, s3 + _S3[b3]


def _run_tables():
    """Phase-2 tables for a step's 99 runs, run 3*g + r being segment g of slave r.

    Segments g = 0..31 are the positions p = g+1, segment 32 the master.  A
    step's 32 word bits times the (32, 200) table give each run's length,
    then each run's start in its source minus its offset in the step's
    output, and last the step's pop S and S less its output width 3S + c.
    Segment p has length p if bit p-1 is set; the master's has length c, as
    run 96 only.  With off the sum of the set positions below the segment
    (S for the master), its run of slave r starts off bits into the step's
    pop and at 3*off + r*length in the output.  The second table names each
    run's slave.
    """
    pos = np.arange(1, _WORD_BITS + 1, dtype=np.float32)
    seg = np.zeros((_WORD_BITS, _WORD_BITS + 1), np.float32)
    seg[:, :-1] = np.diag(pos)
    seg[:, -1] = 1
    off = np.triu(np.repeat(pos[:, None], _WORD_BITS + 1, axis=1), k=1)
    slave = np.arange(3)
    lengths = np.repeat(seg[:, :, None], 3, axis=2)
    lengths[:, -1, 1:] = 0
    shifts = -2 * off[:, :, None] - seg[:, :, None] * slave
    popped = off[:, -1:]
    table = np.hstack([lengths.reshape(_WORD_BITS, -1), shifts.reshape(_WORD_BITS, -1),
                       popped, -2 * popped - seg[:, -1:]])
    return table.astype(np.float32), np.tile(slave, _WORD_BITS + 1)


_RUNS = 3 * (_WORD_BITS + 1)
_MASTER_RUN = _RUNS - 3
_RUN_TABLE, _RUN_SLAVE = _run_tables()
_BASE_QUANTUM = 1 << 12  # entries (32 KB); a one-step gather fits in one
_BASE = np.arange(0)


def _index_base(size: int) -> np.ndarray:
    """The shared, read-only arange that every gather adds to its run starts.

    It holds at least `size` entries.  A larger walk regrows it to the next
    multiple of _BASE_QUANTUM, so it holds no more than the largest gather
    of the process needed plus one quantum.  A 512 KB quantum cost a fresh
    key a third more minor page faults (0.44 against 0.33 per key).
    """
    global _BASE
    if _BASE.size < size:
        _BASE = np.arange(-(-size // _BASE_QUANTUM) * _BASE_QUANTUM)
        _BASE.flags.writeable = False
    return _BASE


def _gather(slaves: bytes, words: bytes) -> np.ndarray:
    """Phase 2: the raw output bits of a walk, one uint8 per bit.

    `slaves` is the x1, x2 and x3 streams back to back, each L bits from
    the walk's first popped bit; `words` holds one 64-bit entry per step,
    w | l4o << 32.  Per step the output is, for each set position p in
    ascending order, p bits of x1, x2 and x3 from the step's pop, then the
    master's bits.  The float32 product is exact: its entries are sums of
    at most 32 integers below 2^11.
    """
    bits = np.unpackbits(np.frombuffer(slaves + words, np.uint8), bitorder="little")
    span = 8 * len(slaves) // 3
    steps = bits[3 * span:].reshape(-1, 2 * _WORD_BITS)
    runs = (steps[:, :_WORD_BITS] @ _RUN_TABLE).astype(np.int64)
    ends = np.cumsum(runs[:, -2:], axis=0)
    # each step's pop start minus its output start
    shift = ends[:, 1] - runs[:, -1]
    starts = runs[:, _RUNS:-2] + _RUN_SLAVE * span + shift[:, None]
    # the master's run reads its step's entry from bit 32, not a slave stream
    l4o = np.arange(3 * span + _WORD_BITS, bits.size, 2 * _WORD_BITS)
    starts[:, _MASTER_RUN] += l4o - ends[:, 0]
    idx = np.repeat(starts.ravel(), runs[:, :_RUNS].ravel())
    idx += _index_base(idx.size)[:idx.size]
    return bits.take(idx)


def _mask_width(p: Params) -> int:
    """Bits of whitening mask the designated polynomial leaves: (degree - 32) * 32.

    Raises DegenerateState if it leaves none (degree <= 32).
    """
    width = (p.degree - _FILL_WORDS) * _WORD_BITS
    if width <= 0:
        raise DegenerateState("polynomial leaves no words for the whitening mask")
    return width


@dataclass(frozen=True)
class BankState:
    """A bank between reads: registers L1..L4, mask, cursors and pending bits.

    `pending` is the whitened bits stepped out but not yet read, one byte per
    bit.  A walk overshoots its read by up to one step, so only with them does
    `LfsrBank(params, state)` continue the stream bit for bit.
    """

    regs: tuple
    mask: int
    coeff_cursor: int = 0
    mask_cursor: int = 0
    pending: bytes = b""


class LfsrBank:
    """Mutable register bank; exclusive access required while stepping.

    Its BankState enters by the constructor only and leaves by `state()`.
    The bank rebinds `regs`, `_buf` and `_mask_unpacked` and never writes
    them in place: `_walk` assigns a new register list and `emit_bits`
    whitens a fresh gather array.  So `copy.copy(bank)` is a whole copy:
    stepping it leaves the original as it was."""

    def __init__(self, params: Params, state: BankState):
        """Raises DegenerateState if params leave no mask words.

        Raises ValueError on state the machine cannot hold: other than four
        registers, a register, mask or cursor that is not an int (a bool is
        not one), pending bits that are not bytes, or any of them out of range.
        """
        mask_bits = _mask_width(params)
        regs, mask = list(state.regs), state.mask
        if len(regs) != _REGS:
            raise ValueError(f"{len(regs)} registers, not {_REGS}")
        for name, value in zip(("L1", "L2", "L3", "L4", "mask", "coeff_cursor", "mask_cursor"),
                               (*regs, mask, state.coeff_cursor, state.mask_cursor)):
            check_int(name, value, 0)
        if not isinstance(state.pending, (bytes, bytearray)):
            raise ValueError("pending bits must be bytes")
        if max(regs) > _REG_MASK:
            raise ValueError(f"registers must lie in [0, 2^{_REG_BITS})")
        if mask >> mask_bits:
            raise ValueError(f"mask must lie in [0, 2^{mask_bits})")
        if state.coeff_cursor >= _CURSORS:
            raise ValueError(f"coeff_cursor={state.coeff_cursor} is not in [0, {_CURSORS})")
        if state.mask_cursor >= mask_bits:
            raise ValueError(f"mask_cursor={state.mask_cursor} is not in [0, {mask_bits})")
        if state.pending.translate(None, b"\0\1"):
            raise ValueError("pending bits must be 0 or 1")
        self.params = params
        self.mask_bits = mask_bits
        self.regs = regs
        self.mask = mask
        self.coeff_cursor = state.coeff_cursor
        self.mask_cursor = state.mask_cursor
        self._buf = np.frombuffer(state.pending, np.uint8).copy()
        # the mask as one uint8 per bit, mask bit 0 first
        self._mask_unpacked = np.unpackbits(
            np.frombuffer(mask.to_bytes(mask_bits // 8, "little"), np.uint8),
            bitorder="little")

    def __copy__(self) -> "LfsrBank":
        """A shallow copy with the attributes copied directly; copy.copy's
        generic path through __reduce_ex__ is several times slower on a
        fresh key's first read."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        return twin

    def state(self) -> BankState:
        """The bank's state now, pending bits included."""
        return BankState(tuple(self.regs), self.mask, self.coeff_cursor, self.mask_cursor,
                         self._buf.tobytes())

    @classmethod
    def from_state(cls, params, regs, mask, coeff_cursor, mask_cursor) -> "LfsrBank":
        """The constructor as the frozen harness calls it; goes with ROADMAP item 1."""
        return cls(params, BankState(regs, mask, coeff_cursor, mask_cursor))

    # -- stepping ----------------------------------------------------------

    def step(self):
        """One full governing-word cycle; returns raw (value, nbits), LSB-first.

        Kept for the frozen harness's step probe; goes with ROADMAP item 1."""
        raw = _gather(*self._walk(0))
        return int.from_bytes(np.packbits(raw, bitorder="little"), "little"), raw.size

    def _walk(self, need: int):
        """Phase 1: step until `need` raw bits are out or the master is zero.

        Returns (slaves, words) for `_gather`.  The walk takes at least one
        step, so `_walk(0)` is exactly one.  Block k+1 follows once the steps
        have fed block k's 256 bits of W.  A peak at offset o > 224 reads
        the block and the next.  A step with w = 0 feeds nothing and leaves
        the master as it is.
        """
        r1, r2, r3, l4 = self.regs
        cursor = self.coeff_cursor
        x1, x2, x3 = [], [], []  # each slave's blocks the walk has entered
        words = []
        wacc = o = got = 0  # W from the block's start; the offset in the block
        while True:
            w = l4 >> (cursor * _WORD_BITS) & _M32
            cursor = (cursor + 1) % _CURSORS
            feed, s = _feed(w)
            wacc |= feed << o
            o += s
            while o >= _REG_BITS:
                x1.append(r1)
                x2.append(r2)
                x3.append(r3)
                r1 ^= r2
                r2 ^= r3
                r3 ^= wacc & _REG_MASK
                wacc >>= _REG_BITS
                o -= _REG_BITS
            if o <= _REG_BITS - _WORD_BITS:
                p1, p2, p3 = r1 >> o & _M32, r2 >> o & _M32, r3 >> o & _M32
            else:
                t = _REG_BITS - o
                p1 = (r1 >> o | (r1 ^ r2) << t) & _M32
                p2 = (r2 >> o | (r2 ^ r3) << t) & _M32
                p3 = (r3 >> o | (r3 ^ wacc) << t) & _M32
            # the peak by comparisons: a max() call costs more
            peak = p1 if p1 > p2 else p2
            if p3 > peak:
                peak = p3
            c = w.bit_count()
            cmask = (1 << c) - 1
            l4o = l4 & cmask
            l4 = l4 >> c | ((peak & cmask) ^ l4o) << (_REG_BITS - c)
            words.append(w | l4o << _WORD_BITS)
            got += 3 * s + c
            if got >= need or not l4:
                break
        x1.append(r1)
        x2.append(r2)
        x3.append(r3)
        # the registers are bits [o, o + 256) of this block and the next
        t = _REG_BITS - o
        self.regs = [(r1 >> o | (r1 ^ r2) << t) & _REG_MASK,
                     (r2 >> o | (r2 ^ r3) << t) & _REG_MASK,
                     (r3 >> o | (r3 ^ wacc) << t) & _REG_MASK, l4]
        self.coeff_cursor = cursor
        slaves = b"".join([r.to_bytes(_REG_BITS // 8, "little") for r in x1 + x2 + x3])
        return slaves, array("Q", words).tobytes()

    # -- whitened emission -------------------------------------------------

    def emit_bits(self, nbits: int) -> np.ndarray:
        """Exactly nbits whitened stream bits, one uint8 per bit in stream order.

        Bits beyond the request stay buffered for the next call, so chunked
        emission concatenates to one large emission.  Raw bit g of the run
        meets mask bit g mod mask_bits, whatever the step boundaries.
        """
        check_int("nbits", nbits, 0)
        buf = self._buf
        if buf.size < nbits and self.regs[3]:
            # a zero master raises below before any step: the walk would still
            # advance the cursor, and int_emit does not
            raw = _gather(*self._walk(nbits - buf.size))
            mask, period, c = self._mask_unpacked, self.mask_bits, self.mask_cursor
            # in place: the rest of the mask from the cursor, whole periods,
            # then a head of the mask
            rest = min(period - c, raw.size)
            raw[:rest] ^= mask[c:c + rest]
            if rest < raw.size:
                k, tail = divmod(raw.size - rest, period)
                whole = raw[rest:rest + k * period].reshape(k, period)
                whole ^= mask
                raw[rest + k * period:] ^= mask[:tail]
            self.mask_cursor = (c + raw.size) % period
            buf = np.concatenate((buf, raw)) if buf.size else raw
            self._buf = buf
        if buf.size < nbits:
            # the bits already stepped out stay buffered for a later, smaller read
            raise DegenerateState("master register is all-zero; stream exhausted")
        self._buf = buf[nbits:]
        return buf[:nbits]


def initialize(hs: HiddenSeed) -> LfsrBank:
    """Fill the bank from the designated polynomial, the hidden seed's b.

    Consumes coefficients 0..31 as register words under the master-monitored
    schedule and the rest as the whitening mask (rule 1 above).

    Raises DegenerateState if the polynomial leaves no mask words or the
    master register fills with zeros (it could never emit); ValueError
    unless the polynomial is exactly degree coefficients in [0, q).
    """
    p = hs.params
    _mask_width(p)  # before the fill: a shorter polynomial cannot fill it
    # array("q") takes ints only (a float or a string raises, where a numpy
    # cast would truncate or parse it); one maximum then checks both ends, a
    # negative word reading as at least 2^63 unsigned
    try:
        words = np.frombuffer(array("q", hs.b), np.int64)
    except (TypeError, OverflowError):
        words = None
    if words is None or words.size != p.degree or words.view(np.uint64).max() >= p.q:
        raise ValueError(
            f"designated polynomial must be {p.degree} coefficients in [0, {p.q})")

    # the registers word by word, from Python ints: an int64 scalar would
    # overflow past bit 63
    fill = words[:_FILL_WORDS].tolist()
    l1, l2, l3, l4 = w1, w2, w3, w4 = fill[:_REGS]
    for shift in range(_WORD_BITS, _REG_BITS, _WORD_BITS):
        x12, x34 = w1 ^ w2, w3 ^ w4
        k = shift // _WORD_BITS * _REGS
        w1, w2, w3, w4 = fill[k:k + _REGS]
        if x34 > x12:
            w1, w2, w3, w4 = w3, w4, w1, w2
        l1 |= w1 << shift
        l2 |= w2 << shift
        l3 |= w3 << shift
        l4 |= w4 << shift
    mask = int.from_bytes(words[_FILL_WORDS:].astype("<u4").tobytes(), "little")

    if l4 == 0:
        raise DegenerateState("master register filled with all zeros")
    return LfsrBank(p, BankState((l1, l2, l3, l4), mask))
