"""Four-register master/slave expansion machine.

Registers are 256-bit integers viewed as 8 words of 32 bits, word 0 at the
LSB end.  L4 is the master: its word at `coeff_cursor` governs one step.
Shifts move toward the LSB; feedback enters at the vacated MSB end.  Raw
output is whitened by XOR against a 7168-bit cyclic mask.

Normative rules this module fixes (stated here once, tests hold them):

  * Initialization round 0 fills word 0 of L1..L4 with the designated
    polynomial's coefficients 0..3.  Rounds r = 1..7 fill word r: compare
    x12 = (word r-1 of L1) ^ (word r-1 of L2) against x34 likewise for
    L3, L4 as unsigned ints.  x12 > x34 or a tie gives fill order
    L1, L2, L3, L4; x34 > x12 gives L3, L4, L1, L2.  Coefficients
    4r..4r+3 are handed out in ascending order; the fill order only selects
    which register receives which coefficient.  Coefficients 32..255 become
    the whitening mask.
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
"""

from .errors import DegenerateState
from .lwe_hiding import HiddenSeed
from .params import Params, default_params

_M32 = 0xFFFFFFFF


def _require_mask_words(p: Params) -> None:
    if p.mask_bits <= 0:
        raise DegenerateState("polynomial leaves no words for the whitening mask")


class LfsrBank:
    """Mutable register bank; exclusive access required while stepping."""

    def __init__(self, params: Params, regs, mask: int, coeff_cursor: int = 0,
                 mask_cursor: int = 0):
        _require_mask_words(params)
        self.params = params
        self.regs = list(regs)
        self.mask = mask
        self.coeff_cursor = coeff_cursor
        self.mask_cursor = mask_cursor
        self._buf = 0
        self._buflen = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def from_state(cls, params=None, regs=(0, 0, 0, 0), mask=0,
                   coeff_cursor=0, mask_cursor=0) -> "LfsrBank":
        """Direct state injection, for tests and tracing."""
        return cls(params or default_params(), regs, mask, coeff_cursor, mask_cursor)

    # -- stepping ----------------------------------------------------------

    def step(self):
        """One full governing-word cycle; returns raw (value, nbits), LSB-first."""
        return self._step(None)

    def step_trace(self):
        """As step(), but also returns the trace record for this step."""
        trace = {}
        v, w = self._step(trace)
        return v, w, trace

    def _step(self, trace):
        p = self.params
        reg_bits = p.lfsr_bits
        l1, l2, l3, l4 = self.regs
        w = (l4 >> (self.coeff_cursor * p.word_bits)) & _M32
        if trace is not None:
            trace["cursor"] = self.coeff_cursor
            trace["word"] = w
            trace["shifts"] = []
        out_v = 0
        out_w = 0
        rest = w
        pos = 0
        while rest:
            tz = (rest & -rest).bit_length()
            pos += tz
            rest >>= tz
            mask = (1 << pos) - 1
            l1o = l1 & mask
            l2o = l2 & mask
            l3o = l3 & mask
            fb1 = l1o ^ l2o
            fb2 = l2o ^ l3o
            fb3 = l3o ^ (w & mask)
            top = reg_bits - pos
            l1 = (l1 >> pos) | (fb1 << top)
            l2 = (l2 >> pos) | (fb2 << top)
            l3 = (l3 >> pos) | (fb3 << top)
            out_v |= (l1o | (l2o << pos) | (l3o << (pos + pos))) << out_w
            out_w += 3 * pos
            if trace is not None:
                trace["shifts"].append((pos, l1o, l2o, l3o, fb1, fb2, fb3))
        count = w.bit_count()
        if count:
            cmask = (1 << count) - 1
            l4o = l4 & cmask
            peak = max(l1 & _M32, l2 & _M32, l3 & _M32)
            fb4 = (peak & cmask) ^ l4o
            l4 = (l4 >> count) | (fb4 << (reg_bits - count))
            out_v |= l4o << out_w
            out_w += count
            if trace is not None:
                trace["master"] = (count, l4o, peak, fb4)
        elif trace is not None:
            trace["master"] = (0, 0, 0, 0)
        self.regs = [l1, l2, l3, l4]
        self.coeff_cursor = (self.coeff_cursor + 1) % (reg_bits // p.word_bits)
        return out_v, out_w

    # -- whitened emission -------------------------------------------------

    def emit_bits(self, nbits: int) -> int:
        """Exactly nbits whitened stream bits as an LSB-first integer.

        Bits beyond the request stay buffered for the next call, so chunked
        emission concatenates to one large emission.
        """
        if nbits < 0:
            raise ValueError("nbits must be >= 0")
        buf = self._buf
        buflen = self._buflen
        mask_bits = self.params.mask_bits
        while buflen < nbits:
            if self.regs[3] == 0:
                # keep the bits already stepped out for a later, smaller read
                self._buf = buf
                self._buflen = buflen
                raise DegenerateState("master register is all-zero; stream exhausted")
            v, w = self._step(None)
            if w:
                v ^= self._mask_slice(self.mask_cursor, w)
                self.mask_cursor = (self.mask_cursor + w) % mask_bits
                buf |= v << buflen
                buflen += w
        out = buf & ((1 << nbits) - 1)
        self._buf = buf >> nbits
        self._buflen = buflen - nbits
        return out

    def _mask_slice(self, cursor: int, nbits: int) -> int:
        """nbits of the cyclic whitening mask starting at bit `cursor`."""
        mask_bits = self.params.mask_bits
        out = 0
        shift = 0
        while nbits > 0:
            take = min(mask_bits - cursor, nbits)
            out |= ((self.mask >> cursor) & ((1 << take) - 1)) << shift
            shift += take
            nbits -= take
            cursor = (cursor + take) % mask_bits
        return out


def initialize(hs: HiddenSeed) -> LfsrBank:
    """Fill the bank from the designated polynomial (index 0) of the hidden seed.

    Consumes coefficients 0..31 as register words under the master-monitored
    schedule and 32..255 as the whitening mask.  A polynomial that leaves no
    mask words, or a bank whose master register is zero (which could never
    emit), is rejected.
    """
    p = hs.params
    _require_mask_words(p)  # before the fill: a shorter polynomial cannot fill it
    coeffs = hs.b[0]
    words_per_reg = p.lfsr_bits // p.word_bits
    state_words = p.state_bits // p.word_bits

    words = [[0] * words_per_reg for _ in range(4)]
    for reg in range(4):
        words[reg][0] = coeffs[reg]
    nxt = 4
    for rnd in range(1, words_per_reg):
        x12 = words[0][rnd - 1] ^ words[1][rnd - 1]
        x34 = words[2][rnd - 1] ^ words[3][rnd - 1]
        order = (2, 3, 0, 1) if x34 > x12 else (0, 1, 2, 3)
        for reg in order:
            words[reg][rnd] = coeffs[nxt]
            nxt += 1

    regs = []
    for reg in range(4):
        acc = 0
        for i, wv in enumerate(words[reg]):
            acc |= wv << (i * p.word_bits)
        regs.append(acc)

    mask = 0
    for i, c in enumerate(coeffs[state_words:]):
        mask |= c << (i * p.word_bits)

    if regs[3] == 0:
        raise DegenerateState("master register filled with all zeros")
    return LfsrBank(p, regs, mask)


def format_trace_line(trace: dict) -> str:
    """One-line debug rendering of a step trace record."""
    shifts = " ".join(
        f"p={s[0]}:o=({s[1]:x},{s[2]:x},{s[3]:x}):fb=({s[4]:x},{s[5]:x},{s[6]:x})"
        for s in trace["shifts"]
    )
    c, l4o, peak, fb4 = trace["master"]
    return (
        f"cursor={trace['cursor']} w={trace['word']:08x} [{shifts}] "
        f"l4:c={c}:o={l4o:x}:peak={peak:08x}:fb={fb4:x}"
    )
