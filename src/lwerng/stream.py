"""Top-level byte stream: entropy input -> seed concealment -> register bank.

Bytes pack the whitened bit stream LSB-first (stream bit 0 is bit 0 of byte
0), the same convention as the register fill (`lfsr` rule 1).

Reseeding: after `reseed_interval` emitted bits the generator derives fresh
entropy from the original input and the epoch counter (domain label 0x04)
and rebuilds the concealment and the bank.  Interval 0 disables reseeding
and runs the bank indefinitely with the cyclic whitening mask.
"""

import copy

import numpy as np

from .errors import check_int
from .lfsr import LfsrBank, initialize
from .lwe_hiding import hide
from .params import Params, resolve_params
from .sampling import EntropyInput, derive_reseed_entropy

DEFAULT_RESEED_INTERVAL = 1 << 20  # bits between automatic re-concealments

# bits per emit_bits call: bounds one batch's step records and gather arrays
# (a few MB at 2^18 bits)
_EMIT_CHUNK_BITS = 1 << 18


def epoch_bank(ent: EntropyInput, k: int, params: Params) -> LfsrBank:
    """The fresh bank of epoch k: initialize(hide(e_k, params)), where e_0 is
    `ent` and e_k, k >= 1, is `derive_reseed_entropy(ent, k)`."""
    return initialize(hide(derive_reseed_entropy(ent, k) if k else ent, params))


class Generator:
    """One consumer's stream state; not safe for concurrent use."""

    def __init__(self, ent: EntropyInput, params: Params = None,
                 reseed_interval: int = DEFAULT_RESEED_INTERVAL):
        """`params` None is the default set; anything else not a Params, like a
        reseed_interval that is not an int >= 0, raises ValueError."""
        check_int("reseed_interval", reseed_interval, 0)
        self.params = resolve_params(params)
        self.reseed_interval = reseed_interval
        self.generation = 0
        self.bits_emitted = 0
        # the entropy input is retained only when reseeding needs it again
        self._ent = ent if reseed_interval > 0 else None
        self.bank: LfsrBank = epoch_bank(ent, 0, self.params)

    def next_bytes(self, nbytes: int) -> bytes:
        """The next nbytes of the stream; chunked reads concatenate exactly.

        Each segment is packed into the output as it lands.  A segment ends
        inside a byte only at a reseed boundary, and then its last (at most
        7) bits are carried into the next segment.

        A read commits only when it succeeds: it steps a shallow copy of the
        bank (a whole copy, see `LfsrBank`) and a local epoch and count,
        reseeds into them and assigns all three back after its last segment.
        A read that raises anything leaves the generator as it was.
        """
        check_int("nbytes", nbytes, 0)
        out = np.empty(nbytes, np.uint8)
        pos, carry = 0, out[:0]  # bytes packed so far; bits emitted past them
        bank, generation, emitted = copy.copy(self.bank), self.generation, self.bits_emitted
        while pos < nbytes:
            seg = min(8 * (nbytes - pos) - carry.size, _EMIT_CHUNK_BITS)
            if self.reseed_interval > 0:
                seg = min(seg, self.reseed_interval - emitted)
            bits = bank.emit_bits(seg)
            emitted += seg
            if carry.size:
                bits = np.concatenate((carry, bits))
            packed = np.packbits(bits[:bits.size // 8 * 8], bitorder="little")
            out[pos:pos + packed.size] = packed
            pos += packed.size
            carry = bits[8 * packed.size:]
            if emitted == self.reseed_interval:
                generation += 1
                bank, emitted = epoch_bank(self._ent, generation, self.params), 0
        self.bank, self.generation, self.bits_emitted = bank, generation, emitted
        return out.tobytes()
