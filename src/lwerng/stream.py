"""Top-level byte stream: entropy input -> seed concealment -> register bank.

Bytes pack the whitened bit stream LSB-first (stream bit 0 is bit 0 of byte
0), the same convention as the register fill (`lfsr` rule 1).

Reseeding: after `reseed_interval` emitted bits the generator derives fresh
entropy from the original input and the epoch counter (domain label 0x04)
and rebuilds the concealment and the bank.  Interval 0 disables reseeding
and runs the bank indefinitely with the cyclic whitening mask.
"""

import numpy as np

from .errors import DegenerateState
from .lfsr import LfsrBank, initialize
from .lwe_hiding import hide
from .params import Params, default_params
from .sampling import EntropyInput, derive_reseed_entropy

DEFAULT_RESEED_INTERVAL = 1 << 20  # bits between automatic re-concealments

# bits per emit_bits call: bounds one batch's step records and gather arrays
# (a few MB at 2^18 bits)
_EMIT_CHUNK_BITS = 1 << 18


class Generator:
    """One consumer's stream state; not safe for concurrent use."""

    def __init__(self, ent: EntropyInput, params: Params = None,
                 reseed_interval: int = DEFAULT_RESEED_INTERVAL):
        if reseed_interval < 0:
            raise ValueError("reseed_interval must be >= 0")
        self.params = params or default_params()
        self.reseed_interval = reseed_interval
        self.generation = 0
        self.bits_emitted = 0
        # the entropy input is retained only when reseeding needs it again
        self._ent = ent if reseed_interval > 0 else None
        self.bank: LfsrBank = initialize(hide(ent, self.params))

    def next_bytes(self, nbytes: int) -> bytes:
        """The next nbytes of the stream; chunked reads concatenate exactly.

        A read that raises DegenerateState leaves the generator as it was:
        it restores the bank's state on entry, pending bits included, and
        the epoch and its count; a retry rebuilds later epochs from the seed.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        need = 8 * nbytes
        parts = []
        snapshot = self.bank.state(), self.generation, self.bits_emitted
        try:
            while need > 0:
                seg = min(need, _EMIT_CHUNK_BITS)
                if self.reseed_interval > 0:
                    seg = min(seg, self.reseed_interval - self.bits_emitted)
                parts.append(self.bank.emit_bits(seg))
                self.bits_emitted += seg
                need -= seg
                if self.reseed_interval > 0 and self.bits_emitted == self.reseed_interval:
                    self._reseed()
        except DegenerateState:
            state, self.generation, self.bits_emitted = snapshot
            self.bank = LfsrBank(self.params, state)
            raise
        if not parts:
            return b""
        bits = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return np.packbits(bits, bitorder="little").tobytes()

    def fork_with_new_entropy(self, ent: EntropyInput) -> "Generator":
        """Independent generator with fresh entropy, same configuration."""
        return Generator(ent, self.params, self.reseed_interval)

    def _reseed(self):
        self.generation += 1
        ent = derive_reseed_entropy(self._ent, self.generation)
        self.bank = initialize(hide(ent, self.params))
        self.bits_emitted = 0
