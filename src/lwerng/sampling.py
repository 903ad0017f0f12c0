"""Randomness intake: every sampler is a pure function of a 32-byte entropy
input and its domain label.

Domain label table (normative):

    0x00 || 0x00 || j   entry j of the designated row of the public matrix
    0x01                secret vector
    0x02 || 0x00 0x00   error polynomial of the designated row
    0x03                binary payload (the concealed seed bits)
    0x04 || gen         reseed entropy derivation, gen as 8-byte big-endian

j is one byte, so `validate` bounds n by 256.  All streams are SHAKE-256 of
entropy || label.  Bit-level reads consume the bytes LSB-first: the first
bit read from a byte is its bit 0.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .params import Params

SEED_BYTES = 32

LABEL_MATRIX = 0x00
LABEL_SECRET = 0x01
LABEL_ERROR = b"\x02\x00\x00"
LABEL_PAYLOAD = 0x03
LABEL_RESEED = 0x04


@dataclass(frozen=True)
class EntropyInput:
    """Exactly 32 bytes of caller-supplied high-entropy seed material."""

    data: bytes

    def __post_init__(self):
        if not isinstance(self.data, bytes) or len(self.data) != SEED_BYTES:
            raise ValueError(f"entropy input must be exactly {SEED_BYTES} bytes")

    @classmethod
    def from_hex(cls, s: str) -> "EntropyInput":
        return cls(bytes.fromhex(s))


def _xof(ent: EntropyInput, label: bytes):
    return hashlib.shake_256(ent.data + label)


def _bits(raw: bytes) -> np.ndarray:
    """The bits of `raw` in stream order: byte by byte, LSB-first within each."""
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")


def _accepted(xofs, width: int, keep: int, bound: int, need: int) -> np.ndarray:
    """Per XOF, the first `need` values below `bound`; a (len(xofs), need) array.

    Each value is a width-bit LSB-first field of the digest cut to its low
    `keep` bits, read in one of two ways.  A whole-byte field (every matrix
    read) is one little-endian word of a strided view, a word per field at
    a stride of the field's bytes, in the smallest unsigned word that holds
    a field: validate keeps q below 2^26 and 2*eta below q, so a field is at
    most 4 bytes; a 3-byte field read as a 4-byte word takes one byte of the
    next field (or of the pad at the end) above it, which the cut drops.
    Any other field (the secret's 2-bit reads) is summed from the unpacked
    digest, its bit j a column shifted left by j, in the smallest unsigned
    dtype that holds `keep` bits, so no sum can carry out of it.  The first
    read covers the expected number of draws plus slack, whole bytes per
    XOF; a digest that yields too few values is read again at twice the
    length.  A shorter shake_256 digest is a prefix of every longer one, so
    the values equal those of a reader that takes one field at a time.
    """
    nbytes, sub = divmod(width, 8)
    # the smallest unsigned word that holds a whole-byte field, or the kept bits of another
    word = np.dtype(f"<u{next(k for k in (1, 2, 4) if 8 * k >= (keep if sub else width))}")
    draws = (need << keep) // bound + need // 16
    draws += -draws % 8  # whole bytes per digest
    while True:
        raw = b"".join(x.digest(draws * width // 8) for x in xofs)
        if sub:
            bits = _bits(raw).reshape(-1, width)
            fields = np.left_shift(bits[:, keep - 1], keep - 1, dtype=word)
            for j in range(keep - 2, -1, -1):
                fields += np.left_shift(bits[:, j], j, dtype=word) if j else bits[:, 0]
        else:
            fields = np.ndarray((len(raw) // nbytes,), word, raw + bytes(word.itemsize - nbytes),
                                strides=(nbytes,))
            if keep < 8 * word.itemsize:
                fields = fields & ((1 << keep) - 1)
        # compress, not a boolean index: it reads a fresh key's secret in about half the time
        picked = [row.compress(row < bound)[:need] for row in fields.reshape(len(xofs), draws)]
        if min(len(v) for v in picked) == need:
            return np.array(picked)
        draws *= 2


def expand_matrix(ent: EntropyInput, p: Params) -> np.ndarray:
    """Expand the designated row of the public matrix as (1, n, degree).

    `hide` conceals only the designated sample, so no other row is drawn.
    Each coefficient comes from the entry's own stream by reading
    ceil(bitlen(q)/8) bytes little-endian, masking to bitlen(q) bits and
    rejecting values >= q (acceptance ~ q / 2^bitlen).  The entries keep
    the unsigned dtype they were read in (uint32 at the default q).
    """
    bits = p.q.bit_length()
    xofs = [_xof(ent, bytes([LABEL_MATRIX, 0, j])) for j in range(p.n)]
    coeffs = _accepted(xofs, 8 * ((bits + 7) // 8), bits, p.q, p.degree)
    return coeffs.reshape(1, p.n, p.degree)


def sample_secret(ent: EntropyInput, p: Params) -> np.ndarray:
    """Secret vector, (n, degree): int64 coefficients uniform on {-eta..eta}.

    Rejection sampling on bitlen(2*eta)-bit reads; for eta = 1 that is
    2-bit reads with the single pattern 3 rejected.
    """
    k = (2 * p.eta).bit_length()
    v = _accepted([_xof(ent, bytes([LABEL_SECRET]))], k, k, 2 * p.eta + 1, p.n * p.degree)
    return np.subtract(v, p.eta, dtype=np.int64).reshape(p.n, p.degree)


def sample_error(ent: EntropyInput, p: Params) -> np.ndarray:
    """Error polynomial, (degree,): int64, centered binomial of parameter eta.

    Per coefficient, eta bits minus eta bits; for eta = 1 this gives
    P(0) = 1/2 and P(+-1) = 1/4 on support {-1, 0, 1}.
    """
    nbits = 2 * p.eta * p.degree
    bits = _bits(_xof(ent, LABEL_ERROR).digest((nbits + 7) // 8))[:nbits]
    ab = bits.reshape(p.degree, 2, p.eta).sum(axis=-1, dtype=np.int64)
    return ab[:, 0] - ab[:, 1]


def seed_payload(ent: EntropyInput, p: Params) -> np.ndarray:
    """Binary payload, (degree,): coefficients in {0, 1}, one bit each."""
    raw = _xof(ent, bytes([LABEL_PAYLOAD])).digest((p.degree + 7) // 8)
    return _bits(raw)[:p.degree].astype(np.int64)


def derive_reseed_entropy(ent: EntropyInput, generation: int) -> EntropyInput:
    """Entropy for reseed epoch `generation` (>= 1), from the original input."""
    label = bytes([LABEL_RESEED]) + generation.to_bytes(8, "big")
    return EntropyInput(_xof(ent, label).digest(SEED_BYTES))
