"""Randomness intake: every sampler is a pure function of a 32-byte entropy
input, a single-byte domain label and (for errors) a nonce.

Domain label table (normative):

    0x00 || i || j   public matrix entry (i, j)
    0x01             secret vector
    0x02 || nonce    error vector, nonce as 2-byte big-endian counter
    0x03             binary payload (the concealed seed bits)
    0x04 || gen      reseed entropy derivation, gen as 8-byte big-endian

All streams are SHAKE-256 of entropy || label.  Bit-level reads consume the
bytes LSB-first: the first bit read from a byte is its bit 0.
"""

import hashlib
from dataclasses import dataclass

from .params import Params, default_params

SEED_BYTES = 32

LABEL_MATRIX = 0x00
LABEL_SECRET = 0x01
LABEL_ERROR = 0x02
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


class XofStream:
    """Single-use deterministic byte stream keyed by entropy || label.

    hashlib's shake objects squeeze a fixed length per digest() call, so the
    stream re-squeezes with geometric growth and serves reads from a buffer.
    """

    def __init__(self, ent: EntropyInput, label: bytes):
        self._h = hashlib.shake_256(ent.data + label)
        self._buf = b""
        self._pos = 0

    def read(self, n: int) -> bytes:
        end = self._pos + n
        if end > len(self._buf):
            size = max(1024, len(self._buf) * 2, end)
            self._buf = self._h.digest(size)
        out = self._buf[self._pos : end]
        self._pos = end
        return out


class _BitReader:
    """LSB-first bit cursor over an XofStream."""

    def __init__(self, stream: XofStream):
        self._stream = stream
        self._byte = 0
        self._left = 0

    def read_bits(self, k: int) -> int:
        out = 0
        got = 0
        while got < k:
            if self._left == 0:
                self._byte = self._stream.read(1)[0]
                self._left = 8
            take = min(k - got, self._left)
            out |= (self._byte & ((1 << take) - 1)) << got
            self._byte >>= take
            self._left -= take
            got += take
        return out


def expand_matrix(ent: EntropyInput, p: Params = None) -> list:
    """Expand the public m x n matrix of uniform ring elements.

    Each coefficient comes from the entry's own stream by reading
    ceil(bitlen(q)/8) bytes little-endian, masking to bitlen(q) bits and
    rejecting values >= q (acceptance ~ q / 2^bitlen).
    """
    p = p or default_params()
    bits = p.q.bit_length()
    nbytes = (bits + 7) // 8
    mask = (1 << bits) - 1
    rows = []
    for i in range(p.m):
        row = []
        for j in range(p.n):
            stream = XofStream(ent, bytes([LABEL_MATRIX, i, j]))
            coeffs = []
            while len(coeffs) < p.degree:
                v = int.from_bytes(stream.read(nbytes), "little") & mask
                if v < p.q:
                    coeffs.append(v)
            row.append(coeffs)
        rows.append(row)
    return rows


def sample_secret(ent: EntropyInput, p: Params = None) -> list:
    """Secret vector: n polynomials, coefficients uniform on {-eta..eta}.

    Rejection sampling on bitlen(2*eta)-bit reads; for eta = 1 that is
    2-bit reads with the single pattern 3 rejected.
    """
    p = p or default_params()
    reader = _BitReader(XofStream(ent, bytes([LABEL_SECRET])))
    k = (2 * p.eta).bit_length()
    limit = 2 * p.eta
    out = []
    for _ in range(p.n):
        coeffs = []
        while len(coeffs) < p.degree:
            v = reader.read_bits(k)
            if v <= limit:
                coeffs.append((v - p.eta) % p.q)
        out.append(coeffs)
    return out


def sample_error(ent: EntropyInput, p: Params = None, nonce: int = 0) -> list:
    """Error vector: m polynomials from the centered binomial of parameter eta.

    Per coefficient, eta bits minus eta bits; for eta = 1 this gives
    P(0) = 1/2 and P(+-1) = 1/4 on support {-1, 0, 1}.
    """
    p = p or default_params()
    label = bytes([LABEL_ERROR]) + nonce.to_bytes(2, "big")
    reader = _BitReader(XofStream(ent, label))
    out = []
    for _ in range(p.m):
        coeffs = []
        for _ in range(p.degree):
            a = reader.read_bits(p.eta).bit_count()
            b = reader.read_bits(p.eta).bit_count()
            coeffs.append((a - b) % p.q)
        out.append(coeffs)
    return out


def seed_payload(ent: EntropyInput, p: Params = None) -> list:
    """Binary payload: m polynomials with coefficients in {0, 1}, one bit each."""
    p = p or default_params()
    reader = _BitReader(XofStream(ent, bytes([LABEL_PAYLOAD])))
    return [[reader.read_bits(1) for _ in range(p.degree)] for _ in range(p.m)]


def derive_reseed_entropy(ent: EntropyInput, generation: int) -> EntropyInput:
    """Entropy for reseed epoch `generation` (>= 1), from the original input."""
    label = bytes([LABEL_RESEED]) + generation.to_bytes(8, "big")
    return EntropyInput(XofStream(ent, label).read(SEED_BYTES))
