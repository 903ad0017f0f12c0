"""Independent reference implementations used as test oracles.

Nothing here shares code paths with the package: ring products use numpy
convolution or nested loops, the transform is evaluated point by point with
Python ints or run as the staged butterfly network, the samplers read their
SHAKE-256 streams one field at a time, and the register machine is
re-derived from the normative rules on explicit bit lists (index 0 = LSB)
instead of big integers.  `int_step`/`int_emit` are the fast register
references: they shift once per set bit of the governing word on 256-bit
ints and whiten step by step, where the package runs a FIFO walk and one
vectorised gather per read.  The one exception is `hide_transcript`, which
redraws what `hide` discards with the package samplers that define it (the
`ref_*` samplers check those).  `ref_battery` is the per-bit battery: it
unpacks the buffer to one byte per bit and counts pairs with `bincount`,
where the package counts popcounts of 64-bit words; it shares only the
package's `TestReport` verdict rule.  `distinguisher_hits_oracle` scores
one sample at a time on Python ints and shares only the chi-square
threshold.
"""

import hashlib
import math

import numpy as np
from scipy.special import gammaincc

from lwerng.errors import DegenerateState
from lwerng.lwe_hiding import _CHI2_15_MEDIAN
from lwerng.sampling import expand_matrix, sample_error, sample_secret, seed_payload
from lwerng.stats import TestReport


# --- sampler oracles ---------------------------------------------------------

class BitReader:
    """LSB-first bit cursor over the SHAKE-256 stream of entropy || label."""

    def __init__(self, ent, label):
        self._shake = hashlib.shake_256(ent.data + label)
        self._buf = b""
        self._pos = 0
        self._byte = 0
        self._left = 0

    def read_bits(self, k):
        out = 0
        got = 0
        while got < k:
            if self._left == 0:
                if self._pos == len(self._buf):
                    self._buf = self._shake.digest(2 * len(self._buf) + 64)
                self._byte = self._buf[self._pos]
                self._pos += 1
                self._left = 8
            take = min(k - got, self._left)
            out |= (self._byte & ((1 << take) - 1)) << got
            self._byte >>= take
            self._left -= take
            got += take
        return out


def ref_expand_matrix(ent, p):
    """The designated row: entry j from the stream labelled 0x00 || 0x00 || j."""
    bits = p.q.bit_length()
    nbytes = (bits + 7) // 8
    mask = (1 << bits) - 1
    row = []
    for j in range(p.n):
        reader = BitReader(ent, bytes([0x00, 0x00, j]))
        coeffs = []
        while len(coeffs) < p.degree:
            v = reader.read_bits(8 * nbytes) & mask
            if v < p.q:
                coeffs.append(v)
        row.append(coeffs)
    return row


def ref_sample_secret(ent, p):
    reader = BitReader(ent, bytes([0x01]))
    k = (2 * p.eta).bit_length()
    out = []
    for _ in range(p.n):
        coeffs = []
        while len(coeffs) < p.degree:
            v = reader.read_bits(k)
            if v <= 2 * p.eta:
                coeffs.append(v - p.eta)
        out.append(coeffs)
    return out


def ref_sample_error(ent, p):
    reader = BitReader(ent, bytes([0x02, 0x00, 0x00]))
    coeffs = []
    for _ in range(p.degree):
        a = reader.read_bits(p.eta).bit_count()
        b = reader.read_bits(p.eta).bit_count()
        coeffs.append(a - b)
    return coeffs


def ref_seed_payload(ent, p):
    reader = BitReader(ent, bytes([0x03]))
    return [reader.read_bits(1) for _ in range(p.degree)]


# --- ring oracles ----------------------------------------------------------

def one(degree):
    return [1] + [0] * (degree - 1)


def monomial(degree, q, k, c=1):
    """c * X^k as a ring element (k reduced with the sign flip of X^degree = -1)."""
    f = [0] * degree
    if k // degree % 2:
        c = -c
    f[k % degree] = c % q
    return f


def conv_negacyclic(a, b, q):
    """Negacyclic product via full convolution and fold with the sign flip."""
    n = len(a)
    aa = np.array(a, dtype=np.int64)
    bb = np.array(b, dtype=np.int64)
    full = np.convolve(aa, bb)
    folded = full[:n].copy()
    folded[: n - 1] -= full[n:]
    return [int(x) for x in folded % q]


def loop_negacyclic(a, b, q):
    """Pure nested-loop negacyclic product with X^n = -1 applied per term."""
    n = len(a)
    out = [0] * n
    for i in range(n):
        for j in range(n):
            k = i + j
            term = a[i] * b[j]
            if k >= n:
                k -= n
                term = -term
            out[k] = (out[k] + term) % q
    return out


def loop_mat_vec(mat, vec, q):
    return [
        _vec_sum([loop_negacyclic(a_ij, s_j, q) for a_ij, s_j in zip(row, vec)], q)
        for row in mat
    ]


def _vec_sum(polys, q):
    out = [0] * len(polys[0])
    for poly in polys:
        for i, c in enumerate(poly):
            out[i] = (out[i] + c) % q
    return out


def hide_oracle(a, s, e, r, q):
    """The designated sample b = sum_j a[j]*s[j] + e + r*floor(q/2), all by
    nested loops; a is matrix row 0, e and r its error and payload rows."""
    prod = loop_mat_vec([a], s, q)[0]
    half = q // 2
    return [(pi + ei + ri * half) % q for pi, ei, ri in zip(prod, e, r)]


def hide_transcript(ent, p):
    """(A[0], s, e_0, r_0) of `hide(ent, p)` as lists, redrawn with the public
    samplers: the designated matrix row, the secret, the error and the payload."""
    return (expand_matrix(ent, p)[0].tolist(), sample_secret(ent, p).tolist(),
            sample_error(ent, p).tolist(), seed_payload(ent, p).tolist())


# --- distinguisher oracle ----------------------------------------------------

def distinguisher_hits_oracle(samples, q):
    """Hit counts of the distinguisher battery, one sample at a time on Python
    ints: coefficient c falls in bin floor(16c/q), the serial correlation is
    summed exactly, and the high bit is its definition q/4 < c < 3q/4.  Only
    the chi-square threshold is the package's."""
    hits = dict.fromkeys(("coef_chi2", "serial_corr", "high_bit_weight"), 0)
    mid = (q - 1) // 2
    for sample in samples:
        row = [int(c) for c in sample]
        counts = [0] * 16
        for c in row:
            counts[16 * c // q] += 1
        expected = len(row) / 16
        chi2 = sum((k - expected) ** 2 / expected for k in counts)
        hits["coef_chi2"] += chi2 > _CHI2_15_MEDIAN
        hits["serial_corr"] += sum((a - mid) * (b - mid) for a, b in zip(row, row[1:])) > 0
        hits["high_bit_weight"] += 2 * sum(4 * c > q and 4 * c < 3 * q for c in row) > len(row)
    return hits


# --- transform oracles -------------------------------------------------------

def _bitrev(k, bits):
    return int(format(k, f"0{bits}b")[::-1], 2)


def ref_ntt(a, p):
    """Entry k is a(psi^(2*bitrev(k)+1)) mod q, by Horner's rule on Python ints."""
    bits = p.degree.bit_length() - 1
    out = []
    for k in range(p.degree):
        x = pow(p.psi, 2 * _bitrev(k, bits) + 1, p.q)
        acc = 0
        for c in reversed(a):
            acc = (acc * x + int(c)) % p.q
        out.append(acc)
    return out


def _stage_tables(p):
    """Per-stage (half, blocks, twiddles) of both staged transforms, and degree^-1.

    The twiddles are zetas[i] = psi^bitrev(i) mod q, consumed upward by the
    forward stages and downward by the inverse stages.
    """
    q, degree = p.q, p.degree
    bits = degree.bit_length() - 1
    zetas = [pow(p.psi, _bitrev(i, bits), q) for i in range(degree)]
    fwd = []
    half = degree // 2
    wi = 0
    while half > 0:
        nb = degree // (2 * half)
        zs = np.array(zetas[wi + 1 : wi + 1 + nb], dtype=np.int64).reshape(nb, 1)
        wi += nb
        fwd.append((half, nb, zs))
        half >>= 1
    inv = []
    half = 1
    wi = degree
    while half < degree:
        nb = degree // (2 * half)
        zs = np.array(zetas[wi - nb : wi][::-1], dtype=np.int64).reshape(nb, 1)
        wi -= nb
        inv.append((half, nb, zs))
        half <<= 1
    return fwd, inv, pow(degree, -1, q)


def ref_staged_ntt(a, p):
    """Forward transform as log2(degree) butterfly stages over a (..., degree) array.

    Each butterfly reduces only its twiddle product, so a stage raises the
    bound on the entries by q; one final % q reduces the output.
    """
    fwd, _, _ = _stage_tables(p)
    q = p.q
    out = np.array(a, dtype=np.int64, order="C")
    for half, nb, zs in fwd:
        x = out.reshape(-1, nb, 2, half)
        lo = x[:, :, 0, :]
        hi = x[:, :, 1, :]
        t = hi * zs % q
        np.subtract(lo + q, t, out=hi)
        lo += t
    return out % q


def ref_staged_inv_ntt(a, p):
    """Inverse of ref_staged_ntt, stage by stage."""
    _, inv, ninv = _stage_tables(p)
    q = p.q
    out = np.array(a, dtype=np.int64, order="C")
    for half, nb, zs in inv:
        x = out.reshape(-1, nb, 2, half)
        lo = x[:, :, 0, :]
        hi = x[:, :, 1, :]
        t = (hi - lo) * zs % q
        lo += hi
        lo %= q
        hi[...] = t
    return out * ninv % q


# --- register machine oracle ------------------------------------------------

REG_BITS = 256
WORD_BITS = 32
WORDS_PER_REG = 8
MASK_BITS = 7168


def word_to_bits(value, width=WORD_BITS):
    return [(value >> i) & 1 for i in range(width)]


def bits_to_int(bits):
    acc = 0
    for i, b in enumerate(bits):
        acc |= b << i
    return acc


def ref_initialize(coeffs, mask_bits=MASK_BITS):
    """Registers (bit lists) and mask (bit list) from the designated coefficients.

    The first 32 fill the registers and the rest, mask_bits // 32 of them,
    the mask (256 coefficients at the default geometry).
    """
    words = [[None] * WORDS_PER_REG for _ in range(4)]
    for reg in range(4):
        words[reg][0] = coeffs[reg]
    nxt = 4
    for rnd in range(1, WORDS_PER_REG):
        x12 = words[0][rnd - 1] ^ words[1][rnd - 1]
        x34 = words[2][rnd - 1] ^ words[3][rnd - 1]
        if x34 > x12:
            order = [2, 3, 0, 1]
        else:
            order = [0, 1, 2, 3]
        for reg in order:
            words[reg][rnd] = coeffs[nxt]
            nxt += 1
    regs = []
    for reg in range(4):
        bits = []
        for w in words[reg]:
            bits.extend(word_to_bits(w))
        regs.append(bits)
    mask = []
    for c in coeffs[32:]:
        mask.extend(word_to_bits(c))
    assert len(mask) == mask_bits
    return regs, mask


def _shift_in(reg_bits, amount, feedback_bits):
    """Shift toward LSB by `amount`; returns (ejected bits, new register)."""
    ejected = reg_bits[:amount]
    remainder = reg_bits[amount:]
    assert len(feedback_bits) == amount
    return ejected, remainder + list(feedback_bits)


def _xor_bits(a, b):
    return [x ^ y for x, y in zip(a, b)]


def ref_step(regs, cursor):
    """One governing-word cycle; returns (regs', cursor', raw output bits)."""
    regs = [list(r) for r in regs]
    word_bits = regs[3][cursor * WORD_BITS : cursor * WORD_BITS + WORD_BITS]
    w = bits_to_int(word_bits)
    out = []
    for p in range(1, WORD_BITS + 1):
        if not (w >> (p - 1)) & 1:
            continue
        l1o, _ = _shift_in(regs[0], p, [0] * p)
        l2o, _ = _shift_in(regs[1], p, [0] * p)
        l3o, _ = _shift_in(regs[2], p, [0] * p)
        fb1 = _xor_bits(l1o, l2o)
        fb2 = _xor_bits(l2o, l3o)
        fb3 = _xor_bits(l3o, word_bits[:p])
        _, regs[0] = _shift_in(regs[0], p, fb1)
        _, regs[1] = _shift_in(regs[1], p, fb2)
        _, regs[2] = _shift_in(regs[2], p, fb3)
        out.extend(l1o)
        out.extend(l2o)
        out.extend(l3o)
    count = sum(word_bits)
    if count:
        l4o = regs[3][:count]
        peak = max(bits_to_int(r[:WORD_BITS]) for r in regs[:3])  # slaves only
        fb4 = _xor_bits(word_to_bits(peak)[:count], l4o)
        _, regs[3] = _shift_in(regs[3], count, fb4)
        out.extend(l4o)
    cursor = (cursor + 1) % WORDS_PER_REG
    return regs, cursor, out


def ref_emit(regs, mask, cursor, mask_cursor, nbits):
    """Whitened stream bits via repeated ref_step; returns the bit list."""
    out = []
    while len(out) < nbits:
        regs, cursor, raw = ref_step(regs, cursor)
        for bit in raw:
            out.append(bit ^ mask[mask_cursor])
            mask_cursor = (mask_cursor + 1) % MASK_BITS
    return out[:nbits]


# --- fast integer reference for the register machine --------------------------

M32 = 0xFFFFFFFF


def int_step(regs, cursor):
    """One step on 256-bit ints, shifting once per set bit of w.

    Returns (regs', cursor', raw value, raw nbits), LSB-first.
    """
    l1, l2, l3, l4 = regs
    w = (l4 >> (cursor * WORD_BITS)) & M32
    out_v = out_w = 0
    for pos in range(1, WORD_BITS + 1):
        if not (w >> (pos - 1)) & 1:
            continue
        mask = (1 << pos) - 1
        l1o, l2o, l3o = l1 & mask, l2 & mask, l3 & mask
        top = REG_BITS - pos
        l1 = (l1 >> pos) | ((l1o ^ l2o) << top)
        l2 = (l2 >> pos) | ((l2o ^ l3o) << top)
        l3 = (l3 >> pos) | ((l3o ^ (w & mask)) << top)
        out_v |= (l1o | (l2o << pos) | (l3o << (2 * pos))) << out_w
        out_w += 3 * pos
    count = w.bit_count()
    if count:
        cmask = (1 << count) - 1
        l4o = l4 & cmask
        peak = max(l1 & M32, l2 & M32, l3 & M32)
        fb4 = (peak & cmask) ^ l4o
        l4 = (l4 >> count) | (fb4 << (REG_BITS - count))
        out_v |= l4o << out_w
        out_w += count
    return [l1, l2, l3, l4], (cursor + 1) % WORDS_PER_REG, out_v, out_w


class IntBank:
    """State for int_emit: registers, cursors, mask and buffered whitened bits."""

    def __init__(self, regs, mask, coeff_cursor=0, mask_cursor=0, mask_bits=MASK_BITS):
        self.regs = list(regs)
        self.mask = mask
        self.coeff_cursor = coeff_cursor
        self.mask_cursor = mask_cursor
        self.mask_bits = mask_bits
        self.buf = 0
        self.buflen = 0
        self.steps = 0


def int_mask_slice(mask, mask_bits, cursor, nbits):
    """nbits of the cyclic mask starting at bit `cursor`, LSB-first."""
    out = shift = 0
    while nbits > 0:
        take = min(mask_bits - cursor, nbits)
        out |= ((mask >> cursor) & ((1 << take) - 1)) << shift
        shift += take
        nbits -= take
        cursor = (cursor + take) % mask_bits
    return out


def int_emit(bank, nbits):
    """Exactly nbits whitened bits from an IntBank, one int_step at a time.

    Whitens each step's raw bits as they come out and keeps the surplus
    buffered; a zero master raises DegenerateState with the buffer kept.
    """
    while bank.buflen < nbits:
        if bank.regs[3] == 0:
            raise DegenerateState("master register is all-zero")
        bank.regs, bank.coeff_cursor, v, w = int_step(bank.regs, bank.coeff_cursor)
        bank.steps += 1
        if w:
            v ^= int_mask_slice(bank.mask, bank.mask_bits, bank.mask_cursor, w)
            bank.mask_cursor = (bank.mask_cursor + w) % bank.mask_bits
            bank.buf |= v << bank.buflen
            bank.buflen += w
    out = bank.buf & ((1 << nbits) - 1)
    bank.buf >>= nbits
    bank.buflen -= nbits
    return out


# --- per-bit battery reference -----------------------------------------------

def ref_battery(data, nbits):
    """The six battery tests over the first nbits of data, one byte per bit."""
    data = bytes(data[: (nbits + 7) // 8])
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")[:nbits]
    return [
        TestReport.from_p("monobit", *_monobit(bits)),
        TestReport.from_p("block_frequency", *_block_frequency(bits, 128)),
        TestReport.from_p("runs", *_runs(bits)),
        TestReport.from_p("serial_2bit", *_serial_2bit(bits)),
        TestReport.from_p("byte_chi_square", *_byte_chi_square(data, nbits)),
        TestReport.from_p("serial_corr_64", *_serial_corr_64(data, nbits)),
    ]


def _monobit(bits):
    n = bits.size
    s = abs(2 * int(bits.sum()) - n)
    return float(s) / math.sqrt(n), math.erfc(s / math.sqrt(2 * n))


def _block_frequency(bits, block):
    nblocks = bits.size // block
    props = bits[: nblocks * block].reshape(nblocks, block).mean(axis=1)
    chi2 = 4.0 * block * float(((props - 0.5) ** 2).sum())
    return chi2, float(gammaincc(nblocks / 2.0, chi2 / 2.0))


def _runs(bits):
    n = bits.size
    pi = float(bits.mean())
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):  # frequency precondition
        return float("inf"), 0.0
    v = int(np.count_nonzero(bits[1:] != bits[:-1])) + 1
    num = abs(v - 2.0 * n * pi * (1 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1 - pi)
    return num / den, math.erfc(num / den / math.sqrt(2))


def _serial_2bit(bits):
    """Overlapping serial test with pattern length 2 (cyclic extension)."""
    n = bits.size
    ext = np.concatenate([bits, bits[:1]])
    pairs = 2 * ext[:-1].astype(np.int64) + ext[1:]
    c2 = np.bincount(pairs, minlength=4).astype(np.float64)
    c1 = np.bincount(bits, minlength=2).astype(np.float64)
    psi2 = (4.0 / n) * float((c2**2).sum()) - n
    psi1 = (2.0 / n) * float((c1**2).sum()) - n
    delta = psi2 - psi1
    return delta, float(gammaincc(1.0, delta / 2.0))


def _byte_chi_square(data, nbits):
    nbytes = nbits // 8
    counts = np.bincount(np.frombuffer(data[:nbytes], dtype=np.uint8), minlength=256)
    expected = nbytes / 256.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    return chi2, float(gammaincc(255 / 2.0, chi2 / 2.0))


def _serial_corr_64(data, nbits):
    """Lag-1 serial correlation of consecutive 64-bit words (normal approx)."""
    nwords = nbits // 64
    w = np.frombuffer(data[: nwords * 8], dtype="<u8").astype(np.float64)
    n = w.size
    mean = w.mean()
    num = float(((w[:-1] - mean) * (w[1:] - mean)).sum())
    den = float(((w - mean) ** 2).sum())
    r = num / den if den else 0.0
    mu = -1.0 / (n - 1)
    sigma = math.sqrt(n * (n - 3.0) / ((n + 1.0) * (n - 1.0) ** 2))
    z = abs(r - mu) / sigma
    return r, math.erfc(z / math.sqrt(2))
