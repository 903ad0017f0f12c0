"""Arithmetic in R_q = Z_q[X]/(X^degree + 1) on int64 coefficient arrays.

This is the package's one ring.  A polynomial is the last axis of an int64
array, so an array of shape (..., degree) holds any batch of polynomials:
one ring element in `hide`, a whole chunk of trials in the distinguishing
experiment.  Every coefficient is reduced into [0, q).  Multiplication runs
through the negacyclic number-theoretic transform, stage by stage over all
leading axes at once.  All arithmetic is exact int64: every `Params` is
validated when built, which keeps q below 2^26, so a product of two reduced
coefficients is below 2^52, and the lazily reduced values below stay far
from 2^63.

Serialization is normative and bit-exact: word i of the output is
coefficient i, packed as a 32-bit little-endian word, so bit 32*i+j of the
string is bit j of coefficient i.
"""

import struct
from functools import lru_cache

import numpy as np

from .errors import CoefficientOutOfRange, DimensionMismatch
from .params import Params


@lru_cache(maxsize=None)
def _stage_tables(q: int, degree: int, psi: int):
    """Per-stage (half, blocks, twiddles) for both transforms, plus degree^-1.

    The twiddles are zetas[i] = psi^bitrev(i) mod q, consumed upward by the
    forward stages and downward by the inverse stages.
    """
    bits = degree.bit_length() - 1
    zetas = []
    for i in range(degree):
        r = 0
        x = i
        for _ in range(bits):
            r = (r << 1) | (x & 1)
            x >>= 1
        zetas.append(pow(psi, r, q))
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


def ntt(a, p: Params) -> np.ndarray:
    """Forward negacyclic transform of every polynomial in a (..., degree) array.

    Reduction is lazy: each butterfly reduces only its twiddle product, so a
    stage raises the bound on the entries by q.  Inputs in [0, q) stay below
    (log2(degree) + 1) * q < 2^31 (degree <= 2^24 for q < 2^26), twiddle
    products below 2^57, and one final % q brings the output into [0, q).
    """
    fwd, _, _ = _stage_tables(p.q, p.degree, p.psi)
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


def inv_ntt(a, p: Params) -> np.ndarray:
    """Inverse of ntt(); inv_ntt(ntt(x)) == x."""
    _, inv, ninv = _stage_tables(p.q, p.degree, p.psi)
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


# A product of two reduced coefficients is below 2^52, so an int64
# accumulator holds 2^11 of them before it has to be reduced.
_LAZY_TERMS = 1 << 11


def mat_vec_mul(mat, vec, p: Params) -> np.ndarray:
    """Matrix-vector product over R_q: entry i is sum_j mat[i][j] * vec[j].

    One transform per input polynomial and one inverse per output row.  The
    transform-domain products of a row are summed unreduced, with one
    reduction per row (and per _LAZY_TERMS products in very wide rows).
    Returns an (m, degree) array.
    """
    if any(len(row) != len(vec) for row in mat):
        raise DimensionMismatch(
            f"matrix rows of width {[len(r) for r in mat]} vs vector of {len(vec)}"
        )
    q = p.q
    vec_hat = [ntt(s, p) for s in vec]
    out = np.zeros((len(mat), p.degree), dtype=np.int64)
    for i, row in enumerate(mat):
        acc = np.zeros(p.degree, dtype=np.int64)
        for j, (a, s_hat) in enumerate(zip(row, vec_hat), 1):
            acc += ntt(a, p) * s_hat
            if j % _LAZY_TERMS == 0:
                acc %= q
        out[i] = inv_ntt(acc % q, p)
    return out


def serialize(a, p: Params) -> bytes:
    """Pack the polynomial into degree 32-bit little-endian words."""
    return struct.pack("<%dI" % p.degree, *a)


def deserialize(raw: bytes, p: Params) -> list:
    """Inverse of serialize(); every decoded word must be < q."""
    nbytes = 4 * p.degree
    if len(raw) != nbytes:
        raise CoefficientOutOfRange(f"expected {nbytes} bytes, got {len(raw)}")
    coeffs = list(struct.unpack("<%dI" % p.degree, raw))
    for i, c in enumerate(coeffs):
        if c >= p.q:
            raise CoefficientOutOfRange(f"word {i} = {c} >= q = {p.q}")
    return coeffs
