"""Arithmetic in R_q = Z_q[X]/(X^degree + 1) on int64 coefficient arrays.

This is the package's one ring.  A polynomial is the last axis of an int64
array, so an array of shape (..., degree) holds any batch of polynomials:
one ring element in `hide`, a whole chunk of trials in the distinguishing
experiment.  Every coefficient is reduced into [0, q).  Multiplication runs
through the negacyclic number-theoretic transform, applied as one dense
degree x degree matrix product over all leading axes at once.  All
arithmetic is exact: every `Params` is validated when built, which keeps q
below 2^26 and degree at most 2^10.  The transforms' float64 products work
on 13-bit limbs, so their sums stay below 2^49 (see `ntt`), and one
product per transform serves both limbs of every row; in int64 a
product of two reduced coefficients is below 2^52, and since `validate`
bounds n by 2^11, the unreduced row sums of `mat_vec_mul` stay below 2^63.

Serialization is normative and bit-exact: word i of the output is
coefficient i, packed as a 32-bit little-endian word, so bit 32*i+j of the
string is bit j of coefficient i.
"""

import struct
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch
from .params import Params


@lru_cache(maxsize=4)
def _matrices(q: int, degree: int, psi: int):
    """Read-only float64 (forward, inverse) matrices, applied as x @ matrix.

    Forward output k is the input evaluated at psi^(2*brv(k)+1), where brv
    reverses the log2(degree) bits of k: the bit-reversed evaluation order
    of the usual butterfly transform.  The inverse matrix is the inverse
    evaluation scaled by degree^-1 mod q.  Both index one table of the
    2*degree powers of psi.
    """
    bits = degree.bit_length() - 1
    brv = np.array([int(f"{k:0{bits}b}"[::-1], 2) for k in range(degree)])
    exps = np.outer(np.arange(degree), 2 * brv + 1) % (2 * degree)  # [j, k]
    powers = [1]
    for _ in range(2 * degree - 1):
        powers.append(powers[-1] * psi % q)
    powers = np.array(powers, dtype=np.int64)
    fwd = powers[exps].astype(np.float64)
    inv = (pow(degree, -1, q) * powers[-exps.T % (2 * degree)] % q).astype(np.float64)
    fwd.setflags(write=False)
    inv.setflags(write=False)
    return fwd, inv


def _transform(a, matrix, q: int) -> np.ndarray:
    """a @ matrix mod q over the last axis, exact (see ntt)."""
    a = np.asarray(a, dtype=np.int64)
    flat = a.reshape(-1, matrix.shape[0])
    rows = len(flat)
    limbs = np.empty((2 * rows, flat.shape[1]), dtype=np.int64)  # hi rows, then lo rows
    np.right_shift(flat, 13, out=limbs[:rows])
    np.bitwise_and(flat, 0x1FFF, out=limbs[rows:])
    prod = (limbs.astype(np.float64) @ matrix).astype(np.int64)
    out = prod[:rows] << 13
    out += prod[rows:]
    out %= q
    return out.reshape(a.shape)


def ntt(a, p: Params) -> np.ndarray:
    """Forward negacyclic transform of every polynomial in a (..., degree) array.

    One dense degree x degree matrix product over the last axis, for
    coefficients in [0, q).  It runs in float64 on 13-bit limbs: the N rows
    of hi limbs a >> 13 and of lo limbs a & 0x1FFF are stacked into one
    (2N, degree) operand, so a single product reads M once and yields
    hi = (a >> 13) @ M and lo = (a & 0x1FFF) @ M.  Both are exact: every
    term is an integer below 2^13 * q and every partial sum one below
    degree * 2^13 * q <= 2^49 < 2^53 (validate keeps degree <= 2^10 and
    q < 2^26), so no summation order or fused multiply-add can round.  They
    recombine in int64 with one reduction, (hi * 2^13 + lo) mod q, since
    hi * 2^13 + lo < 2^62 + 2^49 < 2^63.
    """
    return _transform(a, _matrices(p.q, p.degree, p.psi)[0], p.q)


def inv_ntt(a, p: Params) -> np.ndarray:
    """Inverse of ntt(), by the same exact limb product; inv_ntt(ntt(x)) == x."""
    return _transform(a, _matrices(p.q, p.degree, p.psi)[1], p.q)


def mat_vec_mul(mat, vec, p: Params) -> np.ndarray:
    """Matrix-vector product over R_q: entry i is sum_j mat[i][j] * vec[j].

    One transform per input polynomial and one inverse per output row.  The
    transform-domain products of a row are summed unreduced, with one
    reduction per row: a row of n <= 2^11 products stays below 2^63, so the
    vector and every row must be exactly n wide.
    Returns an (m, degree) array.
    """
    if len(vec) != p.n or any(len(row) != p.n for row in mat):
        raise DimensionMismatch(
            f"matrix rows of width {[len(r) for r in mat]} and vector of {len(vec)}, "
            f"not n={p.n}"
        )
    vec_hat = [ntt(s, p) for s in vec]
    out = np.zeros((len(mat), p.degree), dtype=np.int64)
    for i, row in enumerate(mat):
        acc = np.zeros(p.degree, dtype=np.int64)
        for a, s_hat in zip(row, vec_hat):
            acc += ntt(a, p) * s_hat
        out[i] = inv_ntt(acc % p.q, p)
    return out


def serialize(a, p: Params) -> bytes:
    """Pack the polynomial into degree 32-bit little-endian words."""
    return struct.pack("<%dI" % p.degree, *a)

