"""Arithmetic in R_q = Z_q[X]/(X^degree + 1) on int64 coefficient arrays.

This is the package's one ring.  A polynomial is the last axis of an int64
array, so an array of shape (..., degree) holds any batch of polynomials:
one ring element in `hide`, a whole chunk of trials in the distinguishing
experiment.  Every coefficient is reduced into [0, q).  Multiplication runs
through the negacyclic number-theoretic transform, applied as one dense
degree x degree matrix product over all leading axes at once.  All
arithmetic is exact for inputs in [0, q), which every caller passes: every
`Params` is validated when built, which keeps q below 2^26 and degree at
most 2^10.  The transform matrices hold centred entries, at most
floor(q/2) in absolute value, so a float64 product stays exact while
degree * (2^L - 1) * floor(q/2) < 2^53 for inputs below 2^L (see `ntt`).
The widest such L is derived per (q, degree): at the default ring it
covers all of q - 1 and a transform is one product, elsewhere limbs of L
bits share one product.  In int64 a product of two reduced coefficients
is below 2^52, and since `validate` bounds n by 2^11, the unreduced row
sums of `mat_vec_mul` stay below 2^63.

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
    2*degree exponents, and every entry is centred: the residue in
    (-q/2, q/2], so at most floor(q/2) in absolute value.
    """
    bits = degree.bit_length() - 1
    brv = np.array([int(f"{k:0{bits}b}"[::-1], 2) for k in range(degree)])
    exps = np.outer(np.arange(degree), 2 * brv + 1) % (2 * degree)  # [j, k]
    powers = [1]
    for _ in range(2 * degree - 1):
        powers.append(powers[-1] * psi % q)
    powers = np.array(powers, dtype=np.int64)
    # inv_powers[e] = degree^-1 * psi^-e mod q
    inv_powers = pow(degree, -1, q) * powers[-np.arange(2 * degree) % (2 * degree)] % q
    fwd = _centred(powers, q)[exps]
    inv = _centred(inv_powers, q)[exps.T]
    fwd.setflags(write=False)
    inv.setflags(write=False)
    return fwd, inv


def _centred(residues: np.ndarray, q: int) -> np.ndarray:
    """Residues in [0, q) as float64 representatives in (-q/2, q/2]."""
    return np.where(residues > q // 2, residues - q, residues).astype(np.float64)


@lru_cache(maxsize=4)
def _limbs(q: int, degree: int) -> tuple:
    """(bits, count): the widest limb whose products stay exact, and how many
    such limbs cover a coefficient in [0, q) (see ntt)."""
    widest = ((1 << 53) - 1) // (degree * (q // 2))  # largest exact limb value
    bits = (widest + 1).bit_length() - 1
    return bits, -(-(q - 1).bit_length() // bits)


def _transform(a, matrix, q: int) -> np.ndarray:
    """a @ matrix mod q over the last axis, exact for a in [0, q) (see ntt)."""
    a = np.asarray(a, dtype=np.int64)
    flat = a.reshape(-1, matrix.shape[0])
    bits, count = _limbs(q, matrix.shape[0])
    limbs = np.empty((count,) + flat.shape)  # float64, lowest limb first
    rest = flat
    for limb in limbs[:-1]:
        limb[...] = rest & ((1 << bits) - 1)
        rest = rest >> bits
    limbs[-1] = rest
    # the limbs' rows stacked into one operand, so one product reads matrix once
    prod = (limbs.reshape(-1, flat.shape[1]) @ matrix).astype(np.int64)
    prod = prod.reshape(limbs.shape)
    out = prod[-1]
    for limb in prod[-2::-1]:
        out <<= bits
        out += limb
    out %= q
    return out.reshape(a.shape)


def ntt(a, p: Params) -> np.ndarray:
    """Forward negacyclic transform of every polynomial in a (..., degree) array.

    One dense degree x degree matrix product M over the last axis, in
    float64, for coefficients in [0, q); exactness rests on that range.
    M's entries are centred, at most floor(q/2) in absolute value, so a
    product of an input below 2^L with M has every partial sum at most
    degree * (2^L - 1) * floor(q/2) in absolute value, whatever the
    summation order or fused multiply-add use.  L is the widest limb that
    keeps that bound below 2^53, derived once per (q, degree).  At the
    default ring (q = 8380417, degree 256) L = 23 covers all 23 bits of
    q - 1: 256 * (2^23 - 1) * 4190208 < 9.0e15 < 2^53, so one
    (N, 256) @ (256, 256) product and one signed reduction mod q do it.
    Where L is narrower than q - 1 (validate's corners reach q < 2^26 at
    degree 2^10, where L = 18), the coefficients split into limbs of L
    bits, the N rows of each limb are stacked into one operand so a single
    product reads M once, and the limb products recombine in int64 as
    sum_i prod_i * 2^(i*L), whose magnitude stays below
    degree * floor(q/2) * 2^26 <= 2^61, before the one reduction.
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

