"""Arithmetic in R_q = Z_q[X]/(X^degree + 1) on int64 coefficient arrays.

This is the package's one ring.  A polynomial is the last axis of an int64
array, so an array of shape (..., degree) holds any batch of polynomials:
the designated row's matrix entries and the secret, stacked, in `hide`; a
whole chunk of trials in the distinguishing experiment.  A transform's
input may be any integers with |x| < q, so the centred secrets of `hide`
and of the experiment go in as drawn; the transforms' outputs, the row sums
that feed the inverse and `lwe_hiding._combine` reduce into [0, q), and
nothing else reduces.
Multiplication runs through the negacyclic number-theoretic transform,
applied as one dense degree x degree float64 matrix product over all
leading axes at once.  That product is exact for every input below q in
absolute value because `validate` admits only rings with
degree * (q - 1) * floor(q/2) < 2^53 (see `ntt`).  In int64 a product of
two reduced coefficients is below 2^52, and since `validate` bounds n by
256, the unreduced row sums of `mat_vec_mul` stay below
256 * (q - 1)^2 < 2^60.  Both reductions, of the transform's output and of
those row sums, go through `reduce_mod`: x - (x // q) * q in place.  numpy
divides an int64 array by a scalar with a multiply and a shift, where `%`
runs a hardware division per entry; on 2^20 transform outputs that is
~2.6 ms against ~11 ms (numpy 2.4.6, 2-CPU Xeon).  How the register
machine reads a polynomial's bits is `lfsr`'s rule, not the ring's.
"""

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


def reduce_mod(x: np.ndarray, q: int) -> np.ndarray:
    """x mod q into [0, q) for an int64 array x, in place; returns x.

    Equal to x % q for every int64 x and q > 0, by floor division: numpy's
    scalar `//` is a multiply and a shift, `%` a hardware division per entry.
    """
    quot = x // q
    quot *= q
    x -= quot
    return x


def _transform(a, matrix, q: int) -> np.ndarray:
    """a @ matrix mod q over the last axis, exact for |a| < q (see ntt).

    `a` is cast to float64 once, not at all if it is float64 already; the
    product comes back as exact integers of either sign, and `reduce_mod`
    brings them into [0, q) in the int64 array they are cast to.
    """
    a = np.asarray(a)
    # all polynomials as the rows of one 2-D operand: one product, not one
    # per batch; the float64 operand is a temporary, freed before the int64
    # result is reduced
    out = (a.reshape(-1, matrix.shape[0]).astype(np.float64, copy=False)
           @ matrix).astype(np.int64)
    return reduce_mod(out, q).reshape(a.shape)


def ntt(a, p: Params) -> np.ndarray:
    """Forward negacyclic transform of every polynomial in a (..., degree) array.

    One dense degree x degree matrix product M over the last axis, in
    float64, and one reduction mod q.  M's entries are centred, at most
    floor(q/2) in absolute value, so for inputs with |x| < q every product
    and every partial sum is an integer of magnitude at most
    degree * (q - 1) * floor(q/2), whatever the summation order or fused
    multiply-add use.  `validate` admits only rings where that bound is
    below 2^53, so every sum is exact.  At the default ring (q = 8380417,
    degree 256) it is 256 * 8380416 * 4190208 < 9.0e15 < 2^53.  The bound
    is symmetric, so inputs in (-q, 0) transform as their residues do.
    """
    return _transform(a, _matrices(p.q, p.degree, p.psi)[0], p.q)


def inv_ntt(a, p: Params) -> np.ndarray:
    """Inverse of ntt(), by the same exact product; inv_ntt(ntt(x)) == x."""
    return _transform(a, _matrices(p.q, p.degree, p.psi)[1], p.q)


def mat_vec_mul(mat, vec, p: Params) -> np.ndarray:
    """Matrix-vector product over R_q: entry i is sum_j mat[i][j] * vec[j].

    One forward transform over every matrix entry and vector polynomial,
    stacked; each row's transform-domain products summed unreduced with one
    reduction per row; one inverse over all rows.  A row of n <= 256
    products stays below 2^60, so the vector and every row must be exactly
    n wide.  Returns a (rows, degree) array.
    """
    if len(vec) != p.n or any(len(row) != p.n for row in mat):
        raise DimensionMismatch(
            f"matrix rows of width {[len(r) for r in mat]} and vector of {len(vec)}, "
            f"not n={p.n}"
        )
    # the matrix rows, then the vector, written into one float64 operand
    operand = np.empty((len(mat) + 1, p.n, p.degree))
    operand[:-1] = mat
    operand[-1] = vec
    hat = ntt(operand, p)
    return inv_ntt(reduce_mod((hat[:-1] * hat[-1]).sum(axis=1), p.q), p)
