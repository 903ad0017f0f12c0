"""Parameter sets: lattice constants, their validity conditions and derived values.

A parameter set names only the lattice: q, n, degree and eta.  The default
is q = 8380417, n = 4, degree-256 polynomials.  The register machine's
layout (coefficient words, registers, whitening mask) is its own, in `lfsr`;
it needs degree > 32, so smaller rings serve the ring arithmetic only.  Every
`Params` is validated when it is built.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import InconsistentLayout, InvalidModulus, check_int, named


@dataclass(frozen=True)
class Params:
    """Lattice constants; construction raises if `validate` rejects them.

    Attributes:
        q: coefficient modulus; must be an odd prime with q = 1
            (mod 2*degree), q < 2^26 and degree * (q - 1) * floor(q/2) < 2^53.
        n: secret vector dimension (at most 256, the matrix label's j field).
        degree: polynomial degree (power of two, at most 2^10).
        eta: bound of the secret/error coefficients (support {-eta..eta});
            must satisfy 2*eta < q.
    """

    q: int = 8380417
    n: int = 4
    degree: int = 256
    eta: int = 1

    def __post_init__(self):
        validate(self)

    @cached_property
    def psi(self) -> int:
        """Smallest primitive 2*degree-th root of unity mod q.

        Defined as the smallest x in [2, q) with x^degree = -1 (mod q),
        which forces x^(2*degree) = 1.
        """
        return _smallest_negacyclic_root(self.q, self.degree)


def _smallest_negacyclic_root(q: int, degree: int) -> int:
    """The smallest x with x^degree = -1 (mod q), for prime q = 1 (mod 2*degree).

    With degree a power of two, those x are the primitive 2*degree-th roots
    of unity.  For prime q they are the odd powers z^k, k < 2*degree, of any
    one of them, z = c^((q-1) / (2*degree)) for the first c with
    z^degree = -1; so the smallest is found in degree multiplications.
    """
    for c in range(2, q):
        z = pow(c, (q - 1) // (2 * degree), q)
        if pow(z, degree, q) == q - 1:
            break
    else:
        raise InvalidModulus(f"no element of order {2 * degree} mod {q}")
    smallest, x, z2 = z, z, z * z % q
    for _ in range(degree - 1):
        x = x * z2 % q
        smallest = min(smallest, x)
    return smallest


def _is_prime(q: int) -> bool:
    """Trial division by 2 and the odd d <= isqrt(q), exact for every q."""
    if q < 3:
        return q == 2
    return q % 2 == 1 and all(q % d for d in range(3, math.isqrt(q) + 1, 2))


@lru_cache(maxsize=1)
def default_params() -> Params:
    return Params()


def resolve_params(p) -> Params:
    """`p` if it is a Params, the default set if it is None; else ValueError."""
    if p is None:
        return default_params()
    if not isinstance(p, Params):
        raise ValueError(f"{named('params', p)} must be a Params or None")
    return p


def validate(p: Params) -> None:
    """Check every parameter invariant; raise on the first violation.

    degree * (q - 1) * floor(q/2) < 2^53 keeps each ring transform one
    exact float64 product (see polyring.ntt).  At degree 256 it means
    q < 2^23, which the default q = 8380417 meets.  degree <= 2^10 keeps
    each dense transform matrix at 8 MiB at most.  n <= 256 because the
    matrix label gives the column j one byte (see sampling); with q < 2^26
    it keeps a mat_vec_mul row sum of n products below
    256 * (q - 1)^2 < 2^60, so it needs one reduction.

    Raises:
        InvalidModulus: q or degree is not an int (a bool is not one); q
            is outside [3, 2^26), even, fails q = 1 (mod 2*degree),
            primality or the transform bound above; or degree is not a
            power of two in [2, 2^10].
        InconsistentLayout: n or eta is not an int, n is outside [1, 256],
            eta is below 1, or 2*eta >= q.
    """
    # q < 2^26: products of reduced coefficients stay below 2^52, which leaves
    # int64 headroom for the row sums of mat_vec_mul (see polyring)
    for name, low, high, error in (("q", 3, (1 << 26) - 1, InvalidModulus),
                                   ("degree", 2, 1 << 10, InvalidModulus),
                                   ("n", 1, 256, InconsistentLayout),
                                   ("eta", 1, None, InconsistentLayout)):
        check_int(name, getattr(p, name), low, error, high)
    if p.q % 2 == 0:
        raise InvalidModulus(f"q={p.q} must be odd")
    if p.degree & (p.degree - 1):
        raise InvalidModulus(f"degree={p.degree} must be a power of two")
    if (p.q - 1) % (2 * p.degree) != 0:
        raise InvalidModulus(f"q={p.q} is not 1 mod {2 * p.degree}")
    if p.degree * (p.q - 1) * (p.q // 2) >= 1 << 53:
        raise InvalidModulus(
            f"q={p.q} at degree {p.degree} is too wide for one exact float64 transform"
        )
    if not _is_prime(p.q):
        # a prime q = 1 (mod 2*degree) has the 2*degree-th roots psi needs
        raise InvalidModulus(f"q={p.q} is not prime")
    if 2 * p.eta >= p.q:
        raise InconsistentLayout(f"2*eta={2 * p.eta} is not below q={p.q}")
