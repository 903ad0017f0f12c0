from dataclasses import fields

import numpy as np
import pytest

from lwerng.errors import InconsistentLayout, InvalidModulus
from lwerng.lfsr import initialize
from lwerng.lwe_hiding import hide
from lwerng.params import (
    Params,
    _is_prime,
    _smallest_negacyclic_root,
    default_params,
    validate,
)


def test_default_constants(params):
    assert (params.q, params.n, params.degree) == (8380417, 4, 256)
    assert params.eta == 1


def test_k_matches_integer_division(params):
    # q = k * degree + 1 with k = 32736, as README states
    assert (params.q - 1) // 256 == 32736
    assert 32736 * params.degree + 1 == params.q


def _scan_smallest_root(q, degree):
    for x in range(2, q):
        if pow(x, degree, q) == q - 1 and pow(x, 2 * degree, q) == 1:
            return x
    return None


@pytest.mark.parametrize("q,degree", [(8380417, 256), (257, 4), (17, 4), (7681, 256)])
def test_psi_is_smallest_negacyclic_root(q, degree):
    expected = _scan_smallest_root(q, degree)
    p = Params(q=q, degree=degree)
    assert p.psi == expected
    assert pow(p.psi, degree, q) == q - 1
    assert pow(p.psi, 2 * degree, q) == 1


def test_defaults_validate(params):
    validate(params)


def test_even_modulus_rejected():
    with pytest.raises(InvalidModulus):
        Params(q=8380416)


def test_modulus_not_1_mod_2n_rejected():
    # 3329 - 1 = 3328 = 256 (mod 512), so no degree-256 negacyclic transform
    assert 3328 % 512 != 0
    with pytest.raises(InvalidModulus):
        Params(q=3329)


def test_modulus_7681_is_accepted():
    # 7680 = 15 * 512, i.e. 7681 = 1 (mod 512): a valid transform modulus
    assert 7680 % 512 == 0
    Params(q=7681)


def test_composite_modulus_without_root_rejected():
    # 9 = 1 (mod 4) but -1 is no square mod 9, so no degree-2 transform
    # exists; 65 = 5 * 13 has one (8^2 = -1 mod 65) but is not prime;
    # 25326001 = 2251 * 11251 = 1 (mod 16) passes Miller-Rabin to bases 2,
    # 3 and 5, and base 7 rejects it
    for q, degree in ((9, 2), (65, 2), (25326001, 8)):
        with pytest.raises(InvalidModulus, match="not prime"):
            Params(q=q, degree=degree)


def _sieve(limit):
    prime = [False, False] + [True] * (limit - 2)
    for i in range(2, int(limit**0.5) + 1):
        if prime[i]:
            prime[i * i :: i] = [False] * len(prime[i * i :: i])
    return prime


def test_is_prime_matches_sieve_and_pseudoprimes():
    prime = _sieve(1 << 16)
    assert [q for q in range(1 << 16) if _is_prime(q)] == [
        q for q in range(1 << 16) if prime[q]]
    # strong pseudoprimes to bases 2; 2, 3; 2, 3, 5; Carmichael numbers
    for q in (2047, 1373653, 25326001, 561, 41041, 62745):
        assert not _is_prime(q)
    for q in (8380417, 8383489, 67104769, 67118593, 3329, 7681):
        assert _is_prime(q)


def test_root_derivation_matches_scan():
    # every prime ring below 2^13 at every admitted degree, and the named ones
    prime = _sieve(1 << 13)
    rings = [(q, d) for d in (2 ** k for k in range(1, 11))
             for q in range(2 * d + 1, 1 << 13, 2 * d) if prime[q]]
    rings += [(8380417, 256), (8383489, 256), (4188161, 1024), (16776961, 64),
              (33554273, 16), (3329, 128)]
    assert len(rings) > 900
    for q, degree in rings:
        assert _smallest_negacyclic_root(q, degree) == _scan_smallest_root(q, degree)


def test_oversized_modulus_rejected():
    with pytest.raises(InvalidModulus):
        Params(q=(1 << 33) + 513 * 512 + 1 - ((1 << 33) % 512))


def test_layout_identities_enforced():
    # the register layout is fixed by the machine, not a constructor field,
    # and the experiment's sample width is the experiment's
    assert [f.name for f in fields(Params)] == ["q", "n", "degree", "eta"]
    assert not hasattr(Params(), "m")
    with pytest.raises(TypeError):
        Params(m=4)
    with pytest.raises(TypeError):
        Params(state_bits=2048)
    with pytest.raises(TypeError):
        Params(mask_bits=7167)
    # the layout is lfsr's: no layout attribute reads back from the lattice type
    for name in ("mask_bits", "word_bits", "state_bits"):
        assert not hasattr(Params(), name)


def test_nonpositive_dimensions_rejected():
    for bad in (dict(n=0), dict(eta=0)):
        with pytest.raises(InconsistentLayout):
            Params(**bad)


def test_secret_dimension_bound_keeps_row_sums_exact():
    # the matrix label gives j one byte; a mat_vec_mul row then sums at most
    # 256 products below (q - 1)^2 < 2^52, below 2^60 in int64
    assert Params(n=256).n == 256
    with pytest.raises(InconsistentLayout):
        Params(n=257)


def test_eta_must_fit_below_half_q():
    # {-eta..eta} must be 2*eta + 1 distinct residues; this also keeps every
    # secret read at most bitlen(q) bits wide
    assert Params(q=257, degree=4, eta=128).eta == 128
    with pytest.raises(InconsistentLayout):
        Params(q=257, degree=4, eta=129)


def test_budget_identity(ent_zero, params):
    # 8192 = 256 coefficients x 32 bits = 4 x 256 register bits + 7168 mask bits
    bank = initialize(hide(ent_zero, params))
    assert len(bank.regs) == 4 and all(r < 1 << 256 for r in bank.regs)
    assert bank.mask_bits == 7168 and bank.mask < 1 << bank.mask_bits
    assert params.degree * 32 == 4 * 256 + bank.mask_bits == 8192


def test_degree_bound_keeps_transform_exact():
    # 12288 = 3 * 2^12, so q = 1 (mod 2*degree) holds at both degrees; the
    # dense transform's float64 sums stay exact only up to degree 2^10
    assert Params(q=12289, degree=1024).degree == 1024
    with pytest.raises(InvalidModulus):
        Params(q=12289, degree=2048)


def test_invalid_set_rejected_at_construction():
    # q = 1 (mod 512) but far above 2^26: int64 ring products would overflow
    with pytest.raises(InvalidModulus):
        Params(q=2147483137)


@pytest.mark.parametrize("field,value,error", [
    ("n", 2.0, InconsistentLayout),
    ("eta", 1.0, InconsistentLayout),
    ("n", True, InconsistentLayout),
    ("eta", np.int64(1), InconsistentLayout),
    ("q", 8380417.0, InvalidModulus),
    ("degree", 256.0, InvalidModulus),
])
def test_non_integer_field_rejected(field, value, error):
    with pytest.raises(error, match="must be an int"):
        Params(**{field: value})


def test_default_params_cached():
    assert default_params() is default_params()


def test_modulus_bound_keeps_ring_exact():
    # int64 ring products stay exact only below 2^26: the smallest prime
    # q = 1 (mod 512) above it is rejected at degree 2, where the transform
    # bound below would admit it
    assert 2 * (67118593 - 1) * (67118593 // 2) < 1 << 53
    with pytest.raises(InvalidModulus):
        Params(q=67118593, degree=2)
    # one float64 transform is exact only while degree * (q - 1) * floor(q/2)
    # < 2^53; each pair is the largest accepted prime q = 1 (mod 2*degree) and
    # the next one, which crosses that bound
    for degree, accepted, rejected in [(256, 8383489, 8392193), (1024, 4188161, 4206593)]:
        assert degree * (accepted - 1) * (accepted // 2) < 1 << 53
        assert degree * (rejected - 1) * (rejected // 2) >= 1 << 53
        assert Params(q=accepted, degree=degree).q == accepted
        with pytest.raises(InvalidModulus):
            Params(q=rejected, degree=degree)
    # the largest prime q = 1 (mod 2048) below 2^26 fits only the smallest rings
    assert Params(q=67104769, degree=4).q == 67104769
    with pytest.raises(InvalidModulus):
        Params(q=67104769, degree=8)
