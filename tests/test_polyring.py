import random
from types import SimpleNamespace

import numpy as np
import pytest

from lwerng import polyring as pr
from lwerng.errors import DimensionMismatch, InvalidModulus
from lwerng.params import Params, _smallest_negacyclic_root

from oracles import (
    conv_negacyclic,
    loop_mat_vec,
    loop_negacyclic,
    monomial,
    one,
    ref_ntt,
    ref_staged_inv_ntt,
    ref_staged_ntt,
)


def rand_poly(rng, p):
    return [rng.randrange(p.q) for _ in range(p.degree)]


def mul(a, b, p):
    """Ring product through the package transforms."""
    return pr.inv_ntt(pr.ntt(a, p) * pr.ntt(b, p) % p.q, p).tolist()


def test_ntt_roundtrip_fullsize(params):
    rng = random.Random(12)
    batch = [rand_poly(rng, params) for _ in range(1000)]
    assert pr.inv_ntt(pr.ntt(batch, params), params).tolist() == batch
    for x in batch[:20]:
        assert pr.inv_ntt(pr.ntt(x, params), params).tolist() == x


@pytest.mark.parametrize("q,degree", [(8380417, 256), (257, 4), (17, 4), (193, 32), (7681, 256)])
def test_transform_matches_references(q, degree):
    # pins the bit-reversed evaluation order: _hiding_draws draws A in the
    # transform domain, so its output depends on it even though hide's does not
    p = Params(q=q, degree=degree)
    rng = np.random.default_rng(degree)
    x = rng.integers(0, q, size=(64, 3, degree), dtype=np.int64)
    assert np.array_equal(pr.ntt(x, p), ref_staged_ntt(x, p))
    assert np.array_equal(pr.inv_ntt(x, p), ref_staged_inv_ntt(x, p))
    # the centred matrices keep the product exact for inputs in (-q, 0) too
    assert np.array_equal(pr.ntt(x - q, p), pr.ntt(x, p))
    assert np.array_equal(pr.inv_ntt(x - q, p), pr.inv_ntt(x, p))
    for poly in x[0]:
        assert pr.ntt(poly, p).tolist() == ref_ntt(poly.tolist(), p)
        assert ref_ntt(pr.inv_ntt(poly, p).tolist(), p) == poly.tolist()


def column_extremes(matrix, value):
    """Per column of matrix, value where the column is positive (then negative)
    and 0 elsewhere: the rows whose products reach the largest sums."""
    cols = matrix.T
    return np.concatenate([np.where(cols > 0, value, 0), np.where(cols < 0, value, 0)])


def test_transform_exact_at_one_product_bound():
    # the default ring and the largest prime degree 256 admits, where a
    # column's sums reach 256 * (q - 2) * floor(q/2) ~ 2^52.998; q - 1 is a
    # multiple of 2^9 at any q = 1 (mod 512), which keeps its sums exact far
    # past 2^53, so the odd q - 2 is fed
    for q in (8380417, 8383489):
        p = Params(q=q)
        for matrix, transform, ref in zip(pr._matrices(q, p.degree, p.psi),
                                          (pr.ntt, pr.inv_ntt),
                                          (ref_staged_ntt, ref_staged_inv_ntt)):
            x = np.concatenate([column_extremes(matrix, q - 2),
                                np.full((1, p.degree), q - 2)])
            assert np.array_equal(transform(x, p), ref(x, p))
            assert np.array_equal(transform(-x, p), ref(-x % q, p))


def test_one_product_inexact_past_the_bound():
    # positive control: validate rejects q = 67104769 at degree 256, and one
    # float64 product there really does round, on the inputs the bound
    # test above feeds
    q, degree = 67104769, 256
    with pytest.raises(InvalidModulus):
        Params(q=q, degree=degree)
    ring = SimpleNamespace(q=q, degree=degree, psi=_smallest_negacyclic_root(q, degree))
    matrix = pr._matrices(q, degree, ring.psi)[0]
    x = column_extremes(matrix, q - 2)
    wrong = (pr._transform(x, matrix, q) != ref_staged_ntt(x, ring)).any(axis=1)
    assert wrong.sum() > degree


def test_transform_exact_at_degree_bound():
    # degree 2^10 at the largest prime q = 1 (mod 2048) it admits: one
    # product whose sums stay within 1024 * (q - 1) * floor(q/2) ~ 2^52.996
    p = Params(q=4188161, degree=1024)
    rng = np.random.default_rng(26)
    x = np.concatenate([rng.integers(0, p.q, size=(7, p.degree), dtype=np.int64),
                        np.full((1, p.degree), p.q - 1, dtype=np.int64)])
    fwd = pr.ntt(x, p)
    assert np.array_equal(fwd, ref_staged_ntt(x, p))
    assert np.array_equal(pr.inv_ntt(x, p), ref_staged_inv_ntt(x, p))
    assert np.array_equal(pr.inv_ntt(fwd, p), x)
    assert fwd[-1].tolist() == ref_ntt(x[-1].tolist(), p)
    # one 1-D polynomial, at the bound
    assert np.array_equal(pr.ntt(x[-1], p), fwd[-1])
    assert np.array_equal(pr.inv_ntt(fwd[-1], p), x[-1])
    assert np.array_equal(pr.inv_ntt(x[-1], p), ref_staged_inv_ntt(x[-1:], p)[0])
    # odd near-maximal inputs on the positive (then negative) entries of a
    # few columns
    matrix = pr._matrices(p.q, p.degree, p.psi)[0][:, [0, 1, 511, 1023]]
    y = column_extremes(matrix, p.q - 2)
    assert np.array_equal(pr.ntt(y, p), ref_staged_ntt(y, p))


def test_transform_matrices_read_only(params):
    # the cache hands the same arrays to every caller
    for matrix in pr._matrices(params.q, params.degree, params.psi):
        with pytest.raises(ValueError):
            matrix[0, 0] = 1


def test_ntt_zero_is_zero(params):
    zero = [0] * params.degree
    assert pr.ntt(zero, params).tolist() == zero
    assert pr.inv_ntt(zero, params).tolist() == zero


def test_ntt_is_bijection_toy(toy_params):
    # exhaustive-ish: distinct inputs map to distinct outputs, roundtrip holds
    rng = random.Random(13)
    seen = set()
    for _ in range(300):
        x = rand_poly(rng, toy_params)
        y = pr.ntt(x, toy_params)
        assert pr.inv_ntt(y, toy_params).tolist() == x
        seen.add(tuple(y.tolist()))
    assert len(seen) > 250  # collisions would show up immediately


def test_pointwise_toy_matches_schoolbook(toy_params):
    rng = random.Random(14)
    for _ in range(200):
        a = rand_poly(rng, toy_params)
        b = rand_poly(rng, toy_params)
        assert mul(a, b, toy_params) == loop_negacyclic(a, b, toy_params.q)


def test_mul_identity(params):
    rng = random.Random(15)
    x = rand_poly(rng, params)
    assert mul(x, one(params.degree), params) == x


def test_wraparound_sign_flip(params):
    # X * X^(degree-1) = X^degree = -1
    x1 = monomial(params.degree, params.q, 1)
    xn1 = monomial(params.degree, params.q, params.degree - 1)
    assert mul(x1, xn1, params) == monomial(params.degree, params.q, 0, -1)


def test_mul_matches_oracles_fullsize(params):
    rng = random.Random(16)
    for _ in range(200):
        a = rand_poly(rng, params)
        b = rand_poly(rng, params)
        assert mul(a, b, params) == conv_negacyclic(a, b, params.q)


def test_schoolbook_hand_cases(tiny_params):
    # (1 + X)^2 = 1 + 2X + X^2
    a = [1, 1, 0, 0]
    assert mul(a, a, tiny_params) == [1, 2, 1, 0]
    # X^2 * X^3 = X^5 = -X
    assert mul([0, 0, 1, 0], [0, 0, 0, 1], tiny_params) == [0, 16, 0, 0]


def test_commutativity_and_distributivity(toy_params):
    rng = random.Random(18)
    q = toy_params.q
    for _ in range(50):
        a = rand_poly(rng, toy_params)
        b = rand_poly(rng, toy_params)
        c = rand_poly(rng, toy_params)
        assert mul(a, b, toy_params) == mul(b, a, toy_params)
        lhs = mul(a, [(x + y) % q for x, y in zip(b, c)], toy_params)
        rhs = [(x + y) % q for x, y in zip(mul(a, b, toy_params), mul(a, c, toy_params))]
        assert lhs == rhs


def test_mat_vec_identity_like(toy_params):
    rng = random.Random(19)
    s = [rand_poly(rng, toy_params) for _ in range(toy_params.n)]
    zero = [0] * toy_params.degree
    eye = [
        [one(toy_params.degree) if i == j else zero for j in range(toy_params.n)]
        for i in range(toy_params.n)
    ]
    assert pr.mat_vec_mul(eye, s, toy_params).tolist() == s


def test_mat_vec_zero(toy_params):
    rng = random.Random(20)
    s = [rand_poly(rng, toy_params) for _ in range(toy_params.n)]
    zero = [0] * toy_params.degree
    zmat = [[zero] * toy_params.n for _ in range(2)]
    assert pr.mat_vec_mul(zmat, s, toy_params).tolist() == [zero] * 2


def test_mat_vec_matches_loop_oracle(toy_params):
    rng = random.Random(21)
    for _ in range(20):
        mat = [[rand_poly(rng, toy_params) for _ in range(toy_params.n)]
               for _ in range(2)]
        s = [rand_poly(rng, toy_params) for _ in range(toy_params.n)]
        # a centred secret, in [-eta, eta] as sample_secret returns it
        centred = [[rng.randint(-toy_params.eta, toy_params.eta)
                    for _ in range(toy_params.degree)] for _ in range(toy_params.n)]
        for vec in (s, centred):
            assert pr.mat_vec_mul(mat, vec, toy_params).tolist() == \
                loop_mat_vec(mat, vec, toy_params.q)


def test_mat_vec_dimension_mismatch(toy_params):
    zero = [0] * toy_params.degree
    mat = [[zero] * 3 for _ in range(2)]
    s = [zero] * 2
    with pytest.raises(DimensionMismatch):
        pr.mat_vec_mul(mat, s, toy_params)
    # rows as wide as the vector but wider than n: 2^11 + 1 products near
    # (q - 1)^2 would pass 2^63 and wrap silently; the guard rejects on
    # length alone, so zero polynomials stand in for such rows
    p = Params(q=67104769, n=1, degree=2)
    zero = [0] * p.degree
    mat = [[zero] * ((1 << 11) + 1)]
    s = [zero] * ((1 << 11) + 1)
    with pytest.raises(DimensionMismatch):
        pr.mat_vec_mul(mat, s, p)


def test_mul_exact_at_largest_modulus():
    p = Params(q=8383489)  # largest prime q = 1 (mod 512) that degree 256 admits
    rng = random.Random(23)
    for _ in range(3):
        a = [p.q - 1 - rng.randrange(8) for _ in range(p.degree)]
        b = [p.q - 1 - rng.randrange(8) for _ in range(p.degree)]
        assert mul(a, b, p) == loop_negacyclic(a, b, p.q)


def near_max_hat(rng, p):
    """A polynomial whose transform has every entry within 8 of q - 1."""
    return pr.inv_ntt([p.q - 1 - rng.randrange(8) for _ in range(p.degree)], p).tolist()


def test_mat_vec_exact_at_largest_modulus():
    # near-maximal coefficients feed the lazy transform large entries, and a
    # secret with a near-maximal transform makes the unreduced row sums large
    p = Params(q=8383489)
    rng = random.Random(24)
    mat = [[[p.q - 1 - rng.randrange(8) for _ in range(p.degree)] for _ in range(p.n)]
           for _ in range(4)]
    s = [near_max_hat(rng, p) for _ in range(p.n)]
    assert pr.mat_vec_mul(mat, s, p).tolist() == loop_mat_vec(mat, s, p.q)


def test_mat_vec_widest_row_sums_exactly():
    # at the largest n validate allows, 256 transform-domain products near
    # (q - 1)^2 sum to just below 2^60 with one reduction per row
    p = Params(q=67104769, n=256, degree=2)
    rng = random.Random(25)
    mat = [[near_max_hat(rng, p) for _ in range(p.n)]]
    s = [near_max_hat(rng, p) for _ in range(p.n)]
    assert pr.mat_vec_mul(mat, s, p).tolist() == loop_mat_vec(mat, s, p.q)


@pytest.mark.parametrize("q", [17, 257, 8380417])
def test_reduce_mod_matches_remainder(q):
    rng = np.random.default_rng(q)
    wide = rng.integers(-(1 << 62), 1 << 62, size=4096, dtype=np.int64)
    edges = np.array([0, 1, -1, q - 1, -(q - 1), q, -q, 2 * q, -2 * q, 3 * q + 1,
                      -(3 * q) - 1, q * (((1 << 62) - 1) // q), -q * ((1 << 62) // q)],
                     dtype=np.int64)
    for x in (wide, edges):
        expected = x % q
        out = pr.reduce_mod(x, q)
        assert out is x  # reduced in place, in the array it was given
        assert np.array_equal(x, expected)
