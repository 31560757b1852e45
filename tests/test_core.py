import numpy as np
import pytest

from tprod import (
    Tensor3,
    bcirc,
    bcirc_inv,
    block,
    conj_transpose,
    fnorm,
    fold,
    identity,
    specnorm,
    tprod,
    transpose,
    unfold,
)
from tprod.errors import DimMismatch, NotBlockCirculant

from conftest import rand3


def test_fold_unfold_round_trip(rng):
    a = rand3(rng, 3, 2, 4)
    b = fold(unfold(a), 3, 2, 4)
    assert np.array_equal(a.data, b.data)


def test_unfold_tube_stacks_slices(tube4):
    assert np.allclose(unfold(tube4).ravel(), [1, 4, 3, 2])


def test_unfold_identity():
    u = unfold(identity(2, 3))
    assert np.allclose(u[:2], np.eye(2))
    assert np.allclose(u[2:], 0)


def test_bcirc_tube_matches_displayed_circulant(tube4):
    want = np.array([[1, 2, 3, 4], [4, 1, 2, 3], [3, 4, 1, 2], [2, 3, 4, 1]], dtype=float)
    assert np.allclose(bcirc(tube4).real, want)


def test_bcirc_identity_is_identity():
    assert np.allclose(bcirc(identity(2, 3)), np.eye(6))


def test_bcirc_transpose_lemma(rng):
    a = rand3(rng, 2, 3, 3)
    assert np.allclose(bcirc(transpose(a)), bcirc(a).T, atol=1e-14)
    c = rand3(rng, 2, 3, 3, cplx=True)
    assert np.allclose(bcirc(conj_transpose(c)), bcirc(c).conj().T, atol=1e-14)


def test_bcirc_ring_homomorphism(rng):
    a = rand3(rng, 3, 3, 4)
    b = rand3(rng, 3, 3, 4)
    prod = bcirc(tprod(a, b))
    assert np.linalg.norm(prod - bcirc(a) @ bcirc(b)) <= 1e-12 * np.linalg.norm(prod)
    assert np.allclose(bcirc(a + b), bcirc(a) + bcirc(b))
    assert np.array_equal((a @ b).data, tprod(a, b).data)


def test_bcirc_inv_round_trip(rng):
    a = rand3(rng, 2, 2, 5, cplx=True)
    b = bcirc_inv(bcirc(a), 2, 2, 5)
    assert np.array_equal(a.data, b.data)


def test_bcirc_inv_identity():
    t = bcirc_inv(np.eye(6), 2, 2, 3)
    assert np.array_equal(t.data, identity(2, 3).data)


def test_bcirc_inv_rejects_unstructured(rng):
    with pytest.raises(NotBlockCirculant):
        bcirc_inv(rng.standard_normal((6, 6)), 2, 2, 3)


def test_bcirc_inv_of_displayed_square_values():
    # first block column of the squared-circulant display recovers the
    # generalized-function slice values
    r2 = 2 * np.sqrt(2)
    row = np.array([24 - r2, 26 - r2, 24 + r2, 26 + r2])
    mat = np.stack([np.roll(row, k) for k in range(4)])
    t = bcirc_inv(mat, 1, 1, 4)
    assert np.allclose(t.data.ravel().real, [24 - r2, 26 + r2, 24 + r2, 26 - r2], atol=1e-12)


def test_transpose_worked_example(transpose_example):
    tt = transpose(transpose_example)
    want = [
        [[1, 4, 7], [2, 5, 8], [3, 6, 9]],
        [[3, 12, 21], [6, 15, 24], [9, 18, 27]],
        [[2, 8, 14], [4, 10, 16], [6, 12, 18]],
    ]
    assert np.array_equal(tt.data.real, np.array(want, dtype=float))


def test_transpose_involution(rng):
    a = rand3(rng, 3, 4, 5, cplx=True)
    assert np.array_equal(transpose(transpose(a)).data, a.data)
    assert np.array_equal(conj_transpose(conj_transpose(a)).data, a.data)


def test_product_conj_transpose_reverses(rng):
    a = rand3(rng, 2, 3, 2, cplx=True)
    b = rand3(rng, 3, 2, 2, cplx=True)
    lhs = conj_transpose(tprod(a, b))
    rhs = tprod(conj_transpose(b), conj_transpose(a))
    assert fnorm(lhs - rhs) <= 1e-12 * fnorm(lhs)


def test_block_diagonal_slices(rng):
    a = rand3(rng, 2, 3, 3)
    t = block([[a, 0], [0, a]])
    for k in range(3):
        sl = t.data[k]
        assert np.allclose(sl[:2, 3:], 0)
        assert np.allclose(sl[2:, :3], 0)
        assert np.allclose(sl[:2, :3], a.data[k])


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_block_multiplication_rule(rng, p):
    n1, m1, n2, m2, r1, r2 = 2, 3, 2, 2, 3, 2
    a1, b1 = rand3(rng, n1, m1, p), rand3(rng, n1, m2, p)
    c1, d1 = rand3(rng, n2, m1, p), rand3(rng, n2, m2, p)
    a2, b2 = rand3(rng, m1, r1, p), rand3(rng, m1, r2, p)
    c2, d2 = rand3(rng, m2, r1, p), rand3(rng, m2, r2, p)
    left = tprod(block([[a1, b1], [c1, d1]]), block([[a2, b2], [c2, d2]]))
    right = block([
        [tprod(a1, a2) + tprod(b1, c2), tprod(a1, b2) + tprod(b1, d2)],
        [tprod(c1, a2) + tprod(d1, c2), tprod(c1, b2) + tprod(d1, d2)],
    ])
    assert fnorm(left - right) <= 1e-12 * fnorm(left)


def test_block_hermitian_doubling(rng):
    a = rand3(rng, 2, 3, 3, cplx=True)
    doubled = block([[0, a], [conj_transpose(a), 0]])
    assert fnorm(doubled - conj_transpose(doubled)) <= 1e-13 * fnorm(doubled)


def test_block_underdetermined_zero_dims():
    with pytest.raises(DimMismatch):
        block([[0, 0], [0, 0]])


def test_fnorm_and_specnorm(tube4):
    assert fnorm(Tensor3.zeros(2, 3, 4)) == 0.0
    assert abs(specnorm(identity(3, 4)) - 1.0) < 1e-14
    assert abs(specnorm(tube4) - 10.0) < 1e-12


def test_fnorm_matches_bcirc(rng):
    a = rand3(rng, 3, 2, 4, cplx=True)
    assert abs(fnorm(a) - np.linalg.norm(bcirc(a))) <= 1e-12 * fnorm(a)


def test_is_real_predicate(rng):
    a = rand3(rng, 2, 2, 2)
    assert a.is_real() and a.exactly_real
    b = Tensor3(a.data + 1e-6j)
    assert not b.is_real()


def test_dim_checks(rng):
    a = rand3(rng, 2, 3, 2)
    with pytest.raises(DimMismatch):
        tprod(a, rand3(rng, 2, 2, 2))
    with pytest.raises(DimMismatch):
        a + rand3(rng, 3, 2, 2)
    with pytest.raises(DimMismatch):
        fold(np.zeros((5, 3)), 2, 3, 2)


def test_block_degenerate_arrangements(rng):
    a = rand3(rng, 2, 3, 2)
    b = rand3(rng, 2, 2, 2)
    wide = block([[a, b]])
    assert wide.shape == (2, 5, 2)
    assert np.allclose(wide.data[:, :, :3], a.data)
    assert np.allclose(wide.data[:, :, 3:], b.data)
    c = rand3(rng, 3, 3, 2)
    tall = block([[a], [c]])
    assert tall.shape == (5, 3, 2)
    assert np.allclose(tall.data[:, :2, :], a.data)


def test_block_rejects_inconsistent_blocks(rng):
    a = rand3(rng, 2, 3, 2)
    with pytest.raises(DimMismatch):
        block([[a, rand3(rng, 2, 3, 3)]])  # tube lengths differ
    with pytest.raises(DimMismatch):
        block([[a, rand3(rng, 3, 3, 2)]])  # row heights differ
    with pytest.raises(DimMismatch):
        block([[a], [rand3(rng, 2, 2, 2)]])  # column widths differ
    with pytest.raises(DimMismatch):
        block([[a, 0]])  # the zero block's width is undetermined


def test_bcirc_inv_and_block_round_trip_at_p1(rng):
    a = rand3(rng, 2, 3, 1, cplx=True)
    assert np.array_equal(bcirc(a), a.data[0])
    assert np.array_equal(bcirc_inv(bcirc(a), 2, 3, 1).data, a.data)
    b = rand3(rng, 2, 2, 1)
    c = rand3(rng, 4, 2, 1, cplx=True)
    t = block([[a, b], [0, c]])
    want = np.block([[a.data[0], b.data[0]], [np.zeros((4, 3)), c.data[0]]])
    assert np.array_equal(t.data, want[None])
    assert np.array_equal(bcirc_inv(bcirc(t), 6, 5, 1).data, t.data)
