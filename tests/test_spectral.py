import numpy as np
import pytest

from tprod import (
    Tensor3,
    bcirc,
    conj_transpose,
    fnorm,
    gfun,
    identity,
    isometry,
    named_scalar_fn,
    partial_isometries,
    pinv,
    projectors,
    specnorm,
    t_eigenvalues,
    tcsvd,
    tprod,
    tsvd,
    is_unitary,
)

from tprod.errors import NonFinite
from tprod.spectral import from_faces, to_faces

from conftest import rand3, rand_low_rank


def _all_faces(a):
    return to_faces(a, allow_half=False)[1][0]


def _reconstruct(u, s, v):
    return tprod(u, tprod(s, conj_transpose(v)))


def test_face_round_trip(rng):
    a = rand3(rng, 3, 4, 5, cplx=True)
    half, (faces,) = to_faces(a)
    b = from_faces(faces, a.p, half)
    assert fnorm(b - a) <= 1e-13 * fnorm(a)


def test_faces_of_tube(tube4):
    faces = _all_faces(tube4).ravel()
    assert np.allclose(faces, [10, -2 - 2j, -2, -2 + 2j], atol=1e-12)


def test_constant_tube_faces():
    t = Tensor3(np.array([3.5, 0, 0, 0]).reshape(4, 1, 1))
    assert np.allclose(_all_faces(t).ravel(), 3.5)


def test_faces_of_csvd_example(csvd_example):
    faces = _all_faces(csvd_example)
    assert np.allclose(faces[0], np.diag([1.0, 0, 0]), atol=1e-13)
    assert np.allclose(faces[1], np.diag([1.0, 2, 0]), atol=1e-13)
    assert np.allclose(faces[2], np.diag([0.0, 3, 2]), atol=1e-13)


def test_conjugate_symmetry_for_real(rng):
    a = rand3(rng, 2, 3, 5)
    faces = _all_faces(a)
    for k in range(1, 5):
        assert np.allclose(faces[5 - k], faces[k].conj(), atol=1e-13)


def test_diagonalization_sandwich(rng):
    # bcirc(A) = (F^H kron I) blockdiag(faces) (F kron I) with unitary DFT F
    a = rand3(rng, 2, 3, 4, cplx=True)
    p = 4
    f = np.exp(-2j * np.pi * np.outer(np.arange(p), np.arange(p)) / p) / np.sqrt(p)
    d = _all_faces(a)
    blk = np.zeros((2 * p, 3 * p), dtype=complex)
    for k in range(p):
        blk[2 * k : 2 * k + 2, 3 * k : 3 * k + 3] = d[k]
    lhs = np.kron(f.conj().T, np.eye(2)) @ blk @ np.kron(f, np.eye(3))
    assert np.linalg.norm(lhs - bcirc(a)) <= 1e-12 * max(fnorm(a), 1.0)


def test_tsvd_identity():
    f = tsvd(identity(3, 2))
    assert fnorm(f.S - identity(3, 2)) <= 1e-12


def test_tsvd_reconstruction_and_unitarity(rng):
    a = rand3(rng, 5, 3, 7)
    f = tsvd(a)
    assert fnorm(_reconstruct(f.U, f.S, f.V) - a) <= 1e-10 * fnorm(a)
    assert is_unitary(f.U, 1e-10)
    assert is_unitary(f.V, 1e-10)
    assert f.U.is_real(1e-8) and f.S.is_real(1e-8) and f.V.is_real(1e-8)


def test_tsvd_complex_input(rng):
    a = rand3(rng, 4, 3, 3, cplx=True)
    f = tsvd(a)
    assert fnorm(_reconstruct(f.U, f.S, f.V) - a) <= 1e-10 * fnorm(a)
    assert is_unitary(f.U, 1e-10) and is_unitary(f.V, 1e-10)


def test_tube_singular_values(tube4):
    sv = np.sort(np.concatenate([s for s in np.atleast_2d(tcsvd(tube4).sigma)]))[::-1]
    assert np.allclose(sv, [10, 2 * np.sqrt(2), 2 * np.sqrt(2), 2], atol=1e-12)


def test_tcsvd_worked_example(csvd_example):
    c = tcsvd(csvd_example)
    assert c.r == 2
    assert c.face_ranks == (1, 2, 2)
    rec = _reconstruct(c.Ur, c.Sr, c.Vr)
    assert fnorm(rec - csvd_example) <= 1e-10 * fnorm(csvd_example)
    assert np.allclose(c.sigma[0], [1, 0], atol=1e-12)
    assert np.allclose(c.sigma[1], [2, 1], atol=1e-12)
    assert np.allclose(c.sigma[2], [3, 2], atol=1e-12)


def test_tcsvd_identity():
    c = tcsvd(identity(3, 4))
    assert c.r == 3
    assert fnorm(c.Sr - identity(3, 4)) <= 1e-12


def test_tcsvd_low_rank_reconstruction(rng):
    a = rand_low_rank(rng, 5, 4, 3, k=2)
    c = tcsvd(a)
    assert c.r == 2
    rec = _reconstruct(c.Ur, c.Sr, c.Vr)
    assert fnorm(rec - a) <= 1e-10 * fnorm(a)
    eye = identity(c.r, a.p)
    assert fnorm(tprod(conj_transpose(c.Ur), c.Ur) - eye) <= 1e-10
    assert fnorm(tprod(conj_transpose(c.Vr), c.Vr) - eye) <= 1e-10


def test_tcsvd_zero_tensor():
    c = tcsvd(Tensor3.zeros(2, 3, 4))
    assert c.r == 0 and c.face_ranks == (0, 0, 0, 0)


def test_specnorm_and_frobenius_consistency(rng):
    a = rand3(rng, 4, 3, 5, cplx=True)
    c = tcsvd(a)
    assert abs(specnorm(a) - c.sigma.max()) <= 1e-12 * c.sigma.max()
    assert abs(fnorm(a) ** 2 - (c.sigma**2).sum()) <= 1e-9 * fnorm(a) ** 2


def test_t_eigenvalues(tube4, rng):
    assert np.allclose(t_eigenvalues(identity(2, 2)), [1, 1, 1, 1])
    assert np.allclose(t_eigenvalues(tube4), [100, 8, 8, 4], atol=1e-9)
    a = rand3(rng, 3, 2, 4)
    gram = bcirc(tprod(a, conj_transpose(a)))
    dense = np.sort(np.linalg.eigvalsh(gram))[::-1]
    dense = dense[dense > 1e-10 * max(dense.max(), 1.0)]
    assert np.allclose(np.sort(t_eigenvalues(a)), np.sort(dense), atol=1e-9)


def test_projectors(rng):
    a = rand3(rng, 3, 3, 2) + 2 * identity(3, 2)
    ql, qr = projectors(tcsvd(a))
    assert fnorm(ql - identity(3, 2)) <= 1e-10
    assert fnorm(qr - identity(3, 2)) <= 1e-10

    b = rand_low_rank(rng, 4, 3, 3, k=2)
    ql, qr = projectors(tcsvd(b))
    x = pinv(b)
    assert fnorm(ql - tprod(b, x)) <= 1e-9 * max(fnorm(ql), 1.0)
    assert fnorm(qr - tprod(x, b)) <= 1e-9 * max(fnorm(qr), 1.0)
    for q in (ql, qr):
        assert fnorm(tprod(q, q) - q) <= 1e-9 * max(fnorm(q), 1.0)
        assert fnorm(q - conj_transpose(q)) <= 1e-9 * max(fnorm(q), 1.0)

    zl, zr = projectors(tcsvd(Tensor3.zeros(2, 3, 2)))
    assert fnorm(zl) == 0.0 and fnorm(zr) == 0.0


def test_partial_isometries_identity():
    c = tcsvd(identity(2, 2))
    ps = partial_isometries(c)
    assert fnorm(ps.E - identity(2, 2)) <= 1e-12
    assert len(ps.components) == 2 and len(ps.components[0]) == 2


def test_partial_isometries_reconstruction(rng):
    a = rand3(rng, 3, 2, 3)
    c = tcsvd(a)
    ps = partial_isometries(c)
    acc = Tensor3.zeros(3, 2, 3)
    for i in range(a.p):
        for j in range(c.r):
            acc = acc + float(ps.values[i, j]) * ps.components[i][j]
    assert fnorm(acc - a) <= 1e-10 * fnorm(a)
    # sum of components is the isometry
    esum = Tensor3.zeros(3, 2, 3)
    for row in ps.components:
        for comp in row:
            esum = esum + comp
    assert fnorm(esum - ps.E) <= 1e-10 * max(fnorm(ps.E), 1.0)
    assert ps.E.is_real(1e-8)


def test_partial_isometries_orthogonality(rng):
    a = rand3(rng, 3, 2, 3)
    c = tcsvd(a)
    ps = partial_isometries(c)
    flat = [(i, j, ps.components[i][j]) for i in range(a.p) for j in range(c.r)]
    for i, j, e1 in flat:
        for k, l, e2 in flat:
            if (i, j) == (k, l):
                continue
            assert fnorm(tprod(e1, conj_transpose(e2))) <= 1e-10
            assert fnorm(tprod(conj_transpose(e1), e2)) <= 1e-10


@pytest.mark.parametrize("shape", [(3, 2, 1), (3, 2, 4), (2, 3, 5), (4, 4, 6)])
@pytest.mark.parametrize("cplx", [False, True])
def test_partial_isometries_match_per_component_transform(rng, shape, cplx):
    a = rand_low_rank(rng, *shape, k=2, cplx=cplx)
    c = tcsvd(a)
    ps = partial_isometries(c)
    uf, vhf = c.full_frames
    for i in range(c.p):
        for j in range(c.r):
            faces = np.zeros((c.p, c.m, c.n), dtype=np.complex128)
            faces[i] = np.outer(uf[i, :, j], vhf[i, j, :])
            want = from_faces(faces, c.p, half=False)
            assert fnorm(ps.components[i][j] - want) <= 1e-14 * fnorm(want)


def test_isometry_properties(rng):
    a = rand_low_rank(rng, 4, 3, 3, k=2)
    e = isometry(tcsvd(a))
    eh = conj_transpose(e)
    assert fnorm(tprod(e, tprod(eh, e)) - e) <= 1e-10 * max(fnorm(e), 1.0)
    assert fnorm(pinv(e) - eh) <= 1e-10 * max(fnorm(e), 1.0)


def test_component_pinv_is_conj_transpose(rng):
    a = rand3(rng, 2, 2, 2)
    ps = partial_isometries(tcsvd(a))
    comp = ps.components[1][0]
    assert fnorm(pinv(comp) - conj_transpose(comp)) <= 1e-10


@pytest.mark.parametrize("shape", [(1, 1, 1), (3, 2, 1), (2, 3, 2)])
def test_degenerate_p1_and_small(rng, shape):
    m, n, p = shape
    a = rand3(rng, m, n, p, cplx=True)
    c = tcsvd(a)
    rec = _reconstruct(c.Ur, c.Sr, c.Vr)
    assert fnorm(rec - a) <= 1e-10 * max(fnorm(a), 1.0)


def test_decomposition_determinism(rng):
    a = rand3(rng, 4, 3, 3)
    c1, c2 = tcsvd(a), tcsvd(a)
    assert np.array_equal(c1.sigma, c2.sigma)
    assert np.array_equal(c1.uf, c2.uf)
    assert np.array_equal(c1.vhf, c2.vhf)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
@pytest.mark.parametrize("entry", ["tcsvd", "gfun", "pinv", "tprod"])
def test_non_finite_input_rejected_before_lapack(rng, entry, bad):
    data = rand3(rng, 3, 2, 4).data.astype(complex)
    data[1, 2, 0] = bad
    a = Tensor3(data)
    calls = {
        "tcsvd": lambda: tcsvd(a),
        "gfun": lambda: gfun(a, named_scalar_fn("sinh")),
        "pinv": lambda: pinv(a),
        "tprod": lambda: tprod(a, rand3(rng, 2, 3, 4)),
    }
    with pytest.raises(NonFinite):
        calls[entry]()
