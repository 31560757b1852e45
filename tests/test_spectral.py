import numpy as np
import pytest

from tprod import (
    Tensor3,
    bcirc,
    conj_transpose,
    fnorm,
    gfun,
    identity,
    inverse,
    isometry,
    named_scalar_fn,
    partial_isometries,
    pinv,
    projectors,
    specnorm,
    standard_tfn,
    t_eigenvalues,
    tcsvd,
    tprod,
    tsvd,
    is_unitary,
)

from tprod.errors import NonFinite, Singular
from tprod import spectral
from tprod.spectral import _ct, _matmul, from_faces, mirror, to_faces

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


def _self_conjugate(p):
    return [0, p // 2] if p % 2 == 0 else [0]


@pytest.mark.parametrize("p", [1, 2, 5, 6])
def test_from_faces_keeps_an_imaginary_self_conjugate_face(rng, p):
    half = np.fft.rfft(rng.standard_normal((p, 2, 3)), axis=0)
    half[_self_conjugate(p)[-1]] += 0.5j * rng.standard_normal((2, 3))
    out = from_faces(half, p, half=True)
    assert out.data.dtype == np.complex128
    want = np.fft.ifft(mirror(half, p), axis=0)
    assert np.abs(out.data - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("p", [1, 2, 5, 6])
@pytest.mark.parametrize("rel", [1e-16, 2e-8])
def test_from_faces_drops_roundoff_on_self_conjugate_faces(rng, p, rel):
    # up to the imaginary parts an eigendecomposition at its conditioning limit leaves
    half = np.fft.rfft(rng.standard_normal((p, 2, 3)), axis=0)
    half[_self_conjugate(p)] += 1j * rel * np.abs(half).max()
    out = from_faces(half, p, half=True)
    assert out.data.dtype == np.float64
    assert np.array_equal(out.data, np.fft.irfft(half, n=p, axis=0))


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


def _stack(rng, shape, cplx):
    x = rng.standard_normal(shape)
    return x + 1j * rng.standard_normal(shape) if cplx else x


@pytest.mark.parametrize("h", [1, 4096])
@pytest.mark.parametrize("cplx_a, cplx_b", [(True, True), (False, True), (True, False),
                                            (False, False)],
                         ids=["complex", "real-complex", "complex-real", "real"])
@pytest.mark.parametrize("k", range(6))
def test_face_matmul_matches_matmul(rng, k, cplx_a, cplx_b, h):
    # 3 x k times k x 2: k = 1, 2 take the multiply-adds, k = 0 and k >= 3 take @
    a, b = _stack(rng, (h, 3, k), cplx_a), _stack(rng, (h, k, 2), cplx_b)
    want, got = a @ b, _matmul(a, b)
    assert got.shape == want.shape and got.dtype == want.dtype
    tol = 4 * np.finfo(float).eps * np.linalg.norm(a, axis=(1, 2)) * np.linalg.norm(b, axis=(1, 2))
    assert (np.abs(got - want).max(axis=(1, 2), initial=0.0) <= tol).all()
    with pytest.raises(ValueError):
        _matmul(a, _stack(rng, (h, k + 1, 2), cplx_b))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_face_matmul_reads_a_broadcast_operand(rng, k):
    # the contour oracle's first power is a read-only broadcast identity
    eye = np.broadcast_to(np.eye(k), (64, k, k))
    b = _stack(rng, (64, k, k), True)
    before = b.copy()
    for got, want in ((_matmul(eye, b), eye @ b), (_matmul(b, eye), b @ eye)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(b, before)


_TINY = np.nextafter(0.0, 1.0)  # the smallest subnormal, 2^-1074


def _faces_2x2(rng, kind, h=512):
    """Complex 2x2 face stacks that the closed-form SVD must factor as LAPACK does."""
    if kind == "random":
        return _stack(rng, (h, 2, 2), True)
    if kind == "rank1-integer":
        x, y = rng.integers(-9, 10, (2, h, 2, 1)) + 1j * rng.integers(-9, 10, (2, h, 2, 1))
        return x * y.swapaxes(1, 2)
    if kind == "rank1-gaussian":
        x, y = _stack(rng, (h, 2, 1), True), _stack(rng, (h, 1, 2), True)
        return x * y
    return np.array([np.zeros((2, 2)), np.eye(2), np.diag([1e300, 1e-300]),
                     np.diag([1e-300, 1e300]), np.full((2, 2), 1e200), np.full((2, 2), 1e-200),
                     [[0.0, 1.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, -1.0]],
                     # subnormal entries: frexp's exponent goes below -1021 here
                     np.diag([1e-310, 0.0]), np.full((2, 2), _TINY), np.diag([1e-300, 1e-320]),
                     [[1e-310, 3e-312j], [2e-315, 0.0]]], dtype=complex)


@pytest.mark.parametrize("kind", ["random", "rank1-integer", "rank1-gaussian", "special"])
def test_svd2x2_matches_lapack(rng, kind):
    # LAPACK itself reads up to 7 eps on reconstruction and 10 eps on unitarity here
    tol = 8 * np.finfo(float).eps
    faces = _faces_2x2(rng, kind)
    u, s, vh = spectral._svd2x2(faces)
    assert (u.shape, s.shape, vh.shape) == ((len(faces), 2, 2), (len(faces), 2), (len(faces), 2, 2))
    assert (u.dtype, s.dtype, vh.dtype) == (np.complex128, np.float64, np.complex128)
    want = np.linalg.svd(faces, compute_uv=False)
    # on subnormal faces each rounding is absolute, a few times the spacing _TINY
    top = want[:, 0] + 4 * _TINY / tol
    rec = (u * s[:, None, :]) @ vh
    assert (np.abs(rec - faces).max(axis=(1, 2)) <= tol * top).all()
    eye = np.eye(2)
    assert np.abs(_ct(u) @ u - eye).max() <= tol
    assert np.abs(vh @ _ct(vh) - eye).max() <= tol
    assert (s >= 0.0).all() and (s[:, 0] >= s[:, 1]).all()
    assert (np.abs(s - want) <= tol * top[:, None]).all()
    if kind.startswith("rank1"):
        # below the rank cutoff of a 2x2x1 tensor, 2 eps s1
        assert (s[:, 1] <= 2 * np.finfo(float).eps * s[:, 0]).all()
    if kind == "special":
        assert np.array_equal(s[0], [0.0, 0.0])
        assert np.array_equal(u[0], eye) and np.array_equal(vh[0], eye)


def _rank_one_slices(rng, kind, p):
    """A 2x2xp tensor whose slices are x_k y for one shared row y: every face has rank 1."""
    if kind == "integer":
        x = np.arange(1.0, 2 * p + 1).reshape(p, 2, 1)
        y = np.array([[1.0, 2.0]])
    else:
        x, y = _stack(rng, (p, 2, 1), kind == "complex"), _stack(rng, (1, 2), kind == "complex")
    return Tensor3(x * y)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["integer", "real", "complex"])
def test_tcsvd_of_rank_one_2x2_tensors_matches_numpy_ranks(rng, kind, p):
    a = _rank_one_slices(rng, kind, p)
    s = np.linalg.svd(np.fft.fft(a.data, axis=0), compute_uv=False)
    cut = 2 * p * np.finfo(float).eps * s.max()
    c = tcsvd(a)
    assert c.face_ranks == tuple((s > cut).sum(axis=1).tolist()) == (1,) * p
    assert c.r == 1
    assert fnorm(_reconstruct(c.Ur, c.Sr, c.Vr) - a) <= 1e-15 * fnorm(a)


def test_subnormal_2x2_faces_keep_their_ranks_and_norms():
    # face 1 of a is [[-1e-310, 0], [0, 0]]: below the rank cutoff beside face 0
    d = np.ones((2, 2, 2))
    d[:, 0, 0] = 0.0, 1e-310
    b = 1e-310 * np.array([[[2.0, 1.0], [1.0, 3.0]], [[1.0, 0.0], [0.0, -1.0]]])
    for t in (d, b, np.full((3, 2, 2), _TINY)):
        a = Tensor3(t)
        s = np.linalg.svd(np.fft.fft(t, axis=0), compute_uv=False)
        cut = spectral.default_rank_rtol(2, 2, a.p) * s.max()
        ranks = (s > cut).sum(axis=1)
        c = tcsvd(a)
        assert c.face_ranks == tuple(ranks.tolist()) and c.r == ranks.max()
        assert np.isfinite(c.Sr.data).all()
        assert abs(specnorm(a) - s.max()) <= 4 * np.finfo(float).eps * s.max() + 2 * _TINY
        f = tsvd(a)
        assert all(np.isfinite(x.data).all() for x in (f.U, f.S, f.V))
    assert tcsvd(Tensor3(d)).face_ranks == (2, 0)
    assert tcsvd(Tensor3(b)).face_ranks == (2, 2)
    with pytest.raises(Singular) as err:
        inverse(Tensor3(d))
    assert (err.value.face, err.value.smin) == (1, 0.0)


def test_only_complex_2x2_stacks_skip_lapack(rng, monkeypatch):
    calls = []
    svd = np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    for shape, cplx in (((2, 2, 5), False), ((2, 2, 4), True)):
        a = rand3(rng, *shape, cplx)
        tcsvd(a), tsvd(a), specnorm(a), inverse(a)
    # the eig route's eigenvector guard of a complex stack
    standard_tfn(rand3(rng, 2, 2, 4, True), named_scalar_fn("sinh"))
    assert calls == []
    tcsvd(rand3(rng, 2, 3, 4))
    spectral._svd(_stack(rng, (4, 2, 2), False), False)
    spectral._svdvals(_stack(rng, (4, 2, 2), True).astype(np.complex64))
    assert calls == [(3, 2, 3), (4, 2, 2), (4, 2, 2)]
