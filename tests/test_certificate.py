"""Certified face inverses: pinv, lstsq, solve_axb and inverse skip the SVD only on proof of
full rank, and every other operand takes the SVD route unchanged."""

import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import rand3, rand_low_rank

from tprod import (StructClass, Tensor3, fnorm, identity, inverse, lstsq, pinv, solve_axb,
                   spectral, tcsvd, tprod)
from tprod import solve
from tprod.cli import main
from tprod.errors import Singular
from tprod.io import write_tensor
from tprod.spectral import _certified_inverse, _fix_phases, _inv2x2, from_faces, to_faces
from tprod.structure import membership_residual, random_member


def _faces(a):
    return to_faces(a)[1][0]


def _svd_route(monkeypatch, call):
    """``call()`` with the certificate refusing every operand: the SVD route alone."""
    with monkeypatch.context() as m:
        m.setattr(solve, "_certified_inverse", lambda faces, p: None)
        return call()


def _results(a, d):
    res = solve_axb(a, a, d)
    return pinv(a).data, lstsq(a, d).data, res.x.data, res.residual


def _assert_bitwise(got, want):
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert g.dtype == w.dtype and np.array_equal(g, w)


def _singular(rng, n, p, cplx):
    # a zero row in every slice makes every face exactly singular
    a = rand3(rng, n, n, p, cplx).data.copy()
    a[:, -1] = 0.0
    return Tensor3(a)


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("kind", ["exactly-singular", "rank-deficient"])
def test_refused_operands_take_the_svd_route_bitwise(rng, monkeypatch, n, cplx, kind):
    a = (_singular(rng, n, 6, cplx) if kind == "exactly-singular"
         else rand_low_rank(rng, n, n, 6, n - 1, cplx))
    assert _certified_inverse(_faces(a), a.p) is None
    d = tprod(a, tprod(rand3(rng, n, n, 6, cplx), a))
    _assert_bitwise(_results(a, d), _svd_route(monkeypatch, lambda: _results(a, d)))
    x = pinv(a)
    assert fnorm(tprod(tprod(a, x), a) - a) <= 1e-12 * fnorm(a)


def test_an_exactly_singular_face_is_refused_without_an_error(rng):
    # LAPACK's LU meets an exactly zero pivot: LinAlgError, caught
    faces = _faces(rand3(rng, 4, 4, 5, True)).copy()
    faces[2, :, 1] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(faces)
    assert _certified_inverse(faces, 5) is None


@pytest.mark.parametrize("n, cplx", [(2, False), (2, True), (5, False), (8, True)])
def test_certified_operands_are_the_penrose_inverse(rng, monkeypatch, n, cplx):
    a = rand3(rng, n, n, 7, cplx)
    assert _certified_inverse(_faces(a), a.p) is not None
    got, want = pinv(a), _svd_route(monkeypatch, lambda: pinv(a))
    assert got.data.dtype == want.data.dtype
    assert fnorm(got - want) <= 1e-13 * fnorm(want)
    for lhs, rhs in ((tprod(tprod(a, got), a), a), (tprod(tprod(got, a), got), got)):
        assert fnorm(lhs - rhs) <= 1e-13 * fnorm(rhs)
    d = rand3(rng, n, 3, 7, cplx)
    assert fnorm(tprod(a, lstsq(a, d)) - d) <= 1e-13 * fnorm(d)


def _exact_inverse(a):
    """The inverse of an integer complex matrix, exact to rounding: Gauss-Jordan in Fractions
    on its real form [[Re, -Im], [Im, Re]]."""
    n = len(a)
    real = np.block([[a.real, -a.imag], [a.imag, a.real]])
    m = 2 * n
    rows = [[Fraction(int(v)) for v in row] + [Fraction(int(i == j)) for j in range(m)]
            for i, row in enumerate(real)]
    for col in range(m):
        piv = next(r for r in range(col, m) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(m):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    inv = np.array([[float(v) for v in row[m:]] for row in rows])
    return inv[:n, :n] + 1j * inv[n:, :n]


def _kappa_face(seed, k, n=8):
    """An 8x8 Gaussian-integer matrix whose last row is k times a combination of the others
    plus a unit row: its condition number grows as k^2."""
    rng = np.random.default_rng(seed)
    g = rng.integers(-4, 5, (n, n)) + 1j * rng.integers(-4, 5, (n, n))
    c = rng.integers(-2, 3, n - 1) + 1j * rng.integers(-2, 3, n - 1)
    g[-1] = k * (c @ g[:-1]) + np.eye(n)[rng.integers(n)]
    return g


@pytest.mark.parametrize("seed", range(3))
def test_kappa_family_takes_lu_up_to_the_limit_and_never_loses_digits(seed):
    # p = 1: the one face is the matrix itself, and its exact inverse is rational
    conds = []
    for k in (1, 10, 100, 1000, 10**4):
        face = _kappa_face(seed, k)
        cond = np.linalg.cond(face)
        conds.append(cond)
        a = Tensor3(face[None])
        certified = _certified_inverse(_faces(a), 1) is not None
        if cond <= 1e6:
            assert certified, cond
        if cond >= 1e8:
            assert not certified, cond
        exact = _exact_inverse(face)

        def err(x):
            return np.abs(x.data[0] - exact).max() / np.abs(exact).max()

        c = tcsvd(a)
        assert err(pinv(a)) <= err(c.rebuild(1.0 / c.sigma, adjoint=True)), (k, cond)
        assert err(pinv(a)) <= 1e-15 * cond
    assert min(conds) < 1e4 and max(conds) > 1e10


@pytest.mark.parametrize("exponent", [-520, 520])
def test_faces_beyond_two_to_the_500_take_the_svd_route(rng, monkeypatch, exponent):
    a = Tensor3(2.0**exponent * rand3(rng, 3, 3, 4, True).data)
    assert _certified_inverse(_faces(a), a.p) is None
    _assert_bitwise([pinv(a).data], [_svd_route(monkeypatch, lambda: pinv(a)).data])
    # inverse: the certificate refuses, the singular values accept, LAPACK inverts
    x = inverse(a)
    assert fnorm(tprod(a, x) - identity(3, 4)) <= 1e-13


@pytest.mark.parametrize("face, certified", [
    ([[0, 0], [0, 0]], False),
    ([[1, 2], [2, 4]], False),
    ([[1, 1j], [1j, -1]], False),
    ([[1, 1], [1, 1 + 2.0**-40]], False),
    ([[1, 1], [1, 1 + 1e-6]], True),
    ([[1e200, 2e200], [3e200, 4e200j]], False),
    ([[1e-200, 2e-200], [3e-200j, 4e-200]], False),
], ids=["zero", "rank-1", "rank-1-complex", "cancel-2^-40", "cancel-1e-6", "1e200", "1e-200"])
def test_special_2x2_faces_are_refused_or_inverted_correctly(face, certified):
    face = np.array(face, dtype=complex)
    # a stack of the face and a well-conditioned one
    faces = np.stack([face, np.array([[2.0, 1j], [0.5, 3.0]])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inv = _certified_inverse(faces, 2)
    assert (inv is not None) == certified
    if inv is not None:
        assert np.abs(inv - np.linalg.inv(faces)).max() <= 1e-15 * np.abs(inv).max()


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-300])
def test_inv2x2_scales_each_face(scale):
    faces = scale * np.array([[[1, 2], [3j, 4]], [[0.5, 0.25], [1j, -1]]], dtype=complex)
    want = np.linalg.inv(faces / scale) / scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _inv2x2(faces)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_inverse_shares_the_certificate(rng, monkeypatch):
    a = rand3(rng, 4, 4, 6, True)
    calls = []
    svdvals = spectral._svdvals
    monkeypatch.setattr("tprod.algebra._svdvals", lambda f: calls.append(len(f)) or svdvals(f))
    x = inverse(a)
    assert calls == []
    assert fnorm(tprod(a, x) - tprod(x, a)) <= 1e-13
    # refused: the singular values decide, with today's face and smallest value
    with pytest.raises(Singular) as exc:
        inverse(_singular(rng, 4, 6, True))
    assert calls == [6] and exc.value.face is not None and exc.value.smin <= 1e-14


def test_small_lu_stacks_stay_on_the_calling_thread(rng, monkeypatch):
    # the LU counts as h n^3 multiply-adds against _PRODUCT_WORK: 256 complex 8x8 faces (2^17)
    # stay on the calling thread, where the SVD's 2^14 elements were split; 64 complex
    # 32x32 faces (2^21) are split
    splits = []
    each_slice = spectral._each_slice
    monkeypatch.setattr(spectral, "_each_slice",
                        lambda h, size, work, threaded=None: splits.append((h, size, threaded))
                        or each_slice(h, size, work, threaded))
    monkeypatch.setattr(spectral, "_cpus", lambda: 2)
    a = rand3(rng, 8, 8, 256, True)
    pinv(a)
    inverse(a)
    assert splits == []
    pinv(rand3(rng, 32, 32, 64, True))
    assert (64, 32 * 32, True) in splits


def test_tcsvd_factors_phase_as_fix_phases_on_both_frames(rng):
    for m, n, cplx in ((5, 3, False), (3, 5, True), (4, 4, True), (2, 2, False)):
        c = tcsvd(rand3(rng, m, n, 6, cplx))
        uf, vhf = _fix_phases(c.uf.copy(), c.vhf.copy())
        _assert_bitwise([c.Ur.data, c.Vr.data],
                        [from_faces(x, c.p, c.half).data for x in (uf, spectral._ct(vhf))])


def _system(seed=3):
    rng = np.random.default_rng(seed)
    a, b, x = (Tensor3(rng.standard_normal((4, 3, 3))) for _ in range(3))
    return a, b, tprod(a, tprod(x, b))


@pytest.mark.parametrize("scale", [1e160, 1e200])
def test_solve_residual_is_read_at_any_finite_scale(scale):
    a, b, d = _system()
    # a 3x2 A leaves most of a random D outside its range
    thin = Tensor3(np.random.default_rng(4).standard_normal((4, 3, 2)))
    for lhs, rhs in ((a, d), (thin, Tensor3(d.data + 1.0))):
        unit = solve_axb(lhs, b, rhs).residual
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = solve_axb(lhs, b, Tensor3(scale * rhs.data)).residual
        assert abs(got - unit) <= 1e-13 * max(unit, 1e-2)
    assert unit > 0.1


@pytest.mark.parametrize("scale", [1e160, 1e200])
def test_membership_residuals_are_read_at_any_finite_scale(rng, scale):
    member = random_member("normal", (3, 3, 4), seed=1)
    other = rand3(rng, 3, 3, 4, True)
    for t in (member, other):
        unit = membership_residual(t, StructClass.parse("normal"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = membership_residual(Tensor3(scale * t.data), StructClass.parse("normal"))
        assert abs(got - unit) <= 1e-13 * max(unit, 1e-2)
    # the group defect |T^T * T - I| grows as scale^2: past the largest float it reads inf
    orth = random_member("orthogonal", (3, 3, 4), seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert membership_residual(Tensor3(scale * orth.data), StructClass.parse("orthogonal")) \
            == np.inf
    # at 2^500 its faces' product is still finite, and the defect is 2^1000 |I| / |I|
    assert membership_residual(Tensor3(2.0**500 * orth.data), StructClass.parse("orthogonal")) \
        == pytest.approx(2.0**1000, rel=1e-12)


def test_cli_solve_near_1e200_prints_a_finite_residual(tmp_path, capsys):
    a, b, d = _system()
    paths = {k: str(tmp_path / f"{k}.tt3a") for k in "ABD"}
    for k, t in zip("ABD", (a, b, Tensor3(1e200 * d.data))):
        write_tensor(paths[k], t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve", "--A", paths["A"], "--B", paths["B"], "--D", paths["D"],
                     "--out", str(tmp_path / "x.tt3a")])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert float(re.search(r"consistency residual: (\S+)", out).group(1)) <= 1e-14
