"""The standard T-function of 2x2 faces: Sylvester's formula in closed form.

Oracles are scipy's matrix functions of each face and the closed form of an
upper-triangular face, [[f(a), b (f(c) - f(a)) / (c - a)], [0, f(c)]]. A face
the closed form flags must read what the kernel of larger faces gives it.
"""

import warnings

import numpy as np
import pytest
import scipy.linalg

from tprod import Tensor3, named_scalar_fn, scalar_fn, standard_tfn
from tprod import genfun
from tprod.errors import FnDomainError, SeriesDivergence

DENSE = {"exp": scipy.linalg.expm, "cos": scipy.linalg.cosm, "sin": scipy.linalg.sinm,
         "sqrt": scipy.linalg.sqrtm}
T = 10.0 ** -np.arange(1, 15)


def _dense(name, faces):
    # scipy warns on the singular faces whose square root it still finds
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        return np.array([DENSE[name](x) for x in faces])


def _rel(got, want):
    # the max-entry error of each face, relative to its largest entry
    return np.abs(got - want).max(axis=(-2, -1)) / np.abs(want).max(axis=(-2, -1))


def _flags(faces, f):
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return genfun._f2x2(np.asarray(faces, dtype=np.complex128), f)[1]


def _larger_face_route(face, f):
    """What the kernel of larger faces, and its Taylor fallback, make of one face."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d = face[None]
        out, fallback = genfun._expm_chunk(d) if f.fn is np.exp else genfun._eig_chunk(d, f)
    return genfun._matrix_series(face, f, 0) if fallback[0] else out[0]


def _check(faces, name, tol, want=None):
    """Unflagged faces within ``tol`` of ``want`` (by default scipy's), flagged ones
    bitwise on the larger-face route."""
    faces = np.asarray(faces, dtype=np.complex128)
    f = named_scalar_fn(name)
    if want is None:
        want = _dense(name, faces)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = genfun._face_functions(faces, f)
    flagged = _flags(faces, f)
    for k in np.flatnonzero(flagged):
        assert np.array_equal(got[k], _larger_face_route(faces[k], f)), k
    assert (_rel(got[~flagged], want[~flagged]) <= tol).all()
    return got, want, flagged


@pytest.mark.parametrize("scale, tol", [(1.0, 4e-15), (5.0, 3e-14)])
@pytest.mark.parametrize("name", ["exp", "cos", "sin", "sqrt"])
def test_random_faces_match_scipy(rng, name, scale, tol):
    # complex Gaussian faces. Against 40-digit arithmetic scipy reads up to 7.5e-15 at
    # scale 5, and the closed form 1.9e-15
    faces = scale / np.sqrt(2) * (rng.standard_normal((64, 2, 2))
                                  + 1j * rng.standard_normal((64, 2, 2)))
    f = named_scalar_fn(name)
    want = _dense(name, faces)
    assert not _flags(faces, f).any()
    assert (_rel(genfun._face_functions(faces, f), want) <= tol).all()
    # through the transforms, whose rounding is relative to the largest face
    a = Tensor3(np.fft.ifft(faces, axis=0))
    got = np.fft.fft(standard_tfn(a, f).data, axis=0)
    assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)


@pytest.mark.parametrize("name", ["exp", "sin", "cos", "sqrt"])
def test_triangular_faces_match_their_closed_form(rng, name):
    # eigenvalues a, c at least 0.5 apart, couplings b from 1e-3 to 1e12. The estimate
    # flags a face here and there, whose eigenvector guard then fails
    h = 256
    a = rng.standard_normal(h) + 1j * rng.standard_normal(h)
    c = a + (0.5 + rng.random(h)) * np.exp(2j * np.pi * rng.random(h))
    b = 10.0 ** rng.uniform(-3, 12, h) * np.exp(2j * np.pi * rng.random(h))
    faces = np.zeros((h, 2, 2), dtype=np.complex128)
    faces[:, 0, 0], faces[:, 0, 1], faces[:, 1, 1] = a, b, c
    f = named_scalar_fn(name)
    fa, fc = f(a), f(c)
    want = np.zeros_like(faces)
    want[:, 0, 0], want[:, 0, 1], want[:, 1, 1] = fa, b * (fc - fa) / (c - a), fc
    out, flagged = genfun._f2x2(faces, f)
    assert flagged.sum() <= 2
    assert (_rel(out[~flagged], want[~flagged]) <= 4e-15).all()


@pytest.mark.parametrize("name", ["exp", "cos", "sin"])
def test_near_confluent_faces(name):
    # [[1, 1e3], [t, 1]] has eigenvalues 1 +- sqrt(1e3 t): the divided difference cancels
    # as t falls, and from about t = 1e-7 on the face is flagged
    faces = [[[1.0, 1e3], [t, 1.0]] for t in T]
    got, want, flagged = _check(faces, name, 5e-15)
    assert not flagged[0] and flagged[-1]
    if name == "exp":  # the Pade kernel keeps the flagged faces as accurate
        assert (_rel(got, want) <= 5e-15).all()


@pytest.mark.parametrize("name", ["exp", "cos", "sqrt"])
def test_faces_with_a_close_eigenvalue_pair(name):
    # [[1, 1], [0, 1 + t]]: every face from t = 1e-2 on is flagged. exp reads 6.5e-16 on
    # the Pade kernel; the eig route of cos and sqrt loses up to 2e-9 there, as before
    faces = [[[1.0, 1.0], [0.0, 1.0 + t]] for t in T]
    got, want, flagged = _check(faces, name, 5e-15)
    assert flagged[1:].all()
    if name == "exp":
        assert (_rel(got, want) <= 2e-15).all()


def test_sqrt_of_a_face_with_a_small_eigenvalue():
    # [[t, 1], [0, 1]]: l2 = det / l1 = t exactly, where mu - delta would lose every
    # digit of t below 1e-16 / t; the result is [[sqrt(t), 1 / (1 + sqrt(t))], [0, 1]]
    faces = np.array([[[t, 1.0], [0.0, 1.0]] for t in T], dtype=np.complex128)
    r = np.sqrt(T)
    want = np.zeros_like(faces)
    want[:, 0, 0], want[:, 0, 1], want[:, 1, 1] = r, 1.0 / (1.0 + r), 1.0
    f = named_scalar_fn("sqrt")
    assert not _flags(faces, f).any()
    assert (_rel(genfun._face_functions(faces, f), want) <= 1e-15).all()
    # turned by w = exp(3i pi / 4), the principal root of delta^2 points away from mu and
    # its negative is the one to take; sqrt(w A) = sqrt(w) sqrt(A) on the principal branch
    w = np.exp(0.75j * np.pi)
    assert not _flags(w * faces, f).any()
    assert (_rel(genfun._face_functions(w * faces, f), np.sqrt(w) * want) <= 1e-15).all()


CONFLUENT = [
    [[1.0, 1.0], [0.0, 1.0]],       # Jordan
    [[3.0, 1.0], [-1.0, 1.0]],      # Jordan at 2, not triangular
    [[1.0, 1.0], [-1.0, -1.0]],     # nilpotent
    [[0.0, 1.0], [0.0, 0.0]],
    [[2.0, 0.0], [0.0, 2.0]],       # a multiple of I
    [[0.0, 0.0], [0.0, 0.0]],
    [[1.0, 1e10], [0.0, 1.0]],
]


@pytest.mark.parametrize("name", ["exp", "cos", "sin", "sqrt", "sinh", "sign"])
def test_confluent_faces_are_flagged(name):
    assert _flags(CONFLUENT, named_scalar_fn(name)).all()


@pytest.mark.parametrize("name", ["exp", "cos", "sin"])
def test_confluent_faces_read_the_larger_face_route(name):
    _, _, flagged = _check(CONFLUENT, name, 0.0)
    assert flagged.all()


def test_flagged_faces_of_an_anonymous_exp_take_the_pade_kernel():
    # exp by its array function alone has no Taylor series: a flagged face sent to the
    # Taylor sum would be refused, on the Pade kernel it reads scipy's expm
    f = scalar_fn(np.exp, 1.0)
    faces = np.array(CONFLUENT[:-1], dtype=np.complex128)  # the last one needs the sum
    got = genfun._face_functions(faces, f)
    want = np.array([scipy.linalg.expm(x) for x in faces])
    assert (_rel(got, want) <= 2e-15).all()


_TINY = np.nextafter(0.0, 1.0)
SPECIAL = [np.eye(2), np.diag([1e300, 1e-300]), np.diag([1e-300, 1e300]),
           np.full((2, 2), 1e200), np.full((2, 2), 1e-200), [[1.0, 1.0], [1.0, -1.0]],
           np.diag([1e-310, 0.0]), np.full((2, 2), _TINY), np.diag([1e-300, 1e-320]),
           [[1e-310, 3e-312j], [2e-315, 0.0]], [[1e-5, 1.0], [1e-310, 2e-5]]]


@pytest.mark.parametrize("name", ["cos", "sqrt", "sin"])
def test_special_and_subnormal_faces(rng, name):
    # the special faces of the closed-form SVD (huge, tiny and subnormal entries), then
    # Gaussian faces scaled by 1e-140, inside the range. A face is flagged or within
    # 1e-15 of scipy; the flagged ones take the larger-face route
    tiny = 1e-140 * (rng.standard_normal((8, 2, 2)) + 1j * rng.standard_normal((8, 2, 2)))
    faces = np.concatenate([np.array(SPECIAL, dtype=np.complex128), tiny])
    f = named_scalar_fn(name)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out, flagged = genfun._f2x2(faces, f)
    want = _dense(name, faces)
    if name == "sin":
        # scipy's sinm differences two exponentials near I; sin(A) = A to 1e-280 here
        want[len(SPECIAL):] = tiny
    assert np.isfinite(out[~flagged]).all()
    assert (_rel(out[~flagged], want[~flagged]) <= 1e-15).all()
    # I is confluent, and every other special face but the Hadamard one has a part
    # beyond 2^+-500
    assert np.flatnonzero(~flagged).tolist() == [5, *range(len(SPECIAL), len(faces))]
    _check(faces, name, 1e-15, want)


def test_overflow_names_the_lowest_face():
    # faces 1 and 2: f is finite on the eigenvalues, but the coupling times a1 overflows,
    # so the face goes to the larger-face kernel, then to the Taylor sum, which refuses it
    # (face 2's coupling 1e308 is also beyond 2^500). Face 3: exp(800) overflows. Face 4
    # is a Jordan block
    faces = np.array([np.diag([0.5, 1.5]), [[700.0, 1e150], [0.0, 701.0]],
                      [[1.0, 1e308], [0.0, 3.0]], np.diag([800.0, 1.0]),
                      [[1.0, 1.0], [0.0, 1.0]]], dtype=np.complex128)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, start, bad in (("exp", 0, 1), ("sinh", 0, 1), ("exp", 2, 0)):
            with pytest.raises(SeriesDivergence, match=f"^face {bad}: series did not settle"):
                genfun._face_functions(faces[start:], named_scalar_fn(name))
        with pytest.raises(FnDomainError, match="^sinh not finite on face 0$"):
            genfun._face_functions(faces[3:], named_scalar_fn("sinh"))
        with pytest.raises(FnDomainError, match="^exp not finite on face 1$"):
            genfun._face_functions(faces[::-1][:-1], named_scalar_fn("exp"))


@pytest.mark.parametrize("b", [1e200, 1e308])
@pytest.mark.parametrize("name", ["cos", "sin", "sinh", "square"])
def test_triangular_faces_beyond_the_frobenius_range(name, b):
    # the closed form flags a coupling beyond 2^500, and the eig kernel once took these
    # faces for Hermitian: its Frobenius norms overflowed to inf <= 1e-12 inf, and eigh
    # read the zero lower triangle, so they came back diagonal with exit 0
    a = Tensor3(np.array([[[1.0, b], [0.0, 3.0]]]))
    f = named_scalar_fn(name)
    fa, fc = f(1.0), f(3.0)
    if abs(fc - fa) / 2 > np.finfo(float).max / b:
        # sinh and square of the 1e308 face: the exact coupling overflows
        with pytest.raises(SeriesDivergence, match="^face 0: series did not settle"):
            standard_tfn(a, f)
        return
    want = np.array([[fa, b * ((fc - fa) / 2)], [0.0, fc]])
    assert _rel(standard_tfn(a, f).data[0], want) <= 1e-14


def test_a_face_whose_largest_modulus_overflows_is_not_taken_for_hermitian():
    # every part is finite but |1.5e308 (1 + i)| is not: eigh would read the real
    # diagonal and the zero lower triangle and return a finite cos
    a = Tensor3(np.array([[[1.5e308 * (1 + 1j), 1.0], [0.0, 3.0]]]))
    with pytest.raises(FnDomainError, match="^cos not finite on face 0$"):
        standard_tfn(a, named_scalar_fn("cos"))
