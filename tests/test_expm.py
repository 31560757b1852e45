"""The standard T-function of exp: batched [13/13] Pade scaling and squaring.

References are scipy's expm of bcirc(A), which shares no code with the
library. The defective faces below are triangular, where scipy's expm is
accurate to about 1e-14 against 50-digit arithmetic.
"""

import warnings

import numpy as np
import pytest
import scipy.linalg

from tprod import Tensor3, bcirc, fnorm, named_scalar_fn, standard_tfn
from tprod import genfun, spectral
from tprod.algebra import first_slice
from tprod.cli import main
from tprod.errors import DefectiveFace, FnDomainError
from tprod.io import read_tensor, write_tensor

from conftest import rand3

EXP = named_scalar_fn("exp")


def _jordan4(lam, spread=0.0):
    """4x4 face: lam + spread * k on the diagonal and 1 on the superdiagonal.

    spread 0 is a Jordan block; 1e-2 and 1e-3 give eigenvector matrices of
    condition 1.5e6 and 1.5e9, on either side of the eigendecomposition
    guard.
    """
    return np.diag(lam + spread * np.arange(4.0)) + np.diag(np.ones(3), 1)


def _rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("spread", [0.0, 1e-2, 1e-3])
@pytest.mark.parametrize("lam", [-10.0, -20.0, -30.0])
@pytest.mark.parametrize("p", [1, 4])
def test_defective_and_near_defective_faces(p, lam, spread):
    a = first_slice(_jordan4(lam, spread), p)
    assert _rel(bcirc(standard_tfn(a, EXP)), scipy.linalg.expm(bcirc(a))) <= 1e-12
    if spread == 0.0:
        # exp's route leaves the guard of every other function in place
        with pytest.raises(DefectiveFace):
            standard_tfn(a, named_scalar_fn("sign"))


def test_strongly_non_normal_face():
    # ||D||_1 = 1e10 asks for 31 squarings, which cost the diagonal 5e-7;
    # ||D^4||^(1/4) asks for 7. exp(D) = e [[1, 1e10], [0, 1]]
    got = standard_tfn(Tensor3(np.array([[[1.0, 1e10], [0.0, 1.0]]])), EXP).data[0]
    want = np.e * np.array([[1.0, 1e10], [0.0, 1.0]])
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    assert abs(got[0, 0] - np.e) <= 1e-14 * np.e


def _taylor(face):
    """Whether the Pade kernel hands ``face`` to the Taylor sum, under standard_tfn's errstate."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return bool(genfun._expm_chunk(face[None].astype(complex))[1][0])


@pytest.mark.parametrize("p", [1, 4])
@pytest.mark.parametrize("x", [1e10, 1e30, 1e40, 1e60, 1e100, 1e200])
def test_squarings_alpha_cannot_save_are_refused(x, p):
    # at c = 1 ||D||_1 asks for 31 (x = 1e10), 98, 131, 197, 330 or 662 squarings,
    # alpha for 7, 23, 32, 48 or 82 up to 1e100 (at 1e200 the scaled powers underflow
    # and alpha asks for none); the kernel refuses to save more than 16,
    # since the rest would cost every digit of the diagonal, and the face takes the
    # Taylor sum about its mean eigenvalue instead, which reads at most 3.7e-16 here.
    # Past 1e154 the sum's terms would overflow a norm that squares the entries.
    for c in (1.0, 2.0):
        face = np.array([[1.0, x], [0.0, c]])
        assert _taylor(face)
        a = first_slice(face, p)
        # exp([[1, x], [0, c]]) = [[e, x (e^c - e) / (c - 1)], [0, e^c]], with x e at c = 1
        top = x * np.e if c == 1.0 else x * (np.exp(c) - np.e) / (c - 1.0)
        want = np.array([[np.e, top], [0.0, np.exp(c)]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = standard_tfn(a, EXP)
        assert np.abs(got.data[0] - want).max() <= 1e-15 * np.abs(want).max()
        assert abs(got.data[0, 1, 1] - want[1, 1]) <= 1e-15 * want[1, 1]


@pytest.mark.parametrize("x", [1e2, 1e3, 1e4, 1e5, 1e6])
def test_squarings_within_reach_are_kept(x):
    # alpha saves 5, 7, 9, 12 and 14 squarings here, so the face stays on the Pade
    # kernel; the relative errors read at most 1.9e-15
    face = np.array([[1.0, x], [0.0, 1.0]])
    assert not _taylor(face)
    got = standard_tfn(Tensor3(face[None]), EXP).data[0]
    assert np.abs(got - np.e * face).max() <= 2e-15 * np.abs(np.e * face).max()


@pytest.mark.parametrize("p", [1, 4])
@pytest.mark.parametrize("x", [1e15, 1e20, 1e30, 1e38, 1e60])
def test_bidiagonal_face_keeps_its_digits(x, p):
    # exp of [[1, x, 0], [0, 1.5, x], [0, 0, 2]] holds x^(j - i) times the divided
    # difference exp[l_i, ..., l_j] at (i, j). alpha saves 24 squarings at x = 1e15 and more
    # above; saving them all read 1.2e-9 (x = 1e15) up to 1.0 (x = 1e38) off
    lam = np.array([1.0, 1.5, 2.0])
    d01, d12 = np.diff(np.exp(lam)) / np.diff(lam)
    want = np.diag(np.exp(lam)) + np.diag([x * d01, x * d12], 1)
    want[0, 2] = x * x * (d12 - d01) / (lam[2] - lam[0])
    face = np.diag(lam) + np.diag([x, x], 1)
    got = standard_tfn(first_slice(face, p), EXP).data[0]
    assert np.abs(got - want).max() <= 2e-15 * np.abs(want).max()


@pytest.mark.parametrize("x", 10.0 ** np.arange(33, 51))
def test_jordan_face_with_huge_coupling_keeps_its_digits(x):
    # exp([[1, x], [0, 1]]) = e [[1, x], [0, 1]]; saving every squaring alpha allows read
    # up to 3.1e-5 off in this range
    got = standard_tfn(Tensor3(np.array([[[1.0, x], [0.0, 1.0]]])), EXP).data[0]
    want = np.e * np.array([[1.0, x], [0.0, 1.0]])
    assert np.abs(got - want).max() <= 2e-15 * np.abs(want).max()


def test_cli_writes_the_exponential_of_a_jordan_face(tmp_path):
    a = first_slice(_jordan4(-20.0), 4)
    src, out = tmp_path / "J.tt3a", tmp_path / "x.tt3a"
    write_tensor(src, a)
    assert main(["apply", str(src), "--fn", "exp", "--standard", "--out", str(out)]) == 0
    assert _rel(bcirc(read_tensor(out)), scipy.linalg.expm(bcirc(a))) <= 1e-12


def _overflow_on_face_1():
    faces = [np.eye(2), np.diag([800.0, 1.0]), np.ones((2, 2)), np.diag([1.0, 800.0])]
    return Tensor3(np.fft.ifft(np.array(faces, dtype=np.complex128), axis=0)), "exp"


def _ln1p_pole_on_face_2():
    # a non-normal face, then the Hermitian pole face; the Jordan face after
    # it would take the Taylor sum
    faces = [np.eye(2), [[0.5, 0.75], [-0.125, 0.25]], np.diag([-1.0, 0.5]),
             [[1.0, 1.0], [0.0, 1.0]]]
    return Tensor3(np.fft.ifft(np.array(faces, dtype=np.complex128), axis=0)), "ln1p"


def _sinh_overflow_on_face_0():
    return first_slice(np.diag([800.0, 1.0]), 2), "sinh"


@pytest.mark.parametrize("make, face", [
    (lambda: (first_slice(np.diag([800.0, 1.0]), 2), "exp"), 0),
    (_overflow_on_face_1, 1),
    (_ln1p_pole_on_face_2, 2),
    (_sinh_overflow_on_face_0, 0),
])
@pytest.mark.parametrize("chunk_faces", [1, 4])
def test_overflow_names_the_lowest_face_without_warnings(monkeypatch, make, face,
                                                         chunk_faces):
    monkeypatch.setattr(spectral, "_CHUNK", 4 * chunk_faces)
    a, name = make()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FnDomainError, match=f"{name} not finite on face {face}$"):
            standard_tfn(a, named_scalar_fn(name))


@pytest.mark.parametrize("cplx, name, kernel_name", [
    (False, "exp", "_expm_chunk"), (True, "exp", "_expm_chunk"),
    (False, "sinh", "_eig_chunk"), (True, "sinh", "_eig_chunk"),
], ids=["False", "True", "sinh-False", "sinh-True"])
def test_chunk_budgets_agree(rng, monkeypatch, cplx, name, kernel_name):
    # faces of 1-norm 22 to 49 take 2 or 3 squarings each for exp, and eig
    # for sinh; real input runs on the 5 faces of the half spectrum
    a = 3.0 * rand3(rng, 3, 3, 8, cplx=cplx)
    f = named_scalar_fn(name)
    h = 8 if cplx else 5
    kernel, sizes = getattr(genfun, kernel_name), []
    monkeypatch.setattr(genfun, kernel_name,
                        lambda d, *args: sizes.append(len(d)) or kernel(d, *args))
    whole = standard_tfn(a, f)
    assert sizes == [h]
    for faces in (1, 3):
        sizes.clear()
        monkeypatch.setattr(spectral, "_CHUNK", 9 * faces)
        out = standard_tfn(a, f)
        assert sizes == [min(faces, h - i) for i in range(0, h, faces)]
        assert fnorm(out - whole) <= 1e-14 * fnorm(whole)
        assert out.exactly_real == (not cplx)
