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
from tprod import genfun
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


@pytest.mark.parametrize("p", [1, 4])
@pytest.mark.parametrize("x", [1e60, 1e100, 1e200])
def test_squarings_alpha_cannot_save_are_refused(x, p):
    # ||D||_1 asks for 197 (x = 1e60), 330 or 662 squarings, alpha for 48, 82
    # or 165; the kernel refuses to save more than 128, since the rest would
    # cost every digit of the diagonal, and the face takes the Taylor sum
    # about its mean eigenvalue instead, exact here. Past 1e154 the sum's
    # terms would overflow a norm that squares the entries.
    for c in (1.0, 2.0):
        a = first_slice(np.array([[1.0, x], [0.0, c]]), p)
        # exp([[1, x], [0, c]]) = [[e, x (e^c - e) / (c - 1)], [0, e^c]], with x e at c = 1
        top = x * np.e if c == 1.0 else x * (np.exp(c) - np.e) / (c - 1.0)
        want = np.array([[np.e, top], [0.0, np.exp(c)]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = standard_tfn(a, EXP)
        assert np.abs(got.data[0] - want).max() <= 1e-15 * np.abs(want).max()
        assert abs(got.data[0, 1, 1] - want[1, 1]) <= 1e-15 * want[1, 1]


@pytest.mark.parametrize("x, tol", [(1e10, 1e-13), (1e30, 1e-10), (1e40, 1e-7)])
def test_squarings_within_reach_are_kept(x, tol):
    # alpha saves 24, 75 and 99 squarings here; the relative errors read
    # 8.3e-15, 9.7e-12 and 7.5e-9
    got = standard_tfn(Tensor3(np.array([[[1.0, x], [0.0, 1.0]]])), EXP).data[0]
    want = np.e * np.array([[1.0, x], [0.0, 1.0]])
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


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
    monkeypatch.setattr(genfun, "_CHUNK", 4 * chunk_faces)
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
        monkeypatch.setattr(genfun, "_CHUNK", 9 * faces)
        out = standard_tfn(a, f)
        assert sizes == [min(faces, h - i) for i in range(0, h, faces)]
        assert fnorm(out - whole) <= 1e-14 * fnorm(whole)
        assert out.exactly_real == (not cplx)
