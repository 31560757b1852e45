"""The stored dtype carries realness: float64 for real data, complex128 otherwise.

Written files do not depend on the stored dtype: the fixture goldens below
pin the bytes of every writer.
"""

import hashlib

import numpy as np
import pytest

from tprod import (
    Tensor3,
    conj_transpose,
    gfun,
    identity,
    named_scalar_fn,
    pinv,
    standard_tfn,
    tcsvd,
    tprod,
    tsvd,
)
from tprod.io import read_binary, read_text, write_binary, write_tensor, write_text
from tprod.structure import make_permutation, make_pseudo, make_reverse, make_skew_hamiltonian

from conftest import FIXTURES, rand3

F64, C128 = np.dtype(np.float64), np.dtype(np.complex128)


def _results(a):
    """Every public route named in the dtype contract, applied to ``a``."""
    c = tcsvd(a)
    f = tsvd(a)
    sq = tprod(a, conj_transpose(a))
    return {
        "tprod": sq,
        "Ur": c.Ur, "Sr": c.Sr, "Vr": c.Vr,
        "U": f.U, "S": f.S, "V": f.V,
        "gfun": gfun(a, named_scalar_fn("sinh")),
        "pinv": pinv(a),
        "standard_tfn": standard_tfn(sq, named_scalar_fn("exp")),
        "neg": -a, "scaled": 2.5 * a, "conj": a.conj(), "sum": a + a,
    }


@pytest.mark.parametrize("p", [1, 4, 5])
def test_real_input_gives_float64_everywhere(rng, p):
    a = rand3(rng, 3, 2, p)
    assert a.data.dtype == F64 and a.exactly_real
    for name, out in _results(a).items():
        assert out.data.dtype == F64, name
        assert out.exactly_real, name


@pytest.mark.parametrize("p", [1, 4, 5])
def test_complex_input_stays_complex128(rng, p):
    a = rand3(rng, 3, 2, p, cplx=True)
    assert a.data.dtype == C128 and not a.exactly_real
    for name, out in _results(a).items():
        if name not in ("Sr", "S"):  # singular values are real on every face
            assert out.data.dtype == C128, name


def test_complex_array_with_zero_imaginary_parts_is_stored_real(rng):
    re_ = rng.standard_normal((3, 2, 2))
    for imag in (0.0, -0.0):
        a = Tensor3(re_ + imag * 1j)
        assert a.data.dtype == F64 and a.exactly_real
        assert np.array_equal(a.data, re_)
    assert not Tensor3(re_ + 0j).data.flags.writeable
    z = re_.astype(complex)
    z[2, 1, 0] += 1e-300j
    assert Tensor3(z).data.dtype == C128
    assert Tensor3([[1 + 0j, 2]]).data.dtype == F64
    assert Tensor3([[1, 2]]).data.dtype == F64


def test_input_array_is_copied(rng):
    for src in (rng.standard_normal((2, 2, 2)), rng.standard_normal((2, 2, 2)) + 0j):
        a = Tensor3(src)
        src[0, 0, 0] = 99.0
        assert a.data[0, 0, 0] != 99.0
        assert a.data.flags.c_contiguous


def test_builders_allocate_float64():
    for t in (Tensor3.zeros(2, 3, 4), identity(3, 4), make_reverse(3, 2),
              make_skew_hamiltonian(2, 3), make_pseudo(1, 2, 3),
              make_permutation([1, 0, 2], 3, 2)):
        assert t.data.dtype == F64


def test_face_ranks_are_python_ints(rng):
    ranks = tcsvd(rand3(rng, 4, 3, 5)).face_ranks
    assert isinstance(ranks, tuple) and all(type(r) is int for r in ranks)


@pytest.mark.parametrize("text", [False, True])
def test_readers_keep_the_file_dtype(tmp_path, rng, text):
    write, read = (write_text, read_text) if text else (write_binary, read_binary)
    for cplx in (False, True):
        a = rand3(rng, 2, 3, 4, cplx=cplx)
        path = tmp_path / f"t_{cplx}"
        write(path, a)
        b = read(path)
        assert b.data.dtype == (C128 if cplx else F64)
        assert np.array_equal(a.data, b.data)


# sha256 prefixes of each fixture written as (binary, binary forced complex,
# text, text forced complex)
_GOLDEN = {
    "csvd_example": ("0cd10a07392d2d78", "0cd10a07392d2d78",
                     "8fea60e063ae3b34", "8fea60e063ae3b34"),
    "form_x": ("0e8b8754b97d52bc", "96e579b5990c20ee", "d85498ac7b3b8bd4", "30700ea3d363bd14"),
    "form_y": ("ef7772626cdfa132", "a89883c96d6bad6e", "c065d922414392b1", "b11c1eb2d6a96054"),
    "inverse_a": ("4b408f587d2241e0", "84f82db1950a86f9",
                  "e9b256084c9b5eeb", "25569f42e44429c2"),
    "inverse_b": ("b9153edc8a28b0ac", "8bb5244906478685",
                  "bcba75e8b0bd7c85", "8160d00fe67315cd"),
    "transpose_example": ("7d2a3d8e948ccd26", "4d8c51db57d9adf6",
                          "252651f707e8310d", "9f3ba8de6e14b934"),
    "tube4": ("434de3fb928c27b0", "0e2f17a1be2054f4", "da5dc26c530d4fed", "7347c5899f83b576"),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_written_fixture_bytes_are_golden(tmp_path, name):
    fixture = FIXTURES / f"{name}.txt"
    a = read_text(fixture)
    digests = []
    for text in (False, True):
        for force_complex in (False, True):
            path = tmp_path / "out"
            write_tensor(path, a, text=text, force_complex=force_complex)
            raw = path.read_bytes()
            if text and not force_complex:
                assert raw == fixture.read_bytes()
            digests.append(hashlib.sha256(raw).hexdigest()[:16])
    assert tuple(digests) == _GOLDEN[name]
    assert a.data.dtype == (C128 if name == "csvd_example" else F64)
