import pathlib

import numpy as np
import pytest

from tprod import Tensor3

try:
    from numpy.exceptions import ComplexWarning
except ImportError:  # numpy < 1.25
    from numpy import ComplexWarning

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def pytest_configure(config):
    # a complex value cast into a float64 array drops its imaginary part
    # with only a warning; make that a failure
    config.addinivalue_line(
        "filterwarnings", f"error::{ComplexWarning.__module__}.{ComplexWarning.__name__}")


def rand3(rng, m, n, p, cplx=False):
    data = rng.standard_normal((p, m, n))
    if cplx:
        data = data + 1j * rng.standard_normal((p, m, n))
    return Tensor3(data)


def rand_low_rank(rng, m, n, p, k, cplx=False):
    """Tubal rank <= k by construction (product of thin random tensors)."""
    from tprod import tprod

    return tprod(rand3(rng, m, k, p, cplx), rand3(rng, k, n, p, cplx))


def rand_face_ranks(rng, m, n, ranks):
    """Tensor whose DFT face i has rank ranks[i]; unequal ranks put genuine
    zeros inside the tubal-rank window."""
    p = len(ranks)
    faces = np.zeros((p, m, n), dtype=np.complex128)
    for i, r in enumerate(ranks):
        if r:
            x = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
            y = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
            faces[i] = x @ y
    return Tensor3(np.fft.ifft(faces, axis=0))


def dense_gmf(mat, fn, rtol=None):
    """Generalized matrix function of a dense matrix via its compact SVD."""
    u, s, vh = np.linalg.svd(mat)
    if rtol is None:
        rtol = max(mat.shape) * np.finfo(float).eps
    r = int((s > rtol * s[0]).sum()) if s.size and s[0] > 0 else 0
    vals = np.asarray(fn(s[:r]), dtype=np.complex128)
    return (u[:, :r] * vals) @ vh[:r]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# worked-example tensors, loaded once per session
@pytest.fixture(scope="session")
def tube4():
    from tprod.io import read_text

    return read_text(FIXTURES / "tube4.txt")


@pytest.fixture(scope="session")
def csvd_example():
    from tprod.io import read_text

    return read_text(FIXTURES / "csvd_example.txt")


@pytest.fixture(scope="session")
def inverse_pair():
    from tprod.io import read_text

    return read_text(FIXTURES / "inverse_a.txt"), read_text(FIXTURES / "inverse_b.txt")


@pytest.fixture(scope="session")
def transpose_example():
    from tprod.io import read_text

    return read_text(FIXTURES / "transpose_example.txt")


@pytest.fixture(scope="session")
def form_pair():
    from tprod.io import read_text

    return read_text(FIXTURES / "form_x.txt"), read_text(FIXTURES / "form_y.txt")
