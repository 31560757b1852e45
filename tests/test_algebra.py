import numpy as np
import pytest

from tprod import (
    FormKind,
    Tensor3,
    adjoint,
    bcirc,
    bcirc_inv,
    conj_transpose,
    fnorm,
    form_eval,
    identity,
    inverse,
    is_unitary,
    tprod,
    transpose,
)
from tprod import make_permutation, make_pseudo, make_reverse, make_skew_hamiltonian
from tprod.errors import DimMismatch, InvalidArgument, Singular

from conftest import rand3


def test_identity_neutral(rng):
    a = rand3(rng, 3, 3, 4)
    assert fnorm(tprod(a, identity(3, 4)) - a) <= 1e-13 * fnorm(a)
    assert fnorm(tprod(identity(3, 4), a) - a) <= 1e-13 * fnorm(a)
    assert np.array_equal(identity(1, 1).data, np.ones((1, 1, 1)))


def test_fft_path_matches_dense_oracle(rng):
    a = rand3(rng, 4, 3, 8, cplx=True)
    b = rand3(rng, 3, 5, 8, cplx=True)
    fast = tprod(a, b)
    slow = tprod(a, b, method="dense")
    assert fnorm(fast - slow) <= 1e-12 * fnorm(slow)


def test_tprod_p1_is_matrix_product(rng):
    a = rand3(rng, 3, 4, 1)
    b = rand3(rng, 4, 2, 1)
    assert np.allclose(tprod(a, b).data[0], a.data[0] @ b.data[0])


def test_associativity_distributivity(rng):
    a, b, c = rand3(rng, 2, 3, 3), rand3(rng, 3, 4, 3), rand3(rng, 4, 2, 3)
    lhs = tprod(tprod(a, b), c)
    rhs = tprod(a, tprod(b, c))
    assert fnorm(lhs - rhs) <= 1e-12 * fnorm(lhs)
    d = rand3(rng, 3, 4, 3)
    lhs = tprod(a, b + d)
    rhs = tprod(a, b) + tprod(a, d)
    assert fnorm(lhs - rhs) <= 1e-12 * fnorm(lhs)


def test_inverse_worked_example(inverse_pair):
    a, b_ref = inverse_pair
    b = inverse(a)
    assert np.abs(b.data - b_ref.data).max() <= 1e-12
    assert fnorm(tprod(a, b) - identity(2, 3)) <= 1e-12
    assert fnorm(tprod(b, a) - identity(2, 3)) <= 1e-12


def test_inverse_round_trip_and_dense_oracle(rng):
    a = rand3(rng, 3, 3, 4) + 2.0 * identity(3, 4)
    inv = inverse(a)
    assert fnorm(inverse(inv) - a) <= 1e-10 * fnorm(a)
    dense = bcirc_inv(np.linalg.inv(bcirc(a)), 3, 3, 4)
    assert fnorm(inv - dense) <= 1e-11 * fnorm(inv)


def test_inverse_identity():
    assert fnorm(inverse(identity(4, 3)) - identity(4, 3)) <= 1e-14


def test_inverse_group_antihomomorphism(rng):
    a = rand3(rng, 3, 3, 2) + 2 * identity(3, 2)
    b = rand3(rng, 3, 3, 2) + 2 * identity(3, 2)
    lhs = inverse(tprod(a, b))
    rhs = tprod(inverse(b), inverse(a))
    assert fnorm(lhs - rhs) <= 1e-10 * fnorm(lhs)


def test_inverse_singular_reports_face():
    t = Tensor3(np.zeros((3, 2, 2)))
    with pytest.raises(Singular) as exc:
        inverse(t)
    assert exc.value.face is not None


def test_is_unitary():
    assert is_unitary(identity(3, 4))
    assert is_unitary(make_permutation([2, 0, 1], 3, 4))
    assert is_unitary(make_reverse(4, 2))
    assert is_unitary(make_skew_hamiltonian(2, 3))
    assert is_unitary(make_pseudo(2, 2, 3))


def test_unknown_tprod_method_is_usage_error(rng):
    a = rand3(rng, 2, 2, 3)
    with pytest.raises(InvalidArgument, match="unknown method 'blas'") as exc:
        tprod(a, a, method="blas")
    assert isinstance(exc.value, ValueError) and exc.value.exit_code == 2


def test_unknown_form_kind_is_usage_error():
    with pytest.raises(InvalidArgument, match="kind must be bilinear or sesquilinear") as exc:
        FormKind("quadratic", identity(3, 2))
    assert isinstance(exc.value, ValueError) and exc.value.exit_code == 2


def test_random_not_unitary(rng):
    q = rand3(rng, 3, 3, 4)
    assert not is_unitary(q, 1e-8)


def test_form_worked_example(form_pair):
    x, y = form_pair
    f = FormKind("bilinear", identity(3, 2))
    tube = form_eval(f, x, y)
    assert np.allclose(tube.data.ravel().real, [7, 5], atol=1e-12)


def test_form_first_slice_nonneg(rng):
    f = FormKind("bilinear", identity(4, 3))
    for _ in range(5):
        x = rand3(rng, 4, 1, 3)
        tube = form_eval(f, x, x)
        brute = tprod(transpose(x), x, method="dense")  # dense bcirc route
        assert fnorm(tube - brute) <= 1e-12 * max(fnorm(brute), 1.0)
        assert tube.data[0, 0, 0].real >= 0


def test_form_bilinearity(rng):
    f = FormKind("bilinear", identity(3, 2))
    x1, x2, y = (rand3(rng, 3, 1, 2) for _ in range(3))
    alpha = 1.7
    lhs = form_eval(f, alpha * x1 + x2, y)
    rhs = alpha * form_eval(f, x1, y) + form_eval(f, x2, y)
    assert fnorm(lhs - rhs) <= 1e-12 * max(fnorm(lhs), 1.0)


def test_adjoint_identity_forms(rng):
    a = rand3(rng, 3, 3, 2, cplx=True)
    bil = FormKind("bilinear", identity(3, 2))
    ses = FormKind("sesquilinear", identity(3, 2))
    assert fnorm(adjoint(a, bil) - transpose(a)) <= 1e-13 * fnorm(a)
    assert fnorm(adjoint(a, ses) - conj_transpose(a)) <= 1e-13 * fnorm(a)


def test_adjoint_involution_skew_form(rng):
    a = rand3(rng, 4, 4, 3)
    form = FormKind("bilinear", make_skew_hamiltonian(2, 3))
    twice = adjoint(adjoint(a, form), form)
    assert fnorm(twice - a) <= 1e-11 * fnorm(a)
    # dense oracle for the adjoint itself
    j = bcirc(make_skew_hamiltonian(2, 3))
    dense = bcirc_inv(np.linalg.inv(j) @ bcirc(a).T @ j, 4, 4, 3, rtol=1e-8)
    assert fnorm(adjoint(a, form) - dense) <= 1e-10 * fnorm(a)


def test_adjoint_defining_property(rng):
    for kind in ("bilinear", "sesquilinear"):
        t = rand3(rng, 3, 3, 2, cplx=(kind == "sesquilinear")) + 3 * identity(3, 2)
        form = FormKind(kind, t)
        a = rand3(rng, 3, 3, 2, cplx=True)
        star = adjoint(a, form)
        x = rand3(rng, 3, 1, 2, cplx=True)
        y = rand3(rng, 3, 1, 2, cplx=True)
        lhs = form_eval(form, tprod(a, x), y)
        rhs = form_eval(form, x, tprod(star, y))
        assert fnorm(lhs - rhs) <= 1e-10 * max(fnorm(lhs), 1.0)


@pytest.mark.parametrize("kind", ["bilinear", "sesquilinear"])
@pytest.mark.parametrize("maker", [
    lambda: identity(4, 3),
    lambda: make_pseudo(2, 2, 3),
    lambda: make_reverse(4, 3),
    lambda: make_skew_hamiltonian(2, 3),
])
def test_adjoint_property_all_standard_forms(rng, kind, maker):
    form = FormKind(kind, maker())
    a = rand3(rng, 4, 4, 3, cplx=True)
    star = adjoint(a, form)
    x = rand3(rng, 4, 1, 3, cplx=True)
    y = rand3(rng, 4, 1, 3, cplx=True)
    lhs = form_eval(form, tprod(a, x), y)
    rhs = form_eval(form, x, tprod(star, y))
    assert fnorm(lhs - rhs) <= 1e-10 * max(fnorm(lhs), 1.0)


def test_form_dim_checks(rng):
    f = FormKind("bilinear", identity(3, 2))
    with pytest.raises(DimMismatch):
        form_eval(f, rand3(rng, 2, 1, 2), rand3(rng, 3, 1, 2))
    with pytest.raises(DimMismatch):
        adjoint(rand3(rng, 2, 2, 2), f)
