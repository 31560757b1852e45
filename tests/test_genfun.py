import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from tprod import (
    Series,
    Tensor3,
    bcirc,
    bcirc_inv,
    conj_transpose,
    fnorm,
    gfun,
    gfun_series_split,
    gfun_taylor,
    gpower,
    identity,
    isometry,
    mixed_block_fn,
    named_gfun,
    named_scalar_fn,
    pinv,
    polynomial,
    power_fn,
    random_unitary,
    scalar_fn,
    specnorm,
    standard_tfn,
    tcsvd,
    tprod,
    transpose,
)
from tprod import spectral
from tprod.algebra import first_slice
from tprod.cli import main
from tprod.errors import (
    DefectiveFace,
    FnDomainError,
    InvalidArgument,
    NoConvergence,
    NonFinite,
    RadiusViolation,
    SeriesDivergence,
    ZeroSingularValueRequiresFZero,
)
from tprod.io import read_tensor, write_tensor

from conftest import FIXTURES, dense_gmf, rand3, rand_face_ranks, rand_low_rank

SQ = named_scalar_fn("square")
SIN = named_scalar_fn("sin")
EXP = named_scalar_fn("exp")
ID = named_scalar_fn("id")


def test_square_on_tube_generalized(tube4):
    r2 = 2 * np.sqrt(2)
    out = gfun(tube4, SQ)
    assert np.allclose(out.data.ravel().real, [24 - r2, 26 + r2, 24 + r2, 26 - r2], atol=1e-10)
    assert out.is_real(1e-8)


def test_square_on_tube_standard(tube4):
    out = standard_tfn(tube4, SQ)
    assert np.allclose(out.data.ravel().real, [26, 20, 26, 28], atol=1e-10)


def test_standard_differs_from_generalized(tube4):
    a = standard_tfn(tube4, SQ)
    b = gfun(tube4, SQ)
    assert fnorm(a - b) > 1.0


def test_identity_function_fixes_input(rng):
    a = rand3(rng, 3, 4, 5, cplx=True)
    assert fnorm(gfun(a, ID) - a) <= 1e-12 * fnorm(a)
    sq = rand3(rng, 3, 3, 4)
    assert fnorm(standard_tfn(sq, ID) - sq) <= 1e-12 * fnorm(sq)


def test_constant_function_gives_isometry(rng):
    a = rand3(rng, 3, 2, 4)
    one = scalar_fn(lambda x: np.ones_like(np.asarray(x, dtype=np.float64)), 1.0, "one")
    e = isometry(tcsvd(a))
    assert fnorm(gfun(a, one) - e) <= 1e-12 * max(fnorm(e), 1.0)


def test_sign_function_gives_isometry(rng):
    a = rand3(rng, 4, 3, 2)
    e = isometry(tcsvd(a))
    assert fnorm(gfun(a, named_scalar_fn("sign")) - e) <= 1e-12 * max(fnorm(e), 1.0)


def test_composition_law(rng):
    a = rand3(rng, 3, 4, 3)
    h, g = SQ, named_scalar_fn("sqrt")
    lhs = gfun(gfun(a, h), g)
    assert fnorm(lhs - a) <= 1e-9 * fnorm(a)
    # generic composition: sin(x^2)
    comp = scalar_fn(lambda x: np.sin(np.asarray(x) ** 2), 0.0, "sin_sq")
    lhs = gfun(gfun(a, h), SIN)
    rhs = gfun(a, comp)
    assert fnorm(lhs - rhs) <= 1e-9 * max(fnorm(rhs), 1.0)


def test_sum_and_product_rules(rng):
    a = rand3(rng, 3, 2, 3)
    e = isometry(tcsvd(a))
    cube = named_scalar_fn("cube")
    lhs = gfun(a, cube)
    rhs = tprod(gfun(a, ID), tprod(conj_transpose(e), gfun(a, SQ)))
    assert fnorm(lhs - rhs) <= 1e-9 * fnorm(lhs)
    both = scalar_fn(lambda x: np.asarray(x) + np.asarray(x) ** 2, 0.0, "x_plus_sq")
    assert fnorm(gfun(a, both) - (gfun(a, ID) + gfun(a, SQ))) <= 1e-10 * fnorm(a)


def test_conj_transpose_commutation(rng):
    a = rand3(rng, 4, 2, 3, cplx=True)
    lhs = gfun(conj_transpose(a), SIN)
    rhs = conj_transpose(gfun(a, SIN))
    assert fnorm(lhs - rhs) <= 1e-10 * max(fnorm(lhs), 1.0)
    lhsT = gfun(transpose(a), SIN)
    rhsT = transpose(gfun(a, SIN))
    assert fnorm(lhsT - rhsT) <= 1e-10 * max(fnorm(lhsT), 1.0)


def test_unitary_invariance(rng):
    a = rand3(rng, 4, 3, 3)
    p = random_unitary(4, 3, seed=11)
    q = random_unitary(3, 3, seed=12)
    lhs = gfun(tprod(p, tprod(a, q)), SIN)
    rhs = tprod(p, tprod(gfun(a, SIN), q))
    assert fnorm(lhs - rhs) <= 1e-9 * max(fnorm(rhs), 1.0)


def test_unitary_input_scales_by_f1(rng):
    q = random_unitary(4, 3, seed=4)
    out = gfun(q, SQ)  # f(1) = 1
    assert fnorm(out - q) <= 1e-10 * fnorm(q)


def test_sqrt_gram_identity(rng):
    # f_gen(A) = f(sqrt(A A^H)) * sqrt(A A^H)^+ * A on a full-rank square input
    a = rand3(rng, 3, 3, 4) + 2 * identity(3, 4)
    gram = tprod(a, conj_transpose(a))
    root = standard_tfn(gram, named_scalar_fn("sqrt"))
    lhs = tprod(standard_tfn(root, EXP), tprod(pinv(root), a))
    rhs = gfun(a, EXP)
    assert fnorm(lhs - rhs) <= 1e-8 * fnorm(rhs)


def test_gram_commutation(rng):
    a = rand3(rng, 3, 2, 3)
    g = SQ
    lhs = tprod(standard_tfn(tprod(a, conj_transpose(a)), g), gfun(a, SIN))
    rhs = tprod(gfun(a, SIN), standard_tfn(tprod(conj_transpose(a), a), g))
    assert fnorm(lhs - rhs) <= 1e-9 * max(fnorm(lhs), 1.0)


def test_hermitian_psd_standard_equals_generalized(rng):
    b = rand3(rng, 3, 3, 3)
    a = tprod(b, conj_transpose(b))  # F-Hermitian PSD
    cube = named_scalar_fn("cube")
    assert fnorm(standard_tfn(a, cube) - gfun(a, cube)) <= 1e-9 * fnorm(a) ** 3


def test_zero_singular_value_gate(rng):
    # unequal face ranks put a genuine zero inside the rank window
    a = rand_face_ranks(rng, 4, 4, [1, 3, 2])
    with pytest.raises(ZeroSingularValueRequiresFZero):
        gfun(a, EXP)
    out = gfun(a, SIN)  # f(0) = 0 passes
    assert out.shape == (4, 4, 3)


def test_equal_face_ranks_allow_nonzero_f0(rng):
    # a uniformly rank-deficient tensor has no zero inside its window
    a = rand_low_rank(rng, 4, 4, 3, k=2)
    out = gfun(a, EXP)
    assert out.shape == (4, 4, 3)


def test_fn_domain_error(rng):
    a = rand3(rng, 2, 2, 2)
    bad = scalar_fn(lambda x: np.asarray(x) * np.nan, 0.0, "nanfn")
    with pytest.raises(FnDomainError):
        gfun(a, bad)


def test_real_in_real_out(rng):
    a = rand3(rng, 3, 4, 5)
    for f in (SIN, SQ, named_scalar_fn("sqrt")):
        assert gfun(a, f).is_real(1e-8)


def test_standard_tfn_exp_dense_oracle(rng):
    b = rand3(rng, 2, 2, 3)
    a = 0.5 * (b + transpose(b))  # F-Hermitian real
    lhs = standard_tfn(a, EXP)
    rhs = bcirc_inv(scipy.linalg.expm(bcirc(a)), 2, 2, 3, rtol=1e-8)
    assert fnorm(lhs - rhs) <= 1e-10 * fnorm(rhs)


def test_standard_tfn_nonnormal_dense_oracle(rng):
    a = rand3(rng, 3, 3, 2)
    lhs = standard_tfn(a, EXP)
    rhs = bcirc_inv(scipy.linalg.expm(bcirc(a)), 3, 3, 2, rtol=1e-8)
    assert fnorm(lhs - rhs) <= 1e-9 * fnorm(rhs)


JORDAN = np.array([[1.0, 1.0], [0.0, 1.0]])
HERM = np.array([[0.5, 0.25], [0.25, -0.375]])
GENERAL = np.array([[0.5, 0.75], [-0.125, 0.25]])
LN1P_POLE = np.array([[-1.0, 0.0], [0.0, 0.5]])  # Hermitian, ln1p(-1) = -inf


def _tensor_with_faces(faces):
    # p = 4 and dyadic entries keep the DFT round trip exact, so the Jordan
    # face reaches the kernel unperturbed
    faces = np.asarray(faces, dtype=np.complex128)
    a = Tensor3(np.fft.ifft(faces, axis=0))
    assert np.array_equal(np.fft.fft(a.data, axis=0), faces)
    return a


def test_standard_tfn_jordan_face_takes_series():
    faces = [HERM, GENERAL, JORDAN, 1j * GENERAL]
    out = np.fft.fft(standard_tfn(_tensor_with_faces(faces), EXP).data, axis=0)
    for d, got in zip(faces, out):
        want = scipy.linalg.expm(d)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("faces, err, face", [
    ([HERM, JORDAN, GENERAL, HERM], DefectiveFace, 1),
    ([HERM, JORDAN, LN1P_POLE, GENERAL], DefectiveFace, 1),
    ([GENERAL, LN1P_POLE, JORDAN, HERM], FnDomainError, 1),
    ([HERM, JORDAN - 2.0 * np.eye(2), LN1P_POLE, GENERAL], SeriesDivergence, 1),
])
def test_standard_tfn_lowest_failing_face_raises(monkeypatch, faces, err, face):
    # sign has no series, so a Jordan face is defective; ln1p is not finite
    # on LN1P_POLE, and its series about -1 has radius 0, so a Jordan face at
    # -1 diverges below the pole; the lowest failing face decides the error
    # either way, also when every face is a slice of its own
    f = named_scalar_fn("sign") if err is DefectiveFace else named_scalar_fn("ln1p")
    for chunk in (None, 4):
        if chunk:
            monkeypatch.setattr(spectral, "_CHUNK", chunk)
        with np.errstate(divide="ignore"), pytest.raises(err, match=f"face {face}"):
            standard_tfn(_tensor_with_faces(faces), f)


def test_standard_tfn_hermitian_face_checks_finiteness():
    with np.errstate(divide="ignore"), pytest.raises(FnDomainError, match="face 0"):
        standard_tfn(Tensor3(LN1P_POLE[None]), named_scalar_fn("ln1p"))


@pytest.mark.parametrize("p", [1, 4, 5])
def test_standard_tfn_real_in_real_out_on_every_path(rng, p):
    jordan = np.zeros((p, 2, 2))
    jordan[0] = JORDAN  # every face is the Jordan block: Pade for exp, the series for sinh
    sym = rand3(rng, 3, 3, 1)
    sym = Tensor3(np.repeat(sym.data + sym.data.transpose(0, 2, 1), p, axis=0))
    for a in (Tensor3(jordan), sym, rand3(rng, 3, 3, p)):
        for f in (EXP, named_scalar_fn("sinh")):
            assert standard_tfn(a, f).exactly_real


def test_standard_sqrt_of_a_negative_scalar_is_imaginary():
    # face 0 is its own conjugate partner, so an imaginary f(face 0) must survive
    out = standard_tfn(Tensor3([[[-4.0]]]), named_scalar_fn("sqrt"))
    assert out.data.dtype == np.complex128
    assert abs(out.data[0, 0, 0] - 2j) <= 1e-15
    # on real input the negatives turn the whole array complex
    assert np.array_equal(power_fn(0.5)(np.array([-4.0, 9.0])), [2j, 3.0])


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 8])
def test_standard_sqrt_and_ln1p_identities_on_real_input(p):
    # negative face eigenvalues send sqrt and ln1p off the real axis; the
    # identities hold whichever root or branch each face takes
    a = Tensor3(np.random.default_rng(p).standard_normal((p, 3, 3)))
    x = standard_tfn(a, named_scalar_fn("sqrt"))
    assert fnorm(tprod(x, x) - a) <= 1e-12 * fnorm(a)
    want = identity(3, p) + a
    back = standard_tfn(standard_tfn(a, named_scalar_fn("ln1p")), EXP)
    assert fnorm(back - want) <= 1e-12 * fnorm(want)


def test_gpower_basics(rng):
    a = rand3(rng, 2, 3, 2)
    e = isometry(tcsvd(a))
    assert fnorm(gpower(a, 0) - e) <= 1e-12 * max(fnorm(e), 1.0)
    assert fnorm(gpower(a, 1) - a) <= 1e-11 * fnorm(a)
    direct = tprod(a, tprod(transpose(a), a))  # real input: A * A^T * A
    assert fnorm(gpower(a, 3) - direct) <= 1e-10 * fnorm(direct)


@pytest.mark.parametrize("k", [-1, 1.5])
def test_gpower_bad_exponent_is_usage_error(rng, k):
    with pytest.raises(InvalidArgument, match="nonnegative integer exponent") as exc:
        gpower(rand3(rng, 2, 2, 2), k)
    assert isinstance(exc.value, ValueError) and exc.value.exit_code == 2


def test_gpower_even_odd_identities(rng):
    a = rand3(rng, 3, 2, 3)
    e = isometry(tcsvd(a))
    gram = tprod(a, conj_transpose(a))
    assert fnorm(gpower(a, 4) - tprod(tprod(gram, gram), e)) <= 1e-9 * max(fnorm(a), 1.0) ** 4
    assert fnorm(gpower(a, 5) - tprod(tprod(gram, gram), a)) <= 1e-9 * max(fnorm(a), 1.0) ** 5


def _jordan4(lam):
    return np.diag(np.full(4, lam)) + np.diag(np.ones(3), 1)


def _rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("p", [1, 4])
@pytest.mark.parametrize("lam", [-10.0, -30.0])
@pytest.mark.parametrize("name, dense", [
    ("sinh", scipy.linalg.sinhm), ("cosh", scipy.linalg.coshm), ("square", lambda m: m @ m),
])
def test_standard_series_fallback_on_jordan_faces(p, lam, name, dense):
    # every face is a 4x4 Jordan block, which fails the eigenvector guard, so
    # the series fallback computes all of them
    a = first_slice(_jordan4(lam), p)
    got = standard_tfn(a, named_scalar_fn(name))
    assert _rel(bcirc(got), dense(bcirc(a))) <= 1e-12


def test_standard_series_fallback_ln1p_on_a_jordan_face():
    a = first_slice(_jordan4(0.3), 2)
    want = scipy.linalg.logm(np.eye(8) + bcirc(a))
    assert _rel(bcirc(standard_tfn(a, named_scalar_fn("ln1p"))), want) <= 1e-12


@pytest.mark.parametrize("name, dense", [("sin", scipy.linalg.sinm), ("cos", scipy.linalg.cosm)])
def test_standard_series_fallback_accurate_sum_is_kept(name, dense):
    # at -10 the alternating sum loses about 3 digits, well inside the bound
    for p in (1, 4):
        a = first_slice(_jordan4(-10.0), p)
        assert _rel(bcirc(standard_tfn(a, named_scalar_fn(name))), dense(bcirc(a))) <= 5e-12


@pytest.mark.parametrize("p", [1, 4])
@pytest.mark.parametrize("lam", [-20.0, -30.0])
@pytest.mark.parametrize("name", ["sin", "cos"])
def test_standard_series_fallback_sums_about_the_mean_eigenvalue(p, lam, name):
    # the alternating Taylor sum about 0 cancels on these faces; the sum about
    # the mean eigenvalue is short and exact
    a = first_slice(_jordan4(lam), p)
    dense = {"sin": scipy.linalg.sinm, "cos": scipy.linalg.cosm}[name]
    assert _rel(bcirc(standard_tfn(a, named_scalar_fn(name))), dense(bcirc(a))) <= 1e-12


def test_cli_standard_cos_of_jordan_faces(tmp_path, capsys):
    # Jordan faces at -20 take the Taylor sum about their mean eigenvalue
    src, out = tmp_path / "J.tt3a", tmp_path / "x.tt3a"
    a = first_slice(_jordan4(-20.0), 4)
    write_tensor(src, a)
    assert main(["apply", str(src), "--fn", "cos", "--standard", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert _rel(bcirc(read_tensor(out)), scipy.linalg.cosm(bcirc(a))) <= 1e-12


@pytest.mark.parametrize("name, face, err, message", [
    ("sin", [[-25.0, 1e12], [0.0, 25.0]], DefectiveFace,
     "face 0: Taylor sum cancels, estimated relative error 9.6e-06 > 1e-10"),
    ("inverse_shift", [[-0.98, 1e9], [0.0, 0.98]], SeriesDivergence,
     "face 0: series did not settle in 500 terms"),
])
def test_standard_taylor_sum_refusals_exit_3(tmp_path, capsys, name, face, err, message):
    # both faces fail the eigenvector guard; about their mean 0 the terms of
    # the sin sum grow to 4e10 times the result, and those of the
    # inverse_shift sum shrink by only 0.98 a term
    a = Tensor3(np.array([face]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(err, match=f"^{message}$") as exc:
            standard_tfn(a, named_scalar_fn(name))
    assert exc.value.exit_code == 3
    src, out = tmp_path / "a.tt3a", tmp_path / "x.tt3a"
    write_tensor(src, a)
    assert main(["apply", str(src), "--fn", name, "--standard", "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_cli_standard_cube_of_jordan_faces(tmp_path):
    src, out = tmp_path / "J.tt3a", tmp_path / "x.tt3a"
    a = first_slice(_jordan4(-10.0), 4)
    write_tensor(src, a)
    assert main(["apply", str(src), "--fn", "cube", "--standard", "--out", str(out)]) == 0
    assert _rel(bcirc(read_tensor(out)), np.linalg.matrix_power(bcirc(a), 3)) <= 1e-15


def test_standard_cube_of_a_jordan_face_is_exact():
    # a finite series is summed to its degree, past its zero coefficients
    a = first_slice(_jordan4(-10.0), 1)
    assert np.array_equal(standard_tfn(a, named_scalar_fn("cube")).data[0],
                          np.linalg.matrix_power(_jordan4(-10.0), 3))


def _gpower_by_recurrence(a, k):
    # the definition X_0 = E and X_j = X_{j-1} * E^H * A, by T-products
    e = isometry(tcsvd(a))
    x = e
    for _ in range(k):
        x = tprod(tprod(x, conj_transpose(e)), a)
    return x


@pytest.mark.parametrize("shape", [(3, 3, 4), (3, 2, 5), (2, 4, 6), (4, 4, 1)])
@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("deficient", [False, True], ids=["full", "deficient"])
def test_gpower_closed_form_matches_recurrence(rng, shape, cplx, deficient):
    m, n, p = shape
    a = rand_low_rank(rng, m, n, p, 1, cplx) if deficient else rand3(rng, m, n, p, cplx)
    for k in range(7):
        want = _gpower_by_recurrence(a, k)
        got = gpower(a, k)
        assert got.exactly_real == (not cplx)
        assert fnorm(got - want) <= 1e-13 * max(fnorm(want), 1.0), k


def test_gpower_keeps_zero_window_positions_out():
    # face ranks 2, 1, 0: zeros inside the window give E's frames at k = 0 only
    a = rand_face_ranks(np.random.default_rng(5), 3, 3, [2, 1, 0])
    for k in range(4):
        want = _gpower_by_recurrence(a, k)
        assert fnorm(gpower(a, k) - want) <= 1e-13 * max(fnorm(want), 1.0)


def test_gpower_overflow_raises_without_warnings():
    a = Tensor3(np.array([[[1e3, 0.0], [0.0, 1.0]]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(gpower(a, 102).data).all()
        with pytest.raises(NonFinite, match="overflows") as exc:
            gpower(a, 103)
    assert exc.value.exit_code == 3


def test_taylor_square_exact(tube4):
    out = gfun_taylor(tube4, SQ, z0=0.0)
    assert fnorm(out - gfun(tube4, SQ)) <= 1e-12 * fnorm(out)


def test_taylor_sin_matches_spectral(rng):
    a = rand3(rng, 3, 4, 3)
    a = (1.5 / specnorm(a)) * a
    out = gfun_taylor(a, SIN, z0=0.0, tol=1e-12)
    assert fnorm(out - gfun(a, SIN)) <= 1e-9 * max(fnorm(out), 1.0)


def test_taylor_offcenter_exp(rng):
    a = rand3(rng, 3, 3, 2)
    a = (1.0 / specnorm(a)) * a
    out = gfun_taylor(a, EXP, z0=0.7)
    assert fnorm(out - gfun(a, EXP)) <= 1e-9 * fnorm(out)


def test_finite_series_sums_past_zero_coefficients():
    assert power_fn(3).series.eval(0.5) == 0.125


@pytest.mark.parametrize("f, z0", [
    (named_scalar_fn("cube"), 0.0), (power_fn(4), 0.0), (polynomial([0, 0, 0, 1]), 0.0),
    (polynomial([1, 0, 0, 0, 2]), 0.0), (polynomial([1, -4, 6, -4, 1]), 1.0),
], ids=["cube", "power4", "poly_cube", "poly_1_0_0_0_2", "poly_shifted"])
def test_taylor_of_a_polynomial_is_exact(rng, f, z0):
    a = rand3(rng, 3, 3, 4)
    want = gfun(a, f)
    assert fnorm(gfun_taylor(a, f, z0=z0) - want) <= 1e-12 * fnorm(want)


def test_series_split_of_a_sparse_polynomial(rng):
    # x + 2x^7: the odd Gram half 1 + 2w^3 has two zero coefficients in a row
    a = rand3(rng, 3, 3, 4)
    f = polynomial([0, 1, 0, 0, 0, 0, 0, 2])
    want = gfun(a, f)
    assert fnorm(gfun_series_split(a, f) - want) <= 1e-12 * fnorm(want)


@pytest.mark.parametrize("name, diag, z0", [
    ("ln1p", [1.85, 0.3], 0.5), ("inverse_shift", [1.85, 0.3], 0.5), ("sqrt", [1.9, 0.12], 1.0),
])
def test_taylor_off_zero_needs_no_factorials(name, diag, z0):
    # f^(k)(z0) alone overflows a float here, long before f^(k)(z0) / k! does
    a, f = Tensor3(np.diag(diag)[None]), named_scalar_fn(name)
    want = gfun(a, f)
    assert fnorm(gfun_taylor(a, f, z0=z0) - want) <= 1e-10 * fnorm(want)


@pytest.mark.parametrize("args", [["--fn", "cube"], ["--poly", "0,0,0,1"]])
def test_cli_series_route_of_a_cube(tmp_path, capsys, args):
    out = tmp_path / "x.tt3a"
    cmd = ["apply", str(FIXTURES / "tube4.txt"), *args, "--method", "series", "--out", str(out)]
    assert main(cmd) == 0
    assert float(capsys.readouterr().out.split("cross-check vs spectral:")[1]) <= 1e-12


def test_cli_series_route_of_ln1p_off_zero(tmp_path, capsys):
    src, out = tmp_path / "d.tt3a", tmp_path / "x.tt3a"
    write_tensor(src, Tensor3(np.diag([1.85, 0.3])[None]))
    cmd = ["apply", str(src), "--fn", "ln1p", "--method", "series", "--z0", "0.5", "--out", str(out)]
    assert main(cmd) == 0
    assert float(capsys.readouterr().out.split("cross-check vs spectral:")[1]) <= 1e-10


def test_taylor_zero_tensor():
    out = gfun_taylor(Tensor3.zeros(2, 2, 3), SIN, z0=0.0)
    assert fnorm(out) == 0.0


def test_taylor_radius_violation(rng):
    a = rand3(rng, 3, 3, 2)
    a = (2.5 / specnorm(a)) * a
    with pytest.raises(RadiusViolation):
        gfun_taylor(a, named_scalar_fn("ln1p"), z0=0.0)


def test_taylor_no_convergence(rng):
    a = rand3(rng, 2, 2, 2)
    a = (30.0 / specnorm(a)) * a
    with pytest.raises(NoConvergence):
        gfun_taylor(a, SIN, z0=0.0, max_terms=12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_taylor_accepts_sum_at_term_cap(seed):
    # at spectral norm 1.5 the last two exp terms are within 100 * tol by
    # term 16, a few terms before they settle below tol: the cap accepts that sum
    a = rand3(np.random.default_rng(seed), 2, 2, 2)
    a = (1.5 / specnorm(a)) * a
    with pytest.raises(NoConvergence):
        gfun_taylor(a, EXP, max_terms=15)
    out = gfun_taylor(a, EXP, max_terms=16)
    assert fnorm(out - gfun(a, EXP)) <= 1e-10 * fnorm(out)


def test_taylor_overflow_is_no_convergence():
    # 100**k overflows before the exp series settles; the sum must not come
    # back as NaN
    with pytest.raises(NoConvergence):
        gfun_taylor(Tensor3([[[100.0]]]), EXP, max_terms=160)


@pytest.mark.parametrize("fn", ["exp", "sin", "cosh"])
def test_series_overflow_raises_without_warnings(fn):
    f = named_scalar_fn(fn)
    a = Tensor3(np.array([[[200.0]], [[1.0]]]))
    calls = [
        (SeriesDivergence, lambda: f.series.eval(np.array([200.0, 1.0]))),
        (NoConvergence, lambda: gfun_taylor(a, f)),
    ]
    for err, call in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(err):
                call()
        assert not caught


@pytest.mark.parametrize("fn", ["sin", "cosh"])
def test_standard_series_fallback_overflow_raises_without_warnings(fn):
    # a Jordan face fails the eigenvector guard; 200**k would overflow a sum
    # about 0, while about the mean 200 the sum stops after two terms
    a = Tensor3(np.array([[[200.0, 1.0], [0.0, 200.0]]]))
    f = named_scalar_fn(fn)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = standard_tfn(a, f).data[0]
    df = {"sin": np.cos, "cosh": np.sinh}[fn]
    want = np.array([[f(200.0), df(200.0)], [0.0, f(200.0)]])
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_series_sum_overflow_is_not_settled():
    # every term is finite but their sum is not; the later zero terms must not
    # read as a settled series
    with pytest.raises(SeriesDivergence):
        Series.from_coeffs([1e308, 1e308]).eval(1.0)


def test_series_coefficients_past_170_terms():
    coeff = EXP.series.coeff
    c = [coeff(k) for k in range(168, 176)]
    assert c[:3] == [1.0 / math.factorial(k) for k in range(168, 171)]
    assert all(0.0 < b < a for a, b in zip(c, c[1:]))
    # cosh(60) sums terms past k = 170 before it settles
    out = named_scalar_fn("cosh").series.eval(np.array([60.0]))
    assert abs(out[0] - np.cosh(60.0)) <= 1e-12 * np.cosh(60.0)


def test_series_eval_unsettled_within_cap():
    # 0.999 is inside the radius, but 0.999**500 is still far from negligible
    with pytest.raises(SeriesDivergence, match="series did not settle within 500 terms"):
        named_scalar_fn("inverse_shift").series.eval(0.999)


def test_standard_series_face_outside_radius():
    # a Jordan face fails the guard; ln1p's disc about its mean 1.5 has radius 2.5
    d = np.array([[1.5, 1.0], [0.0, 1.5]])
    got = standard_tfn(Tensor3(d[None]), named_scalar_fn("ln1p")).data[0]
    assert _rel(got, scipy.linalg.logm(np.eye(2) + d)) <= 1e-15
    # the eigenvalue -1.5 puts the branch point -1 inside the disc about the mean 0.75
    a = Tensor3(np.array([[[-1.5, 1e10], [0.0, 3.0]]]))
    with pytest.raises(SeriesDivergence, match="face 0: eigenvalue spread 2.25 about the "
                                               "mean >= series radius 1.75") as exc:
        standard_tfn(a, named_scalar_fn("ln1p"))
    assert exc.value.exit_code == 3


def test_named_gfun_gates(rng):
    a = rand_face_ranks(rng, 4, 4, [2, 3])
    for name in ("exp", "cos", "cosh", "ln1p"):
        with pytest.raises(ZeroSingularValueRequiresFZero):
            named_gfun(a, name)
    for name in ("sin", "sinh", "sign", "cube"):
        named_gfun(a, name)


def test_named_gfun_factors_once(monkeypatch, rng):
    from tprod import genfun

    calls = []
    factor = genfun.tcsvd
    monkeypatch.setattr(genfun, "tcsvd", lambda *args: calls.append(args) or factor(*args))
    named_gfun(rand3(rng, 3, 3, 4), "exp")
    assert len(calls) == 1


def test_named_sin_at_pi_orthogonal():
    q = np.pi * random_unitary(3, 2, seed=9)
    out = named_gfun(q, "sin")
    assert fnorm(out) <= 1e-9 * fnorm(q)


def test_series_split_matches_direct(rng):
    a = rand3(rng, 3, 3, 3)
    lhs = gfun_series_split(a, EXP)
    rhs = gfun(a, EXP)
    assert fnorm(lhs - rhs) <= 1e-9 * fnorm(rhs)
    lhs = gfun_series_split(a, SIN)
    rhs = gfun(a, SIN)
    assert fnorm(lhs - rhs) <= 1e-9 * max(fnorm(rhs), 1.0)


def test_mixed_block_exp(rng):
    a = rand3(rng, 2, 3, 2)
    full = mixed_block_fn(a, EXP)
    # off-diagonal block is the generalized sinh of a
    off = Tensor3(full.data[:, :2, 2:])
    want = gfun(a, named_scalar_fn("sinh"))
    assert fnorm(off - want) <= 1e-9 * max(fnorm(want), 1.0)


def test_mixed_block_odd_function(rng):
    a = rand3(rng, 2, 2, 3)
    full = mixed_block_fn(a, SIN)
    assert np.abs(full.data[:, :2, :2]).max() <= 1e-10
    assert np.abs(full.data[:, 2:, 2:]).max() <= 1e-10
    off = Tensor3(full.data[:, :2, 2:])
    assert fnorm(off - gfun(a, SIN)) <= 1e-9


def test_mixed_block_identity_input():
    a = identity(2, 3)
    full = mixed_block_fn(a, EXP)
    diag = Tensor3(full.data[:, :2, :2])
    off = Tensor3(full.data[:, :2, 2:])
    assert fnorm(diag - float(np.cosh(1.0)) * identity(2, 3)) <= 1e-10
    assert fnorm(off - float(np.sinh(1.0)) * identity(2, 3)) <= 1e-10


def test_p1_degenerates_to_matrix_function(rng):
    a = rand3(rng, 4, 3, 1)
    out = gfun(a, SIN)
    dense = dense_gmf(a.data[0], SIN)
    assert np.abs(out.data[0] - dense).max() <= 1e-12 * max(1.0, np.abs(dense).max())


def test_polynomial_fn(rng):
    a = rand3(rng, 3, 3, 2)
    f = polynomial([0.0, 2.0, 0.0, 1.0])  # 2x + x^3
    lhs = gfun(a, f)
    rhs = 2.0 * gfun(a, ID) + gfun(a, named_scalar_fn("cube"))
    assert fnorm(lhs - rhs) <= 1e-10 * fnorm(rhs)


def test_power_fn_metadata():
    f = power_fn(3)
    assert f.value_at_zero == 0
    g = power_fn(-1)
    assert g.value_at_zero == np.inf
    h = power_fn(0)
    assert h.value_at_zero == 1.0



@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf, "1e400"])
def test_power_fn_refuses_non_finite_exponent(alpha):
    with pytest.raises(FnDomainError, match="finite"):
        power_fn(alpha)
    with pytest.raises(FnDomainError, match="finite"):
        named_scalar_fn(f"power({alpha})")


@pytest.mark.parametrize("alpha", ["abc", None, [1.0]])
def test_power_fn_refuses_a_non_number(alpha):
    with pytest.raises(FnDomainError, match="must be a number"):
        power_fn(alpha)

@pytest.mark.parametrize("name", ["exp", "ln1p", "sin", "cos", "sinh", "cosh",
                                  "inverse_shift"])
def test_named_series_match_eval(name):
    f = named_scalar_fn(name)
    xs = np.linspace(0.05, 0.9, 7)  # inside every declared radius
    direct = np.asarray(f(xs), dtype=np.complex128)
    summed = f.series.eval(xs)
    assert np.allclose(summed, direct, atol=1e-12, rtol=1e-10)


@pytest.mark.parametrize("name", ["sin", "sinh", "sign", "cube"])
def test_odd_completed_functions(name):
    f = named_scalar_fn(name)
    assert f.value_at_zero == 0
    xs = np.array([0.3, 1.2, 2.7])
    lhs = np.asarray(f(-xs), dtype=np.complex128)
    rhs = -np.asarray(f(xs), dtype=np.complex128)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_named_derivatives_match_finite_differences():
    h = 1e-6
    for name in ("exp", "sin", "cos", "sinh", "cosh", "ln1p", "inverse_shift"):
        f = named_scalar_fn(name)
        z0 = 0.4
        fd = (complex(f(np.array([z0 + h]))[0]) - complex(f(np.array([z0 - h]))[0])) / (2 * h)
        assert abs(complex(f.taylor(z0).coeff(1)) - fd) <= 1e-7 * max(1.0, abs(fd))
