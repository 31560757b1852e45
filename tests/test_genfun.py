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
from tprod.errors import (
    DefectiveFace,
    FnDomainError,
    InvalidArgument,
    NoConvergence,
    RadiusViolation,
    SeriesDivergence,
    ZeroSingularValueRequiresFZero,
)

from conftest import dense_gmf, rand3, rand_face_ranks, rand_low_rank

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


def test_standard_tfn_series_path_matches_eig(rng):
    a = 0.3 * rand3(rng, 3, 3, 2)
    lhs = standard_tfn(a, EXP, force_series=True)
    rhs = standard_tfn(a, EXP)
    assert fnorm(lhs - rhs) <= 1e-11 * max(fnorm(rhs), 1.0)


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
])
def test_standard_tfn_lowest_failing_face_raises(faces, err, face):
    # sign has no series, so a Jordan face is defective; ln1p is not finite
    # on LN1P_POLE; the lowest failing face decides the error either way
    f = named_scalar_fn("sign") if err is DefectiveFace else named_scalar_fn("ln1p")
    with np.errstate(divide="ignore"), pytest.raises(err, match=f"face {face}"):
        standard_tfn(_tensor_with_faces(faces), f)


def test_standard_tfn_hermitian_face_checks_finiteness():
    with np.errstate(divide="ignore"), pytest.raises(FnDomainError, match="face 0"):
        standard_tfn(Tensor3(LN1P_POLE[None]), named_scalar_fn("ln1p"))


@pytest.mark.parametrize("p", [1, 4, 5])
def test_standard_tfn_real_in_real_out_on_every_path(rng, p):
    jordan = np.zeros((p, 2, 2))
    jordan[0] = JORDAN  # every face is the Jordan block: the series path
    sym = rand3(rng, 3, 3, 1)
    sym = Tensor3(np.repeat(sym.data + sym.data.transpose(0, 2, 1), p, axis=0))
    for a in (Tensor3(jordan), sym, rand3(rng, 3, 3, p)):
        assert standard_tfn(a, EXP).exactly_real


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
        (SeriesDivergence, lambda: standard_tfn(a, f, force_series=True)),
        (NoConvergence, lambda: gfun_taylor(a, f)),
    ]
    for err, call in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(err):
                call()
        assert not caught


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
    a = Tensor3(np.array([[[1.5, 0.0], [0.0, 0.2]]]))
    with pytest.raises(SeriesDivergence, match="face 0: spectral radius 1.5 >= series radius 1"):
        standard_tfn(a, named_scalar_fn("ln1p"), force_series=True)


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
        assert abs(complex(f.deriv(z0, 1)) - fd) <= 1e-7 * max(1.0, abs(fd))
