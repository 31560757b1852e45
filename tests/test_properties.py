"""Property tests of the face-domain layer over shapes, realness and face ranks.

Inputs sweep p in {1, 2, 3, 4, 5, 8} (p = 1, odd and even p), m != n, real
and complex entries, and rank-deficient faces, so zero singular values sit
inside the tubal-rank window. Real inputs run on the half spectrum; the
properties below fail when its DC or Nyquist faces are not exactly real or
when the mirrored faces are wrong.
"""

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from tprod import (
    Tensor3,
    bcirc,
    bcirc_commutation_check,
    conj_transpose,
    fnorm,
    gfun,
    gfun_contour,
    gfun_taylor,
    identity,
    inverse,
    is_unitary,
    named_scalar_fn,
    phi,
    pinv,
    pinv_contour,
    polynomial,
    preservation_check,
    random_unitary,
    scalar_fn,
    specnorm,
    standard_tfn,
    tcsvd,
    tprod,
    tsvd,
    zero_slice_check,
)
from tprod.structure import ENTRYWISE_CLASSES, FORM_CLASSES, TABLE2_CLASSES

from conftest import dense_gmf, rand_face_ranks

P_VALUES = (1, 2, 3, 4, 5, 8)
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _real_face_ranks(rng, m, n, ranks):
    """Real tensor whose DFT face k has rank ranks[min(k, p - k)].

    Conjugate-paired faces are built by hand, independently of the library;
    faces 0 and (even p) p/2 are real.
    """
    p = len(ranks)
    faces = np.zeros((p, m, n), dtype=np.complex128)
    for k in range(p // 2 + 1):
        r = ranks[k]
        x = rng.standard_normal((m, r))
        y = rng.standard_normal((r, n))
        if 0 < k < p - k:
            x = x + 1j * rng.standard_normal((m, r))
            y = y + 1j * rng.standard_normal((r, n))
            faces[p - k] = (x @ y).conj()
        faces[k] = x @ y
    return Tensor3(np.fft.ifft(faces, axis=0).real)


@st.composite
def tensors(draw, real=None, square=False):
    """(tensor, is_real): random entries or a rank-deficient face pattern."""
    p = draw(st.sampled_from(P_VALUES))
    m = draw(st.integers(1, 4))
    n = m if square else draw(st.integers(1, 4))
    real = draw(st.booleans()) if real is None else real
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = min(m, n)
    if draw(st.booleans()):
        data = rng.standard_normal((p, m, n))
        if not real:
            data = data + 1j * rng.standard_normal((p, m, n))
        return Tensor3(data), real
    ranks = draw(st.lists(st.integers(0, k), min_size=p // 2 + 1, max_size=p // 2 + 1))
    if real:
        return _real_face_ranks(rng, m, n, ranks + ranks[1:(p + 1) // 2][::-1]), real
    ranks = ranks + draw(st.lists(st.integers(0, k), min_size=p - len(ranks),
                                  max_size=p - len(ranks)))
    return rand_face_ranks(rng, m, n, ranks), real


@PROPERTY
@given(tensors(), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_fft_product_equals_dense(at, s, seed):
    a, real = at
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((a.p, a.n, s))
    b = Tensor3(data if real else data + 1j * rng.standard_normal((a.p, a.n, s)))
    fast = tprod(a, b)
    dense = tprod(a, b, method="dense")
    assert fnorm(fast - dense) <= 1e-12 * max(fnorm(a) * fnorm(b), 1.0)
    assert fast.exactly_real or not real


@PROPERTY
@given(tensors(real=True))
def test_real_input_gives_exactly_real_output(at):
    a, _ = at
    f = tsvd(a)
    c = tcsvd(a)
    outs = [tprod(a, conj_transpose(a)), f.U, f.S, f.V, c.Ur, c.Sr, c.Vr, pinv(a),
            gfun(a, named_scalar_fn("sinh"))]
    if a.m == a.n:
        outs.append(standard_tfn(a, named_scalar_fn("exp")))
        outs.append(inverse(a + (2.0 + fnorm(a)) * identity(a.n, a.p)))
    assert all(t.exactly_real for t in outs)


@PROPERTY
@given(tensors())
def test_tsvd_frames_are_unitary(at):
    a, _ = at
    f = tsvd(a)
    assert is_unitary(f.U, 1e-10) and is_unitary(f.V, 1e-10)
    rec = tprod(f.U, tprod(f.S, conj_transpose(f.V)))
    assert fnorm(rec - a) <= 1e-10 * max(fnorm(a), 1.0)


@PROPERTY
@given(st.integers(1, 4), st.sampled_from(P_VALUES), st.booleans(), st.integers(0, 1000))
def test_random_unitary_is_unitary(n, p, real, seed):
    q = random_unitary(n, p, seed=seed, real=real)
    assert is_unitary(q, 1e-10)
    assert q.exactly_real or not real


@PROPERTY
@given(tensors())
def test_penrose_identities(at):
    a, _ = at
    x = pinv(a)
    ax, xa = tprod(a, x), tprod(x, a)
    assert fnorm(tprod(ax, a) - a) / max(fnorm(a), 1e-300) <= 1e-9
    assert fnorm(tprod(xa, x) - x) / max(fnorm(x), 1e-300) <= 1e-9
    assert fnorm(conj_transpose(ax) - ax) / max(fnorm(ax), 1e-300) <= 1e-9
    assert fnorm(conj_transpose(xa) - xa) / max(fnorm(xa), 1e-300) <= 1e-9


def _spin(x):
    # complex-valued on real singular values, with f(0) = 0
    x = np.asarray(x, dtype=np.complex128)
    return x * np.exp(1j * x)


SPIN = scalar_fn(_spin, 0.0, name="spin")


@PROPERTY
@given(tensors())
def test_complex_valued_gfun_matches_dense_route(at):
    a, real = at
    out = gfun(a, SPIN)
    want = dense_gmf(bcirc(a), SPIN)
    assert np.linalg.norm(bcirc(out) - want) <= 1e-10 * max(np.linalg.norm(want), 1.0)
    if real and tcsvd(a).r > 0:
        assert not out.exactly_real


@PROPERTY
@given(tensors(), st.lists(st.booleans(), min_size=4, max_size=4),
       st.lists(st.booleans(), min_size=4, max_size=4))
def test_zeroed_slices_survive_the_generalized_function(at, rows, cols):
    a, _ = at
    data = a.data.copy()
    data[:, rows[:a.m], :] = 0.0
    data[:, :, cols[:a.n]] = 0.0
    a = Tensor3(data)
    ok, worst = zero_slice_check(a, "sin")
    g = gfun(a, named_scalar_fn("sin"))
    scale = max(fnorm(g), fnorm(a), 1e-300)
    want = 0.0
    for j in range(a.n):
        if not a.data[:, :, j].any():
            want = max(want, float(np.linalg.norm(g.data[:, :, j])) / scale)
    for i in range(a.m):
        if not a.data[:, i, :].any():
            want = max(want, float(np.linalg.norm(g.data[:, i, :])) / scale)
    assert ok
    assert abs(worst - want) <= 1e-12 * want


@PROPERTY
@given(tensors(), st.sampled_from(["sin", "sinh", "poly"]))
def test_taylor_route_matches_spectral_route(at, name):
    a, real = at
    a = (1.5 / max(specnorm(a), 1e-300)) * a
    # the polynomial goes through its derivatives around z0 = 0.5
    f, z0 = ((polynomial([0.0, 1.0, 0.0, 2.0]), 0.5) if name == "poly"
             else (named_scalar_fn(name), 0.0))
    out = gfun_taylor(a, f, z0=z0)
    want = gfun(a, f)
    assert fnorm(out - want) <= 1e-9 * max(fnorm(want), 1.0)
    assert out.exactly_real or not real


@PROPERTY
@given(st.sampled_from(P_VALUES), st.lists(st.integers(1, 4), min_size=4, max_size=4),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_tprod_is_associative(p, dims, real, seed):
    rng = np.random.default_rng(seed)
    a, b, c = (Tensor3(rng.standard_normal((p, m, n))
                       + (0.0 if real else 1j * rng.standard_normal((p, m, n))))
               for m, n in zip(dims, dims[1:]))
    left = tprod(tprod(a, b), c)
    right = tprod(a, tprod(b, c))
    assert fnorm(left - right) <= 1e-12 * max(fnorm(a) * fnorm(b) * fnorm(c), 1.0)


@PROPERTY
@given(tensors(square=True), st.sampled_from(["exp", "sin", "square"]))
def test_standard_tfn_matches_dense_bcirc_route(at, name):
    a, _ = at
    a = (1.5 / max(specnorm(a), 1e-300)) * a
    assert bcirc_commutation_check(a, name, standard=True) <= 1e-10


@PROPERTY
@given(tensors(real=False, square=True), st.sampled_from(["sin", "sinh", "cube"]))
def test_gfun_commutes_with_complex_to_real_doubling(at, name):
    a, _ = at
    f = named_scalar_fn(name)
    lhs = phi(gfun(a, f))
    rhs = gfun(phi(a), f)
    assert fnorm(lhs - rhs) <= 1e-12 * max(fnorm(lhs), 1.0)


CATALOGUE = sorted(set(FORM_CLASSES) | set(ENTRYWISE_CLASSES))


def _preserving_fn(name):
    # groups need f(x) f(1/x) = 1 and doubly F-stochastic f(1) = 1; nonnegative
    # needs nonnegative odd coefficients; every other class needs an odd f
    if name in TABLE2_CLASSES or name == "doubly_f_stochastic":
        return "cube"
    return "sinh" if name == "nonnegative" else "sin"


@PROPERTY
@given(st.sampled_from(CATALOGUE), st.sampled_from((2, 4)), st.sampled_from(P_VALUES),
       st.integers(0, 2**16))
def test_catalogue_class_is_preserved(name, n, p, seed):
    rep = preservation_check(name, _preserving_fn(name), trials=1, shape=(n, n, p), seed=seed)
    assert rep.ok, (name, n, p, rep.max_residual)


@PROPERTY
@given(tensors(), st.sampled_from(["square", "sin"]))
def test_default_contour_oracles_match_spectral_routes(at, name):
    # the node count is the oracles' own choice
    a, _ = at
    f = named_scalar_fn(name)
    want = gfun(a, f)
    assert fnorm(gfun_contour(a, f) - want) <= 1e-10 * max(fnorm(want), 1e-300)
    if (tcsvd(a).sigma > 0.0).all():
        want = pinv(a)
        assert fnorm(pinv_contour(a) - want) <= 1e-10 * max(fnorm(want), 1e-300)


@PROPERTY
@given(tensors(square=True), st.floats(0.5, 50.0))
def test_standard_exp_matches_scipy_expm_of_every_face(at, top):
    # the largest face 1-norm is scaled to top, so up to 4 squarings run.
    # scipy's expm of each DFT face is the reference: on the dense bcirc(A)
    # it strayed up to 1.1e-12 from 40-digit arithmetic on these examples,
    # per face at most 1.4e-14
    a, _ = at
    faces = np.fft.fft(a.data, axis=0)
    a = (top / max(np.abs(faces).sum(axis=1).max(), 1e-300)) * a
    got = standard_tfn(a, named_scalar_fn("exp"))
    want = np.fft.ifft(scipy.linalg.expm(np.fft.fft(a.data, axis=0)), axis=0)
    assert np.linalg.norm(got.data - want) <= 1e-12 * np.linalg.norm(want)
    # the route follows f.fn, not the name
    assert np.array_equal(standard_tfn(a, scalar_fn(np.exp, 1.0)).data, got.data)
