import numpy as np
import pytest
import scipy.linalg

from tprod import (
    Contour,
    Resolvent,
    Tensor3,
    bcirc,
    bcirc_inv,
    cluster_projector_contour,
    conj_transpose,
    contour_for,
    fnorm,
    fold,
    gfun,
    gfun_contour,
    identity,
    inverse,
    isometry,
    lstsq,
    named_scalar_fn,
    partial_isometries,
    pinv,
    pinv_contour,
    projectors,
    resolvent_eval,
    resolvent_identity_residual,
    scalar_fn,
    solve_axb,
    solve_axb_contour,
    specnorm,
    standard_fn_contour,
    standard_tfn,
    tcsvd,
    tprod,
    unfold,
)
from tprod.errors import (
    DimMismatch,
    EigenvalueOnContour,
    EmptyValues,
    FnDomainError,
    InvalidContour,
    NearSingularShift,
    NoConvergence,
    NonFinite,
    ZeroSingularValue,
    ZeroSingularValueRequiresFZero,
)

from tprod import algebra, solve, spectral
from tprod.solve import DEFAULT_NODES

from conftest import rand3, rand_face_ranks, rand_low_rank

SQ = named_scalar_fn("square")


def _penrose_residuals(a, x):
    ax = tprod(a, x)
    xa = tprod(x, a)
    scale_a = max(fnorm(a), 1e-300)
    scale_x = max(fnorm(x), 1e-300)
    return (
        fnorm(tprod(ax, a) - a) / scale_a,
        fnorm(tprod(xa, x) - x) / scale_x,
        fnorm(conj_transpose(ax) - ax) / max(fnorm(ax), 1e-300),
        fnorm(conj_transpose(xa) - xa) / max(fnorm(xa), 1e-300),
    )


def test_pinv_identity_and_zero():
    assert fnorm(pinv(identity(3, 4)) - identity(3, 4)) <= 1e-12
    z = pinv(Tensor3.zeros(2, 3, 4))
    assert z.shape == (3, 2, 4) and fnorm(z) == 0.0


def test_pinv_dense_oracle(rng):
    a = rand3(rng, 4, 2, 3)
    lhs = pinv(a)
    rhs = bcirc_inv(np.linalg.pinv(bcirc(a)), 2, 4, 3, rtol=1e-8)
    assert fnorm(lhs - rhs) <= 1e-10 * fnorm(rhs)


@pytest.mark.parametrize("shape,k,cplx", [
    ((3, 3, 1), None, False),
    ((4, 2, 3), None, True),
    ((2, 5, 4), None, False),
    ((5, 4, 2), 2, False),
    ((4, 4, 3), 1, True),
])
def test_penrose_conditions(rng, shape, k, cplx):
    m, n, p = shape
    a = rand3(rng, m, n, p, cplx) if k is None else rand_low_rank(rng, m, n, p, k, cplx)
    x = pinv(a)
    assert max(_penrose_residuals(a, x)) <= 1e-9


def test_pinv_unequal_face_ranks(rng):
    a = rand_face_ranks(rng, 4, 3, [1, 2, 3])
    assert max(_penrose_residuals(a, pinv(a))) <= 1e-9


def test_lstsq_square_invertible(rng):
    a = rand3(rng, 3, 3, 2) + 2 * identity(3, 2)
    b = rand3(rng, 3, 2, 2)
    x = lstsq(a, b)
    assert fnorm(x - tprod(inverse(a), b)) <= 1e-9 * max(fnorm(x), 1.0)


def test_lstsq_projector(rng):
    a = rand_low_rank(rng, 4, 3, 2, k=2)
    x = lstsq(a, a)
    _, qr = projectors(tcsvd(a))
    assert fnorm(x - qr) <= 1e-9 * max(fnorm(qr), 1.0)


def test_lstsq_dense_oracle(rng):
    a = rand3(rng, 5, 2, 3)
    b = rand3(rng, 5, 3, 3)
    x = lstsq(a, b)
    dense, *_ = np.linalg.lstsq(bcirc(a), unfold(b), rcond=None)
    want = fold(dense[: 2 * 3], 2, 3, 3)
    assert fnorm(x - want) <= 1e-9 * max(fnorm(want), 1.0)


def test_solve_consistent(rng):
    a = rand3(rng, 3, 4, 2)
    b = rand3(rng, 2, 5, 2)
    y = rand3(rng, 4, 2, 2)
    d = tprod(a, tprod(y, b))
    res = solve_axb(a, b, d)
    assert res.residual <= 1e-9
    assert fnorm(tprod(a, tprod(res.x, b)) - d) <= 1e-8 * fnorm(d)


def test_solve_identity_frames(rng):
    d = rand3(rng, 3, 3, 2)
    res = solve_axb(identity(3, 2), identity(3, 2), d)
    assert fnorm(res.x - d) <= 1e-11 * fnorm(d)
    assert res.residual <= 1e-11


def test_solve_inconsistent_reports_projector_defect(rng):
    a = rand_low_rank(rng, 4, 3, 2, k=2)
    b = rand_low_rank(rng, 3, 4, 2, k=2)
    d = rand3(rng, 4, 4, 2)
    res = solve_axb(a, b, d)
    ql_a, _ = projectors(tcsvd(a))
    _, qr_b = projectors(tcsvd(b))
    want = fnorm(tprod(ql_a, tprod(d, qr_b)) - d) / fnorm(d)
    assert abs(res.residual - want) <= 1e-9


def _system(rng, p, kind, consistent=True):
    """Rank-deficient A (4x3, rank 2) and B (2x5, rank 1) with D = A*Y*B or random.

    ``kind`` is real, complex, or mixed: real A and B with a complex D.
    """
    cplx = kind == "complex"
    a = rand_low_rank(rng, 4, 3, p, k=2, cplx=cplx)
    b = rand_low_rank(rng, 2, 5, p, k=1, cplx=cplx)
    d = tprod(a, tprod(rand3(rng, 3, 2, p, cplx), b)) if consistent else rand3(rng, 4, 5, p, cplx)
    if kind == "mixed":
        e = tprod(a, tprod(rand3(rng, 3, 2, p), b)) if consistent else rand3(rng, 4, 5, p)
        d = d + 1j * e
    return a, b, d


def _dense_pinv(a):
    # singular values of the rank-deficient operands sit near 1e-16; the others above 1e-3
    return np.linalg.pinv(bcirc(a), rcond=1e-10)


@pytest.mark.parametrize("p", [1, 2, 3, 8])
@pytest.mark.parametrize("kind", ["real", "complex", "mixed"])
def test_solve_axb_and_lstsq_match_the_dense_bcirc_pseudoinverse(rng, p, kind):
    a, b, d = _system(rng, p, kind, consistent=False)
    want = fold((_dense_pinv(a) @ bcirc(d) @ _dense_pinv(b))[:, : b.m], a.n, b.m, p)
    res = solve_axb(a, b, d)
    assert fnorm(res.x - want) <= 1e-9 * fnorm(want)
    want = fold(_dense_pinv(a) @ unfold(d), a.n, d.n, p)
    x = lstsq(a, d)
    assert fnorm(x - want) <= 1e-9 * fnorm(want)
    # all-real input stays on the half spectrum and comes back real
    dtype = np.float64 if kind == "real" else np.complex128
    assert res.x.data.dtype == dtype and x.data.dtype == dtype


@pytest.mark.parametrize("p", [1, 2, 3, 8])
@pytest.mark.parametrize("kind", ["real", "complex", "mixed"])
def test_solve_face_residual_equals_the_direct_residual(rng, p, kind):
    for consistent in (True, False):
        a, b, d = _system(rng, p, kind, consistent)
        res = solve_axb(a, b, d)
        direct = fnorm(tprod(a, tprod(res.x, b)) - d) / fnorm(d)
        assert abs(res.residual - direct) <= 1e-13
    res = solve_axb(a, b, Tensor3.zeros(d.m, d.n, p))
    assert res.residual == 0.0 and fnorm(res.x) == 0.0


def test_solve_face_residual_on_the_criterion_12_systems():
    rng = np.random.default_rng(12)
    systems = [(rand3(rng, 3, 4, 2), rand3(rng, 2, 5, 2), rand3(rng, 4, 2, 2)) for _ in range(5)]
    systems = [(a, b, tprod(a, tprod(y, b))) for a, b, y in systems]
    systems += [(rand_low_rank(rng, 4, 3, 2, k=2), rand_low_rank(rng, 3, 4, 2, k=1),
                 rand3(rng, 4, 4, 2)) for _ in range(5)]
    for a, b, d in systems:
        res = solve_axb(a, b, d)
        direct = fnorm(tprod(a, tprod(res.x, b)) - d) / fnorm(d)
        assert abs(res.residual - direct) <= 1e-13


@pytest.mark.parametrize("cplx", [False, True])
def test_solvers_run_on_the_faces(rng, monkeypatch, cplx):
    calls = {"svd": 0, "from_faces": 0}
    svd, from_faces = np.linalg.svd, spectral.from_faces

    def spy_svd(*args, **kwargs):
        calls["svd"] += 1
        return svd(*args, **kwargs)

    def spy_from(*args):
        calls["from_faces"] += 1
        return from_faces(*args)

    def no_tprod(*args, **kwargs):
        raise AssertionError("the solvers take no T-product")

    monkeypatch.setattr(np.linalg, "svd", spy_svd)
    for module in (solve, spectral):
        monkeypatch.setattr(module, "from_faces", spy_from)
    a, b, d = _system(rng, 5, "complex" if cplx else "real")
    for module in (solve, algebra):
        monkeypatch.setattr(module, "tprod", no_tprod)
    solve_axb(a, b, d)
    assert calls == {"svd": 2, "from_faces": 1}
    calls.update(svd=0, from_faces=0)
    lstsq(a, d)
    assert calls == {"svd": 1, "from_faces": 1}


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
@pytest.mark.parametrize("operand", [0, 1, 2])
def test_solvers_reject_non_finite_operands_before_lapack(rng, monkeypatch, bad, operand):
    ops = [t.data.astype(complex) for t in _system(rng, 4, "real")]
    ops[operand][1, 0, 1] = bad
    a, b, d = map(Tensor3, ops)

    def no_svd(*args, **kwargs):
        raise AssertionError("a non-finite operand reached LAPACK")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    with pytest.raises(NonFinite):
        solve_axb(a, b, d)
    if operand != 1:
        with pytest.raises(NonFinite):
            lstsq(a, d)


def test_resolvent_simple_shift():
    r = Resolvent.of(identity(3, 2))
    out = resolvent_eval(r, 2.0)
    assert fnorm(out - identity(3, 2)) <= 1e-11


def test_resolvent_identity(rng):
    a = rand3(rng, 4, 3, 3)
    r = Resolvent.of(a)
    pairs = rng.standard_normal((10, 4))
    for lr, li, mr, mi in pairs:
        lam = 4 * lr + 4j * li
        mu = 4 * mr + 4j * mi
        try:
            assert resolvent_identity_residual(r, lam, mu) <= 1e-9
        except NearSingularShift:
            continue


def test_resolvent_near_singular_guard(rng):
    a = rand3(rng, 3, 3, 2)
    r = Resolvent.of(a)
    sigma = r.csvd.sigma
    with pytest.raises(NearSingularShift):
        resolvent_eval(r, float(sigma.max()))


def test_resolvent_asymptotics(rng):
    a = rand3(rng, 3, 2, 3)
    r = Resolvent.of(a)
    z = 1e6 * specnorm(a)
    scaled = complex(z) * resolvent_eval(r, z)
    e = isometry(tcsvd(a))
    assert fnorm(scaled - pinv(e)) <= 1e-4


def test_contour_for_rules():
    c1 = contour_for([1.0])
    assert c1.circles == ((1 + 0j, 0.5),)
    c2 = contour_for([1.0, 2.0])
    assert np.allclose([rad for _, rad in c2.circles], [0.45, 0.45])
    c3 = contour_for([10.0, 2 * np.sqrt(2), 2 * np.sqrt(2), 2.0])
    assert len(c3.circles) == 3
    with pytest.raises(EmptyValues):
        contour_for([])


def _contour_for_loop(values, rtol=1e-8):
    # the per-value reference: cluster sorted values, then each circle's gap
    # is the smallest distance to any other centre
    vals = sorted(v for v in np.asarray(values, dtype=float).ravel() if v > 0)
    groups = [[vals[0]]]
    for v in vals[1:]:
        if v - groups[-1][-1] <= rtol * vals[-1]:
            groups[-1].append(v)
        else:
            groups.append([v])
    centers = [float(np.mean(g)) for g in groups]
    return tuple(
        (complex(c), float(min(0.45 * min((abs(c - o) for j, o in enumerate(centers) if j != i),
                                          default=np.inf), 0.5 * c)))
        for i, c in enumerate(centers))


@pytest.mark.parametrize("seed", range(6))
def test_contour_for_matches_per_value_loop(seed):
    rng = np.random.default_rng(seed)
    vals = rng.random(rng.integers(1, 30)) * 10.0 ** rng.uniform(-3, 3)
    vals = np.concatenate([vals, vals[:3] * (1 + 1e-12), [0.0, -1.0]])
    assert contour_for(vals).circles == _contour_for_loop(vals)


def test_contour_clustering():
    c = contour_for([1.0, 1.0 + 1e-12, 3.0])
    assert len(c.circles) == 2


def test_contour_disjointness_validated():
    with pytest.raises(ValueError):
        Contour(circles=((0j, 1.0), (1 + 0j, 1.0)), nodes_per_circle=64)
    with pytest.raises(ValueError):
        Contour(circles=((0j, 1.0),), nodes_per_circle=4)


def test_contour_errors_are_invalid_contour():
    with pytest.raises(InvalidContour):
        Contour(circles=((1 + 0j, 0.0),), nodes_per_circle=64)
    with pytest.raises(InvalidContour):
        contour_for([1.0], nodes=8)


def test_cluster_projector_contour_rank_zero_is_empty():
    with pytest.raises(EmptyValues):
        cluster_projector_contour(Tensor3.zeros(2, 2, 3), 1.0)


def test_gfun_contour_explicit_contour_must_enclose():
    a = Tensor3(np.ones((1, 1, 1)))
    sinh = named_scalar_fn("sinh")
    with pytest.raises(InvalidContour):
        gfun_contour(a, sinh, contour=Contour(((5 + 0j, 1.0),), 64))
    out = gfun_contour(a, sinh, contour=Contour(((1 + 0j, 0.5),), 64))
    assert abs(out.data[0, 0, 0] - np.sinh(1.0)) <= 1e-12


def test_standard_fn_contour_explicit_contour_must_enclose():
    a = Tensor3(np.ones((1, 1, 1)))
    exp = named_scalar_fn("exp")
    with pytest.raises(InvalidContour):
        standard_fn_contour(a, exp, contour=Contour(((5 + 0j, 1.0),), 64))
    # an eigenvalue on the circle is reported as such, before the enclosure test
    with pytest.raises(EigenvalueOnContour):
        standard_fn_contour(a, exp, contour=Contour(((2 + 0j, 1.0),), 64))
    out = standard_fn_contour(a, exp, contour=Contour(((1 + 0j, 0.5),), 64))
    assert abs(out.data[0, 0, 0] - np.e) <= 1e-12


def _per_node_sum(res, contour, coef):
    """The quadrature as one resolvent Tensor3 per node, summed node by node."""
    acc = Tensor3.zeros(res.csvd.n, res.csvd.m, res.csvd.p)
    k = contour.nodes_per_circle
    for center, rad in contour.circles:
        for z in center + rad * np.exp(2j * np.pi * np.arange(k) / k):
            acc = acc + complex(coef(z) * (z - center) / k) * resolvent_eval(res, z)
    return acc


@pytest.mark.parametrize("shape", [(3, 3, 4), (3, 2, 5), (2, 4, 6), (3, 3, 3)])
@pytest.mark.parametrize("cplx", [False, True])
def test_contour_oracles_match_per_node_sum(rng, shape, cplx):
    a = rand3(rng, *shape, cplx=cplx)
    res = Resolvent.of(a)
    sigma = res.csvd.sigma
    e = res.E
    nodes = 64

    full = contour_for(sigma[sigma > 0.0], nodes)
    acc = _per_node_sum(res, full, lambda z: SQ(np.array([z]))[0])
    want = tprod(e, tprod(acc, e))
    got = gfun_contour(a, SQ, nodes=nodes)
    assert fnorm(got - want) <= 1e-12 * fnorm(want)

    want = _per_node_sum(res, contour_for(sigma, nodes), lambda z: 1.0 / z)
    got = pinv_contour(a, nodes=nodes)
    assert fnorm(got - want) <= 1e-12 * fnorm(want)

    top = max(full.circles, key=lambda cr: cr[0].real)
    acc = _per_node_sum(res, Contour(circles=(top,), nodes_per_circle=nodes), lambda z: 1.0)
    want = tprod(e, tprod(acc, e))
    got = cluster_projector_contour(a, float(sigma.max()), nodes=nodes)
    assert fnorm(got - want) <= 1e-12 * fnorm(want)


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_gfun_contour_guards_every_node(rng, side):
    # a circle through the largest singular value: node 0 lands on it when the
    # center is below it, node nodes/2 when above; a harmless circle comes first
    a = rand3(rng, 3, 3, 4)
    sigma = tcsvd(a).sigma
    smax = float(sigma.max())
    rad = 0.25 * smax
    circles = ((complex(-2.0 * smax), rad), (complex(smax + side * rad), rad))
    contour = Contour(circles=circles, nodes_per_circle=64)
    with pytest.raises(NearSingularShift):
        gfun_contour(a, SQ, contour=contour)


def test_gfun_contour_identity_fn(rng):
    a = rand3(rng, 2, 2, 3)
    out = gfun_contour(a, named_scalar_fn("id"), nodes=256)
    assert fnorm(out - a) <= 1e-6 * fnorm(a)


def test_gfun_contour_square_on_tube(tube4):
    r2 = 2 * np.sqrt(2)
    out = gfun_contour(tube4, SQ, nodes=256)
    assert np.allclose(
        out.data.ravel().real, [24 - r2, 26 + r2, 24 + r2, 26 - r2], atol=1e-6
    )


def test_gfun_contour_requires_f0(rng):
    a = rand_face_ranks(rng, 3, 3, [1, 2])
    with pytest.raises(ZeroSingularValueRequiresFZero):
        gfun_contour(a, named_scalar_fn("exp"), nodes=64)


def test_cluster_projector_matches_components(rng):
    a = rand3(rng, 3, 2, 3)
    c = tcsvd(a)
    ps = partial_isometries(c)
    target = float(c.sigma.max())
    proj = cluster_projector_contour(a, target, nodes=256)
    acc = Tensor3.zeros(3, 2, 3)
    for i in range(a.p):
        for j in range(c.r):
            if abs(ps.values[i, j] - target) <= 1e-8 * target:
                acc = acc + ps.components[i][j]
    assert fnorm(proj - acc) <= 1e-6 * max(fnorm(acc), 1.0)


def test_pinv_contour(rng, tube4):
    assert fnorm(pinv_contour(identity(2, 3), nodes=128) - identity(2, 3)) <= 1e-8
    a = rand3(rng, 3, 3, 2)
    assert fnorm(pinv_contour(a, nodes=256) - pinv(a)) <= 1e-6 * fnorm(pinv(a))
    assert fnorm(pinv_contour(tube4, nodes=256) - pinv(tube4)) <= 1e-6 * fnorm(pinv(tube4))


def test_pinv_contour_rejects_rank_deficient(rng):
    a = rand_face_ranks(rng, 3, 3, [1, 2])
    with pytest.raises(ZeroSingularValue):
        pinv_contour(a, nodes=64)


def test_quadrature_convergence_with_near_pole(rng):
    # place a pole of f just outside the largest circle so the trapezoid
    # error is visible (not saturated at roundoff) and halves per doubling
    a = rand3(rng, 3, 2, 3)
    c = tcsvd(a)
    contour = contour_for(c.sigma[c.sigma > 0])
    cmax, rmax = max(contour.circles, key=lambda cr: cr[0].real)
    w0 = cmax.real + 1.12 * rmax
    f = scalar_fn(lambda x: 1.0 / (np.asarray(x) - w0), 1.0 / (-w0), "near_pole")
    ref = gfun(a, f)
    errs = []
    for nodes in (64, 128, 256):
        out = gfun_contour(a, f, nodes=nodes)
        errs.append(fnorm(out - ref) / fnorm(ref))
    assert errs[1] <= 1.1 * errs[0]
    assert errs[2] <= 1.1 * errs[1]
    assert errs[2] <= 1e-6


def test_solve_axb_contour(rng):
    a = rand3(rng, 3, 3, 2)
    b = rand3(rng, 3, 3, 2)
    y = rand3(rng, 3, 3, 2)
    d = tprod(a, tprod(y, b))
    x = solve_axb_contour(a, b, d, nodes=256)
    assert fnorm(tprod(a, tprod(x, b)) - d) <= 1e-5 * fnorm(d)
    algebraic = solve_axb(a, b, d).x
    assert fnorm(x - algebraic) <= 1e-5 * max(fnorm(algebraic), 1.0)


def test_standard_fn_contour(rng):
    b = rand3(rng, 3, 3, 3)
    a = 0.5 * (b + conj_transpose(b))
    exp = named_scalar_fn("exp")
    ref = standard_tfn(a, exp)
    out = standard_fn_contour(a, exp, nodes=256)
    assert fnorm(out - ref) <= 1e-6 * fnorm(ref)
    ident = standard_fn_contour(a, named_scalar_fn("id"), nodes=256)
    assert fnorm(ident - a) <= 1e-6 * fnorm(a)


def test_standard_fn_contour_action(rng):
    a = rand3(rng, 3, 3, 2)
    vec = rand3(rng, 3, 1, 2)
    exp = named_scalar_fn("exp")
    lhs = standard_fn_contour(a, exp, nodes=256, b=vec)
    rhs = tprod(standard_tfn(a, exp), vec)
    assert fnorm(lhs - rhs) <= 1e-6 * max(fnorm(rhs), 1.0)


def _scaled(rng, n, p, cplx):
    """Gaussian n x n x p tensor scaled so a typical face singular value is about 1."""
    a = rand3(rng, n, n, p, cplx)
    return (np.sqrt(n) / fnorm(a)) * a


def _default_circle(a, nodes):
    """The circle standard_fn_contour picks by default, built independently."""
    eigs = np.linalg.eigvals(np.fft.fft(a.data, axis=0)).ravel()
    center = complex(eigs.mean())
    spread = float(np.abs(eigs - center).max())
    return Contour(((center, 1.3 * spread + 0.1 * max(spread, 1.0)),), nodes)


def _per_node_standard(a, f, contour, b=None):
    """The trapezoid rule as one shifted solve per node on the full face stack."""
    faces = np.fft.fft(a.data, axis=0)
    eye = np.eye(a.n)
    rhs = eye if b is None else np.fft.fft(b.data, axis=0)
    (center, rad), = contour.circles
    k = contour.nodes_per_circle
    out = 0.0
    for z in center + rad * np.exp(2j * np.pi * np.arange(k) / k):
        w = (z - center) / k
        out = out + complex(f(np.array([z]))[0] * w) * np.linalg.solve(z * eye - faces, rhs)
    return Tensor3(np.fft.ifft(out, axis=0))


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("n", [1, 3, 8])
@pytest.mark.parametrize("cplx", [False, True])
def test_standard_fn_contour_matches_per_node_solves(rng, p, n, cplx):
    a = _scaled(rng, n, p, cplx)
    b = rand3(rng, n, 2, p, cplx)
    exp = named_scalar_fn("exp")
    for nodes in (16, 100, 256):
        contour = _default_circle(a, nodes)
        want = _per_node_standard(a, exp, contour)
        got = standard_fn_contour(a, exp, nodes=nodes)
        assert fnorm(got - want) <= 1e-12 * fnorm(want)
        want = _per_node_standard(a, exp, contour, b=b)
        got = standard_fn_contour(a, exp, nodes=nodes, b=b)
        assert fnorm(got - want) <= 1e-12 * fnorm(want)


@pytest.mark.parametrize("cplx", [False, True])
def test_standard_fn_contour_wide_spread_no_less_accurate(rng, cplx):
    # unscaled faces: exp on the circle dwarfs exp(A), and both routes lose
    # digits to the same cancelling sum, so their errors agree to a few per cent
    a = rand3(rng, 8, 8, 64, cplx)
    exp = named_scalar_fn("exp")
    ref = standard_tfn(a, exp)
    loop = fnorm(_per_node_standard(a, exp, _default_circle(a, 256)) - ref)
    assert fnorm(standard_fn_contour(a, exp, nodes=256) - ref) <= 1.1 * loop


def test_standard_fn_contour_non_normal_face():
    # a Jordan chain with superdiagonal 100: B^3 reaches 1e9 before B^4 = 0
    jordan = 0.5 * np.eye(4) + np.diag([100.0] * 3, 1)
    out = standard_fn_contour(Tensor3(jordan[None]), named_scalar_fn("exp"))
    want = scipy.linalg.expm(jordan)
    assert np.linalg.norm(out.data[0] - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name, power", [("square", 2), ("cube", 3)])
def test_standard_fn_contour_polynomial_of_non_normal_face_is_exact(seed, name, power):
    # off-diagonals 1e4: ||B^s|| is far above 1, so the B^N bound overflows to
    # inf and keeps the solve; the sum stops at the polynomial's own degree
    rng = np.random.default_rng(seed)
    d = 1e4 * np.triu(rng.standard_normal((6, 6)), 1) + np.diag(rng.standard_normal(6))
    want = np.linalg.matrix_power(d, power)
    out = standard_fn_contour(Tensor3(d[None]), named_scalar_fn(name))
    assert np.linalg.norm(out.data[0] - want) <= 1e-15 * np.linalg.norm(want)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("top", [1e7, 1e8, 1e12, 1e15])
def test_standard_fn_contour_default_circle_clears_its_guard(top):
    # a cluster of spread 1e-3 at top: the radius floor keeps it off the circle
    d = top * np.eye(2) + np.diag([0.0, 1e-3])
    out = standard_fn_contour(Tensor3(d[None]), named_scalar_fn("square"))
    assert np.linalg.norm(out.data[0] - d @ d) <= 1e-15 * np.linalg.norm(d @ d)


@pytest.mark.parametrize("name", ["square", "cube", "sin", "sinh"])
@pytest.mark.parametrize("cplx", [False, True])
def test_standard_fn_contour_of_the_zero_tensor_is_zero(name, cplx):
    # f(0) = 0: c_0 is only the FFT's rounding, which the sum drops
    a = Tensor3(np.zeros((4, 3, 3), dtype=np.complex128 if cplx else np.float64))
    out = standard_fn_contour(a, named_scalar_fn(name))
    assert not out.data.any()


@pytest.mark.parametrize("shape", [(1, 1, 1), (3, 2, 2)])
def test_standard_fn_contour_refuses_a_non_finite_node_sample(shape):
    # exp overflows on the default circle's right half (radius 0.1 about 709.7): no
    # coefficient is finite, and the sum must not read as the zero tensor
    a = Tensor3(np.broadcast_to(709.7 * np.eye(shape[1]), shape).copy())
    with pytest.raises(FnDomainError, match="exp not finite on the contour"):
        standard_fn_contour(a, named_scalar_fn("exp"))


def test_contour_for_skips_the_disjointness_recheck(monkeypatch):
    values = np.abs(np.random.default_rng(0).standard_normal(40)) + 0.1
    want = contour_for(values, 64)

    def boom(self):
        raise AssertionError("contour_for re-checked circles it sized")

    monkeypatch.setattr(Contour, "__post_init__", boom)
    got = contour_for(values, 64)
    assert got == want
    assert np.array_equal(got.centers, want.centers) and np.array_equal(got.radii, want.radii)
    with pytest.raises(InvalidContour):
        contour_for(values, 8)


def test_standard_fn_contour_takes_one_circle():
    a = Tensor3(np.ones((1, 1, 1)))
    exp = named_scalar_fn("exp")
    with pytest.raises(InvalidContour):
        standard_fn_contour(a, exp, contour=Contour(((1 + 0j, 0.5), (5 + 0j, 1.0)), 64))
    # a value on either circle is still reported as such first
    with pytest.raises(EigenvalueOnContour):
        standard_fn_contour(a, exp, contour=Contour(((-5 + 0j, 1.0), (2 + 0j, 1.0)), 64))


def test_standard_fn_contour_action_shape_checked(rng):
    a = rand3(rng, 3, 3, 2)
    exp = named_scalar_fn("exp")
    for b in (rand3(rng, 2, 1, 2), rand3(rng, 3, 1, 3)):
        with pytest.raises(DimMismatch):
            standard_fn_contour(a, exp, b=b)


def _chosen_nodes(monkeypatch):
    """Spy on the quadrature passes: the returned callable gives the node count
    the passes since its last call reached (the first pass's count, doubled by
    each pass after it) and starts a new record."""
    passes = []
    real = solve._node_sum

    def spy(c, contour, coef, k, shift=0.0):
        passes.append(k)
        return real(c, contour, coef, k, shift)

    def reached():
        k = passes[0] * 2 ** (len(passes) - 1)
        passes.clear()
        return k

    monkeypatch.setattr(solve, "_node_sum", spy)
    return reached


def _oracles(a):
    """The three resolvent oracles on a, as callables of the node count (None: default)."""
    top = float(tcsvd(a).sigma.max())
    return {
        "square": lambda nodes=None: gfun_contour(a, SQ, nodes=nodes),
        "pinv": lambda nodes=None: pinv_contour(a, nodes=nodes),
        "projector": lambda nodes=None: cluster_projector_contour(a, top, nodes=nodes),
    }


@pytest.mark.parametrize("shape", [(3, 3, 4), (4, 4, 8)])
@pytest.mark.parametrize("cplx", [False, True])
def test_default_nodes_settle_at_64_on_scaled_input(rng, monkeypatch, shape, cplx):
    m, n, p = shape
    a = rand3(rng, m, n, p, cplx)
    a = (np.sqrt(min(m, n)) / fnorm(a)) * a
    chosen = _chosen_nodes(monkeypatch)
    for name, oracle in _oracles(a).items():
        out = oracle()
        assert chosen() == 64, name
        want = oracle(64)
        assert chosen() == 64, name
        assert fnorm(out - want) <= 1e-13 * fnorm(want), name


def _diag(top):
    return Tensor3(np.diag([top, 1.0])[None])


def test_default_nodes_double_to_128_on_a_wider_spread(monkeypatch):
    a = _diag(30.0)
    exp = named_scalar_fn("exp")
    chosen = _chosen_nodes(monkeypatch)
    out = gfun_contour(a, exp)
    assert chosen() == 128
    want = gfun_contour(a, exp, nodes=128)
    # both sum the same nodes in another order, and exp on the circle around 30
    # (radius 13.05) reaches e^43.05, 4.6e5 times |exp(A)|: agreement to 1e-13
    # holds relative to that largest term, not to the cancelled result
    assert fnorm(out - want) <= 1e-13 * np.exp(30.0 + 0.45 * 29.0)
    assert fnorm(out - gfun(a, exp)) <= 1e-9 * fnorm(want)


@pytest.mark.parametrize("top", [60.0, 200.0])
def test_default_nodes_refuse_what_256_cannot_resolve(monkeypatch, top):
    # exp on the circle around top reaches e^(1.45 top): 256 nodes leave 3.5e-5 at 60
    a = _diag(top)
    exp = named_scalar_fn("exp")
    chosen = _chosen_nodes(monkeypatch)
    with pytest.raises(NoConvergence, match="256 nodes"):
        gfun_contour(a, exp)
    assert chosen() == DEFAULT_NODES
    # an explicit node count is honoured, however poor the result
    out = gfun_contour(a, exp, nodes=256)
    assert fnorm(out - gfun(a, exp)) > 1e-6 * fnorm(gfun(a, exp))


def test_default_nodes_accept_at_256_below_the_refusal_bound(monkeypatch):
    # exp on the circle around 50 reaches e^72.05: at 256 nodes the change from
    # 128 is too large for the squared estimate to accept but below the refusal
    passes = []
    real = solve._node_sum

    def spy(c, contour, coef, k, shift=0.0):
        passes.append((k, real(c, contour, coef, k, shift)))
        return passes[-1][1]

    monkeypatch.setattr(solve, "_node_sum", spy)
    a = _diag(50.0)
    exp = named_scalar_fn("exp")
    out = gfun_contour(a, exp)
    assert [k for k, _ in passes] == [64, 64, 128]  # 64 nodes, then 128, then 256
    (_, first), (_, turn64), (_, turn128) = passes
    s128 = 0.5 * (first.sum(axis=0) + turn64.sum(axis=0))
    s256 = 0.5 * (s128 + turn128.sum(axis=0))
    estimate = np.linalg.norm(s256 - s128) / np.linalg.norm(s256)
    assert 1e-7 < estimate <= 1e-6
    assert fnorm(out - gfun(a, exp)) <= 1e-6 * fnorm(gfun(a, exp))


def test_explicit_nodes_skip_the_estimate(rng, monkeypatch):
    a = rand3(rng, 3, 3, 4)
    chosen = _chosen_nodes(monkeypatch)
    gfun_contour(a, SQ, nodes=100)
    assert chosen() == 100


@pytest.mark.parametrize("chunk", [1, 7, 100])
def test_chunked_passes_match_one_pass_and_guard_every_chunk(rng, monkeypatch, chunk):
    # every circle has at least 64 nodes, so these chunks hold one value each
    a = rand3(rng, 3, 3, 4, cplx=True)
    want = {name: oracle() for name, oracle in _oracles(a).items()}
    monkeypatch.setattr(solve, "_CHUNK", chunk)
    for name, oracle in _oracles(a).items():
        assert fnorm(oracle() - want[name]) <= 1e-13 * fnorm(want[name]), name
    # a pair that overlaps only past the first row block
    with pytest.raises(InvalidContour):
        Contour(circles=((0j, 1.0), (5 + 0j, 1.0), (6 + 0j, 1.0)), nodes_per_circle=64)
    # the value sits on node nodes/2 of the second circle, past the first chunk
    smax = float(tcsvd(a).sigma.max())
    rad = 0.25 * smax
    circles = ((complex(-2.0 * smax), rad), (complex(smax + rad), rad))
    with pytest.raises(NearSingularShift):
        gfun_contour(a, SQ, contour=Contour(circles=circles, nodes_per_circle=64))


@pytest.mark.parametrize("seed", range(4))
def test_contour_oracles_keep_their_digits_on_scaled_8x8x64(seed):
    # each value meets only its own circle's nodes, so no other circle's roundoff
    # reaches it; a sum over every circle reads up to 6.4e-14 here
    a = Tensor3(np.random.default_rng(seed).standard_normal((64, 8, 8)))
    a = (np.sqrt(8.0) / fnorm(a)) * a
    for name in ("square", "exp", "sinh"):
        f = named_scalar_fn(name)
        want = gfun(a, f)
        assert fnorm(gfun_contour(a, f) - want) <= 5e-15 * fnorm(want), name
    # the oracle approximates the SVD route's pseudoinverse, whose frames it shares; pinv
    # takes the face inverses of these invertible faces, a few eps away from it
    c = tcsvd(a)
    want = c.rebuild(1.0 / c.sigma, adjoint=True)
    assert fnorm(pinv_contour(a) - want) <= 2e-15 * fnorm(want)
    assert fnorm(pinv(a) - want) <= 1e-13 * fnorm(want)


def _brute_guard(c, z):
    """The guard's message by a full search over every value, or None."""
    dist = np.abs(z[:, None] - c.sigma.ravel()).min(axis=1, initial=np.inf)
    near = dist < solve._SHIFT_RTOL * max(float(c.sigma.max(initial=0.0)), 1.0)
    if not near.any():
        return None
    k = int(near.argmax())
    return f"shift {z[k]} is within {dist[k]:.3e} of a singular value"


def _assert_guard_as_brute(c, z, contour=None, shift=0.0):
    """The sorted-search guard raises exactly when the full search does, with
    its message; with a contour, on the pass over its nodes turned by shift."""
    want = _brute_guard(c, z)

    def call():
        if contour is None:
            solve._guard(c, z)
        else:
            solve._node_sum(c, contour, SQ, contour.nodes_per_circle, shift)

    if want is None:
        call()
        return False
    with pytest.raises(NearSingularShift) as err:
        call()
    assert str(err.value) == want
    return True


def _through(value, rad, angle):
    """A circle of radius rad whose node at that angle lands on value."""
    return value - rad * np.exp(1j * angle), rad


@pytest.mark.parametrize("seed", range(3))
def test_sorted_guard_matches_the_full_search(seed):
    rng = np.random.default_rng(seed)
    inputs = [
        rand_face_ranks(rng, 3, 3, [1, 2, 0, 3]),  # zeros inside the window
        rand3(rng, 3, 2, 6),  # real: faces k and 6 - k repeat their values
        Tensor3(np.diag([2.0, 2.0, 1.0, 0.0])[None].repeat(3, axis=0)),  # repeats and a zero
        rand3(rng, 4, 4, 5, cplx=True),
    ]
    raised = 0
    for a in inputs:
        c = tcsvd(a)
        sigma = c.sigma.ravel()
        # shifts on, beside and between the values, and random ones
        tol = solve._SHIFT_RTOL * max(sigma.max(), 1.0)
        eps = tol * np.array([0.0, 0.5, 0.999, 1.001, 3.0])
        on = sigma[:, None] + eps * np.exp(2j * np.pi * rng.random(eps.size))
        mid = 0.5 * (np.sort(sigma)[1:] + np.sort(sigma)[:-1]) + 1e-3j
        z = np.concatenate([on.ravel(), mid, rng.standard_normal(20) + 1j * rng.standard_normal(20)])
        for part in (z, rng.permutation(z), z[~(np.abs(z[:, None] - sigma) < tol).any(axis=1)]):
            raised += _assert_guard_as_brute(c, part)
        # real shifts, as resolvent_eval passes them
        raised += _assert_guard_as_brute(c, np.concatenate([sigma, sigma + tol]).real)
        top, low = float(sigma.max()), float(sigma[sigma > 0].min())
        rad = 0.1 * low
        contours = [
            contour_for(sigma, 64),
            # complex centres, a harmless circle first, then a node on a value
            Contour((_through(-top + 1j, rad, 0.3), _through(top, rad, 2 * np.pi * 17 / 64)), 64),
            Contour((_through(low, rad, 2 * np.pi * 31.5 / 64),), 64),  # on the half-step node
            Contour((_through(0.0, 0.25, 2 * np.pi * 5 / 64),), 64),  # on a zero value
        ]
        for contour in contours:
            z = solve._nodes(contour, 64)[0].ravel()
            raised += _assert_guard_as_brute(c, z, contour)
            z = solve._nodes(contour, 64, shift=0.5)[0].ravel()
            raised += _assert_guard_as_brute(c, z, contour, shift=0.5)
    # every kind of case above raised somewhere, and some passed
    assert raised >= 4 * len(inputs)


@pytest.mark.parametrize("p", [1, 2, 5, 8])
def test_standard_fn_contour_on_real_input_matches_dense_expm(rng, p):
    a = _scaled(rng, 3, p, False)
    assert a.exactly_real
    out = standard_fn_contour(a, named_scalar_fn("exp"))
    want = scipy.linalg.expm(bcirc(a))
    assert np.linalg.norm(bcirc(out) - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("p", [5, 8])
def test_standard_fn_contour_sees_the_conjugate_faces(p):
    # face 1 carries 1 + 5j, so only face p - 1 (> p//2) carries 1 - 5j
    half = np.zeros((p // 2 + 1, 3, 3), dtype=np.complex128)
    half[:] = np.diag([0.5, 0.2, 0.1])
    half[1] = np.diag([1 + 5j, 0.5, 0.2])
    a = Tensor3(np.fft.irfft(half, n=p, axis=0))
    assert a.exactly_real
    exp = named_scalar_fn("exp")
    # a circle through 1 - 5j
    with pytest.raises(EigenvalueOnContour):
        standard_fn_contour(a, exp, contour=Contour(((2j, abs(1 - 7j)),), 64))
    # a circle around everything but 1 - 5j
    with pytest.raises(InvalidContour, match="unenclosed"):
        standard_fn_contour(a, exp, contour=Contour(((2j, 4.0),), 64))


@pytest.mark.parametrize("p", [1, 4, 5])
def test_contour_oracles_keep_real_input_real(rng, p):
    # real centres and a real-analytic f pair the nodes as conjugates
    a, b, y = (_scaled(rng, 3, p, False) for _ in range(3))
    d = tprod(a, tprod(y, b))
    vec = rand3(rng, 3, 1, p)
    sq, exp = named_scalar_fn("square"), named_scalar_fn("exp")
    pairs = [
        (gfun_contour(a, sq), gfun(a, sq)),
        (gfun_contour(a, sq, nodes=128), gfun(a, sq)),
        (pinv_contour(a), pinv(a)),
        (solve_axb_contour(a, b, d), solve_axb(a, b, d).x),
        (standard_fn_contour(a, exp), standard_tfn(a, exp)),
        (standard_fn_contour(a, exp, b=vec), tprod(standard_tfn(a, exp), vec)),
    ]
    for out, want in pairs:
        assert out.exactly_real
        assert fnorm(out - want) <= 1e-12 * max(fnorm(want), 1.0)
    top = float(tcsvd(a).sigma.max())
    assert cluster_projector_contour(a, top).exactly_real


def test_contour_oracles_stay_complex_off_the_real_axis(rng):
    a = _scaled(rng, 3, 4, False)
    exp = named_scalar_fn("exp")
    # an explicit complex centre breaks the conjugate pairing of the nodes
    out = standard_fn_contour(a, exp, contour=Contour(((0.1j, 5.0),), 128))
    assert out.data.dtype == np.complex128
    assert fnorm(out - standard_tfn(a, exp)) <= 1e-12 * fnorm(standard_tfn(a, exp))
    # so does an f that is not real on the real axis
    rot = scalar_fn(lambda z: 1j * np.asarray(z), 0.0, "rot")
    out = gfun_contour(a, rot)
    assert out.data.dtype == np.complex128
    assert fnorm(out - gfun(a, rot)) <= 1e-12 * fnorm(gfun(a, rot))
    # and complex input
    c = _scaled(rng, 3, 4, True)
    assert standard_fn_contour(c, exp).data.dtype == np.complex128


@pytest.mark.parametrize("p", [1, 4, 5])
def test_standard_fn_contour_runs_on_the_half_spectrum_of_real_input(rng, monkeypatch, p):
    seen = {}
    to_faces, from_faces, eigvals = solve.to_faces, solve.from_faces, np.linalg.eigvals

    def spy_to(*tensors, allow_half):
        half, stacks = to_faces(*tensors, allow_half=allow_half)
        seen["transform"] = (half, [len(s) for s in stacks])
        return half, stacks

    def spy_eigvals(x):
        seen["eigvals"] = len(x)
        return eigvals(x)

    def spy_from(faces, p, half):
        seen["kernel"] = len(faces)
        return from_faces(faces, p, half)

    monkeypatch.setattr(solve, "to_faces", spy_to)
    monkeypatch.setattr(np.linalg, "eigvals", spy_eigvals)
    monkeypatch.setattr(solve, "from_faces", spy_from)
    a, c = _scaled(rng, 3, p, False), _scaled(rng, 3, p, True)
    vec = rand3(rng, 3, 1, p)
    exp = named_scalar_fn("exp")
    rot = scalar_fn(lambda z: 1j * np.asarray(z), 0.0, "rot")
    h = p // 2 + 1
    cases = [
        (lambda: standard_fn_contour(a, exp), True, [h]),
        (lambda: standard_fn_contour(a, exp, b=vec), True, [h, h]),
        (lambda: standard_fn_contour(a, exp, contour=Contour(((0j, 5.0),), 64)), True, [h]),
        (lambda: standard_fn_contour(a, exp, contour=Contour(((0.1j, 5.0),), 64)), False, [p]),
        (lambda: standard_fn_contour(a, rot), False, [p]),
        (lambda: standard_fn_contour(c, exp), False, [p]),
        (lambda: standard_fn_contour(a, exp, b=rand3(rng, 3, 1, p, cplx=True)), False, [p, p]),
    ]
    for run, half, lengths in cases:
        seen.clear()
        run()
        assert seen == {"transform": (half, lengths), "eigvals": lengths[0],
                        "kernel": lengths[0]}
