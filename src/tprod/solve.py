"""Moore-Penrose inverse, least squares, tensor equations, and contour oracles.

The production paths work on the DFT faces (Kilmer & Martin 2011): pinv,
lstsq and solve_axb transform each operand, apply its face pseudoinverses
and take one inverse transform. A square operand whose faces a certificate
proves of full rank under the library's rank cutoff, and of condition at
most 1e8, has A_k^+ = A_k^-1: one batched LU inverse, or adj/det on 2x2
faces (:func:`tprod.spectral._certified_inverse`). Every other operand
takes A_k^+ = V_k S_k^+ U_k^H from one batched SVD. solve_axb's residual
is read on the faces by Parseval, safe over the finite range. The
Cauchy-integral forms are implemented as independent cross-checks:
trapezoidal quadrature on circles, which converges geometrically for
analytic integrands. The resolvent is linear in its values 1/(z - sigma),
so the resolvent oracles sum the quadrature on the singular values in a few
chunked array passes and rebuild once per call. f must be analytic on each
closed disc, as the Cauchy formula assumes; a circle then adds nothing to a
value it does not enclose, so each value is summed over the nodes of its
own circle only. Dropping the other circles' roundoff, on scaled Gaussian
8x8x64 input, took gfun_contour from up to 6e-14 to 3e-16 of gfun, and
pinv_contour from up to 1e-14 to 3e-16 of the SVD route's pseudoinverse
Vr * Sr^-1 * Ur^H, whose frames it shares (pinv itself takes the face
inverses of those faces, within 1e-14 of it).

An explicit ``nodes=`` (or ``contour=``) is used exactly. Without one, a
resolvent oracle picks its own node count by halving. One pass over N = 64
nodes per circle gives S_N and, from its even nodes, S_N/2. The change
|S_N - S_N/2| / |S_N| estimates the error of S_N/2; the error falls
geometrically, so it squares when N doubles, and S_N is accepted once that
estimate squared is at most 1e-14. Otherwise N doubles, reusing the nodes
summed so far: S_2N is the mean of S_N and the sum over the N nodes turned
half a step. At ``DEFAULT_NODES`` (256) an estimate still above 1e-6 raises
:class:`NoConvergence` (CLI exit 3) rather than return a sum the rule cannot
vouch for (Trefethen & Weideman 2014, below).

The standard-function oracle takes one circle around every face eigenvalue.
On one circle the N-node trapezoid rule is a DFT of the samples f(z_k), and
the Neumann series of the resolvent sums in closed form, so the whole rule
is one FFT, a matrix polynomial of degree below N and one batched solve
(Trefethen & Weideman 2014, The exponentially convergent trapezoidal rule).
The polynomial stops at the last DFT coefficient above the FFT's rounding
floor, and the solve runs only on the faces where a bound on B^N, the
factor it removes, is above eps. On scaled Gaussian 8x8x64 input exp then
takes a polynomial of degree about 25 instead of 255 and no solve on most
faces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import tprod
from .core import Tensor3, fnorm
from .errors import (
    DimMismatch,
    EigenvalueOnContour,
    EmptyValues,
    FnDomainError,
    InvalidContour,
    NearSingularShift,
    NoConvergence,
    ZeroSingularValue,
)
from .genfun import _looks_real_analytic, _require_f_zero
from .spectral import (_CHUNK, _EPS, TCsvd, _certified_inverse, _face_norms, _matmul,
                       _parseval_norm, _per_face, csvd_faces, from_faces, isometry,
                       require_finite, tcsvd, to_faces)

DEFAULT_NODES = 256
# the node-count choice: start, accept at (error estimate)^2 <= _ACCEPT, refuse above _REFUSE
_FIRST_NODES = 64
_ACCEPT = 1e-14
_REFUSE = 1e-6
_CLUSTER_RTOL = 1e-8
# a shift nearer than this times max(sigma_max, 1) to a singular value is refused
_SHIFT_RTOL = 1e-8
# the standard oracle sums the DFT coefficients above this times the largest one
_COEF_FLOOR = 8 * _EPS


def _pinv_faces(a: Tensor3, half):
    """Faces of A^+: the face inverses where :func:`_certified_inverse` vouches for them.

    Those faces all have full rank under the library's cutoff, so A^+ is
    their inverse. Any other operand, non-square ones included, takes
    A^+ = Vr * Sr^+ * Ur^H from one batched SVD, and its faces live only
    through that SVD.
    """
    faces = to_faces(a, allow_half=half)[1][0]
    inv = _certified_inverse(faces, a.p) if a.m == a.n else None
    if inv is not None:
        return inv
    c = csvd_faces(faces, a.p, half)
    inv = np.divide(1.0, c.sigma, out=np.zeros(c.sigma.shape), where=c.sigma > 0.0)
    return c.rebuild_faces(inv, adjoint=True)[0]


def pinv(a: Tensor3) -> Tensor3:
    """Moore-Penrose inverse: the four Penrose identities hold (T-product).

    The face inverses when every face is certified of full rank (see
    :func:`_pinv_faces`), else Vr * Sr^+ * Ur^H.
    """
    return from_faces(_pinv_faces(a, a.exactly_real), a.p, a.exactly_real)


def lstsq(a: Tensor3, b: Tensor3) -> Tensor3:
    """Minimum-norm least squares solution of A * X = B, face by face X_k = A_k^+ B_k."""
    if a.m != b.m or a.p != b.p:
        raise DimMismatch(f"lstsq shapes do not conform: {a.shape} vs {b.shape}")
    half, (fb,) = to_faces(b, allow_half=a.exactly_real)
    return from_faces(_matmul(_pinv_faces(a, half), fb), a.p, half)


@dataclass(frozen=True)
class SolveResult:
    x: Tensor3
    residual: float


def solve_axb(a: Tensor3, b: Tensor3, d: Tensor3) -> SolveResult:
    """Best-consistent solution of A * X * B = D with its consistency residual.

    Face by face X_k = (A_k^+ D_k) B_k^+. The residual |A*X*B - D| / |D|, read
    on the faces by Parseval, vanishes exactly when D = P_range(A) * D *
    P_range(B^H). The solution and the residual are each one pass over
    slices of the face stacks, so no full-size product or residual stack is
    built; D is transformed once for both, and A and B are transformed again
    for the residual only once their pseudoinverses are gone.
    """
    if d.m != a.m or d.n != b.n or a.p != b.p or a.p != d.p:
        raise DimMismatch(f"solve shapes do not conform: A {a.shape}, B {b.shape}, D {d.shape}")
    require_finite(a, b, d)
    half, p = a.exactly_real and b.exactly_real and d.exactly_real, a.p

    def faces(t):
        return to_faces(t, allow_half=half)[1][0]

    ap = _pinv_faces(a, half)
    bp = _pinv_faces(b, half)
    df = faces(d)
    (h, n, m), (q, s) = ap.shape, bp.shape[1:]
    xf = _per_face(_solution, (ap, df, bp), ((n, s), df.dtype), madds=h * n * q * (m + s))
    del ap, bp
    rn, dn = _per_face(_residual_norms, (faces(a), xf, faces(b), df), ((), np.float64),
                       ((), np.float64), madds=h * m * s * (n + q))
    del df
    x = from_faces(xf, p, half)
    dn, rn = (_parseval_norm(f, p, half) for f in (dn, rn))
    residual = 0.0 if dn == 0.0 else rn / dn
    return SolveResult(x=x, residual=residual)


def _solution(ap, df, bp):
    """(A^+ D) B^+ on every face."""
    return _matmul(_matmul(ap, df), bp)


def _residual_norms(fa, xf, fb, df):
    """Frobenius norms of (A X) B - D and of D on every face."""
    rf = _matmul(_matmul(fa, xf), fb)
    rf -= df
    return _face_norms(rf), _face_norms(df)


@dataclass
class Resolvent:
    """Evaluator for (z E - A)^+ off the singular-value set."""

    csvd: TCsvd

    @classmethod
    def of(cls, a: Tensor3):
        return cls(tcsvd(a))

    @property
    def E(self) -> Tensor3:
        return isometry(self.csvd)


def _guard(c: TCsvd, z):
    """Refuse any shift z within _SHIFT_RTOL * max(sigma_max, 1) of a singular value.

    The values are real, so |z - sigma| grows with |Re z - sigma| and the
    nearest value is one of the two that bracket Re z in sorted order.
    """
    s = np.concatenate(([-np.inf], np.sort(c.sigma, axis=None), [np.inf]))
    i = np.searchsorted(s, z.real)
    dist = np.minimum(np.abs(z - s[i - 1]), np.abs(z - s[i]))
    near = dist < _SHIFT_RTOL * max(s[-2], 1.0)
    if near.any():
        k = int(near.argmax())
        raise NearSingularShift(f"shift {z[k]} is within {dist[k]:.3e} of a singular value")


def resolvent_eval(r: Resolvent, z) -> Tensor3:
    """(z E - A)^+ = Vr * (z I - Sr)^-1 * Ur^H (an n x m x p tensor)."""
    z = complex(z)
    # a real shift keeps the values real, so a real input rebuilds real
    z = np.array([z.real if z.imag == 0.0 else z])
    _guard(r.csvd, z)
    return r.csvd.rebuild(1.0 / (z - r.csvd.sigma), adjoint=True)


def resolvent_identity_residual(r: Resolvent, lam, mu) -> float:
    """Defect of R(lam) - R(mu) = (mu - lam) R(lam) * E * R(mu), relative.

    The product goes through the isometry E; that is the only reading under
    which the two sides conform for rectangular tensors.
    """
    rl = resolvent_eval(r, lam)
    rm = resolvent_eval(r, mu)
    lhs = rl - rm
    rhs = (complex(mu) - complex(lam)) * tprod(rl, tprod(r.E, rm))
    return fnorm(lhs - rhs) / max(fnorm(lhs), 1e-300)


@dataclass(frozen=True)
class Contour:
    """Disjoint circles, each enclosing exactly one cluster of target values.

    ``centers`` and ``radii`` hold the circles as arrays.
    """

    circles: tuple
    nodes_per_circle: int

    def __post_init__(self):
        c = np.array([z for z, _ in self.circles], dtype=np.complex128)
        r = np.array([rad for _, rad in self.circles], dtype=float)
        self._keep_arrays(c, r)
        if not (r > 0).all():
            raise InvalidContour("circle radii must be positive")
        # each circle may meet only itself; row blocks bound the pairwise array
        step = max(1, _CHUNK // max(c.size, 1))
        for i in range(0, c.size, step):
            rows = slice(i, i + step)
            if (np.abs(c[rows, None] - c) <= r[rows, None] + r).sum() > r[rows].size:
                raise InvalidContour("contour circles must be pairwise disjoint")

    @classmethod
    def _sized(cls, centers, radii, nodes):
        """The Contour of circles sized positive and disjoint by the caller, not re-checked."""
        self = object.__new__(cls)
        centers, radii = np.asarray(centers, dtype=np.complex128), np.asarray(radii, dtype=float)
        object.__setattr__(self, "circles", tuple(zip(centers.tolist(), radii.tolist())))
        object.__setattr__(self, "nodes_per_circle", _node_count(nodes))
        self._keep_arrays(centers, radii)
        return self

    def _keep_arrays(self, centers, radii):
        """Check the node count and keep the circles as arrays, read by the quadrature."""
        if self.nodes_per_circle < 16:
            raise InvalidContour("need at least 16 quadrature nodes per circle")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radii", radii)


def _cluster(values):
    """Ascending cluster centres: sorted values split where a step exceeds _CLUSTER_RTOL * max."""
    vals = np.sort(np.asarray(values, dtype=float))
    starts = np.flatnonzero(np.diff(vals, prepend=-np.inf) > _CLUSTER_RTOL * vals[-1])
    return np.add.reduceat(vals, starts) / np.diff(starts, append=vals.size)


def _node_count(nodes):
    return int(DEFAULT_NODES if nodes is None else nodes)


def _circles(values):
    """(centres, radii), a circle per cluster, radius = min(0.45 * gap to nearest, 0.5 * value)."""
    values = np.asarray(values, dtype=float).ravel()
    values = values[values > 0]
    if not values.size:
        raise EmptyValues("contour needs at least one positive value")
    centers = _cluster(values)
    steps = np.diff(centers)
    gaps = np.minimum(np.append(np.inf, steps), np.append(steps, np.inf))
    return centers, np.minimum(0.45 * gaps, 0.5 * centers)


def contour_for(values, nodes=None) -> Contour:
    """The :func:`_circles` of ``values``, ``nodes`` per circle (``DEFAULT_NODES`` when None)."""
    return Contour._sized(*_circles(values), nodes)


def _check_encloses(contour, values):
    """Every value must lie strictly inside some circle, or it drops out of the integral."""
    values = np.asarray(values).ravel()
    missed = values[~(np.abs(values[:, None] - contour.centers) < contour.radii).any(axis=1)]
    if missed.size:
        raise InvalidContour(f"contour leaves {missed[0]:.6g} unenclosed")


def _nodes(contour, k, shift=0.0):
    """(circles, k) node and weight arrays (z, w): (1/2 pi i) . oint g dz ~ sum g(z) w.

    ``shift`` turns every node by that fraction of a step.
    """
    th = 2.0 * np.pi * (np.arange(k) + shift) / k
    z = contour.centers[:, None] + contour.radii[:, None] * np.exp(1j * th)
    return z, (z - contour.centers[:, None]) / k


def _node_sum(c: TCsvd, contour, coef, k, shift=0.0):
    """sum coef(z) w / (z - sigma) over the k nodes of each (p, r) value's own circle.

    coef is analytic on each closed disc, so by Cauchy's theorem a circle that
    does not enclose sigma adds nothing: each value meets only the nodes of
    the circle around it, and a value that no circle encloses gets 0.
    Returns (2, p, r): the shares of the even and the odd nodes, so for even
    k the even share is the k/2-node rule at half weight. The values go
    through in chunks of about _CHUNK work elements (values x k), and every
    node of every circle keeps the :func:`resolvent_eval` guard.
    """
    z, w = _nodes(contour, k, shift)
    _guard(c, z.ravel())
    cw = coef(z) * w
    sigma = c.sigma.ravel()
    vals = np.zeros((2, sigma.size), dtype=np.complex128)
    step = max(1, _CHUNK // max(k, contour.centers.size))
    for i in range(0, sigma.size, step):
        inside = np.abs(sigma[i:i + step, None] - contour.centers) < contour.radii
        v = np.flatnonzero(inside.any(axis=1))
        own = inside[v].argmax(axis=1)
        terms = cw[own] / (z[own] - sigma[i + v, None])
        vals[:, i + v] = terms[:, 0::2].sum(axis=1), terms[:, 1::2].sum(axis=1)
    return vals.reshape(2, *c.sigma.shape)


def _contour_sum(c: TCsvd, contour, coef, choose_nodes=False):
    """(p, r) values whose adjoint rebuild is (1/2 pi i) oint coef(z) (z E - A)^+ dz.

    Every node term is ``rebuild(1 / (z - sigma), adjoint=True)`` and
    ``rebuild`` is linear in its values, so the terms add up on the (p, r)
    values and the caller rebuilds once. With ``choose_nodes`` the node count
    is chosen by halving (module docstring) instead of taken from the contour.
    With real centres and a real-analytic coef the nodes come in conjugate
    pairs, so the exact sum is real and its real part is returned.
    """
    real = not contour.centers.imag.any() and _looks_real_analytic(coef)
    if not choose_nodes:
        vals = _node_sum(c, contour, coef, contour.nodes_per_circle).sum(axis=0)
        return vals.real if real else vals
    k = _FIRST_NODES
    even, odd = _node_sum(c, contour, coef, k)
    coarse, vals = 2.0 * even, even + odd
    while True:
        # |S_k - S_k/2| / |S_k| estimates the error of S_k/2, and its square that of S_k
        gap, scale = np.linalg.norm(vals - coarse), np.linalg.norm(vals)
        if gap * gap <= _ACCEPT * scale * scale:
            break
        if k >= DEFAULT_NODES:
            if not gap <= _REFUSE * scale:
                raise NoConvergence(
                    f"contour quadrature did not settle within {k} nodes per circle "
                    f"(estimated relative error {gap / scale if scale else np.inf:.1e})")
            break
        # the 2k-node rule: the k nodes summed so far and the k nodes half a step on
        coarse, vals = vals, 0.5 * (vals + _node_sum(c, contour, coef, k, shift=0.5).sum(axis=0))
        k *= 2
    return vals.real if real else vals


def gfun_contour(a: Tensor3, f, nodes=None, contour=None) -> Tensor3:
    """Cauchy-integral route to the generalized function.

    f_gen(A) = E * ((1/2 pi i) oint f(z) (z E - A)^+ dz) * E, quadratured on
    circles around the distinct singular values. Cross-check oracle for
    :func:`tprod.genfun.gfun`; not the production path. Without ``nodes`` or
    ``contour`` the node count is chosen by halving (module docstring). An
    explicit ``contour`` must enclose every positive windowed singular value,
    else :class:`InvalidContour`.

    On each face E * V diag(vals) U^H * E = U diag(vals) V^H, as the frames
    have orthonormal columns, so the product with E is one rebuild.
    """
    c = tcsvd(a)
    if c.r == 0:
        return Tensor3.zeros(a.m, a.n, a.p)
    _require_f_zero(c, f)
    positive = c.sigma[c.sigma > 0.0]
    if contour is None:
        vals = _contour_sum(c, contour_for(positive, nodes), f, nodes is None)
    else:
        vals = _contour_sum(c, contour, f)
        # checked after the sum, so a value on the contour is reported by the node guard
        _check_encloses(contour, positive)
    return c.rebuild(vals)


def cluster_projector_contour(a: Tensor3, target, nodes=None) -> Tensor3:
    """E * ((1/2 pi i) oint (z E - A)^+ dz) * E around one singular-value cluster.

    Equals the sum of that cluster's partial-isometry components; the
    product with E is one rebuild, as in :func:`gfun_contour`.
    """
    c = tcsvd(a)
    centers, radii = _circles(c.sigma)
    i = int(np.abs(centers - float(target)).argmin())
    sub = Contour(((complex(centers[i]), float(radii[i])),), _node_count(nodes))
    return c.rebuild(_contour_sum(c, sub, lambda z: 1.0, nodes is None))


def pinv_contour(a: Tensor3, nodes=None) -> Tensor3:
    """A^+ = (1/2 pi i) oint z^-1 (z E - A)^+ dz; needs all windowed values > 0."""
    c = tcsvd(a)
    if c.r == 0:
        return Tensor3.zeros(a.n, a.m, a.p)
    if np.any(c.sigma <= 0.0):
        raise ZeroSingularValue("contour pseudoinverse needs a full rank window")
    vals = _contour_sum(c, contour_for(c.sigma, nodes), lambda z: 1.0 / z, nodes is None)
    return c.rebuild(vals, adjoint=True)


def solve_axb_contour(a: Tensor3, b: Tensor3, d: Tensor3, nodes=None) -> Tensor3:
    """Double-contour route to A * X * B = D.

    The integrand separates in lambda and mu, so the double circle
    quadrature factors exactly into the two single-contour pseudoinverses.
    """
    return tprod(pinv_contour(a, nodes), tprod(d, pinv_contour(b, nodes)))


def standard_fn_contour(a: Tensor3, f, nodes=None, contour=None, b=None):
    """Standard T-function via f(A) = (1/2 pi i) oint f(z) (z I - A)^-1 dz.

    The contour is one circle, centre c and radius r, that encloses every
    face eigenvalue; any other contour raises :class:`InvalidContour`. With
    ``b`` given the action f(A) * b is returned instead of f(A). Without
    ``nodes`` the rule has ``DEFAULT_NODES`` nodes. The default centre is the
    mean face eigenvalue tr(A_1)/n, as the faces sum to p A_1, and the
    default radius 1.3 spread + 0.1 max(spread, 1, 1e-6 max|lambda|): the
    last term keeps a tight cluster far from 0 clear of the guard that
    refuses an eigenvalue within 1e-8 max(max|lambda|, 1) of the circle.
    An f not finite at some node raises :class:`FnDomainError`.

    The N-node trapezoid sum is evaluated as one DFT rather than N shifted
    solves. On a face D, with B = (D - cI)/r and z_k = c + r w^k
    (w = e^{2 pi i/N}), each node term is (1/N) f(z_k) (I - B w^-k)^-1.
    Expanding the resolvent in its Neumann series and using the N-periodicity
    of w^-jk sums the rule in closed form:

        sum_k ... = P(B) (I - B^N)^-1,   P(B) = sum_{j<N} c_j B^j,

    where c = fft(f(z_k)) / N. The identity is exact, and on one enclosing
    circle the spectral radius of B is below 1, so B^N decays. For analytic f
    the c_j decay geometrically until they reach the FFT's rounding of them,
    so P stops at the last c_j above 8 eps max|c| (at c_0 when every c_j is
    0), and the c_j below that floor before it are taken as 0: what is
    dropped is below the FFT's rounding, so the sum is still the N-node rule
    to rounding, and for a polynomial f it is exact. An odd f of the zero
    tensor is then exactly 0, not c_0's rounding. P, now d
    terms long, is evaluated on the whole face stack by Paterson-Stockmeyer
    (about 2 sqrt(d) batched products, s = ceil(sqrt(d)) powers of B). The
    powers bound ||B^N|| <= ||B^s||^(N // s) ||B^(N mod s)|| in the max row
    sum norm; only the faces where that bound is above eps, or overflows,
    take the batched solve with I - B^N, which commutes with P. It uses no
    eigenvectors, so it shares nothing with :func:`tprod.genfun.standard_tfn`
    beyond the face layer. Real centres pair the nodes as conjugates, so on
    exactly real input (and ``b``) with a real-analytic f the rule runs on
    the half spectrum.
    """
    if a.m != a.n:
        raise DimMismatch(f"standard function needs an F-square tensor, got {a.shape}")
    if b is not None and (b.m != a.n or b.p != a.p):
        raise DimMismatch(f"cannot apply a {a.shape} function to {b.shape}")
    real_centres = contour is None or not contour.centers.imag.any()
    half, (faces, *rhs) = to_faces(*((a,) if b is None else (a, b)),
                                   allow_half=real_centres and _looks_real_analytic(f))
    eigs = _per_face(np.linalg.eigvals, (faces,), ((a.n,), np.complex128)).ravel()
    # the margin guard below refuses an eigenvalue nearer than 1e-8 * scale to the circle
    scale = max(float(np.abs(eigs).max()), 1.0)
    if contour is None:
        center = complex(np.trace(a.data[0]) / a.n)
        spread = float(np.abs(eigs - center).max())
        # 0.1 * 1e-6 * scale is ten times the margin guard: the circle clears its own guard
        radius = 1.3 * spread + 0.1 * max(spread, 1.0, 1e-6 * scale)
        contour = Contour(circles=((center, radius),), nodes_per_circle=_node_count(nodes))
    # a real centre is as far from conj(lambda) as from lambda
    margin = np.abs(np.abs(eigs[:, None] - contour.centers) - contour.radii).min(axis=0)
    close = margin[margin < 1e-8 * scale]
    if close.size:
        raise EigenvalueOnContour(f"face eigenvalue within {close[0]:.3e} of the contour")
    if len(contour.circles) != 1:
        # eigenvalues outside a circle make B^N grow, which the closed form would cancel
        raise InvalidContour("the standard-function oracle takes one enclosing circle")
    _check_encloses(contour, eigs)

    z = _nodes(contour, contour.nodes_per_circle)[0][0]
    center, rad = contour.centers[0], contour.radii[0]
    n_nodes = z.size
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        coef = np.fft.fft(np.broadcast_to(f(z), z.shape)) / n_nodes
    if not np.isfinite(coef).all():
        # a non-finite sample would leave no coefficient above the floor and read as 0
        raise FnDomainError(f"{f.name or 'f'} not finite on the contour")
    # the coefficients below the FFT's rounding floor are noise: P ends at the last one
    # above it, and those below it before that end are 0
    resolved = np.abs(coef) > _COEF_FLOOR * np.abs(coef).max()
    above = np.flatnonzero(resolved)
    terms = int(above[-1]) + 1 if above.size else 1
    # Paterson-Stockmeyer: P = sum_q (sum_{t<s} c_{qs+t} B^t) (B^s)^q
    s = int(np.ceil(np.sqrt(terms)))
    kept = np.zeros(-(-terms // s) * s, dtype=np.complex128)
    kept[:terms] = np.where(resolved[:terms], coef[:terms], 0.0)
    eye = np.eye(a.n)
    bmat = (faces - center * eye) / rad
    powers = [np.broadcast_to(eye, faces.shape)]
    for _ in range(s - 1):
        powers.append(_matmul(powers[-1], bmat))
    bs = _matmul(powers[-1], bmat)
    blocks = np.tensordot(kept.reshape(-1, s), np.stack(powers), axes=1)
    poly = blocks[-1]
    for blk in blocks[-2::-1]:
        poly = _matmul(poly, bs) + blk
    if rhs:
        poly = _matmul(poly, rhs[0])
    # ||B^N|| <= ||B^s||^(N // s) ||B^(N mod s)||: where it is at most eps, (I - B^N)^-1
    # is I to rounding. A bound that overflows is inf or nan and keeps the face's solve.
    with np.errstate(over="ignore", invalid="ignore"):
        bound = (np.linalg.norm(bs, np.inf, axis=(-2, -1)) ** (n_nodes // s)
                 * np.linalg.norm(powers[n_nodes % s], np.inf, axis=(-2, -1)))
    need = ~(bound <= _EPS)
    if need.any():
        poly[need] = np.linalg.solve(eye - np.linalg.matrix_power(bmat[need], n_nodes), poly[need])
    return from_faces(poly, a.p, half)
