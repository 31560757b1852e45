"""Moore-Penrose inverse, least squares, tensor equations, and contour oracles.

The production paths are spectral (compact T-SVD). The Cauchy-integral
forms are implemented as independent cross-checks: trapezoidal quadrature
on circles, which converges geometrically for analytic integrands. The
resolvent is linear in its values 1/(z - sigma), so the resolvent oracles
sum the quadrature on the singular values and rebuild once per call.

The standard-function oracle takes one circle around every face eigenvalue.
On one circle the N-node trapezoid rule is a DFT of the samples f(z_k), and
the Neumann series of the resolvent sums in closed form, so the whole rule
is one FFT, a matrix polynomial of degree N - 1 and one batched solve
(Trefethen & Weideman 2014, The exponentially convergent trapezoidal rule).
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
    InvalidContour,
    NearSingularShift,
    ZeroSingularValue,
)
from .genfun import _require_f_zero
from .spectral import TCsvd, from_faces, isometry, tcsvd, to_faces

DEFAULT_NODES = 256
_CLUSTER_RTOL = 1e-8
# a shift nearer than this times max(sigma_max, 1) to a singular value is refused
_SHIFT_RTOL = 1e-8


def pinv(a: Tensor3) -> Tensor3:
    """Moore-Penrose inverse: Vr * Sr^+ * Ur^H.

    Satisfies the four Penrose identities in the T-product sense.
    """
    c = tcsvd(a)
    inv_vals = np.zeros(c.sigma.shape)
    pos = c.sigma > 0.0
    inv_vals[pos] = 1.0 / c.sigma[pos]
    return c.rebuild(inv_vals, adjoint=True)


def lstsq(a: Tensor3, b: Tensor3) -> Tensor3:
    """Minimum-norm least squares solution of A * X = B."""
    if a.m != b.m or a.p != b.p:
        raise DimMismatch(f"lstsq shapes do not conform: {a.shape} vs {b.shape}")
    return tprod(pinv(a), b)


@dataclass(frozen=True)
class SolveResult:
    x: Tensor3
    residual: float


def solve_axb(a: Tensor3, b: Tensor3, d: Tensor3) -> SolveResult:
    """Best-consistent solution of A * X * B = D with its consistency residual.

    X = A^+ * D * B^+; the residual |A*X*B - D| / |D| vanishes exactly when
    D equals its projection P_range(A) * D * P_range(B^H-side).
    """
    if d.m != a.m or d.n != b.n or a.p != b.p or a.p != d.p:
        raise DimMismatch(
            f"solve shapes do not conform: A {a.shape}, B {b.shape}, D {d.shape}"
        )
    x = tprod(pinv(a), tprod(d, pinv(b)))
    dn = fnorm(d)
    residual = 0.0 if dn == 0.0 else fnorm(tprod(a, tprod(x, b)) - d) / dn
    return SolveResult(x=x, residual=residual)


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


def _shifted(c: TCsvd, z):
    """(len(z), p, r) differences z - sigma for an array of shifts, each guarded."""
    diff = z[:, None, None] - c.sigma
    dist = np.abs(diff).min(axis=(1, 2), initial=np.inf)
    near = dist < _SHIFT_RTOL * max(float(c.sigma.max(initial=0.0)), 1.0)
    if near.any():
        k = int(near.argmax())
        raise NearSingularShift(f"shift {z[k]} is within {dist[k]:.3e} of a singular value")
    return diff


def resolvent_eval(r: Resolvent, z) -> Tensor3:
    """(z E - A)^+ = Vr * (z I - Sr)^-1 * Ur^H (an n x m x p tensor)."""
    z = complex(z)
    # a real shift keeps the values real, so a real input rebuilds real
    diff = _shifted(r.csvd, np.array([z.real if z.imag == 0.0 else z]))
    return r.csvd.rebuild(1.0 / diff[0], adjoint=True)


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
    """Disjoint circles, each enclosing exactly one cluster of target values."""

    circles: tuple
    nodes_per_circle: int

    def __post_init__(self):
        if self.nodes_per_circle < 16:
            raise InvalidContour("need at least 16 quadrature nodes per circle")
        for _, rad in self.circles:
            if rad <= 0:
                raise InvalidContour("circle radii must be positive")
        for i, (ci, ri) in enumerate(self.circles):
            for cj, rj in self.circles[i + 1:]:
                if abs(ci - cj) <= ri + rj:
                    raise InvalidContour("contour circles must be pairwise disjoint")


def _cluster(values):
    """Ascending cluster centres: sorted values split where a step exceeds _CLUSTER_RTOL * max."""
    vals = np.sort(np.asarray(values, dtype=float))
    breaks = np.flatnonzero(np.diff(vals) > _CLUSTER_RTOL * vals[-1]) + 1
    return np.array([g.mean() for g in np.split(vals, breaks)])


def contour_for(values, nodes=DEFAULT_NODES) -> Contour:
    """One circle per cluster: radius = min(0.45 * gap to nearest, 0.5 * value)."""
    values = np.asarray(values, dtype=float).ravel()
    values = values[values > 0]
    if not values.size:
        raise EmptyValues("contour needs at least one positive value")
    centers = _cluster(values)
    steps = np.diff(centers)
    gaps = np.minimum(np.append(np.inf, steps), np.append(steps, np.inf))
    radii = np.minimum(0.45 * gaps, 0.5 * centers)
    circles = tuple(zip(map(complex, centers.tolist()), radii.tolist()))
    return Contour(circles=circles, nodes_per_circle=int(nodes))


def _check_encloses(contour, values):
    """Every value must lie strictly inside some circle, or it drops out of the integral."""
    centers = np.array([c for c, _ in contour.circles])
    radii = np.array([r for _, r in contour.circles])
    values = np.asarray(values).ravel()
    missed = values[~(np.abs(values[:, None] - centers) < radii).any(axis=1)]
    if missed.size:
        raise InvalidContour(f"contour leaves {missed[0]:.6g} unenclosed")


def _quad_nodes(contour):
    """Per circle, node and weight arrays (z, w): (1/2 pi i) . oint g dz ~ sum g(z) w."""
    k = contour.nodes_per_circle
    th = 2.0 * np.pi * np.arange(k) / k
    for center, rad in contour.circles:
        z = center + rad * np.exp(1j * th)
        yield z, (z - center) / k


def _contour_sum(res: Resolvent, contour, coef) -> Tensor3:
    """(1/2 pi i) oint coef(z) (z E - A)^+ dz, summed on the singular values.

    Every node term is ``rebuild(1 / (z - sigma), adjoint=True)`` and
    ``rebuild`` is linear in its values, so the terms add up on the (p, r)
    values and the sum is rebuilt once. One circle at a time keeps the work
    array at nodes x p x r. Each node keeps the :func:`resolvent_eval` guard.
    """
    c = res.csvd
    vals = np.zeros(c.sigma.shape, dtype=np.complex128)
    for z, w in _quad_nodes(contour):
        vals += ((coef(z) * w)[:, None, None] / _shifted(c, z)).sum(axis=0)
    return c.rebuild(vals, adjoint=True)


def gfun_contour(a: Tensor3, f, nodes=DEFAULT_NODES, contour=None) -> Tensor3:
    """Cauchy-integral route to the generalized function.

    f_gen(A) = E * ((1/2 pi i) oint f(z) (z E - A)^+ dz) * E, quadratured on
    circles around the distinct singular values. Cross-check oracle for
    :func:`tprod.genfun.gfun`; not the production path. An explicit
    ``contour`` must enclose every positive windowed singular value, else
    :class:`InvalidContour`.
    """
    res = Resolvent.of(a)
    c = res.csvd
    if c.r == 0:
        return Tensor3.zeros(a.m, a.n, a.p)
    _require_f_zero(c, f)
    positive = c.sigma[c.sigma > 0.0]
    if contour is None:
        acc = _contour_sum(res, contour_for(positive, nodes), f)
    else:
        acc = _contour_sum(res, contour, f)
        # checked after the sum, so a value on the contour is reported by the node guard
        _check_encloses(contour, positive)
    e = res.E
    return tprod(e, tprod(acc, e))


def cluster_projector_contour(a: Tensor3, target, nodes=DEFAULT_NODES) -> Tensor3:
    """E * ((1/2 pi i) oint (z E - A)^+ dz) * E around one singular-value cluster.

    Equals the sum of that cluster's partial-isometry components.
    """
    res = Resolvent.of(a)
    target = float(target)
    circles = contour_for(res.csvd.sigma, nodes).circles
    circle = min(circles, key=lambda cr: abs(cr[0].real - target))
    sub = Contour(circles=(circle,), nodes_per_circle=nodes)
    acc = _contour_sum(res, sub, lambda z: 1.0)
    e = res.E
    return tprod(e, tprod(acc, e))


def pinv_contour(a: Tensor3, nodes=DEFAULT_NODES) -> Tensor3:
    """A^+ = (1/2 pi i) oint z^-1 (z E - A)^+ dz; needs all windowed values > 0."""
    res = Resolvent.of(a)
    c = res.csvd
    if c.r == 0:
        return Tensor3.zeros(a.n, a.m, a.p)
    if np.any(c.sigma <= 0.0):
        raise ZeroSingularValue("contour pseudoinverse needs a full rank window")
    return _contour_sum(res, contour_for(c.sigma, nodes), lambda z: 1.0 / z)


def solve_axb_contour(a: Tensor3, b: Tensor3, d: Tensor3, nodes=DEFAULT_NODES) -> Tensor3:
    """Double-contour route to A * X * B = D.

    The integrand separates in lambda and mu, so the double circle
    quadrature factors exactly into the two single-contour pseudoinverses.
    """
    return tprod(pinv_contour(a, nodes), tprod(d, pinv_contour(b, nodes)))


def standard_fn_contour(a: Tensor3, f, nodes=DEFAULT_NODES, contour=None, b=None):
    """Standard T-function via f(A) = (1/2 pi i) oint f(z) (z I - A)^-1 dz.

    The contour is one circle, centre c and radius r, that encloses every
    face eigenvalue; any other contour raises :class:`InvalidContour`. With
    ``b`` given the action f(A) * b is returned instead of f(A).

    The N-node trapezoid sum is evaluated as one DFT rather than N shifted
    solves. On a face D, with B = (D - cI)/r and z_k = c + r w^k
    (w = e^{2 pi i/N}), each node term is (1/N) f(z_k) (I - B w^-k)^-1.
    Expanding the resolvent in its Neumann series and using the N-periodicity
    of w^-jk sums the rule in closed form:

        sum_k ... = P(B) (I - B^N)^-1,   P(B) = sum_{j<N} c_j B^j,

    where c = fft(f(z_k)) / N. The identity is exact, and on one enclosing
    circle the spectral radius of B is below 1, so B^N decays. P is
    evaluated on the whole face stack by Paterson-Stockmeyer (about 2 sqrt(N)
    batched products), and the result is one batched solve with I - B^N,
    which commutes with P. It uses no eigenvectors, so it shares nothing
    with :func:`tprod.genfun.standard_tfn` beyond the DFT.
    """
    if a.m != a.n:
        raise DimMismatch(f"standard function needs an F-square tensor, got {a.shape}")
    if b is not None and (b.m != a.n or b.p != a.p):
        raise DimMismatch(f"cannot apply a {a.shape} function to {b.shape}")
    # the full spectrum, so this oracle shares no half-spectrum logic with standard_tfn
    _, (faces,) = to_faces(a, allow_half=False)
    eigs = np.linalg.eigvals(faces).ravel()
    if contour is None:
        center = complex(eigs.mean())
        spread = float(np.abs(eigs - center).max())
        radius = 1.3 * spread + 0.1 * max(spread, 1.0)
        contour = Contour(circles=((center, radius),), nodes_per_circle=int(nodes))
    scale = max(float(np.abs(eigs).max()), 1.0)
    for center, rad in contour.circles:
        margin = np.abs(np.abs(eigs - center) - rad).min()
        if margin < 1e-8 * scale:
            raise EigenvalueOnContour(f"face eigenvalue within {margin:.3e} of the contour")
    if len(contour.circles) != 1:
        # eigenvalues outside a circle make B^N grow, which the closed form would cancel
        raise InvalidContour("the standard-function oracle takes one enclosing circle")
    _check_encloses(contour, eigs)

    (z, _), = _quad_nodes(contour)
    (center, rad), = contour.circles
    n_nodes = z.size
    # Paterson-Stockmeyer: P = sum_q (sum_{t<s} c_{qs+t} B^t) (B^s)^q
    s = int(np.ceil(np.sqrt(n_nodes)))
    coef = np.zeros(-(-n_nodes // s) * s, dtype=np.complex128)
    coef[:n_nodes] = np.fft.fft(np.broadcast_to(f(z), z.shape)) / n_nodes
    eye = np.eye(a.n)
    bmat = (faces - center * eye) / rad
    powers = [np.broadcast_to(eye, faces.shape)]
    for _ in range(s - 1):
        powers.append(powers[-1] @ bmat)
    bs = powers[-1] @ bmat
    blocks = np.tensordot(coef.reshape(-1, s), np.stack(powers), axes=1)
    poly = blocks[-1]
    for blk in blocks[-2::-1]:
        poly = poly @ bs + blk
    if b is not None:
        _, (rhs,) = to_faces(b, allow_half=False)
        poly = poly @ rhs
    out = np.linalg.solve(eye - np.linalg.matrix_power(bmat, n_nodes), poly)
    return from_faces(out, a.p, half=False)
