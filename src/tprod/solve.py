"""Moore-Penrose inverse, least squares, tensor equations, and contour oracles.

The production paths are spectral (compact T-SVD). The Cauchy-integral
forms are implemented as independent cross-checks: trapezoidal quadrature
on circles, which converges geometrically for analytic integrands. The
resolvent is linear in its values 1/(z - sigma), so the resolvent oracles
sum the quadrature on the singular values, over every node of every circle
in a few chunked array passes, and rebuild once per call.

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
    NoConvergence,
    ZeroSingularValue,
)
from .genfun import _require_f_zero
from .spectral import TCsvd, from_faces, isometry, tcsvd, to_faces

DEFAULT_NODES = 256
# the node-count choice: start, accept at (error estimate)^2 <= _ACCEPT, refuse above _REFUSE
_FIRST_NODES = 64
_ACCEPT = 1e-14
_REFUSE = 1e-6
# complex elements per chunk of a nodes x p x r work array
_CHUNK = 1 << 16
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
    """Disjoint circles, each enclosing exactly one cluster of target values.

    ``centers`` and ``radii`` hold the circles as arrays.
    """

    circles: tuple
    nodes_per_circle: int

    def __post_init__(self):
        if self.nodes_per_circle < 16:
            raise InvalidContour("need at least 16 quadrature nodes per circle")
        c = np.array([z for z, _ in self.circles], dtype=np.complex128)
        r = np.array([rad for _, rad in self.circles], dtype=float)
        if not (r > 0).all():
            raise InvalidContour("circle radii must be positive")
        # each circle may meet only itself; row blocks bound the pairwise array
        step = max(1, _CHUNK // max(c.size, 1))
        for i in range(0, c.size, step):
            rows = slice(i, i + step)
            if (np.abs(c[rows, None] - c) <= r[rows, None] + r).sum() > r[rows].size:
                raise InvalidContour("contour circles must be pairwise disjoint")
        # the circles as arrays, read by the quadrature
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "radii", r)


def _cluster(values):
    """Ascending cluster centres: sorted values split where a step exceeds _CLUSTER_RTOL * max."""
    vals = np.sort(np.asarray(values, dtype=float))
    starts = np.flatnonzero(np.diff(vals, prepend=-np.inf) > _CLUSTER_RTOL * vals[-1])
    return np.add.reduceat(vals, starts) / np.diff(starts, append=vals.size)


def _node_count(nodes):
    return int(DEFAULT_NODES if nodes is None else nodes)


def contour_for(values, nodes=None) -> Contour:
    """One circle per cluster: radius = min(0.45 * gap to nearest, 0.5 * value).

    ``nodes`` per circle, ``DEFAULT_NODES`` when None.
    """
    values = np.asarray(values, dtype=float).ravel()
    values = values[values > 0]
    if not values.size:
        raise EmptyValues("contour needs at least one positive value")
    centers = _cluster(values)
    steps = np.diff(centers)
    gaps = np.minimum(np.append(np.inf, steps), np.append(steps, np.inf))
    radii = np.minimum(0.45 * gaps, 0.5 * centers)
    circles = tuple(zip(map(complex, centers.tolist()), radii.tolist()))
    return Contour(circles=circles, nodes_per_circle=_node_count(nodes))


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


def _quad_nodes(contour):
    """Per circle, node and weight arrays (z, w) of the contour's own rule."""
    return zip(*_nodes(contour, contour.nodes_per_circle))


def _node_sum(c: TCsvd, contour, coef, k, shift=0.0):
    """sum coef(z) w / (z - sigma) over k nodes on every circle, on the (p, r) values.

    Returns (2, p, r): the shares of the even and the odd nodes, so for even
    k the even share is the k/2-node rule at half weight. The nodes of all
    circles go through in chunks of about _CHUNK work elements
    (nodes x p x r), and every node keeps the :func:`resolvent_eval` guard.
    """
    z, w = (x.ravel() for x in _nodes(contour, k, shift))
    cw = np.broadcast_to(coef(z) * w, z.shape)
    parity = np.arange(2)[:, None] == np.arange(z.size) % 2
    vals = np.zeros((2, c.sigma.size), dtype=np.complex128)
    step = max(1, _CHUNK // c.sigma.size)
    for i in range(0, z.size, step):
        part = slice(i, i + step)
        inv = (1.0 / _shifted(c, z[part])).reshape(-1, c.sigma.size)
        vals += (parity[:, part] * cw[part]) @ inv
    return vals.reshape(2, *c.sigma.shape)


def _contour_sum(res: Resolvent, contour, coef, choose_nodes=False) -> Tensor3:
    """(1/2 pi i) oint coef(z) (z E - A)^+ dz, summed on the singular values.

    Every node term is ``rebuild(1 / (z - sigma), adjoint=True)`` and
    ``rebuild`` is linear in its values, so the terms add up on the (p, r)
    values and the sum is rebuilt once. With ``choose_nodes`` the node count
    is chosen by halving (module docstring) instead of taken from the contour.
    """
    c = res.csvd
    if not choose_nodes:
        return c.rebuild(_node_sum(c, contour, coef, contour.nodes_per_circle).sum(axis=0),
                         adjoint=True)
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
    return c.rebuild(vals, adjoint=True)


def gfun_contour(a: Tensor3, f, nodes=None, contour=None) -> Tensor3:
    """Cauchy-integral route to the generalized function.

    f_gen(A) = E * ((1/2 pi i) oint f(z) (z E - A)^+ dz) * E, quadratured on
    circles around the distinct singular values. Cross-check oracle for
    :func:`tprod.genfun.gfun`; not the production path. Without ``nodes`` or
    ``contour`` the node count is chosen by halving (module docstring). An
    explicit ``contour`` must enclose every positive windowed singular value,
    else :class:`InvalidContour`.
    """
    res = Resolvent.of(a)
    c = res.csvd
    if c.r == 0:
        return Tensor3.zeros(a.m, a.n, a.p)
    _require_f_zero(c, f)
    positive = c.sigma[c.sigma > 0.0]
    if contour is None:
        acc = _contour_sum(res, contour_for(positive, nodes), f, nodes is None)
    else:
        acc = _contour_sum(res, contour, f)
        # checked after the sum, so a value on the contour is reported by the node guard
        _check_encloses(contour, positive)
    e = res.E
    return tprod(e, tprod(acc, e))


def cluster_projector_contour(a: Tensor3, target, nodes=None) -> Tensor3:
    """E * ((1/2 pi i) oint (z E - A)^+ dz) * E around one singular-value cluster.

    Equals the sum of that cluster's partial-isometry components.
    """
    res = Resolvent.of(a)
    target = float(target)
    full = contour_for(res.csvd.sigma, nodes)
    circle = min(full.circles, key=lambda cr: abs(cr[0].real - target))
    sub = Contour(circles=(circle,), nodes_per_circle=full.nodes_per_circle)
    acc = _contour_sum(res, sub, lambda z: 1.0, nodes is None)
    e = res.E
    return tprod(e, tprod(acc, e))


def pinv_contour(a: Tensor3, nodes=None) -> Tensor3:
    """A^+ = (1/2 pi i) oint z^-1 (z E - A)^+ dz; needs all windowed values > 0."""
    res = Resolvent.of(a)
    c = res.csvd
    if c.r == 0:
        return Tensor3.zeros(a.n, a.m, a.p)
    if np.any(c.sigma <= 0.0):
        raise ZeroSingularValue("contour pseudoinverse needs a full rank window")
    return _contour_sum(res, contour_for(c.sigma, nodes), lambda z: 1.0 / z, nodes is None)


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
    ``nodes`` the rule has ``DEFAULT_NODES`` nodes.

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
        contour = Contour(circles=((center, radius),), nodes_per_circle=_node_count(nodes))
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
