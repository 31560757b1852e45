"""Generalized tensor functions, standard T-functions, and generalized powers.

A generalized function applies a scalar function to the singular values
inside the compact T-SVD, leaving the singular subspaces fixed:
f_gen(A) = Ur * f(Sr) * Vr^H. The standard T-function instead applies a
matrix function to every DFT face of an F-square tensor (equivalently to
bcirc(A)); the two disagree in general even when f(0) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .algebra import tprod
from .core import Tensor3, conj_transpose, block, fnorm
from .errors import (
    ConsistencyError,
    DefectiveFace,
    DimMismatch,
    FnDomainError,
    InvalidArgument,
    NoConvergence,
    RadiusViolation,
    SeriesDivergence,
    ZeroSingularValueRequiresFZero,
)
from .spectral import from_faces, isometry, tcsvd, to_faces

_SERIES_CAP = 500
_SERIES_RTOL = 1e-12
# eigenvector matrices of a non-Hermitian face above this condition number
# send the face to its power series
_COND_LIMIT = 1e8


def _power_series(coeff, x, one, mul, norm, cap, rtol):
    """Sum coeff(k) x^k for k = 0..cap: ``(sum, tail)``.

    Stops after two consecutive terms whose size relative to the partial
    sum is at most ``rtol``, so alternating series with zero coefficients in
    between are not truncated early. ``tail`` is the larger relative size of
    the last two terms, so with ``cap >= 2`` the sum settled exactly when
    ``tail <= rtol``. ``one`` is x^0 and ``mul(pw, x)`` the next power. A
    sum that overflows returns at once with ``tail`` infinite.
    """
    acc, pw = complex(coeff(0)) * one, one
    ratio, tail = 0.0, np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, cap + 1):
            pw = mul(pw, x)
            term = complex(coeff(k)) * pw
            acc = acc + term
            size = norm(acc)
            if not np.isfinite(size):
                # an overflowed power or sum never settles
                return acc, np.inf
            prev, ratio = ratio, norm(term) / max(size, 1e-300)
            tail = max(ratio, prev)
            if k > 1 and prev <= rtol and ratio <= rtol:
                break
    return acc, tail


@dataclass(frozen=True)
class Series:
    """Power series around 0: ``coeff(k)`` is the coefficient of z^k."""

    coeff: Callable[[int], complex]
    radius: float

    @classmethod
    def from_coeffs(cls, coeffs):
        """The polynomial with these low-order-first coefficients (an entire series)."""
        arr = np.asarray(coeffs, dtype=np.complex128)
        return cls(coeff=lambda k: complex(arr[k]) if k < arr.size else 0.0, radius=np.inf)

    def eval(self, z):
        """Partial sums of the series at z (array ok); guards the radius."""
        z = np.asarray(z, dtype=np.complex128)
        if np.any(np.abs(z) >= self.radius):
            raise RadiusViolation(f"|z| up to {np.abs(z).max():.3g} >= radius {self.radius:.3g}")
        acc, tail = _power_series(self.coeff, z, np.ones_like(z), np.multiply,
                                  lambda v: np.abs(v).max(), _SERIES_CAP, _SERIES_RTOL)
        if not tail <= _SERIES_RTOL:
            raise SeriesDivergence(f"series did not settle within {_SERIES_CAP} terms")
        return acc


@dataclass(frozen=True)
class ScalarFn:
    """A scalar function driving every generalized-function path.

    ``fn`` must accept numpy arrays (real or complex). ``value_at_zero`` is
    the declared f(0) used to gate zero singular values inside the rank
    window. ``deriv(z0, k)`` gives the k-th derivative for Taylor mode, and
    ``deriv_radius(z0)`` the local disc of convergence (None means entire).
    """

    fn: Callable
    value_at_zero: complex
    name: str = ""
    series: Optional[Series] = None
    deriv: Optional[Callable[[complex, int], complex]] = None
    deriv_radius: Optional[Callable[[complex], float]] = None

    def __call__(self, x):
        return self.fn(np.asarray(x))


scalar_fn = ScalarFn


def polynomial(coeffs) -> ScalarFn:
    """Polynomial sum(c_k z^k) from low-order-first coefficients."""
    arr = np.asarray(coeffs, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise FnDomainError("polynomial needs a nonempty 1-d coefficient list")

    def ev(z):
        return np.polyval(arr[::-1], np.asarray(z, dtype=np.complex128))

    def dv(z0, k):
        return np.polyval(np.polyder(arr[::-1], k), z0)

    return ScalarFn(ev, complex(arr[0]), name="poly", series=Series.from_coeffs(arr),
                    deriv=dv)


def _cyclic_deriv(funcs):
    # derivative cycle for sin/cos style functions
    def dv(z0, k):
        return funcs[k % len(funcs)](z0)

    return dv


def _ln1p_deriv(z0, k):
    if k == 0:
        return complex(np.log(1.0 + complex(z0)))
    return (-1.0) ** (k - 1) * math.factorial(k - 1) / (1.0 + z0) ** k


def _inv_shift(z):
    return 1.0 / (1.0 + np.asarray(z))


def _inv_shift_deriv(z0, k):
    return (-1.0) ** k * math.factorial(k) / (1.0 + z0) ** (k + 1)


def _inv_factorial(k):
    # 1 / k! overflows the int-to-float conversion past k = 170
    return 1.0 / math.factorial(k) if k <= 170 else math.exp(-math.lgamma(k + 1))


def _alt(parity_num, parity_den):
    # coefficient helper for the trig series
    def c(k):
        if k % 2 != parity_num:
            return 0.0
        j = k // 2
        return (-1.0) ** j * _inv_factorial(k) if parity_den else _inv_factorial(k)

    return c


def power_fn(alpha) -> ScalarFn:
    """f(x) = x**alpha on the nonnegative axis (principal branch elsewhere)."""
    try:
        alpha = float(alpha)
    except (TypeError, ValueError):
        raise FnDomainError(f"power exponent must be a number, got {alpha!r}") from None
    if not np.isfinite(alpha):
        raise FnDomainError(f"power exponent must be finite, got {alpha}")
    if alpha > 0:
        f0 = 0.0
    elif alpha == 0:
        f0 = 1.0
    else:
        f0 = np.inf

    def ev(z):
        z = np.asarray(z)
        if not np.iscomplexobj(z) and (alpha != int(alpha)) and np.any(z < 0):
            z = z.astype(np.complex128)
        return z**alpha

    def dv(z0, k):
        if alpha == int(alpha) and alpha >= 0 and k > alpha:
            return 0.0
        c = 1.0
        for j in range(k):
            c *= alpha - j
        return c * complex(z0) ** (alpha - k)

    series = None
    if alpha == int(alpha) and alpha >= 0:
        coeffs = np.zeros(int(alpha) + 1)
        coeffs[int(alpha)] = 1.0
        series = Series.from_coeffs(coeffs)
    return ScalarFn(ev, f0, name=f"power({alpha:g})", series=series, deriv=dv,
                    deriv_radius=(None if series is not None else (lambda z0: abs(z0))))


def _sign_eval(z):
    z = np.asarray(z, dtype=np.complex128)
    az = np.abs(z)
    out = np.zeros_like(z)
    nz = az > 0
    out[nz] = z[nz] / az[nz]
    return out


NAMED_FUNCTIONS = {
    "exp": ScalarFn(np.exp, 1.0, "exp",
                    Series(_inv_factorial, np.inf),
                    deriv=lambda z0, k: np.exp(z0)),
    "ln1p": ScalarFn(np.log1p, 0.0, "ln1p",
                     Series(lambda k: 0.0 if k == 0 else (-1.0) ** (k + 1) / k, 1.0),
                     deriv=_ln1p_deriv,
                     deriv_radius=lambda z0: abs(1.0 + z0)),
    "sin": ScalarFn(np.sin, 0.0, "sin", Series(_alt(1, True), np.inf),
                    deriv=_cyclic_deriv([np.sin, np.cos, lambda z: -np.sin(z),
                                         lambda z: -np.cos(z)])),
    "cos": ScalarFn(np.cos, 1.0, "cos", Series(_alt(0, True), np.inf),
                    deriv=_cyclic_deriv([np.cos, lambda z: -np.sin(z),
                                         lambda z: -np.cos(z), np.sin])),
    "sinh": ScalarFn(np.sinh, 0.0, "sinh", Series(_alt(1, False), np.inf),
                     deriv=_cyclic_deriv([np.sinh, np.cosh])),
    "cosh": ScalarFn(np.cosh, 1.0, "cosh", Series(_alt(0, False), np.inf),
                     deriv=_cyclic_deriv([np.cosh, np.sinh])),
    "sqrt": power_fn(0.5),
    "sign": ScalarFn(_sign_eval, 0.0, "sign"),
    "inverse_shift": ScalarFn(_inv_shift, 1.0, "inverse_shift",
                              Series(lambda k: (-1.0) ** k, 1.0),
                              deriv=_inv_shift_deriv,
                              deriv_radius=lambda z0: abs(1.0 + z0)),
    "id": power_fn(1),
    "square": power_fn(2),
    "cube": power_fn(3),
}

# Named functions whose generalized form needs every windowed singular
# value strictly positive (their even series parts do not vanish at 0).
POSITIVE_ONLY = frozenset({"exp", "cos", "cosh", "ln1p", "inverse_shift"})


def named_scalar_fn(name) -> ScalarFn:
    if isinstance(name, ScalarFn):
        return name
    key = str(name)
    if key.startswith("power(") and key.endswith(")"):
        try:
            exponent = float(key[6:-1])
        except ValueError:
            raise FnDomainError(f"power exponent must be a number, got {name!r}") from None
        return power_fn(exponent)
    try:
        return NAMED_FUNCTIONS[key]
    except KeyError:
        raise FnDomainError(f"unknown scalar function {name!r}") from None


def _require_f_zero(c, f):
    """Zero singular values inside the rank window need f(0) = 0."""
    if f.value_at_zero != 0 and (c.sigma <= 0.0).any():
        raise ZeroSingularValueRequiresFZero(
            f"zero singular value inside rank window but f(0) = {f.value_at_zero}"
        )


def _rebuild_values(c, f):
    """Ur * f(Sr) * Vr^H from a compact T-SVD; zero singular values map to 0."""
    _require_f_zero(c, f)
    zero = c.sigma <= 0.0
    vals = np.zeros(c.sigma.shape, dtype=np.complex128)
    if (~zero).any():
        out = np.asarray(f(c.sigma[~zero]), dtype=np.complex128)
        if not np.all(np.isfinite(out)):
            raise FnDomainError(f"{f.name or 'f'} is not finite on some singular value")
        vals[~zero] = out
    return c.rebuild(vals if vals.imag.any() else vals.real)


def gfun(a: Tensor3, f: ScalarFn) -> Tensor3:
    """Generalized tensor function Ur * f(Sr) * Vr^H via the compact T-SVD."""
    return _rebuild_values(tcsvd(a), f)


def _matrix_series(d, f, face_index):
    if f.series is None:
        raise DefectiveFace(f"face {face_index} defective and no series fallback")
    rho = float(np.abs(np.linalg.eigvals(d)).max())
    if rho >= f.series.radius:
        raise SeriesDivergence(
            f"face {face_index}: spectral radius {rho:.3g} >= series radius {f.series.radius:.3g}"
        )
    acc, tail = _power_series(f.series.coeff, d, np.eye(d.shape[0], dtype=np.complex128),
                              np.matmul, np.linalg.norm, _SERIES_CAP, _SERIES_RTOL)
    if not tail <= _SERIES_RTOL:
        raise SeriesDivergence(f"face {face_index}: series did not settle in {_SERIES_CAP} terms")
    return acc


def _values_on(f, w):
    # a constant f may return a scalar
    return np.broadcast_to(np.asarray(f(w), dtype=np.complex128), w.shape)


def _matrix_functions(faces, f, force_series):
    """f of every face of an (h, n, n) stack, each by its own eigendecomposition.

    Hermitian faces go through one batched ``eigh``, the others through one
    batched ``eig`` whose eigenvector matrices must pass the ``_COND_LIMIT``
    guard; faces that fail it take the power series one at a time. Errors
    come from the lowest-indexed failing face, as a face-by-face loop would
    raise them.
    """
    if force_series:
        return np.stack([_matrix_series(d, f, i) for i, d in enumerate(faces)])
    h = len(faces)
    scale = np.maximum(np.linalg.norm(faces, axis=(-2, -1)), 1.0)
    skew = np.linalg.norm(faces - faces.conj().swapaxes(-2, -1), axis=(-2, -1))
    herm = skew <= 1e-12 * scale
    # per path: face indices, eigenvectors V, f of the eigenvalues, V^-1
    parts = []
    flagged = np.zeros(0, dtype=int)
    if herm.any():
        idx = np.flatnonzero(herm)
        w, v = np.linalg.eigh(faces[idx])
        parts.append((idx, v, _values_on(f, w.astype(np.complex128)), v.conj().swapaxes(-2, -1)))
    if not herm.all():
        idx = np.flatnonzero(~herm)
        w, v = np.linalg.eig(faces[idx])
        sv = np.linalg.svd(v, compute_uv=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            bad = (sv[:, -1] <= 0) | (sv[:, 0] / sv[:, -1] > _COND_LIMIT)
        flagged = idx[bad]
        if not bad.all():
            v = v[~bad]
            parts.append((idx[~bad], v, _values_on(f, w[~bad]), np.linalg.inv(v)))
    finite = np.ones(h, dtype=bool)
    for idx, _, fw, _ in parts:
        finite[idx] = np.isfinite(fw).all(axis=-1)
    first_bad = int(np.argmin(finite)) if not finite.all() else h
    out = np.empty(faces.shape, dtype=np.complex128)
    for i in flagged[flagged < first_bad]:
        out[i] = _matrix_series(faces[i], f, int(i))
    if first_bad < h:
        raise FnDomainError(f"{f.name or 'f'} not finite on the spectrum of face {first_bad}")
    for idx, v, fw, vinv in parts:
        out[idx] = (v * fw[:, None, :]) @ vinv
    return out


def _looks_real_analytic(f):
    # real coefficients <=> f maps reals to reals, which lets the facewise
    # driver exploit conjugate symmetry of real input
    try:
        probe = np.asarray(f(np.array([0.37, 1.21])), dtype=np.complex128)
    except Exception:
        return False
    return bool(np.all(np.abs(probe.imag) <= 1e-14 * (1.0 + np.abs(probe))))


def standard_tfn(a: Tensor3, f: ScalarFn, force_series=False) -> Tensor3:
    """Standard T-function: the matrix function of every DFT face.

    Equals bcirc_inv(f(bcirc(a))). Primary path is one batched
    eigendecomposition per call over the whole face stack (``eigh`` for the
    Hermitian faces, ``eig`` for the rest) with a conditioning guard on each
    face; a declared power series is the fallback for the faces that fail it.
    """
    if a.m != a.n:
        raise DimMismatch(f"standard T-function needs an F-square tensor, got {a.shape}")
    half, (faces,) = to_faces(a, allow_half=_looks_real_analytic(f))
    return from_faces(_matrix_functions(faces, f, force_series), a.p, half)


def gpower(a: Tensor3, k: int) -> Tensor3:
    """Generalized power: X_0 = E and X_j = X_{j-1} * E^H * A.

    Satisfies X_{2j+1} = (A * A^H)^j * A and X_{2j} = (A * A^H)^j * E.
    """
    if k < 0 or k != int(k):
        raise InvalidArgument("generalized power needs a nonnegative integer exponent")
    e = isometry(tcsvd(a))
    eh = conj_transpose(e)
    x = e
    for _ in range(int(k)):
        x = tprod(tprod(x, eh), a)
    return x


def _taylor_coeff(f, z0, k):
    if z0 == 0 and f.series is not None:
        return complex(f.series.coeff(k))
    if f.deriv is None:
        raise FnDomainError(f"{f.name or 'f'} has no derivative access at z0 = {z0}")
    return complex(f.deriv(z0, k)) * _inv_factorial(k)


def gfun_taylor(a: Tensor3, f: ScalarFn, z0=0.0, max_terms=_SERIES_CAP, tol=1e-12) -> Tensor3:
    """Generalized function by Taylor expansion in generalized powers of (A - z0 E).

    Valid while every windowed singular value stays inside the disc of
    convergence around z0; must agree with :func:`gfun` to about 10 * tol.
    """
    c = tcsvd(a)
    radius = None
    if z0 == 0 and f.series is not None:
        radius = f.series.radius
    elif f.deriv_radius is not None:
        radius = f.deriv_radius(z0)
    dist = np.abs(c.sigma - z0)
    if radius is not None and (dist >= radius).any():
        raise RadiusViolation(
            f"singular value at distance {dist.max():.3g} from z0 exceeds radius {radius:.3g}"
        )

    def taylor_sum(x):
        shifted = x.astype(np.complex128) - z0
        acc, tail = _power_series(lambda k: _taylor_coeff(f, z0, k), shifted,
                                  np.ones_like(shifted), np.multiply, np.linalg.norm,
                                  max_terms, tol)
        # a vanishing coefficient can make the very last term tiny while the
        # series still diverges, so judge the last two terms together
        if not tail <= 100 * tol:
            raise NoConvergence(
                f"series did not settle within {max_terms} terms (relative term size {tail:.3g})")
        return acc

    return _rebuild_values(c, replace(f, fn=taylor_sum))


def named_gfun(a: Tensor3, name) -> Tensor3:
    """Generalized function by name, enforcing the positivity preconditions."""
    f = named_scalar_fn(name)
    c = tcsvd(a)
    if f.name in POSITIVE_ONLY and np.any(c.sigma <= 0.0):
        raise ZeroSingularValueRequiresFZero(
            f"{f.name} needs strictly positive singular values in the rank window"
        )
    return _rebuild_values(c, f)


def even_odd_split(f: ScalarFn):
    """Split f(z) = sum a_k z^k into g1(w) = sum a_2k w^k, g2(w) = sum a_2k+1 w^k.

    Then f_gen(A) = g1_gen(A * A^H) * E + g2_gen(A * A^H) * A: the even and
    odd halves act through the Gram tensor.
    """
    if f.series is None:
        raise FnDomainError(f"{f.name or 'f'} has no power series to split")
    base = f.series
    r2 = base.radius**2 if np.isfinite(base.radius) else np.inf
    s1 = Series(lambda k: base.coeff(2 * k), r2)
    s2 = Series(lambda k: base.coeff(2 * k + 1), r2)
    g1 = ScalarFn(s1.eval, complex(base.coeff(0)), name=f"{f.name}_even_gram", series=s1)
    g2 = ScalarFn(s2.eval, complex(base.coeff(1)), name=f"{f.name}_odd_gram", series=s2)
    return g1, g2


def odd_part(f: ScalarFn) -> ScalarFn:
    """The odd half of f as a function of the singular value itself.

    It carries the odd terms of f's series, with f's radius.
    """
    _, g2 = even_odd_split(f)

    def ev(x):
        x = np.asarray(x, dtype=np.complex128)
        return x * g2(x * x)

    series = Series(lambda k: f.series.coeff(k) if k % 2 else 0.0, f.series.radius)
    return ScalarFn(ev, 0.0, name=f"{f.name}_odd", series=series)


def gfun_series_split(a: Tensor3, f: ScalarFn) -> Tensor3:
    """Second route to the generalized function through the even/odd split.

    Needs a full rank window whenever the even coefficients do not vanish
    (the even half evaluates at 0 otherwise).
    """
    g1, g2 = even_odd_split(f)
    c = tcsvd(a)
    e = isometry(c)
    gram = tprod(a, conj_transpose(a))
    return tprod(gfun(gram, g1), e) + tprod(gfun(gram, g2), a)


def mixed_block_fn(a: Tensor3, f: ScalarFn) -> Tensor3:
    """Standard function of [[0, A], [A^H, 0]], cross-checked blockwise.

    The result must assemble as [[g1(A A^H), f_odd_gen(A)],
    [f_odd_gen(A)^H, g1(A^H A)]] where g1 carries the even series half;
    a :class:`ConsistencyError` reports a relative disagreement above 1e-9
    between the routes.
    """
    g1, _ = even_odd_split(f)
    fo = odd_part(f)
    ah = conj_transpose(a)
    doubled = block([[0, a], [ah, 0]])
    full = standard_tfn(doubled, f)

    off = gfun(a, fo)
    diag1 = standard_tfn(tprod(a, ah), g1)
    diag2 = standard_tfn(tprod(ah, a), g1)
    assembled = block([[diag1, off], [conj_transpose(off), diag2]])

    scale = max(fnorm(full), 1.0)
    residual = fnorm(full - assembled) / scale
    if residual > 1e-9:
        raise ConsistencyError(
            f"blockwise assembly disagrees with the doubled tensor: residual {residual:.3e}"
        )
    return full
