"""Generalized tensor functions, standard T-functions, and generalized powers.

A generalized function applies a scalar function to the singular values
inside the compact T-SVD, leaving the singular subspaces fixed:
f_gen(A) = Ur * f(Sr) * Vr^H. The standard T-function instead applies a
matrix function to every DFT face of an F-square tensor (equivalently to
bcirc(A)); the two disagree in general even when f(0) = 0.

The standard T-function of a stack of 2x2 faces is Sylvester's formula in
closed form (:func:`_f2x2`), on the calling thread; only the faces it flags
(confluent or near-confluent eigenvalues, a non-finite f or result, parts
far from 1) take the kernel of larger faces. That kernel is one batched
kernel over the faces, sliced and threaded by the face layer like every
other face kernel: for exp (``f.fn is np.exp``) scaling and squaring with
the [13/13] Pade approximant (Higham 2005, "The scaling and squaring method
for the matrix exponential revisited", SIAM J. Matrix Anal. Appl. 26(4)),
accurate on defective and non-normal faces, where eigenvectors lose digits;
for every other f the eigendecomposition of each face. Each face the kernel
cannot vouch for (eigenvectors that fail the conditioning guard, or
squarings the Pade kernel cannot save) then takes, on the calling thread,
the Taylor sum of f about its own mean eigenvalue, the atomic-block step of
Schur-Parlett (Davies & Higham 2003, "A Schur-Parlett algorithm for
computing matrix functions", SIAM J. Matrix Anal. Appl. 25(2)): short and
exact when the eigenvalues cluster about their mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
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
    NonFinite,
    RadiusViolation,
    SeriesDivergence,
    ZeroSingularValueRequiresFZero,
)
from .spectral import (_EPS, _ct, _matmul, _per_face, _svdvals, from_faces, isometry, tcsvd,
                       to_faces)

_SERIES_CAP = 500
_SERIES_RTOL = 1e-12
# eigenvector matrices of a non-Hermitian face above this condition number
# send the face to f's Taylor sum about its mean eigenvalue mu, refused when its
# rounding error estimate eps * max_k ||c_k (D - mu I)^k|| / ||sum|| exceeds _CANCEL_LIMIT
_COND_LIMIT = 1e8
_CANCEL_LIMIT = 1e-10
# Pade [13/13] coefficients b_0..b_13 of exp, and the largest ||D|| at which
# the approximant is exp(D + E) with ||E|| <= u ||D|| (Higham 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152
# most squarings alpha may save below the 1-norm's count; a face that needs more takes
# the Taylor sum. Alpha bounds the Pade truncation error, not the rounding of the
# approximant, which grows with the 1-norm of the scaled face and so doubles with each
# squaring saved: exp of [[1, x, 0], [0, 1.5, x], [0, 0, 2]] read 1.2e-9 from its closed
# form at x = 1e15, where alpha saves 24, and 1.0 at x = 1e38; on the Taylor sum they read
# at most 7.8e-16
_MAX_SAVED = 16
# a 2x2 face whose closed-form error estimate (see _f2x2) is above this, or not a number,
# takes the kernel of larger faces instead. On near-confluent exp faces [[1, 1e3], [t, 1]],
# t = 1e-1 .. 1e-14, a limit of 1e-10 let through errors of 8.8e-12 and 1e-12 of 1.9e-13
# against 40-digit arithmetic, where Pade reads 9.3e-16; at 1e-14 they read at most 7.2e-16,
# and on faces-small-like inputs 0 of 2049 real and 0 to 3 of 4096 complex faces are flagged
_CLOSED_FORM_LIMIT = 1e-14
# the multiply-adds per n^3 that the Pade kernel counts a face as against _PRODUCT_WORK: its
# six products, the solve, the squarings and the sums between them. On a 2-vCPU Xeon with one
# BLAS thread two threads lost on 1024 complex 4x4 faces (h n^3 = 2^16; 3.3 -> 4.3 ms), broke
# even on 129 real 8x8 faces and gained on 256 complex 8x8 faces (2^17; 2.16 -> 2.01 ms) and
# on 33 real 16x16 faces (1.12 -> 0.90 ms)
_PADE_MADDS = 16


def _power_series(series, x, one, mul, cap=_SERIES_CAP, rtol=_SERIES_RTOL):
    """Sum series.coeff(k) x^k for k = 0..cap: ``(sum, tail, peak)``.

    A finite series is summed exactly to its degree, with ``tail`` 0. An
    infinite one stops after two consecutive terms whose size relative to
    the partial sum is at most ``rtol``, so alternating series with zero
    coefficients in between are not truncated early. ``tail`` is the larger
    relative size of the last two terms, so with ``cap >= 2`` the sum
    settled exactly when ``tail <= rtol``. ``peak`` is the largest term
    size: the sum's rounding error is about eps * peak. ``one`` is x^0 and
    ``mul(pw, x)`` the next power. Every sum and term is sized by its
    largest entry (:func:`_max_abs`). An overflowed sum returns an infinite ``tail``.
    """
    last = cap if series.degree is None else min(series.degree, cap)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        acc, pw = complex(series.coeff(0)) * one, one
        ratio, tail, peak = 0.0, np.inf, _max_abs(acc)
        for k in range(1, last + 1):
            pw = mul(pw, x)
            term = complex(series.coeff(k)) * pw
            acc = acc + term
            size = _max_abs(acc)
            if not np.isfinite(size):
                # an overflowed power or sum never settles
                return acc, np.inf, np.inf
            term_size = _max_abs(term)
            prev, ratio = ratio, term_size / max(size, 1e-300)
            tail, peak = max(ratio, prev), max(peak, term_size)
            if series.degree is None and k > 1 and prev <= rtol and ratio <= rtol:
                break
    return acc, (0.0 if last == series.degree else tail), peak


def _max_abs(v):
    # a term's size; a norm that squares the entries overflows past about 1e154
    return np.abs(v).max()


@dataclass(frozen=True)
class Series:
    """Power series about z0: ``coeff(k)`` multiplies (z - z0)^k, and ``eval`` takes z - z0.

    ``degree`` is the last coefficient of a finite series, None otherwise.
    """

    coeff: Callable[[int], complex]
    radius: float
    degree: Optional[int] = None

    @classmethod
    def from_coeffs(cls, coeffs):
        """The polynomial with these low-order-first coefficients (an entire series)."""
        arr = np.asarray(coeffs, dtype=np.complex128)
        return cls(lambda k: complex(arr[k]) if k < arr.size else 0.0, np.inf, arr.size - 1)

    def eval(self, z):
        """Partial sums of the series at z (array ok); guards the radius."""
        z = np.asarray(z, dtype=np.complex128)
        if np.any(np.abs(z) >= self.radius):
            raise RadiusViolation(f"|z| up to {np.abs(z).max():.3g} >= radius {self.radius:.3g}")
        acc, tail, _ = _power_series(self, z, np.ones_like(z), np.multiply)
        if not tail <= _SERIES_RTOL:
            raise SeriesDivergence(f"series did not settle within {_SERIES_CAP} terms")
        return acc


def _only_at_zero(series):
    return lambda z0: series if z0 == 0 else None


@dataclass(frozen=True)
class ScalarFn:
    """A scalar function driving every generalized-function path.

    ``fn`` must accept numpy arrays (real or complex). ``value_at_zero`` is
    the declared f(0) used to gate zero singular values inside the rank
    window. ``taylor(z0)`` is f's Taylor :class:`Series` about z0, with
    coefficients f^(k)(z0) / k!, or None where f has none there; Taylor
    mode and the standard T-function's guard-failing faces sum it.
    """

    fn: Callable
    value_at_zero: complex
    name: str = ""
    taylor: Callable[[complex], Optional[Series]] = lambda z0: None

    @property
    def series(self) -> Optional[Series]:
        """f's series about 0, ``taylor(0)``: rebuilt on each access."""
        return self.taylor(0)

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

    def taylor(z0):
        # p(z0 + t) by Horner's rule in polynomial arithmetic
        shifted = np.polynomial.Polynomial(arr)(np.polynomial.Polynomial([z0, 1.0]))
        return Series.from_coeffs(shifted.coef)

    return ScalarFn(ev, complex(arr[0]), name="poly", taylor=taylor)


@lru_cache(maxsize=1024)
def _inv_factorial(k):
    # 1 / k! overflows the int-to-float conversion past k = 170
    return 1.0 / math.factorial(k) if k <= 170 else math.exp(-math.lgamma(k + 1))


def _cyclic(f, df, sign):
    # exp, sin, cos, sinh, cosh: f'' = sign * f, so f^(k)(z0) cycles through f, f', sign f, sign f'
    def taylor(z0):
        v = (f(z0), df(z0))
        # + 0.0 turns -0.0 into 0.0, so a vanishing coefficient is exactly +0.0
        cycle = [c + 0.0 for c in (*v, sign * v[0], sign * v[1])]
        return Series(lambda k: cycle[k % 4] * _inv_factorial(k), np.inf)

    return taylor


def _ln1p_taylor(z0):
    w = np.add(1.0, z0)
    return Series(lambda k: np.log(w) if k == 0 else (-1.0) ** (k - 1) / (k * w**k), abs(w))


def _inv_shift_taylor(z0):
    w = np.add(1.0, z0)
    return Series(lambda k: (-1.0) ** k / w ** (k + 1), abs(w))


def power_fn(alpha) -> ScalarFn:
    """f(x) = x**alpha on the nonnegative axis (principal branch elsewhere)."""
    try:
        alpha = float(alpha)
    except (TypeError, ValueError):
        raise FnDomainError(f"power exponent must be a number, got {alpha!r}") from None
    if not np.isfinite(alpha):
        raise FnDomainError(f"power exponent must be finite, got {alpha}")
    f0 = 0.0 if alpha > 0 else 1.0 if alpha == 0 else np.inf
    degree = int(alpha) if alpha == int(alpha) and alpha >= 0 else None

    def ev(z):
        z = np.asarray(z)
        if not np.iscomplexobj(z) and (alpha != int(alpha)) and np.any(z < 0):
            z = z.astype(np.complex128)
        return z**alpha

    def taylor(z0):
        if z0 == 0:
            return None if degree is None else Series.from_coeffs(np.eye(degree + 1)[degree])
        coeffs = [ev(z0)]

        def coeff(k):  # binom(alpha, k) z0^(alpha - k), the binomial as a running product
            for j in range(len(coeffs) - 1, k):
                coeffs.append(coeffs[j] * (alpha - j) / ((j + 1) * z0))
            return coeffs[k]
        return Series(coeff, np.inf if degree is not None else abs(z0), degree)

    return ScalarFn(ev, f0, name=f"power({alpha:g})", taylor=taylor)


def _sign_eval(z):
    z = np.asarray(z, dtype=np.complex128)
    az = np.abs(z)
    out = np.zeros_like(z)
    nz = az > 0
    out[nz] = z[nz] / az[nz]
    return out


NAMED_FUNCTIONS = {
    "exp": ScalarFn(np.exp, 1.0, "exp", _cyclic(np.exp, np.exp, 1)),
    "ln1p": ScalarFn(np.log1p, 0.0, "ln1p", _ln1p_taylor),
    "sin": ScalarFn(np.sin, 0.0, "sin", _cyclic(np.sin, np.cos, -1)),
    "cos": ScalarFn(np.cos, 1.0, "cos", _cyclic(np.cos, lambda z: -np.sin(z), -1)),
    "sinh": ScalarFn(np.sinh, 0.0, "sinh", _cyclic(np.sinh, np.cosh, 1)),
    "cosh": ScalarFn(np.cosh, 1.0, "cosh", _cyclic(np.cosh, np.sinh, 1)),
    "sqrt": power_fn(0.5),
    "sign": ScalarFn(_sign_eval, 0.0, "sign"),
    "inverse_shift": ScalarFn(lambda z: 1.0 / (1.0 + np.asarray(z)), 1.0, "inverse_shift",
                              _inv_shift_taylor),
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
    """f(D) as the Taylor sum of ``f.taylor(mu)`` in powers of D - mu I, mu = tr(D) / n.

    Refused when f has no series about mu, when an eigenvalue lies outside
    its disc, or when the sum does not settle or cancels (``_CANCEL_LIMIT``).
    """
    n = d.shape[0]
    mu = np.trace(d) / n
    series = f.taylor(mu)
    if series is None:
        raise DefectiveFace(f"face {face_index} defective and {f.name or 'f'} has no Taylor series")
    spread = float(np.abs(np.linalg.eigvals(d) - mu).max())
    if spread >= series.radius:
        raise SeriesDivergence(f"face {face_index}: eigenvalue spread {spread:.3g} about the "
                               f"mean >= series radius {series.radius:.3g}")
    eye = np.eye(n, dtype=np.complex128)
    acc, tail, peak = _power_series(series, d - mu * eye, eye, np.matmul)
    if not tail <= _SERIES_RTOL:
        raise SeriesDivergence(f"face {face_index}: series did not settle in {_SERIES_CAP} terms")
    err = _EPS * peak / max(_max_abs(acc), 1e-300)
    if err > _CANCEL_LIMIT:
        raise DefectiveFace(f"face {face_index}: Taylor sum cancels, estimated relative error "
                            f"{err:.1e} > {_CANCEL_LIMIT:g}")
    return acc


def _values_on(f, w):
    # a constant f may return a scalar
    return np.broadcast_to(np.asarray(f(w), dtype=np.complex128), w.shape)


def _eig_chunk(d, f):
    """f of every face of an (h, n, n) stack by its eigendecomposition: ``(out, fallback)``.

    Hermitian faces take one batched ``eigh``, the others one batched
    ``eig``. ``fallback`` marks the faces whose eigenvector matrix fails the
    ``_COND_LIMIT`` guard; their slots of ``out`` are left unset.
    """
    out = np.empty(d.shape, dtype=np.complex128)
    fallback = np.zeros(len(d), dtype=bool)
    # largest entries, not Frobenius norms, which overflow from entries near 1e154: inf <=
    # 1e-12 inf would pass and send a triangular face to eigh, which reads one triangle.
    # A face whose largest entry's modulus still overflows goes to eig for the same reason.
    scale = np.maximum(np.abs(d).max(axis=(-2, -1)), 1.0)
    herm = (np.abs(d - _ct(d)).max(axis=(-2, -1)) <= 1e-12 * scale) & np.isfinite(scale)
    if herm.any():
        w, v = np.linalg.eigh(d[herm])
        fw = _values_on(f, w.astype(np.complex128))
        out[herm] = _matmul(v * fw[:, None, :], _ct(v))
    if not herm.all():
        idx = np.flatnonzero(~herm)
        w, v = np.linalg.eig(d[idx])
        sv = _svdvals(v)
        fallback[idx] = (sv[:, -1] <= 0) | (sv[:, 0] / sv[:, -1] > _COND_LIMIT)
        good = ~fallback[idx]
        if good.any():
            v = v[good]
            out[idx[good]] = _matmul(v * _values_on(f, w[good])[:, None, :], np.linalg.inv(v))
    return out, fallback


def _onenorm(d):
    return np.abs(d).sum(axis=-2).max(axis=-1)


def _squarings(log2_alpha):
    """Least s >= 0 with alpha / 2^s <= theta_13; 0 where alpha is 0 or not finite."""
    s = np.ceil(log2_alpha - np.log2(_THETA13))
    return np.where(np.isfinite(s), np.maximum(s, 0.0), 0.0).astype(int)


def _expm_chunk(d):
    """exp of every face of an (h, n, n) stack by [13/13] Pade, scaling and squaring.

    Each face gets its own number of squarings s. The powers are first
    formed at the count that ||D||_1 needs, so none overflows. Then s is
    lowered to the count that alpha = max(||D^4||^(1/4), ||D^6||^(1/6))
    needs. ||D^k|| <= alpha^k for even k >= 4 and <= ||D|| alpha^(k-1) for
    odd k, so the relative backward-error bound behind theta_13 holds with
    alpha in place of ||D|| (Al-Mohy & Higham 2009, "A new scaling and
    squaring algorithm for the matrix exponential", SIAM J. Matrix Anal.
    Appl. 31(3), section 4). On a strongly non-normal face alpha is far
    below ||D||, and every squaring saved halves the growth of the
    approximant's rounding error. Scaling the powers by powers of two is
    exact, so no power is formed twice. Also returns the mask of faces whose
    count alpha would lower by more than ``_MAX_SAVED``, for the Taylor sum:
    their squarings raise a diagonal one ulp off to a power of 2^s, which
    loses every digit.
    """
    b = _PADE13
    s1 = _squarings(np.log2(_onenorm(d)))
    d = d / np.exp2(s1)[:, None, None]
    d2 = _matmul(d, d)
    d4 = _matmul(d2, d2)
    d6 = _matmul(d4, d2)
    log2_alpha = np.maximum(np.log2(_onenorm(d4)) / 4, np.log2(_onenorm(d6)) / 6) + s1
    want = _squarings(log2_alpha)
    s = np.clip(want, s1 - _MAX_SAVED, s1)
    up = np.exp2(s1 - s)[:, None, None]
    d *= up
    d2 *= up**2
    d4 *= up**4
    d6 *= up**6
    eye = np.eye(d.shape[-1])
    u = _matmul(d, _matmul(d6, b[13] * d6 + b[11] * d4 + b[9] * d2)
                + b[7] * d6 + b[5] * d4 + b[3] * d2 + b[1] * eye)
    v = (_matmul(d6, b[12] * d6 + b[10] * d4 + b[8] * d2)
         + b[6] * d6 + b[4] * d4 + b[2] * d2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for j in range(int(s.max(initial=0))):
        sq = s > j
        rs = r[sq]
        r[sq] = _matmul(rs, rs)
    return r, want < s1 - _MAX_SAVED


def _f2x2(faces, f):
    """f of every face of an (h, 2, 2) stack in closed form: ``(out, fallback)``.

    Sylvester's formula (Higham, *Functions of Matrices*, SIAM 2008, ch. 4):
    with mu = tr(A)/2, e = (a - d)/2 and eigenvalues l1, l2, f(A) = a0 I +
    a1 (A - mu I), where a0 = (f(l1) + f(l2))/2 and a1 = (f(l1) - f(l2)) /
    (l1 - l2). The eigenvalues come without cancellation: l1 = mu + delta, with
    delta^2 = e^2 + bc and the sign of delta for which Re(conj(mu) delta) >= 0,
    and l2 = det(A)/l1. ``fallback`` marks the faces whose error estimate
    eps max|f(l)| (1 + |mu| + |delta|) max(|e|, |b|, |c|) / (|l1 - l2| max|out|)
    is above ``_CLOSED_FORM_LIMIT`` or not a number: near-confluent and
    confluent faces, where the divided difference a1 cancels, and faces where
    f or the result is not finite. So are faces with one of |mu|, |e|, |b|,
    |c| nonzero and outside [2^-500, 2^500], where a product of two of them
    could leave the normal range and take the eigenvalues' digits with it.
    The operations run on the whole stack at once, on the calling thread, as
    in :func:`spectral._svd2x2`.
    """
    h = len(faces)
    a, b, c, d = np.moveaxis(faces, 0, -1).reshape(4, h)
    mu, e = 0.5 * (a + d), 0.5 * (a - d)
    delta = np.sqrt(e * e + b * c)
    np.negative(delta, out=delta, where=mu.real * delta.real + mu.imag * delta.imag < 0.0)
    lam = np.zeros((2, h), dtype=np.complex128)
    np.add(mu, delta, out=lam[0])
    # where l1 is 0 so is l2: |l1| >= |l2| by the choice of sign
    np.divide(a * d - b * c, lam[0], out=lam[1], where=lam[0] != 0.0)
    fl = _values_on(f, lam)
    gap = lam[0] - lam[1]
    a0, a1 = 0.5 * (fl[0] + fl[1]), (fl[0] - fl[1]) / gap
    ae = a1 * e
    out = np.stack([a0 + ae, a1 * b, a1 * c, a0 - ae])
    top = reduce(np.maximum, np.abs(out))
    absf = np.abs(fl)
    sizes = np.abs([mu, e, b, c])
    # as a product of ratios, which neither overflow nor underflow on a face in range
    est = (_EPS * (np.maximum(absf[0], absf[1]) / top) * (1.0 + sizes[0] + np.abs(delta))
           * (reduce(np.maximum, sizes[1:]) / np.abs(gap)))
    beyond = reduce(np.logical_or, ((sizes > 0.0) & (sizes < 2.0**-500)) | (sizes > 2.0**500))
    est[beyond | ~np.isfinite(top)] = np.nan
    return np.ascontiguousarray(out.T).reshape(h, 2, 2), ~(est <= _CLOSED_FORM_LIMIT)


def _face_functions(faces, f):
    """f of every face of an (h, n, n) stack.

    A stack of 2x2 faces takes :func:`_f2x2` on the calling thread, and the
    faces it flags take the kernel of larger faces. That kernel,
    ``_expm_chunk`` for exp and ``_eig_chunk`` otherwise, runs through
    ``_per_face``: the Pade kernel as a product chain of ``_PADE_MADDS``
    n^3 multiply-adds a face, ``_eig_chunk`` as a factorization. Then each
    face the kernel marks for the fallback takes ``_matrix_series`` on the
    calling thread. The lowest face that is not finite or that the series
    refuses raises, as a face-by-face loop would.
    """
    n = faces.shape[-1]
    outs = ((n, n), np.complex128), ((), bool)

    def kernel(d):
        if f.fn is np.exp:
            return _per_face(_expm_chunk, (d,), *outs, madds=_PADE_MADDS * len(d) * n**3)
        return _per_face(lambda x: _eig_chunk(x, f), (d,), *outs)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if n == 2:
            out, fallback = _f2x2(faces, f)
            idx = np.flatnonzero(fallback)
            if idx.size:
                out[idx], fallback[idx] = kernel(faces[idx])
        else:
            out, fallback = kernel(faces)
        bad = ~fallback & ~np.isfinite(out).all(axis=(-2, -1))
        stop = int(np.argmax(bad)) if bad.any() else len(bad)
        for k in np.flatnonzero(fallback[:stop]):
            out[k] = _matrix_series(faces[k], f, k)
    if stop < len(bad):
        raise FnDomainError(f"{f.name or 'f'} not finite on face {stop}")
    return out


def _looks_real_analytic(f):
    # real coefficients <=> f maps reals to reals, which lets the facewise
    # driver exploit conjugate symmetry of real input
    try:
        probe = np.asarray(f(np.array([0.37, 1.21])), dtype=np.complex128)
    except Exception:
        return False
    return bool(np.all(np.abs(probe.imag) <= 1e-14 * (1.0 + np.abs(probe))))


def standard_tfn(a: Tensor3, f: ScalarFn) -> Tensor3:
    """Standard T-function: the matrix function of every DFT face, bcirc_inv(f(bcirc(a))).

    The kernels and the Taylor fallback are described in the module docstring.
    """
    if a.m != a.n:
        raise DimMismatch(f"standard T-function needs an F-square tensor, got {a.shape}")
    half, (faces,) = to_faces(a, allow_half=_looks_real_analytic(f))
    return from_faces(_face_functions(faces, f), a.p, half)


def gpower(a: Tensor3, k: int) -> Tensor3:
    """Generalized power A^(k) = Ur * Sr^k * Vr^H, with X_0 = E (sigma^0 = 1 on the window).

    It satisfies X_j = X_{j-1} * E^H * A, so X_{2j+1} = (A * A^H)^j * A and
    X_{2j} = (A * A^H)^j * E. A sigma^k that overflows raises :class:`NonFinite`.
    """
    if k < 0 or k != int(k):
        raise InvalidArgument("generalized power needs a nonnegative integer exponent")
    c = tcsvd(a)
    with np.errstate(over="ignore"):
        vals = c.sigma ** int(k)
    if not np.isfinite(vals).all():
        raise NonFinite(f"sigma^{int(k)} overflows at singular value {c.sigma.max():.3g}")
    return c.rebuild(vals)


def gfun_taylor(a: Tensor3, f: ScalarFn, z0=0.0, max_terms=_SERIES_CAP, tol=1e-12) -> Tensor3:
    """Generalized function by Taylor expansion in generalized powers of (A - z0 E).

    Sums ``f.taylor(z0)``. Valid while every windowed singular value stays
    inside its disc of convergence; must agree with :func:`gfun` to about
    10 * tol.
    """
    if not np.isfinite(z0):
        raise InvalidArgument(f"expansion point z0 = {z0} is not finite")
    series = f.taylor(z0)
    if series is None:
        raise FnDomainError(f"{f.name or 'f'} has no Taylor series about z0 = {z0}")
    c = tcsvd(a)
    dist = np.abs(c.sigma - z0)
    if (dist >= series.radius).any():
        raise RadiusViolation(f"singular value at distance {dist.max():.3g} from z0 exceeds "
                              f"radius {series.radius:.3g}")

    def taylor_sum(x):
        shifted = x.astype(np.complex128) - z0
        acc, tail, _ = _power_series(series, shifted, np.ones_like(shifted), np.multiply,
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
    base = f.series
    if base is None:
        raise FnDomainError(f"{f.name or 'f'} has no power series to split")
    r2 = base.radius**2 if np.isfinite(base.radius) else np.inf
    deg = base.degree
    s1 = Series(lambda k: base.coeff(2 * k), r2, None if deg is None else deg // 2)
    s2 = Series(lambda k: base.coeff(2 * k + 1), r2, None if deg is None else max(deg - 1, 0) // 2)
    g1 = ScalarFn(s1.eval, complex(base.coeff(0)), f"{f.name}_even_gram", _only_at_zero(s1))
    g2 = ScalarFn(s2.eval, complex(base.coeff(1)), f"{f.name}_odd_gram", _only_at_zero(s2))
    return g1, g2


def odd_part(f: ScalarFn) -> ScalarFn:
    """The odd half of f as a function of the singular value itself.

    It carries the odd terms of f's series, with f's radius.
    """
    _, g2 = even_odd_split(f)

    def ev(x):
        x = np.asarray(x, dtype=np.complex128)
        return x * g2(x * x)

    base = f.series
    series = Series(lambda k: base.coeff(k) if k % 2 else 0.0, base.radius, base.degree)
    return ScalarFn(ev, 0.0, f"{f.name}_odd", _only_at_zero(series))


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
