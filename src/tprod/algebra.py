"""The T-product ring: multiplication, identity, inverse, unitarity, forms.

tprod routes through the FFT face path (O(m n s p log p + m n s p));
the dense block-circulant path is O(m n s p^2) and is kept behind the
``method`` flag as the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Tensor3, bcirc, conj_transpose, fnorm, fold, transpose, unfold
from .errors import DimMismatch, InvalidArgument, Singular
from .spectral import _matmul, _per_face, _svdvals, default_rank_rtol, from_faces, to_faces


def first_slice(mat, p) -> Tensor3:
    """The p-slice tensor whose first frontal slice is ``mat``, all others zero."""
    data = np.zeros((p,) + mat.shape)
    data[0] = mat
    return Tensor3(data)


def identity(n, p) -> Tensor3:
    """First frontal slice I_n, all other slices zero."""
    return first_slice(np.eye(n), p)


def tprod(a: Tensor3, b: Tensor3, method="fft") -> Tensor3:
    """T-product of an (m, n, p) tensor with an (n, s, p) tensor."""
    if a.n != b.m or a.p != b.p:
        raise DimMismatch(f"cannot multiply {a.shape} by {b.shape}")
    if method == "dense":
        return fold(bcirc(a) @ unfold(b), a.m, b.n, a.p)
    if method != "fft":
        raise InvalidArgument(f"unknown method {method!r}")
    half, (fa, fb) = to_faces(a, b)
    return from_faces(_matmul(fa, fb), a.p, half)


def inverse(a: Tensor3) -> Tensor3:
    """T-product inverse of an F-square tensor.

    Raises :class:`Singular` (with the worst face index and its smallest
    singular value) when any DFT face is numerically singular.
    """
    if a.m != a.n:
        raise DimMismatch(f"inverse needs an F-square tensor, got {a.shape}")
    half, (faces,) = to_faces(a)
    sv = _svdvals(faces)
    smin_per_face = sv[:, -1]
    worst = int(np.argmin(smin_per_face))
    if smin_per_face[worst] <= default_rank_rtol(a.m, a.n, a.p) * float(sv.max()):
        raise Singular(
            f"face {worst} is singular (min singular value {smin_per_face[worst]:.3e})",
            face=worst,
            smin=float(smin_per_face[worst]),
        )
    return from_faces(_per_face(np.linalg.inv, faces, ((a.n, a.n), faces.dtype)), a.p, half)


def is_unitary(q: Tensor3, tol=1e-10) -> bool:
    """True when q^H * q and q * q^H are both within ``tol`` of identity in fnorm."""
    if q.m != q.n:
        return False
    eye = identity(q.n, q.p)
    qh = conj_transpose(q)
    return (
        fnorm(tprod(qh, q) - eye) <= tol
        and fnorm(tprod(q, qh) - eye) <= tol
    )


@dataclass
class FormKind:
    """A bilinear or sesquilinear form <x, y> = x^T * T * y (or x^H * T * y).

    ``tensor`` must be F-square and invertible; its inverse is computed
    lazily and cached for adjoints.
    """

    kind: str
    tensor: Tensor3

    def __post_init__(self):
        if self.kind not in ("bilinear", "sesquilinear"):
            raise InvalidArgument(f"kind must be bilinear or sesquilinear, got {self.kind!r}")
        if self.tensor.m != self.tensor.n:
            raise DimMismatch("form tensor must be F-square")

    def inv(self) -> Tensor3:
        if "_inv" not in vars(self):
            self._inv = inverse(self.tensor)
        return self._inv


def form_eval(form: FormKind, x: Tensor3, y: Tensor3) -> Tensor3:
    """Evaluate the form on lateral slices x, y (n x 1 x p), giving a 1 x 1 x p tube."""
    t = form.tensor
    if x.shape != (t.n, 1, t.p) or y.shape != (t.n, 1, t.p):
        raise DimMismatch(f"form on {t.shape} needs {(t.n, 1, t.p)} operands")
    left = transpose(x) if form.kind == "bilinear" else conj_transpose(x)
    return tprod(left, tprod(t, y))


def adjoint(a: Tensor3, form: FormKind) -> Tensor3:
    """Adjoint with respect to the form: T^-1 * A^T * T (bilinear) or with A^H."""
    t = form.tensor
    if a.m != a.n or a.m != t.n or a.p != t.p:
        raise DimMismatch(f"adjoint needs {t.n}x{t.n}x{t.p}, got {a.shape}")
    mid = transpose(a) if form.kind == "bilinear" else conj_transpose(a)
    return tprod(form.inv(), tprod(mid, t))
