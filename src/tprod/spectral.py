"""DFT face domain: the transform layer, T-SVD, T-CSVD, tubal rank, projectors.

All spectral work happens on the p "faces" obtained by a forward DFT along
the tube fibers. With the unitary DFT matrix F_p, the block-circulant of a
tensor factors as

    bcirc(A) = (F_p^H kron I_m) . blockdiag(D_1 .. D_p) . (F_p kron I_n),

so the T-product becomes an independent matrix product per face. Every
module reaches the faces through :func:`to_faces` and leaves through
:func:`from_faces`, running one batched kernel over the face stack in
between. For a real tensor the faces come in conjugate pairs
D_{p-k} = conj(D_k), so the layer keeps only the half spectrum, faces
0..p//2 (``rfft``), and returns through ``irfft``: real input gives real
output by construction. :func:`mirror` rebuilds all p faces where a kernel
breaks the pairing, such as a complex-valued function of real singular
values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Tensor3
from .errors import NonFinite

_EPS = float(np.finfo(np.float64).eps)


def default_rank_rtol(m, n, p):
    """Relative rank cutoff: max(m, n) * p * machine epsilon."""
    return max(m, n) * p * _EPS


def to_faces(*tensors, allow_half=True):
    """Forward DFT along the tubes of tensors sharing p: ``(half, [stacks])``.

    ``half`` is true when ``allow_half`` is set and every operand is exactly
    real; each stack then holds faces 0..p//2 only. Otherwise each stack
    holds all p faces. Raises :class:`NonFinite` before any transform when
    an operand holds a NaN or an infinity, so none reaches LAPACK.
    """
    for t in tensors:
        if not np.isfinite(t.data).all():
            raise NonFinite(f"{t.m} x {t.n} x {t.p} tensor holds a NaN or an infinity")
    half = allow_half and all(t.exactly_real for t in tensors)
    if half:
        return True, [np.fft.rfft(t.data, axis=0) for t in tensors]
    return False, [np.fft.fft(t.data, axis=0) for t in tensors]


def from_faces(faces, p, half) -> Tensor3:
    """Inverse of :func:`to_faces`; a half spectrum comes back as float64.

    ``irfft`` ignores the imaginary parts of face 0 and (for even p) face
    p/2, so on the half path those faces must already be real.
    """
    if half:
        return Tensor3(np.fft.irfft(faces, n=p, axis=0))
    return Tensor3(np.fft.ifft(faces, axis=0))


def mirror(faces, p):
    """Half spectrum (faces 0..p//2) -> all p faces, by D_{p-k} = conj(D_k)."""
    return np.concatenate([faces, faces[1:(p + 1) // 2][::-1].conj()])


def _unit_phase(x, axis):
    """Phase of the largest-magnitude entry along ``axis`` (1 where that entry is 0)."""
    top = np.take_along_axis(x, np.abs(x).argmax(axis=axis, keepdims=True), axis=axis)
    mag = np.abs(top)
    return np.where(mag > 0.0, top / np.where(mag > 0.0, mag, 1.0), 1.0)


def _fix_phases(u, vh):
    """Scale singular vectors so each left vector's largest entry is real positive.

    Works on stacks, in place. Rows of ``vh`` without a left partner (full
    matrices, n > m) are normalised by their own largest entry. Determinism
    for golden tests; every product u @ diag(s) @ vh is unchanged.
    """
    ph = _unit_phase(u, -2)
    u *= ph.conj()
    k = min(u.shape[-1], vh.shape[-2])
    vh[..., :k, :] *= ph[..., 0, :k, None]
    if vh.shape[-2] > k:
        vh[..., k:, :] *= _unit_phase(vh[..., k:, :], -1).conj()
    return u, vh


def _face_svd(a: Tensor3, full_matrices):
    """One batched SVD over the face stack, with deterministic phases.

    Returns (uf, s, vhf, half): uf is (h, m, mu), s is (h, k), vhf is
    (h, nv, n), where h is p//2 + 1 on the half spectrum and p otherwise,
    k = min(m, n), and mu/nv = m/n when full, else k.
    """
    half, (faces,) = to_faces(a)
    uf, s, vhf = np.linalg.svd(faces, full_matrices=full_matrices)
    uf, vhf = _fix_phases(uf, vhf)
    return uf, s, vhf, half


def _embed_diag(s, m, n):
    """(h, k) values -> (h, m, n) stack of rectangular diagonal matrices."""
    h, k = s.shape
    out = np.zeros((h, m, n), dtype=s.dtype)
    idx = np.arange(k)
    out[:, idx, idx] = s
    return out


def _ct(x):
    """Conjugate transpose of every matrix in a stack."""
    return x.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class TSvd:
    """Full factorization A = U * S * V^H with unitary U, V and F-diagonal S."""

    U: Tensor3
    S: Tensor3
    V: Tensor3


def tsvd(a: Tensor3) -> TSvd:
    uf, s, vhf, half = _face_svd(a, full_matrices=True)
    u = from_faces(uf, a.p, half)
    sd = from_faces(_embed_diag(s, a.m, a.n), a.p, half)
    v = from_faces(_ct(vhf), a.p, half)
    return TSvd(u, sd, v)


@dataclass
class TCsvd:
    """Compact factorization A = Ur * Sr * Vr^H truncated at the tubal rank.

    ``sigma[i, j]`` is the j-th singular value of face i, zeroed below the
    rank cutoff; positions j >= face_ranks[i] are genuine zeros kept inside
    the window because r = max over faces. ``sigma`` and ``face_ranks``
    cover all p faces; the frames ``uf`` and ``vhf`` hold faces 0..p//2 only
    when ``half`` (real input).
    """

    m: int
    n: int
    p: int
    r: int
    face_ranks: tuple
    sigma: np.ndarray
    uf: np.ndarray
    vhf: np.ndarray
    half: bool
    rank_cutoff: float

    @cached_property
    def Ur(self) -> Tensor3:
        if self.r == 0:
            return Tensor3(np.zeros((self.p, self.m, 1)))
        return from_faces(self.uf, self.p, self.half)

    @cached_property
    def Sr(self) -> Tensor3:
        if self.r == 0:
            return Tensor3.zeros(1, 1, self.p)
        sigma = self.sigma[: self.uf.shape[0]]
        return from_faces(_embed_diag(sigma, self.r, self.r), self.p, self.half)

    @cached_property
    def Vr(self) -> Tensor3:
        if self.r == 0:
            return Tensor3(np.zeros((self.p, self.n, 1)))
        return from_faces(_ct(self.vhf), self.p, self.half)

    @cached_property
    def full_frames(self):
        """(uf, vhf) over all p faces, mirrored once per factorization."""
        if not self.half:
            return self.uf, self.vhf
        return mirror(self.uf, self.p), mirror(self.vhf, self.p)

    def rebuild(self, vals, adjoint=False) -> Tensor3:
        """U_r * diag(vals) * V_r^H, or V_r * diag(vals) * U_r^H when ``adjoint``.

        ``vals`` is a (p, r) array. Real values on a real input stay on the
        half spectrum and give an exactly real tensor; complex values break
        the conjugate pairing, so they use :attr:`full_frames`.
        """
        vals = np.asarray(vals)
        half = self.half and not np.iscomplexobj(vals)
        uf, vhf = (self.uf, self.vhf) if half else self.full_frames
        vals = vals[: uf.shape[0], None, :]
        if adjoint:
            # V diag(vals) U^H is the conjugate transpose of U diag(conj(vals)) V^H
            return from_faces(_ct((uf * vals.conj()) @ vhf), self.p, half)
        return from_faces((uf * vals) @ vhf, self.p, half)


def tcsvd(a: Tensor3) -> TCsvd:
    """Compact T-SVD, cut at :func:`default_rank_rtol` times the largest face singular value."""
    uf, s, vhf, half = _face_svd(a, full_matrices=False)
    m, n, p = a.m, a.n, a.p
    if half:
        s = mirror(s, p)
    cutoff = default_rank_rtol(m, n, p) * float(s.max())
    ranks = tuple((s > cutoff).sum(axis=1).tolist())
    r = max(ranks)
    sigma = s[:, :r].copy()
    sigma[sigma <= cutoff] = 0.0
    return TCsvd(
        m=m,
        n=n,
        p=p,
        r=r,
        face_ranks=ranks,
        sigma=sigma,
        uf=uf[:, :, :r],
        vhf=vhf[:, :r, :],
        half=half,
        rank_cutoff=cutoff,
    )


def t_eigenvalues(a: Tensor3) -> np.ndarray:
    """Squared positive singular values over all faces, descending.

    Equals the positive spectrum of bcirc(A * A^H).
    """
    c = tcsvd(a)
    vals = c.sigma[c.sigma > 0.0]
    return np.sort(vals**2)[::-1]


def projectors(c: TCsvd):
    """Range projectors (Q_left, Q_right) = (A * Apinv, Apinv * A).

    Window positions whose singular value is zero (faces of lower rank than
    the tubal rank) are excluded; only then do the frames reproduce the
    pseudoinverse projectors.
    """
    mask = (c.sigma[: c.uf.shape[0]] > 0.0)[:, None, :]
    vf = _ct(c.vhf)
    q_left = from_faces((c.uf * mask) @ _ct(c.uf), c.p, c.half)
    q_right = from_faces((vf * mask) @ c.vhf, c.p, c.half)
    return q_left, q_right


@dataclass(frozen=True)
class PartialIsometrySet:
    """Rank-one spectral pieces of a tensor.

    ``E`` is the sum isometry Ur * Vr^H. ``components[i][j]`` is the tensor
    whose only nonzero DFT face is u_j v_j^H on face i, so
    A = sum_{i,j} values[i, j] * components[i][j].
    """

    E: Tensor3
    components: list
    values: np.ndarray


def isometry(c: TCsvd) -> Tensor3:
    """The partial isometry E = Ur * Vr^H (real whenever the input was)."""
    return c.rebuild(np.ones((c.p, c.r)))


def partial_isometries(c: TCsvd) -> PartialIsometrySet:
    """Every rank-one component at once.

    The inverse DFT of a stack whose only nonzero face is X on face i has
    slice k equal to (1/p) w^{ik} X with w = e^{2 pi i/p}, so component (i, j)
    is that phase times the outer product u_ij vh_ij, for all i, j, k in one
    broadcast product.
    """
    uf, vhf = c.full_frames
    idx = np.arange(c.p)
    phase = np.exp(2j * np.pi * (np.outer(idx, idx) % c.p) / c.p) / c.p
    outer = np.einsum("imj,ijn->ijmn", uf, vhf)
    slices = phase[:, None, :, None, None] * outer[:, :, None]
    comps = [[Tensor3(slices[i, j]) for j in range(c.r)] for i in range(c.p)]
    return PartialIsometrySet(E=isometry(c), components=comps, values=c.sigma.copy())

