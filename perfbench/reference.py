"""Independent numpy routes used to build inputs and to verify results.

Nothing here calls the library: inputs are plain arrays of shape (p, m, n)
(slice k is ``a[k]``) and every check recomputes its reference from the
definitions, so a library defect cannot hide behind itself.
"""

from __future__ import annotations

import struct

import numpy as np

EPS = float(np.finfo(np.float64).eps)


# -- T-product calculus on raw (p, m, n) arrays ------------------------------

def t_mul(a, b):
    """T-product through the DFT along tubes."""
    return np.fft.ifft(np.fft.fft(a, axis=0) @ np.fft.fft(b, axis=0), axis=0)


def t_ct(a):
    """Conjugate transpose: conjugate-transpose each slice, reverse slices 2..p."""
    return np.concatenate([a[:1], a[:0:-1]]).conj().transpose(0, 2, 1)


def fnorm(a):
    """Frobenius norm of bcirc(a)."""
    return float(np.sqrt(a.shape[0]) * np.linalg.norm(a))


def rel(x, ref):
    return fnorm(x - ref) / max(fnorm(ref), 1.0)


def conv_slice(a, b, k):
    """Slice k of the T-product by the direct circular convolution sum."""
    p = a.shape[0]
    return np.einsum("jmn,jns->ms", a, b[(k - np.arange(p)) % p])


def bcirc(a):
    p, m, n = a.shape
    idx = (np.arange(p)[:, None] - np.arange(p)[None, :]) % p
    return a[idx].transpose(0, 2, 1, 3).reshape(p * m, p * n)


def first_block_column(mat, m, n, p):
    """The tensor whose bcirc has ``mat`` as its first block column."""
    return mat[:, :n].reshape(p, m, n)


# -- input generation ---------------------------------------------------------

def random_tensor(rng, m, n, p, cplx):
    a = rng.standard_normal((p, m, n))
    if cplx:
        a = a + 1j * rng.standard_normal((p, m, n))
    return a


def scaled(a, rank):
    """Scale so a typical face singular value is about 1 (sinh and exp stay tame)."""
    return a * (np.sqrt(rank) / np.linalg.norm(a))


def random_input(rng, m, n, p, cplx, rank):
    """(p, m, n) input of tubal rank ``rank``: a product of thin tensors when
    rank < min(m, n), else a dense Gaussian tensor."""
    if rank < min(m, n):
        a = t_mul(random_tensor(rng, m, rank, p, cplx), random_tensor(rng, rank, n, p, cplx))
        if not cplx:
            a = a.real
    else:
        a = random_tensor(rng, m, n, p, cplx)
    return scaled(a, rank)


def doubly_stochastic(rng, n, p, sweeps=500):
    """Real tensor whose bcirc has unit row and column sums.

    Row and column sums of bcirc(T) are those of the slice sum S; Sinkhorn
    scalings of S applied to every slice fix them.
    """
    t = np.abs(rng.standard_normal((p, n, n))) + 0.1
    for _ in range(sweeps):
        t = t / t.sum(axis=(0, 2))[None, :, None]
        t = t / t.sum(axis=(0, 1))[None, None, :]
    return t


# -- face-domain references ---------------------------------------------------

def rank_cutoff(s, m, n, p):
    """The library's documented default: max(m, n) * p * eps relative to the top value."""
    return max(m, n) * p * EPS * float(s.max())


def face_svd(a):
    return np.linalg.svd(np.fft.fft(a, axis=0), full_matrices=False)


def gfun_reference(a, f):
    """U f(S) V^H on every face, singular values at or below the cutoff treated as 0."""
    p, m, n = a.shape
    u, s, vh = face_svd(a)
    vals = np.where(s > rank_cutoff(s, m, n, p), f(s), f(np.zeros_like(s)))
    return np.fft.ifft((u * vals[:, None, :]) @ vh, axis=0)


def expm_faces(a):
    """Matrix exponential of every face, through scipy's Pade routine."""
    from scipy.linalg import expm

    return np.fft.ifft(expm(np.fft.fft(a, axis=0)), axis=0)


def dense_expm(a):
    from scipy.linalg import expm

    p, m, n = a.shape
    return first_block_column(expm(bcirc(a)), m, n, p)


def dense_pinv(a):
    p, m, n = a.shape
    return first_block_column(np.linalg.pinv(bcirc(a)), n, m, p)


def dense_gfun(a, f):
    """Generalized matrix function of bcirc(a) through its compact SVD."""
    p, m, n = a.shape
    mat = bcirc(a)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    r = int((s > max(mat.shape) * EPS * s[0]).sum())
    return first_block_column((u[:, :r] * f(s[:r])) @ vh[:r], m, n, p)


def dense_cluster_projector(a, target, rtol=1e-8):
    p, m, n = a.shape
    u, s, vh = np.linalg.svd(bcirc(a), full_matrices=False)
    keep = np.abs(s - target) <= rtol * target
    return first_block_column(u[:, keep] @ vh[keep], m, n, p)


# -- identities ---------------------------------------------------------------

def penrose_residuals(a, x):
    """The four Penrose defects, each relative as in the acceptance suite."""
    ax, xa = t_mul(a, x), t_mul(x, a)
    return (
        fnorm(t_mul(ax, a) - a) / max(fnorm(a), 1e-300),
        fnorm(t_mul(xa, x) - x) / max(fnorm(x), 1e-300),
        fnorm(t_ct(ax) - ax) / max(fnorm(ax), 1e-300),
        fnorm(t_ct(xa) - xa) / max(fnorm(xa), 1e-300),
    )


def is_real(a):
    return not np.iscomplexobj(a) or bool(np.all(a.imag == 0.0))


# -- file readers (the TT3A container and the text form) ----------------------

_HEADER = struct.Struct("<4sIQQQI")


def read_tt3a(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, version, m, n, p, tag = _HEADER.unpack_from(raw)
    if magic != b"TT3A" or version != 1 or tag not in (1, 2):
        raise ValueError(f"{path}: not a TT3A v1 file")
    dt = "<f8" if tag == 1 else "<c16"
    flat = np.frombuffer(raw, dtype=dt, offset=_HEADER.size)
    if flat.size != m * n * p:
        raise ValueError(f"{path}: payload size does not match {m}x{n}x{p}")
    return flat.reshape(p, m, n)


def write_tt3a(path, a):
    real = not np.iscomplexobj(a)
    with open(path, "wb") as fh:
        p, m, n = a.shape
        fh.write(_HEADER.pack(b"TT3A", 1, m, n, p, 1 if real else 2))
        fh.write(np.ascontiguousarray(a, dtype="<f8" if real else "<c16").tobytes())


def read_text(path):
    with open(path) as fh:
        head = fh.readline().split()
        body = fh.read().split()
    m, n, p = (int(v) for v in head[:3])
    if head[3] == "real64":
        vals = np.array([float(t) for t in body])
    else:
        vals = np.array([complex(t.replace("i", "j")) for t in body])
    if vals.size != m * n * p:
        raise ValueError(f"{path}: {vals.size} values for {m}x{n}x{p}")
    return vals.reshape(p, m, n)


def write_text(path, a):
    real = not np.iscomplexobj(a)
    p, m, n = a.shape
    with open(path, "w") as fh:
        fh.write(f"{m} {n} {p} {'real64' if real else 'complex128'}\n")
        for k in range(p):
            for i in range(m):
                if real:
                    fh.write(" ".join(repr(float(v)) for v in a[k, i]) + "\n")
                else:
                    fh.write(" ".join(
                        f"{float(v.real)!r}{'+' if v.imag >= 0 else '-'}{float(abs(v.imag))!r}i"
                        for v in a[k, i]) + "\n")
