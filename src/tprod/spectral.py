"""DFT face domain: the transform layer, T-SVD, T-CSVD, tubal rank, projectors.

All spectral work happens on the p "faces" obtained by a forward DFT along
the tube fibers. With the unitary DFT matrix F_p, the block-circulant of a
tensor factors as

    bcirc(A) = (F_p^H kron I_m) . blockdiag(D_1 .. D_p) . (F_p kron I_n),

so the T-product becomes an independent matrix product per face. Every
module reaches the faces through :func:`to_faces` and leaves through
:func:`from_faces`, running one batched kernel over the face stack in
between through :func:`_per_face`: slices of about ``_CHUNK / n^2`` faces,
spread over the CPUs the process may use where :func:`_threaded` holds and
in order on the calling thread otherwise. A slice is small enough that the
allocator keeps its temporaries from one slice to the next (``_CHUNK``).
The transforms themselves go by rows of about ``_CHUNK`` elements over the
same threads once they span four slices. Products go through :func:`_matmul`:
numpy's ``@`` makes one BLAS call per face, which costs more than the
arithmetic of a small face, so an inner dimension of 1 or 2 is formed as
broadcast multiply-adds over the whole stack; from 3 up those lose on short
stacks, and ``@`` stays. For the same reason a stack of complex 2x2 faces is
factored by :func:`_svd2x2`, one closed-form Jacobi rotation per face, and
inverted by :func:`_inv2x2`, in place of one LAPACK call per face; larger
faces keep LAPACK. A face-product
chain (a product in :func:`_matmul`, the scale-multiply-transpose of
:meth:`TCsvd.rebuild_faces` behind pinv, gfun and isometry,
:func:`projectors`, and the solution and residual of ``solve_axb``) runs
each slice through its whole chain into one preallocated output, on every
CPU once it reaches ``_PRODUCT_WORK`` multiply-adds. Smaller products stay
on the calling thread: per-face BLAS calls from two threads contend, and a
threaded 4x4x1024 complex product took 602 us against 267 us on one. A
thread already working a slice starts no helpers, so a product inside a
threaded kernel never waits on the pool it runs in. For a real tensor the
faces come in conjugate pairs D_{p-k} = conj(D_k), so the layer keeps only
the half spectrum, faces 0..p//2 (``rfft``), and :func:`from_faces` alone
decides whether the result is real. :func:`mirror` rebuilds all p faces
where a kernel breaks the pairing: a complex-valued function of real
singular values, or sqrt of a negative eigenvalue on face 0.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .core import Tensor3
from .errors import NonFinite

_EPS = float(np.finfo(np.float64).eps)
# a self-conjugate face's imaginary part above this fraction of the largest entry
# is no roundoff (eig at its conditioning limit loses about 2e-8)
_SELF_CONJUGATE_RTOL = 1e-6
# complex elements per chunk of a batched work array (quadrature nodes x values, a
# slice of the face stack, or a part of a tube transform), so peak memory stays flat
# in p: one 128x128 face, 256 KB. It is also small enough that the allocator keeps a
# slice's temporaries for the next one. glibc raises its mmap threshold to the largest
# mmapped block freed (a 4 MB stack on 128x128x16) and trims an arena whose free top
# passes twice that. The Pade chain keeps about ten slice-sized temporaries, so at
# 2^16 a helper's arena most likely passed 8 MB, was trimmed after each slice and
# faulted the same pages back in. From 2^16 to 2^14, with one BLAS thread on a 2-vCPU
# Xeon (getrusage), standard_tfn(exp) of a complex 128x128x16 tensor took 11.1k -> 2.0k
# to 2.5k minor faults and 28.5 -> 23.6 ms a call
_CHUNK = 1 << 14
# a face stack of fewer elements (h n^2) than this stays on the calling thread. On a
# 2-vCPU Xeon with one BLAS thread a batched complex SVD took about 0.4 us per
# element from n = 8 to 128, so the elements track the work where h n^3 does not;
# on 4096 elements (64 faces of order 8, 1.2 ms) a helper thread's hand-off took all
# it saved. Complex 2x2 faces skip LAPACK: on 4096 of them _svd2x2 took 0.77 ms
# against 5.9 ms for np.linalg.svd, and it stays on the calling thread.
_THREAD_WORK = 1 << 13
# the largest inner dimension that _matmul forms as broadcast multiply-adds. numpy's @
# makes one BLAS call per face: on a 2-vCPU Xeon with one BLAS thread a stack of 4096
# complex 2x2 faces took 1.16 ms that way and 0.24 ms as two multiply-adds. At k = 3 and 4
# the multiply-adds lose up to 5x on stacks of 1 to 16 faces, and at k = 4 on 4096 faces
# too. Face stacks are complex (the DFT's output); two real 2x2 stacks would be faster on @.
_BROADCAST_INNER = 2
# a face-product chain of fewer multiply-adds (h m k n per product) than this stays on
# the calling thread. On a 2-vCPU Xeon with one BLAS thread one complex product split
# over two threads took 3.13 -> 1.90 ms on 128x128x16 and 0.31 -> 0.28 ms on 32x32x64
# (2^21 each), but 91 -> 194 us on 8x8x256 and 267 -> 602 us on 4x4x1024: per-face BLAS
# calls from two threads contend. _THREAD_WORK counts elements and would split the last two.
_PRODUCT_WORK = 1 << 21

_pool = None
_pool_lock = threading.Lock()


class _Slices(threading.local):
    # set on a thread while it works slices of a split stack: whatever it runs there
    # stays on it, so a helper never waits on the pool it belongs to
    busy = False


_slices = _Slices()


def _cpus():
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _drop_pool():
    # a forked child inherits the pool's bookkeeping but none of its threads
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _helpers(count):
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=count, thread_name_prefix="tprod-faces")
        return _pool


def _threaded(work, limit=_THREAD_WORK):
    """Whether a stack is split over threads: ``work`` counts its elements (h n^2) for a
    factorization, or its multiply-adds for a product chain against ``_PRODUCT_WORK``."""
    return work >= limit and _cpus() > 1 and not _slices.busy


def _each_slice(h, size, work, threaded=None):
    """Call ``work(part)`` for contiguous slices ``part`` covering h items of ``size`` elements.

    An item is a face (n^2 elements) or a row of a tube transform. The items
    are cut into slices of about ``_CHUNK / size`` items. Where ``threaded``
    holds (by default :func:`_threaded` of the h size elements) there are at
    least as many slices as CPUs, and the calling thread and ``cpus - 1``
    helper threads take them in turn. numpy's LAPACK, matmul and FFT loops
    release the GIL and every item is worked on its own, so the results are
    those of one call on all of them. Otherwise the slices
    run in order on the calling thread. Helpers run under the caller's
    ``np.geterr()``. An exception is raised once every slice is done: the
    one of the lowest slice that raised, as a loop would.
    """
    step = max(1, _CHUNK // size)
    if not (_threaded(h * size) if threaded is None else threaded):
        for i in range(0, h, step):
            work(slice(i, min(i + step, h)))
        return
    cpus = _cpus()
    # a multiple of cpus, so that the threads share the slices evenly
    count = -(-h // step // cpus) * cpus
    edges = [h * i // count for i in range(count + 1)]
    parts = [slice(lo, hi) for lo, hi in zip(edges, edges[1:]) if hi > lo]
    todo = deque(range(len(parts)))
    errors = [None] * len(parts)

    def drain():
        _slices.busy = True
        try:
            while True:
                try:
                    i = todo.popleft()
                except IndexError:
                    return
                try:
                    work(parts[i])
                except BaseException as exc:  # raised below, in slice order
                    errors[i] = exc
        finally:
            _slices.busy = False

    def helper(err):
        with np.errstate(**err):
            drain()

    pool, started = _helpers(cpus - 1), []
    try:
        for _ in range(min(cpus, len(parts)) - 1):
            started.append(pool.submit(helper, np.geterr()))
    except RuntimeError:
        pass  # the interpreter is shutting down (an atexit hook): the caller takes every slice
    try:
        drain()
    finally:
        todo.clear()
        wait(started)
    for exc in errors:
        if exc is not None:
            raise exc


def _per_face(kernel, stacks, *outs, madds=None):
    """``kernel(*stacks)`` for a kernel that treats each face of (h, ...) stacks on its own.

    ``outs`` gives the trailing shape and dtype of each array the kernel
    returns. A stack that :func:`_threaded` splits (on its elements, or on
    ``madds`` for a product chain) or that has more than one slice runs by
    :func:`_each_slice`, each slice of every stack into arrays allocated up
    front; otherwise this is one call on the whole stacks. The outputs are
    declared by the caller and allocated here, on the calling thread, rather
    than taken from whichever slice finishes first: an array that a helper
    thread allocates comes from that helper's malloc arena, and doing so
    raised the maximum RSS of a faces-large task mix from 95 to 99-101 MB
    (2-vCPU Xeon, one BLAS thread).
    """
    h = len(stacks[0])
    n = max(max(s.shape[1:]) for s in stacks)
    threaded = _threaded(h * n * n) if madds is None else _threaded(madds, _PRODUCT_WORK)
    if not threaded and h <= max(1, _CHUNK // (n * n)):  # one slice
        return kernel(*stacks)
    out = [np.empty((h, *shape), dtype) for shape, dtype in outs]

    def work(part):
        res = kernel(*(s[part] for s in stacks))
        for o, x in zip(out, res if len(out) > 1 else (res,)):
            o[part] = x

    _each_slice(h, n * n, work, threaded)
    return tuple(out) if len(out) > 1 else out[0]


def _closed_form(faces):
    """Whether :func:`_svd` and :func:`_svdvals` factor ``faces`` by :func:`_svd2x2`."""
    return faces.shape[1:] == (2, 2) and faces.dtype == np.complex128


def _svd(faces, full_matrices):
    """``np.linalg.svd`` of a face stack, through :func:`_per_face` or :func:`_svd2x2`."""
    if _closed_form(faces):
        return _svd2x2(faces)
    _, m, n = faces.shape
    k = min(m, n)
    mu, nv = (m, n) if full_matrices else (k, k)
    return _per_face(lambda d: np.linalg.svd(d, full_matrices=full_matrices), (faces,),
                     ((m, mu), faces.dtype), ((k,), np.float64), ((nv, n), faces.dtype))


def _svdvals(faces):
    """Singular values of every face of a stack, as :func:`_svd` finds them."""
    if _closed_form(faces):
        return _svd2x2(faces)[1]
    _, m, n = faces.shape
    return _per_face(lambda d: np.linalg.svd(d, compute_uv=False), (faces,),
                     ((min(m, n),), np.float64))


def _svd2x2(faces):
    """``(u, s, vh)`` of every face of a finite (h, 2, 2) complex stack, in closed form.

    One complex Jacobi rotation V makes the columns of A V orthogonal: with
    alpha = |a1|^2, beta = |a2|^2 and gamma = a1^H a2 its tangent is
    2|gamma| / (|beta - alpha| + hypot(beta - alpha, 2|gamma|)), or the
    rotation by a right angle more where beta > alpha, so that the first
    column of A V is the longer one and s comes out descending. That column
    gives s1 and u1. u2 is the exact unit complement [-conj(u1_2),
    conj(u1_1)] times the phase of w = u2^H A v2, and s2 = |w|, so U stays
    unitary on a face of rank 1. Each face is first scaled by a power of two
    near its largest entry, at most 2^1020 so that subnormal faces stay
    finite, and the Gram entries neither overflow nor underflow. A zero face
    gives s = 0 and U = V = I. The operations run on
    the whole stack at once, on the calling thread: LAPACK's per-face
    overhead costs more than a 2x2 face's arithmetic.
    """
    h = len(faces)
    a, e = _unit_scaled(faces)
    sq = a.real * a.real + a.imag * a.imag
    alpha, beta = sq[0, 0] + sq[1, 0], sq[0, 1] + sq[1, 1]
    gamma = a[0, 0].conj() * a[0, 1] + a[1, 0].conj() * a[1, 1]
    g = np.abs(gamma)
    d = np.abs(beta - alpha)
    den = d + np.hypot(d, 2.0 * g)
    tan = np.divide(2.0 * g, den, out=np.zeros(h), where=den > 0.0)
    cos = 1.0 / np.sqrt(1.0 + tan * tan)
    sin = tan * cos
    # V = [[c, x], [-conj(x), c]]; where beta > alpha its columns swap, up to a sign
    swap = beta > alpha
    c = np.where(swap, sin, cos)
    x = np.divide(gamma, g, out=np.ones(h, complex), where=g > 0.0)
    x *= -np.where(swap, cos, sin)
    b1 = c * a[:, 0] - x.conj() * a[:, 1]
    b2 = x * a[:, 0] + c * a[:, 1]
    s1 = np.sqrt(b1.real[0] ** 2 + b1.imag[0] ** 2 + b1.real[1] ** 2 + b1.imag[1] ** 2)
    u1 = b1 * np.divide(1.0, s1, out=np.zeros(h), where=s1 > 0.0)
    u1[0, s1 == 0.0] = 1.0
    w = u1[0] * b2[1] - u1[1] * b2[0]
    aw = np.abs(w)
    # |w| <= |b2| <= s1, but on a face of two equal singular values rounding may break it
    s2 = np.minimum(aw, s1)
    w = np.divide(w, aw, out=np.ones(h, complex), where=aw > 0.0)
    u = np.empty((h, 2, 2), complex)
    u[:, :, 0] = u1.T
    u[:, 0, 1] = -u1[1].conj() * w
    u[:, 1, 1] = u1[0].conj() * w
    vh = np.empty((h, 2, 2), complex)
    vh[:, 0, 0] = vh[:, 1, 1] = c
    vh[:, 0, 1] = -x
    vh[:, 1, 0] = x.conj()
    return u, np.ldexp(np.stack([s1, s2], axis=1), e[:, None]), vh


def _unit_scaled(faces):
    """``(a, e)`` for a finite (h, 2, 2) complex stack: face k is 2^e[k] times a[:, :, k].

    e is the exponent of the face's largest real or imaginary part, at least
    -1020, so every part of a is below 1 and the products of two parts stay
    normal unless a face is far from full rank. a is (2, 2, h): each entry of
    every face as one contiguous row of h.
    """
    h = len(faces)
    # the largest real or imaginary part of each face, taken row by row: numpy's
    # reductions over an axis of 8 cost more than seven maximums of h values
    _, e = np.frexp(reduce(np.maximum, np.abs(faces.view(np.float64)).reshape(h, 8).T))
    # below 2^-1020 (subnormal parts) 2^-e would overflow; 2^1020 still lifts the
    # smallest subnormal, 2^-1074, to 2^-54, where the Gram entries are normal
    np.maximum(e, -1020, out=e)
    return np.multiply(np.moveaxis(faces, 0, -1), np.ldexp(1.0, -e), order="C"), e


def _inv2x2(faces):
    """Inverse of every face of a finite (h, 2, 2) complex stack, as adj(A) / det(A).

    Each face is scaled by :func:`_unit_scaled` first, so det neither
    overflows nor underflows on a face of moderate condition. A singular
    face gives entries that are not finite; the caller judges them. The
    operations run on the whole stack at once, on the calling thread, as in
    :func:`_svd2x2`.
    """
    a, e = _unit_scaled(faces)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = np.ldexp(1.0, -e) / (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
        out = np.empty((len(faces), 2, 2), complex)
        out[:, 0, 0], out[:, 0, 1] = a[1, 1] * s, -a[0, 1] * s
        out[:, 1, 0], out[:, 1, 1] = -a[1, 0] * s, a[0, 0] * s
    return out


def _certified_inverse(faces, p):
    """The inverse of every face of an (h, n, n) stack, or None where it is not certified.

    A complex 2x2 stack is inverted by :func:`_inv2x2`, any other by
    ``np.linalg.inv`` through :func:`_per_face`, counted as h n^3
    multiply-adds against ``_PRODUCT_WORK``. The inverse X is returned only
    when the largest entry of the faces F lies in [2^-500, 2^500], X is
    finite, and n^2 max|X| max|F| <= min(1e8, 1e-2 / rtol), rtol the
    :func:`default_rank_rtol` of the faces. As sigma_min(F_k) >= 1 / (n
    max|X_k|) and sigma_max(F_k) <= n max|F|, every face then has every
    singular value at least 100 times the rank cutoff of :func:`csvd_faces`
    (full rank, so its pseudoinverse is its inverse) and a condition number
    of at most 1e8. An exactly singular face (``LinAlgError``) is None too.
    """
    _, n, _ = faces.shape
    top = float(np.abs(faces).max())
    if not 2.0**-500 <= top <= 2.0**500:
        return None
    if _closed_form(faces):
        inv = _inv2x2(faces)
    else:
        try:
            inv = _per_face(np.linalg.inv, (faces,), ((n, n), faces.dtype),
                            madds=len(faces) * n**3)
        except np.linalg.LinAlgError:
            return None
    # a NaN or an infinity in X makes the product NaN or inf, and fails the test
    bound = min(1e8, 1e-2 / default_rank_rtol(n, n, p))
    return inv if n * n * float(np.abs(inv).max()) * top <= bound else None


def _matmul(a, b):
    """``a @ b`` for face stacks; an inner dimension k of 1 to ``_BROADCAST_INNER`` skips BLAS.

    Such a product is the sum of k broadcast outer products, column j of
    ``a`` times row j of ``b``, on every face at once. Any other k, 0
    included, and operands that do not conform go to ``@``. Batch
    dimensions broadcast as they do for ``@``, and the result has its dtype.
    Two (h, ...) stacks whose product :func:`_threaded` splits are
    multiplied by slices through :func:`_per_face`; on a thread working a
    slice it is false, so each slice is one call here.
    """
    k = a.shape[-1]
    madds = a.size * b.shape[-1]
    if a.ndim == 3 and b.shape[:-1] == (len(a), k) and _threaded(madds, _PRODUCT_WORK):
        return _per_face(_matmul, (a, b), ((a.shape[1], b.shape[-1]), np.result_type(a, b)),
                         madds=madds)
    if not 0 < k <= _BROADCAST_INNER or b.shape[-2] != k:
        return a @ b
    out = a[..., :, :1] * b[..., :1, :]
    for j in range(1, k):
        out += a[..., :, j:j + 1] * b[..., j:j + 1, :]
    return out


def _parseval_norm(norms, p, half):
    """:func:`tprod.core.fnorm` of a tensor from the Frobenius norms of its :func:`to_faces` faces.

    Parseval: under the unnormalized DFT the faces' squared norms sum to
    fnorm^2. On a half spectrum faces 1..(p-1)//2 count twice, for their
    conjugate partners. The norms are summed scaled by the power of two 2^e
    next above the largest, so the squares can neither overflow nor lose the
    largest to underflow; a power of two scales exactly, so on norms whose
    squares are normal the result is that of the unscaled sum.
    """
    w = np.ones(len(norms))
    w[1:(p + 1) // 2] = 2.0 if half else 1.0
    e = int(np.frexp(norms.max(initial=0.0))[1])
    return float(np.ldexp(np.sqrt(w @ np.ldexp(norms, -e) ** 2), e))


def _face_norms(x):
    """Frobenius norm of every face of an (h, m, n) stack, safe over the finite range.

    As in :func:`tprod.core.fnorm`, one ``np.linalg.norm`` call is the
    common path; only the faces whose norm reads inf, or 0 for a nonzero
    face, take it again on their entries scaled by the largest.
    """
    with np.errstate(over="ignore", under="ignore"):
        norms = np.linalg.norm(x, axis=(1, 2))
        redo = np.flatnonzero((norms == np.inf) | (norms == 0.0))
        if redo.size:
            top = np.abs(x[redo]).max(axis=(1, 2))
            scale = np.where((top > 0.0) & (top < np.inf), top, 1.0)[:, None, None]
            norms[redo] = top * np.linalg.norm(x[redo] / scale, axis=(1, 2))
    return norms


def default_rank_rtol(m, n, p):
    """Relative rank cutoff: max(m, n) * p * machine epsilon."""
    return max(m, n) * p * _EPS


def _along_tubes(fft, x, p, dtype):
    """``fft(x, n=p, axis=0)`` of a (len, m, n) array, into (q, m, n) of ``dtype``.

    Where :func:`_threaded` holds for a transform of at least four slices
    (``4 * _CHUNK`` complex elements, counted on the complex side of a real
    transform), its rows go through :func:`_each_slice` in parts of about
    ``_CHUNK`` elements, each into one output allocated up front. Each tube
    is transformed on its own, so the result is bitwise that of one call.
    Smaller transforms are one call. Split over two threads on a 2-vCPU
    Xeon, a complex 16x128x128 ``fft`` took 0.76 -> 0.58 ms and a real
    ``irfft`` 0.62 -> 0.43 ms, but a complex 2x2x4096 ``fft`` 0.071 -> 0.12
    ms, and a real 32x32x64 ``rfft`` (2^16 real elements) 0.12 -> 0.16 ms.
    """
    _, m, n = x.shape
    q = p // 2 + 1 if fft is np.fft.rfft else p
    # complex elements of a row, on the complex side of a real transform
    size = min(len(x), q) * n
    if not _threaded(size * m, 4 * _CHUNK):
        return fft(x, n=p, axis=0)
    out = np.empty((q, m, n), dtype)

    def work(part):
        out[:, part] = fft(x[:, part], n=p, axis=0)

    _each_slice(m, size, work, True)
    return out


def to_faces(*tensors, allow_half=True):
    """Forward DFT along the tubes of tensors sharing p: ``(half, [stacks])``.

    ``half`` is true when ``allow_half`` is set and every operand is exactly
    real; each stack then holds faces 0..p//2 only. Otherwise each stack
    holds all p faces. Raises :class:`NonFinite` before any transform when
    an operand holds a NaN or an infinity, so none reaches LAPACK. A large
    transform runs on every CPU, by :func:`_along_tubes`.
    """
    require_finite(*tensors)
    half = allow_half and all(t.exactly_real for t in tensors)
    fft = np.fft.rfft if half else np.fft.fft
    return half, [_along_tubes(fft, t.data, t.p, np.complex128) for t in tensors]


def require_finite(*tensors):
    """Raise :class:`NonFinite` when an operand holds a NaN or an infinity."""
    for t in tensors:
        if not np.isfinite(t.data).all():
            raise NonFinite(f"{t.m} x {t.n} x {t.p} tensor holds a NaN or an infinity")


def from_faces(faces, p, half) -> Tensor3:
    """Inverse of :func:`to_faces`; the one rule for whether a real input's result is real.

    A half spectrum comes back through ``irfft`` as float64 unless its
    self-conjugate faces (0, and p/2 for even p) carry an imaginary part above
    ``_SELF_CONJUGATE_RTOL`` of its largest entry, which ``irfft`` would drop;
    then it is mirrored and comes back through ``ifft`` as complex128. A
    large transform runs on every CPU, by :func:`_along_tubes`.
    """
    if half:
        ends = faces[[0, -1] if p % 2 == 0 else [0]]
        imag = np.abs(ends.imag).max(initial=0.0)
        # the self-conjugate faces' largest entry is at most the stack's, so the whole
        # stack is scanned only when imag is above the cut relative to theirs
        if (imag == 0.0 or not imag > _SELF_CONJUGATE_RTOL * np.abs(ends).max()
                or not imag > _SELF_CONJUGATE_RTOL * np.abs(faces).max()):
            return Tensor3._adopt(_along_tubes(np.fft.irfft, faces, p, np.float64))
        faces = mirror(faces, p)
    return Tensor3._adopt(_along_tubes(np.fft.ifft, faces, p, np.complex128))


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
    return u, _phase_rows(vh, ph)


def _phase_rows(vh, ph):
    """The rows of ``vh`` scaled in place as :func:`_fix_phases` scales them for phases ``ph``.

    ``ph`` is ``_unit_phase(u, -2)`` of the left vectors u. A row with a left
    partner takes its partner's phase; any other row its own largest entry's.
    """
    k = min(ph.shape[-1], vh.shape[-2])
    vh[..., :k, :] *= ph[..., 0, :k, None]
    if vh.shape[-2] > k:
        vh[..., k:, :] *= _unit_phase(vh[..., k:, :], -1).conj()
    return vh


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
    half, (faces,) = to_faces(a)
    uf, s, vhf = _svd(faces, full_matrices=True)
    uf, vhf = _fix_phases(uf, vhf)
    return TSvd(*(from_faces(x, a.p, half) for x in (uf, _embed_diag(s, a.m, a.n), _ct(vhf))))


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

    def _factor(self, left):
        """Ur (``left``) or Vr, phased as :func:`_fix_phases` would phase it.

        The phases come from ``uf`` and go onto a copy of the one frame
        returned, as rebuilds keep LAPACK's frames.
        """
        if self.r == 0:
            return Tensor3(np.zeros((self.p, self.m if left else self.n, 1)))
        ph = _unit_phase(self.uf, -2)
        frame = self.uf * ph.conj() if left else _ct(_phase_rows(self.vhf.copy(), ph))
        return from_faces(frame, self.p, self.half)

    @cached_property
    def Ur(self) -> Tensor3:
        return self._factor(True)

    @cached_property
    def Sr(self) -> Tensor3:
        if self.r == 0:
            return Tensor3.zeros(1, 1, self.p)
        sigma = self.sigma[: self.uf.shape[0]]
        return from_faces(_embed_diag(sigma, self.r, self.r), self.p, self.half)

    @cached_property
    def Vr(self) -> Tensor3:
        return self._factor(False)

    @cached_property
    def full_frames(self):
        """(uf, vhf) over all p faces, mirrored once per factorization."""
        if not self.half:
            return self.uf, self.vhf
        return mirror(self.uf, self.p), mirror(self.vhf, self.p)

    def rebuild_faces(self, vals, adjoint=False):
        """``(faces, half)`` of :meth:`rebuild`, before the inverse transform."""
        vals = np.asarray(vals)
        half = self.half and not np.iscomplexobj(vals)
        uf, vhf = (self.uf, self.vhf) if half else self.full_frames
        vals = vals[: uf.shape[0], None, :]
        # the frames are complex, as the forward DFT's output is
        out = ((uf.shape[1], vhf.shape[-1]), uf.dtype)
        madds = uf.size * vhf.shape[-1]
        if adjoint:
            # V diag(vals) U^H is the conjugate transpose of U diag(conj(vals)) V^H
            faces = _per_face(_scaled_ct, (uf, vals.conj(), vhf), out, madds=madds)
            return faces.swapaxes(-1, -2), half
        return _per_face(_scaled, (uf, vals, vhf), out, madds=madds), half

    def rebuild(self, vals, adjoint=False) -> Tensor3:
        """U_r * diag(vals) * V_r^H, or V_r * diag(vals) * U_r^H when ``adjoint``.

        ``vals`` is a (p, r) array. Real values on a real input stay on the
        half spectrum and give an exactly real tensor; complex values break
        the conjugate pairing, so they use :attr:`full_frames`.
        """
        faces, half = self.rebuild_faces(vals, adjoint)
        return from_faces(faces, self.p, half)


def _scaled(u, s, vh):
    """u diag(s) vh on every face."""
    return _matmul(u * s, vh)


def _scaled_ct(u, s, vh):
    """conj(u diag(s) vh) on every face; its swapped axes are the conjugate transpose."""
    out = _matmul(u * s, vh)
    return np.conjugate(out, out=out)


def csvd_faces(faces, p, half) -> TCsvd:
    """:func:`tcsvd` of the tensor whose :func:`to_faces` stack ``faces`` is: one batched SVD."""
    _, m, n = faces.shape
    uf, s, vhf = _svd(faces, full_matrices=False)
    if half:
        s = mirror(s, p)
    cutoff = default_rank_rtol(m, n, p) * float(s.max())
    ranks = tuple((s > cutoff).sum(axis=1).tolist())
    r = max(ranks)
    sigma = s[:, :r].copy()
    sigma[sigma <= cutoff] = 0.0
    return TCsvd(m=m, n=n, p=p, r=r, face_ranks=ranks, sigma=sigma, uf=uf[:, :, :r],
                 vhf=vhf[:, :r, :], half=half)


def tcsvd(a: Tensor3) -> TCsvd:
    """Compact T-SVD, cut at :func:`default_rank_rtol` times the largest face singular value."""
    half, (faces,) = to_faces(a)
    return csvd_faces(faces, a.p, half)


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
    (h, m, r), n = c.uf.shape, c.n
    q_left = from_faces(_per_face(_left_projector, (c.uf, mask), ((m, m), c.uf.dtype),
                                  madds=h * m * r * m), c.p, c.half)
    q_right = from_faces(_per_face(_right_projector, (c.vhf, mask), ((n, n), c.vhf.dtype),
                                   madds=h * n * r * n), c.p, c.half)
    return q_left, q_right


def _left_projector(u, mask):
    """U diag(mask) U^H on every face."""
    return _matmul(u * mask, _ct(u))


def _right_projector(vh, mask):
    """V diag(mask) V^H on every face, from the rows of V^H."""
    return _matmul(_ct(vh) * mask, vh)


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

