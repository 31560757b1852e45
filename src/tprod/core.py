"""Dense third-order tensor values and the block-circulant unfolding operators.

A tensor is a stack of p frontal slices, each an m x n matrix, stored as
float64 when every entry is real and as complex128 otherwise.
Storage is slice-major: the slice index varies slowest, then rows, then
columns, so ``unfold`` is a plain reshape. All values are immutable and
every operation here is pure.
"""

from __future__ import annotations

import numpy as np

from .errors import DimMismatch, NotBlockCirculant

# Relative residual against the block-circulant projection above which
# bcirc_inv refuses the input. Downstream identities assume exact
# structure, so silently accepting structure-breaking input would be a bug.
BCIRC_STRUCTURE_RTOL = 1e-10


class Tensor3:
    """Dense m x n x p tensor, real or complex.

    ``data`` has shape (p, m, n): ``data[k]`` is the k-th frontal slice.
    Its dtype carries realness: float64 for real input, including complex
    input whose imaginary parts are all zero, and complex128 otherwise.
    :attr:`exactly_real` reads the dtype; :meth:`is_real` is a tolerance
    test on the imaginary parts.
    """

    __slots__ = ("data",)

    def __init__(self, slices):
        arr = np.asarray(slices)
        if np.iscomplexobj(arr) and not arr.imag.any():
            arr = arr.real
        arr = np.array(arr, dtype=np.complex128 if np.iscomplexobj(arr) else np.float64,
                       order="C")
        if arr.ndim == 2:
            arr = arr[None, :, :]
        if arr.ndim != 3 or arr.size == 0:
            raise DimMismatch(f"expected a nonempty (p, m, n) array, got shape {arr.shape}")
        arr.setflags(write=False)
        self.data = arr

    @classmethod
    def _adopt(cls, arr):
        """``Tensor3(arr)`` without its copy, for a fresh (p, m, n) float64 or complex128 array
        that nothing else holds. Complex input whose imaginary parts are all zero is still
        demoted to float64, which copies it."""
        if arr.dtype == np.complex128 and not arr.imag.any():
            return cls(arr)
        t = cls.__new__(cls)
        t.data = np.ascontiguousarray(arr)
        t.data.setflags(write=False)
        return t

    @classmethod
    def zeros(cls, m, n, p):
        return cls(np.zeros((p, m, n)))

    @property
    def m(self):
        return self.data.shape[1]

    @property
    def n(self):
        return self.data.shape[2]

    @property
    def p(self):
        return self.data.shape[0]

    @property
    def shape(self):
        """Logical shape (m, n, p)."""
        return (self.m, self.n, self.p)

    @property
    def exactly_real(self):
        return self.data.dtype == np.float64

    def is_real(self, tol=1e-12):
        """True when every imaginary part is <= tol * (1 + |entry|)."""
        return bool(np.all(np.abs(self.data.imag) <= tol * (1.0 + np.abs(self.data))))

    def conj(self):
        return Tensor3(self.data.conj())

    def __add__(self, other):
        _check_same_shape(self, other)
        return Tensor3(self.data + other.data)

    def __sub__(self, other):
        _check_same_shape(self, other)
        return Tensor3(self.data - other.data)

    def __neg__(self):
        return Tensor3(-self.data)

    def __mul__(self, scalar):
        scalar = complex(scalar)
        return Tensor3(self.data * (scalar if scalar.imag else scalar.real))

    __rmul__ = __mul__

    def __matmul__(self, other):
        from .algebra import tprod

        return tprod(self, other)

    def __repr__(self):
        return f"Tensor3(m={self.m}, n={self.n}, p={self.p})"


def _check_same_shape(a, b):
    if not isinstance(b, Tensor3):
        raise DimMismatch(f"expected Tensor3, got {type(b).__name__}")
    if a.shape != b.shape:
        raise DimMismatch(f"shape mismatch: {a.shape} vs {b.shape}")


def unfold(a: Tensor3) -> np.ndarray:
    """Stack the frontal slices vertically into an (m*p, n) matrix."""
    return a.data.reshape(a.p * a.m, a.n).copy()


def fold(mat, m, n, p) -> Tensor3:
    """Inverse of :func:`unfold`."""
    mat = np.asarray(mat)
    if mat.shape != (m * p, n):
        raise DimMismatch(f"expected shape {(m * p, n)}, got {mat.shape}")
    return Tensor3(mat.reshape(p, m, n))


def circulant_index(p) -> np.ndarray:
    """(p, p) labels (i - j) mod p: the circulant diagonal of each grid cell."""
    rows = np.arange(p)
    return (rows[:, None] - rows[None, :]) % p


def circulant_means(grid) -> np.ndarray:
    """Diagonal means of a (p, p, ...) grid: entry d averages the cells with label d.

    ``circulant_means(grid)[circulant_index(p)]`` is the nearest circulant grid.
    """
    p = grid.shape[0]
    return grid[np.arange(p), circulant_index(p).T].mean(axis=1)


def bcirc(a: Tensor3) -> np.ndarray:
    """Block-circulant (m*p, n*p) matrix whose first block column is unfold(a)."""
    p = a.p
    blocks = a.data[circulant_index(p)]  # (p, p, m, n), block (i, j) = slice (i - j) mod p
    return blocks.transpose(0, 2, 1, 3).reshape(p * a.m, p * a.n).copy()


def bcirc_inv(mat, m, n, p, rtol=BCIRC_STRUCTURE_RTOL) -> Tensor3:
    """Recover the tensor whose bcirc is ``mat``.

    The result reproduces the first block column of ``mat`` exactly; the
    whole matrix must agree with its block-circulant projection (mean over
    circulant block diagonals) to relative residual ``rtol``, else
    :class:`NotBlockCirculant` is raised.
    """
    mat = np.asarray(mat)
    if mat.shape != (m * p, n * p):
        raise DimMismatch(f"expected shape {(m * p, n * p)}, got {mat.shape}")
    blocks = mat.reshape(p, m, p, n).swapaxes(1, 2)  # (p, p, m, n)
    proj = circulant_means(blocks)
    scale = np.linalg.norm(mat)
    if scale > 0.0:
        residual = np.linalg.norm(mat - bcirc(Tensor3(proj))) / scale
        if residual > rtol:
            raise NotBlockCirculant(
                f"circulant-consistency residual {residual:.3e} exceeds {rtol:.1e}"
            )
    return Tensor3(blocks[:, 0])


def _reversed_tail(data):
    # slice order (1, p, p-1, ..., 2) in 1-indexed terms
    return np.concatenate([data[:1], data[:0:-1]])


def transpose(a: Tensor3) -> Tensor3:
    """Transpose each slice and reverse the order of slices 2..p."""
    return Tensor3(_reversed_tail(a.data).transpose(0, 2, 1))


def conj_transpose(a: Tensor3) -> Tensor3:
    """Conjugate-transpose each slice and reverse the order of slices 2..p."""
    return Tensor3(_reversed_tail(a.data).conj().transpose(0, 2, 1))


def block(rows) -> Tensor3:
    """Compose a block tensor from a 2D grid of tensors.

    ``rows`` is a list of lists; entries are Tensor3 values or the scalar 0
    standing for a zero block whose dimensions are inferred from its row
    and column neighbours. Slice k of the result is the block matrix of the
    quadrants' k-th slices.
    """
    if not rows or not all(isinstance(r, (list, tuple)) and len(r) == len(rows[0]) for r in rows):
        raise DimMismatch("block spec must be a rectangular list of lists")
    nr, nc = len(rows), len(rows[0])
    tensors = [(i, j, e) for i, row in enumerate(rows) for j, e in enumerate(row)
               if isinstance(e, Tensor3)]
    row_m, col_n = {}, {}
    for i, j, e in tensors:
        if e.p != tensors[0][2].p:
            raise DimMismatch("all blocks must share the tube length p")
        if row_m.setdefault(i, e.m) != e.m:
            raise DimMismatch(f"inconsistent row heights in block row {i}")
        if col_n.setdefault(j, e.n) != e.n:
            raise DimMismatch(f"inconsistent column widths in block column {j}")
    if len(row_m) < nr or len(col_n) < nc:
        raise DimMismatch("zero blocks leave some block dimensions undetermined")

    # np.block joins the (p, m, n) stacks along their last two axes
    p = tensors[0][2].p
    grid = [
        [e.data if isinstance(e, Tensor3) else np.zeros((p, row_m[i], col_n[j]))
         for j, e in enumerate(row)]
        for i, row in enumerate(rows)
    ]
    return Tensor3(np.block(grid))


def fnorm(a: Tensor3) -> float:
    """Frobenius norm of bcirc(a), i.e. sqrt(p) times the entrywise norm."""
    return float(np.sqrt(a.p) * np.linalg.norm(a.data))


def specnorm(a: Tensor3) -> float:
    """Largest tubal singular value (spectral norm of bcirc(a))."""
    from .spectral import _svdvals, to_faces

    _, (faces,) = to_faces(a)
    return float(_svdvals(faces).max())
