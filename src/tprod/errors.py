"""Exception types raised by the tprod library."""


class TprodError(Exception):
    """Base class for all library errors.

    ``exit_code`` is the status the ``tprod`` CLI exits with: 2 for a usage
    error, 3 for a numerical failure (the default), 4 for an I/O or parse
    failure.
    """

    exit_code = 3


class DimMismatch(TprodError):
    """Operand dimensions do not conform."""

    exit_code = 2


class NotBlockCirculant(TprodError):
    """Matrix is not block-circulant to the structural tolerance."""


class Singular(TprodError):
    """A face matrix is numerically singular.

    Carries ``face`` (index of the worst face) and ``smin`` (its smallest
    singular value) when known.
    """

    def __init__(self, msg, face=None, smin=None):
        super().__init__(msg)
        self.face = face
        self.smin = smin


class ZeroSingularValueRequiresFZero(TprodError):
    """A zero singular value sits inside the rank window but f(0) != 0."""


class ZeroSingularValue(TprodError):
    """Operation requires strictly positive singular values."""


class FnDomainError(TprodError):
    """Scalar function undefined or non-finite at a required point."""

    exit_code = 2


class DefectiveFace(TprodError):
    """A face too far from normal for the standard T-function: its kernel
    cannot vouch for it and f has no Taylor series about the face's mean
    eigenvalue, or that Taylor sum cancels."""


class SeriesDivergence(TprodError):
    """Power series does not converge on the face spectrum."""


class RadiusViolation(TprodError):
    """A singular value lies outside the series' disc of convergence."""


class NoConvergence(TprodError):
    """Iteration hit its term cap with a non-negligible last term."""


class NearSingularShift(TprodError):
    """Resolvent shift too close to a singular value."""


class EmptyValues(TprodError):
    """Contour construction needs at least one enclosed value."""


class EigenvalueOnContour(TprodError):
    """A face eigenvalue lies (numerically) on the integration contour."""


class InvalidContour(TprodError, ValueError):
    """Contour has too few nodes, a non-positive radius or overlapping circles,
    leaves a value unenclosed, or has more than the one circle an oracle takes."""

    exit_code = 2


class InvalidArgument(TprodError, ValueError):
    """An argument outside the values the function accepts."""

    exit_code = 2


class NonFinite(TprodError):
    """A tensor entering the face domain holds a NaN or an infinity."""


class UnsupportedClass(TprodError):
    """Unknown structured-tensor class name."""

    exit_code = 2


class HypothesisViolation(TprodError):
    """Scalar function fails the hypothesis required by a preservation law."""

    exit_code = 2


class BadPermutation(TprodError):
    """Sequence is not a permutation of 0..n-1."""

    exit_code = 2


class ConsistencyError(TprodError):
    """Two internal evaluation routes disagreed beyond tolerance."""


class FileFormatError(TprodError):
    """Tensor file is malformed or truncated."""

    exit_code = 4
