"""Dense third-order tensor algebra under the T-product.

Tensors multiply through their block-circulant unfolding, which a DFT along
tube fibers turns into independent matrix products per face. On top of that
calculus: T-SVD and compact T-SVD, generalized tensor functions (spectral,
series, and Cauchy-integral routes), the Moore-Penrose inverse and solvers,
and executable structure-preservation laws for the classical matrix classes
lifted to tensors.
"""

from .core import (
    Tensor3,
    bcirc,
    bcirc_inv,
    block,
    conj_transpose,
    fnorm,
    fold,
    specnorm,
    transpose,
    unfold,
)
from .algebra import FormKind, adjoint, form_eval, identity, inverse, is_unitary, tprod
from .spectral import (
    PartialIsometrySet,
    TCsvd,
    TSvd,
    isometry,
    partial_isometries,
    projectors,
    t_eigenvalues,
    tcsvd,
    tsvd,
)
from .genfun import (
    NAMED_FUNCTIONS,
    ScalarFn,
    Series,
    even_odd_split,
    gfun,
    gfun_series_split,
    gfun_taylor,
    gpower,
    mixed_block_fn,
    named_gfun,
    named_scalar_fn,
    odd_part,
    polynomial,
    power_fn,
    scalar_fn,
    standard_tfn,
)
from .solve import (
    Contour,
    Resolvent,
    SolveResult,
    cluster_projector_contour,
    contour_for,
    gfun_contour,
    lstsq,
    pinv,
    pinv_contour,
    resolvent_eval,
    resolvent_identity_residual,
    solve_axb,
    solve_axb_contour,
    standard_fn_contour,
)
from .structure import (
    ConeSpec,
    PreservationReport,
    StructClass,
    bcirc_commutation_check,
    cone_invariance_check,
    cone_membership,
    is_member,
    make_permutation,
    make_pseudo,
    make_reverse,
    make_skew_hamiltonian,
    membership_residual,
    phi,
    phi_inv,
    preservation_check,
    random_cone_member,
    random_member,
    random_unitary,
    zero_slice_check,
)
from . import errors
from .io import read_tensor, write_tensor

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
