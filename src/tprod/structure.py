"""Structured-tensor classes, preservation harness, isomorphisms, and cones.

Every class from the automorphism-group / Lie-algebra / Jordan-algebra
catalogue is encoded as a (form tensor, bilinear-or-sesquilinear, algebra)
triple; membership predicates return residuals so near-misses are visible,
and each class has a constructive random generator for the harness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import FormKind, adjoint, first_slice, identity, is_unitary, tprod
from .core import (Tensor3, bcirc, block, circulant_index, circulant_means, conj_transpose,
                   fnorm, transpose)
from .errors import (
    BadPermutation,
    ConsistencyError,
    DimMismatch,
    HypothesisViolation,
    UnsupportedClass,
)
from .genfun import ScalarFn, gfun, named_scalar_fn, standard_tfn
from .spectral import _ct, _matmul, default_rank_rtol, from_faces, to_faces

_TINY = 1e-300


# ---------------------------------------------------------------------------
# constructors

def make_reverse(n, p) -> Tensor3:
    """Reverse tensor: first slice is the exchange matrix, rest zero."""
    return first_slice(np.eye(n)[::-1], p)


def make_skew_hamiltonian(n, p) -> Tensor3:
    """The 2n x 2n canonical form [[0, I], [-I, 0]] in the first slice."""
    return first_slice(np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(n)), p)


def make_pseudo(a, b, p) -> Tensor3:
    """Signature tensor diag(I_a, -I_b) in the first slice."""
    return first_slice(np.diag(np.concatenate([np.ones(a), -np.ones(b)])), p)


def make_permutation(perm, n, p) -> Tensor3:
    """Permutation tensor: first slice has a 1 at (perm[j], j)."""
    perm = list(perm)
    if sorted(perm) != list(range(n)):
        raise BadPermutation(f"{perm} is not a permutation of 0..{n - 1}")
    return first_slice(np.eye(n)[:, perm], p)


# ---------------------------------------------------------------------------
# class registry

@dataclass(frozen=True)
class StructClass:
    """A structured-tensor class, possibly with parameters.

    ``a``/``b`` split the signature form; ``q`` (a positive integer) is the
    circulant block size of F-block-circulant tensors, and F-circulant is
    q = 1. No other class takes a block size.
    """

    name: str
    a: int = None
    b: int = None
    q: int = None

    def __post_init__(self):
        if self.q is None:
            return
        if self.name != "f_block_circulant":
            raise UnsupportedClass(f"{self.name} takes no block size")
        if not (isinstance(self.q, (int, np.integer)) and self.q >= 1):
            raise UnsupportedClass(f"block size must be a positive integer, got {self.q!r}")

    @classmethod
    def parse(cls, text):
        text = text.strip()
        if "(" in text and text.endswith(")"):
            base, args = text[:-1].split("(", 1)
            try:
                nums = [int(v) for v in args.split(",") if v.strip()]
            except ValueError:
                raise UnsupportedClass(f"class parameters must be integers, got {text!r}") from None
            if base in FORM_CLASSES and FORM_CLASSES[base][1] == "S":
                if len(nums) != 2:
                    raise UnsupportedClass(f"{base} takes two integers, got {text!r}")
                return cls(base, a=nums[0], b=nums[1])
            if base == "f_block_circulant":
                if len(nums) > 1:
                    raise UnsupportedClass(f"{base} takes at most one integer, got {text!r}")
                return cls(base, q=nums[0] if nums else None)
            raise UnsupportedClass(f"unknown parametric class {text!r}")
        return cls(text)


# name -> (field, form tensor key, bilinear/sesquilinear, algebra)
FORM_CLASSES = {
    "symmetric": ("R", "I", "bilinear", "jordan"),
    "skew_symmetric": ("R", "I", "bilinear", "lie"),
    "complex_symmetric": ("C", "I", "bilinear", "jordan"),
    "complex_skew_symmetric": ("C", "I", "bilinear", "lie"),
    "pseudo_symmetric": ("R", "S", "bilinear", "jordan"),
    "pseudo_skew_symmetric": ("R", "S", "bilinear", "lie"),
    "complex_pseudo_symmetric": ("C", "S", "bilinear", "jordan"),
    "complex_pseudo_skew_symmetric": ("C", "S", "bilinear", "lie"),
    "persymmetric": ("R", "R", "bilinear", "jordan"),
    "perskew_symmetric": ("R", "R", "bilinear", "lie"),
    "skew_hamiltonian": ("R", "J", "bilinear", "jordan"),
    "hamiltonian": ("R", "J", "bilinear", "lie"),
    "J_skew_symmetric": ("C", "J", "bilinear", "jordan"),
    "J_symmetric": ("C", "J", "bilinear", "lie"),
    "hermitian": ("C", "I", "sesquilinear", "jordan"),
    "skew_hermitian": ("C", "I", "sesquilinear", "lie"),
    "pseudo_hermitian": ("C", "S", "sesquilinear", "jordan"),
    "pseudo_skew_hermitian": ("C", "S", "sesquilinear", "lie"),
    "perhermitian": ("C", "R", "sesquilinear", "jordan"),
    "skew_perhermitian": ("C", "R", "sesquilinear", "lie"),
    "J_skew_hermitian": ("C", "J", "sesquilinear", "jordan"),
    "J_hermitian": ("C", "J", "sesquilinear", "lie"),
    # automorphism groups
    "orthogonal": ("R", "I", "bilinear", "group"),
    "complex_orthogonal": ("C", "I", "bilinear", "group"),
    "pseudo_orthogonal": ("R", "S", "bilinear", "group"),
    "complex_pseudo_orthogonal": ("C", "S", "bilinear", "group"),
    "perplectic": ("R", "R", "bilinear", "group"),
    "symplectic": ("R", "J", "bilinear", "group"),
    "complex_symplectic": ("C", "J", "bilinear", "group"),
    "unitary": ("C", "I", "sesquilinear", "group"),
    "pseudo_unitary": ("C", "S", "sesquilinear", "group"),
    "complex_perplectic": ("C", "R", "sesquilinear", "group"),
    "conjugate_symplectic": ("C", "J", "sesquilinear", "group"),
}

ENTRYWISE_CLASSES = (
    "centrohermitian",
    "skew_centrohermitian",
    "normal",
    "f_circulant",
    "f_block_circulant",
    "doubly_f_stochastic",
    "nonnegative",
)

TABLE1_CLASSES = tuple(k for k, v in FORM_CLASSES.items() if v[3] in ("jordan", "lie"))
TABLE2_CLASSES = tuple(k for k, v in FORM_CLASSES.items() if v[3] == "group")

_F_SQUARE = frozenset(FORM_CLASSES) | {"normal", "f_circulant", "f_block_circulant",
                                       "doubly_f_stochastic"}


def _require_f_square(name, m, n):
    if name in _F_SQUARE and m != n:
        raise DimMismatch(f"{name} tensors are F-square, got {m} x {n} slices")


def _form_for(cls: StructClass, n, p) -> FormKind:
    _, tkey, kind, _ = FORM_CLASSES[cls.name]
    if tkey == "I":
        t = identity(n, p)
    elif tkey == "R":
        t = make_reverse(n, p)
    elif tkey == "S":
        a = cls.a if cls.a is not None else (n + 1) // 2
        b = cls.b if cls.b is not None else n - a
        if a + b != n or a <= 0 or b <= 0:
            raise DimMismatch(f"signature split ({a},{b}) does not fit n={n}")
        t = make_pseudo(a, b, p)
    else:  # "J"
        if n % 2:
            raise DimMismatch(f"{cls.name} needs an even dimension, got {n}")
        t = make_skew_hamiltonian(n // 2, p)
    return FormKind(kind, t)


def _project_block_circulant(data, q):
    """Slice by slice, the nearest block-circulant matrix with circulant q x q blocks.

    F-circulant is the case q = 1.
    """
    p, _, n = data.shape
    if n % q:
        raise DimMismatch(f"block size {q} does not divide n={n}")
    nb = n // q
    grid = data.reshape(p, nb, q, nb, q).transpose(1, 3, 2, 4, 0)  # (nb, nb, q, q, p)
    block_means = circulant_means(grid)  # (nb, q, q, p)
    means = circulant_means(block_means.transpose(1, 2, 0, 3))  # (q, nb, p)
    out = means[circulant_index(q)[None, :, None, :], circulant_index(nb)[:, None, :, None]]
    return np.moveaxis(out, -1, 0).reshape(p, n, n)


def membership_residual(t: Tensor3, cls: StructClass) -> float:
    """Normalized defect of the class's defining equation."""
    name = cls.name
    _require_f_square(name, t.m, t.n)
    scale = max(fnorm(t), _TINY)
    if name in FORM_CLASSES:
        form = _form_for(cls, t.n, t.p)
        star = adjoint(t, form)
        algebra = FORM_CLASSES[name][3]
        if algebra == "jordan":
            return fnorm(star - t) / scale
        if algebra == "lie":
            return fnorm(star + t) / scale
        eye = identity(t.n, t.p)
        return fnorm(tprod(star, t) - eye) / fnorm(eye)
    if name in ("centrohermitian", "skew_centrohermitian"):
        rm = make_reverse(t.m, t.p)
        rn = make_reverse(t.n, t.p)
        wrapped = tprod(rm, tprod(t, rn))
        target = t.conj() if name == "centrohermitian" else -t.conj()
        return fnorm(wrapped - target) / scale
    if name == "normal":
        th = conj_transpose(t)
        gram = tprod(t, th)
        return fnorm(gram - tprod(th, t)) / max(fnorm(gram), _TINY)
    if name in ("f_circulant", "f_block_circulant"):
        proj = _project_block_circulant(t.data, cls.q or 1)
        return fnorm(t - Tensor3(proj)) / scale
    if name == "doubly_f_stochastic":
        ones = Tensor3(np.ones((t.p, t.n, 1)))
        en = fnorm(ones)
        d1 = fnorm(tprod(t, ones) - ones)
        d2 = fnorm(tprod(transpose(t), ones) - ones)
        return max(d1, d2) / en
    if name == "nonnegative":
        mx = max(float(np.abs(t.data).max()), _TINY)
        neg = max(0.0, -float(t.data.real.min()))
        imag = float(np.abs(t.data.imag).max())
        return (neg + imag) / mx
    raise UnsupportedClass(f"unknown class {name!r}")


def is_member(t: Tensor3, cls: StructClass, tol=1e-10):
    """(bool, residual) for class membership at tolerance ``tol``."""
    if isinstance(cls, str):
        cls = StructClass.parse(cls)
    residual = membership_residual(t, cls)
    return residual <= tol, residual


# ---------------------------------------------------------------------------
# random generators

def _rand_tensor(rng, m, n, p, cplx):
    data = rng.standard_normal((p, m, n))
    if cplx:
        data = data + 1j * rng.standard_normal((p, m, n))
    return Tensor3(data)


def random_unitary(n, p, seed=0, real=True) -> Tensor3:
    """Random orthogonal/unitary tensor by batched face-wise QR.

    A real tensor draws only the half spectrum; its faces 0 and (even p)
    p/2 are drawn real, as the conjugate pairing requires.
    """
    rng = np.random.default_rng(seed)
    h = p // 2 + 1 if real else p
    z = rng.standard_normal((h, n, n)) + 1j * rng.standard_normal((h, n, n))
    if real:
        z[0].imag = 0.0
        if p % 2 == 0:
            z[-1].imag = 0.0
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * np.sign(np.where(np.abs(d) > 0, d.real, 1.0))[:, None, :]
    return from_faces(q, p, half=real)


def _sinkhorn_block_circulant(rng, n, p):
    # Row (i, a) of bcirc(T) sums to row a of the slice sum S = sum_k T_k, and
    # column (j, b) to column b of S. Sinkhorn balancing of S, with each
    # scaling applied to every slice, therefore balances bcirc(T) and keeps it
    # block-circulant.
    t = np.abs(rng.standard_normal((p, n, n))) + 0.1
    for _ in range(2000):
        t /= t.sum(axis=(0, 2))[:, None]
        t /= t.sum(axis=(0, 1))
        s = t.sum(axis=0)
        if max(np.abs(s.sum(axis=1) - 1.0).max(), np.abs(s.sum(axis=0) - 1.0).max()) <= 1e-12:
            break
    return Tensor3(t)


def random_member(cls, shape, seed=0) -> Tensor3:
    """Random member of a structured class; validated against its predicate."""
    if isinstance(cls, str):
        cls = StructClass.parse(cls)
    m, n, p = shape
    rng = np.random.default_rng(seed)
    name = cls.name
    _require_f_square(name, m, n)

    if name in FORM_CLASSES:
        field_, _, _, algebra = FORM_CLASSES[name]
        cplx = field_ == "C"
        form = _form_for(cls, n, p)
        if algebra == "group":
            lie = _rand_tensor(rng, n, n, p, cplx)
            lie = lie - adjoint(lie, form)
            lie = (0.4 / max(fnorm(lie), _TINY)) * lie
            out = standard_tfn(lie, named_scalar_fn("exp"))
        elif algebra == "jordan":
            b = _rand_tensor(rng, n, n, p, cplx)
            out = 0.5 * (b + adjoint(b, form))
        else:
            b = _rand_tensor(rng, n, n, p, cplx)
            out = 0.5 * (b - adjoint(b, form))
    elif name in ("centrohermitian", "skew_centrohermitian"):
        b = _rand_tensor(rng, m, n, p, cplx=True)
        rm = make_reverse(m, p)
        rn = make_reverse(n, p)
        wrapped = tprod(rm, tprod(b.conj(), rn))
        out = 0.5 * (b + wrapped) if name == "centrohermitian" else 0.5 * (b - wrapped)
    elif name == "normal":
        z = rng.standard_normal((p, n, n)) + 1j * rng.standard_normal((p, n, n))
        q, _ = np.linalg.qr(z)
        d = rng.standard_normal((p, 1, n)) + 1j * rng.standard_normal((p, 1, n))
        out = from_faces(_matmul(q * d, _ct(q)), p, half=False)
    elif name in ("f_circulant", "f_block_circulant"):
        out = Tensor3(_project_block_circulant(rng.standard_normal((p, m, n)), cls.q or 1))
    elif name == "doubly_f_stochastic":
        out = _sinkhorn_block_circulant(rng, n, p)
    elif name == "nonnegative":
        out = Tensor3(np.abs(rng.standard_normal((p, m, n))))
    else:
        raise UnsupportedClass(f"no generator for class {name!r}")

    ok, residual = is_member(out, cls, tol=1e-10)
    if not ok:
        raise ConsistencyError(f"generator for {name} missed its class: residual {residual:.3e}")
    return out


# ---------------------------------------------------------------------------
# hypothesis checks and the preservation harness

def _require_odd(f: ScalarFn):
    if f.value_at_zero != 0:
        raise HypothesisViolation(f"{f.name or 'f'} must be odd: f(0) != 0")
    xs = np.array([0.31, 0.77, 1.43])
    # inside a finite series radius, so a series-backed f is evaluable at either sign
    radius = getattr(f.series, "radius", np.inf)
    xs *= min(1.0, 0.9 * radius / xs[-1])
    try:
        lhs = np.asarray(f(-xs), dtype=np.complex128)
    except Exception as exc:
        raise HypothesisViolation(
            f"{f.name or 'f'} is not evaluable at negatives"
        ) from exc
    rhs = -np.asarray(f(xs), dtype=np.complex128)
    if not np.allclose(lhs, rhs, atol=1e-10, rtol=1e-8):
        raise HypothesisViolation(f"{f.name or 'f'} fails sampled oddness")


def _require_group_fn(f: ScalarFn):
    if f.value_at_zero != 0:
        raise HypothesisViolation(f"{f.name or 'f'} must satisfy f(0) = 0")
    xs = np.array([0.2, 0.5, 1.0, 1.7, 3.1])
    vals = np.asarray(f(xs), dtype=np.complex128) * np.asarray(f(1.0 / xs), dtype=np.complex128)
    if not np.allclose(vals, 1.0, atol=1e-9):
        raise HypothesisViolation(f"{f.name or 'f'} fails sampled f(x) f(1/x) = 1")


def _require_nonneg_odd_series(f: ScalarFn, want_fixed_one=False):
    series = f.series
    if series is None:
        raise HypothesisViolation(f"{f.name or 'f'} needs a power series with odd terms only")
    for k in range(0, 42):
        c = complex(series.coeff(k))
        if k % 2 == 0 and abs(c) > 1e-14:
            raise HypothesisViolation(f"{f.name or 'f'} has a nonzero even coefficient a_{k}")
        if k % 2 == 1 and (c.real < -1e-14 or abs(c.imag) > 1e-14):
            raise HypothesisViolation(f"{f.name or 'f'} has a negative/complex odd coefficient a_{k}")
    if want_fixed_one:
        one = complex(np.asarray(f(np.array([1.0])), dtype=np.complex128)[0])
        if abs(one - 1.0) > 1e-12:
            raise HypothesisViolation(f"{f.name or 'f'} must satisfy f(1) = 1")


@dataclass(frozen=True)
class PreservationReport:
    cls: str
    fn: str
    trials: int
    residuals: tuple
    max_residual: float
    tol: float

    @property
    def ok(self):
        return self.max_residual <= self.tol


def preservation_check(cls, f, trials=5, shape=(4, 4, 3), seed=0, tol=1e-8) -> PreservationReport:
    """Generate members, apply the generalized function, re-test membership."""
    if isinstance(cls, str):
        cls = StructClass.parse(cls)
    f = named_scalar_fn(f)
    name = cls.name
    if name in FORM_CLASSES:
        if FORM_CLASSES[name][3] == "group":
            _require_group_fn(f)
        else:
            _require_odd(f)
    elif name == "nonnegative":
        _require_nonneg_odd_series(f)
    elif name == "doubly_f_stochastic":
        _require_nonneg_odd_series(f, want_fixed_one=True)

    residuals = []
    for t in range(trials):
        member = random_member(cls, shape, seed=seed + 7919 * t)
        image = gfun(member, f)
        residuals.append(membership_residual(image, cls))
    return PreservationReport(
        cls=name,
        fn=f.name or "f",
        trials=trials,
        residuals=tuple(residuals),
        max_residual=max(residuals, default=0.0),
        tol=tol,
    )


def zero_slice_check(a: Tensor3, f, tol=1e-10):
    """Check that all-zero lateral/horizontal slices survive the generalized function.

    Returns (ok, worst) where worst is the largest relative norm any such
    slice of f_gen(a) acquired.
    """
    f = named_scalar_fn(f)
    g = gfun(a, f)
    scale = max(fnorm(g), fnorm(a), _TINY)
    lateral = ~a.data.any(axis=(0, 1))  # all-zero columns
    horizontal = ~a.data.any(axis=(0, 2))  # all-zero rows
    norms = np.concatenate([np.linalg.norm(g.data[:, :, lateral], axis=(0, 1)),
                            np.linalg.norm(g.data[:, horizontal, :], axis=(0, 2))])
    worst = float(norms.max(initial=0.0)) / scale
    return worst <= tol, worst


# ---------------------------------------------------------------------------
# the two isomorphisms

def phi(a: Tensor3) -> Tensor3:
    """Complex-to-real doubling: B + iC -> [[B, -C], [C, B]] (2n x 2n x p, real)."""
    if a.m != a.n:
        raise DimMismatch(f"doubling map needs an F-square tensor, got {a.shape}")
    b = Tensor3(a.data.real)
    c = Tensor3(a.data.imag)
    return block([[b, -1.0 * c], [c, b]])


def phi_inv(t: Tensor3) -> Tensor3:
    """Inverse of :func:`phi` on its image."""
    if t.m != t.n or t.m % 2:
        raise DimMismatch("not in the image of the doubling map")
    n = t.m // 2
    b = t.data[:, :n, :n]
    c = t.data[:, n:, :n]
    return Tensor3(b + 1j * c)


def bcirc_commutation_check(a: Tensor3, f, standard=False) -> float:
    """Relative defect of the matrix-level route against the tensor route.

    Generalized: compact-SVD matrix function of bcirc(a) vs bcirc(gfun(a)).
    Standard (F-square): dense eigendecomposition matrix function of
    bcirc(a) vs bcirc(standard_tfn(a)). Both matrix paths are dense and
    independent of the face-wise production code.
    """
    f = named_scalar_fn(f)
    mat = bcirc(a)
    if standard:
        w, v = np.linalg.eig(mat)
        lhs = (v * np.asarray(f(w), dtype=np.complex128)) @ np.linalg.inv(v)
        rhs = bcirc(standard_tfn(a, f))
    else:
        u, s, vh = np.linalg.svd(mat)
        cutoff = default_rank_rtol(a.m, a.n, a.p) * (s[0] if s.size else 0.0)
        r = int((s > cutoff).sum())
        vals = np.asarray(f(s[:r]), dtype=np.complex128)
        lhs = (u[:, :r] * vals) @ vh[:r]
        rhs = bcirc(gfun(a, f))
    return float(np.linalg.norm(lhs - rhs) / max(np.linalg.norm(lhs), _TINY))


# ---------------------------------------------------------------------------
# invariant cones

@dataclass(frozen=True)
class ConeSpec:
    """Cone of tensors U * S * V^H with ordered nonnegative F-diagonal S of rank <= r."""

    U: Tensor3
    V: Tensor3
    r: int

    def __post_init__(self):
        if not is_unitary(self.U, 1e-10) or not is_unitary(self.V, 1e-10):
            raise DimMismatch("cone frames must be unitary tensors")
        if not 0 < self.r <= min(self.U.n, self.V.n):
            raise DimMismatch(f"rank bound {self.r} out of range")


def _antitone_fit(y):
    """Least-squares nonincreasing fit of every row of an (h, r) stack.

    fit_i = min_{j<=i} max_{l>=i} mean(y_j..y_l), the min-max form of isotonic
    regression (Robertson, Wright & Dykstra 1988, Theorem 1.4.4).
    """
    csum = np.concatenate([np.zeros((len(y), 1)), y.cumsum(axis=1)], axis=1)
    start, stop = np.arange(y.shape[1])[:, None], np.arange(y.shape[1])
    means = (csum[:, None, 1:] - csum[:, :-1, None]) / np.maximum(stop - start + 1, 1)
    # [j, i] = max over l >= i of mean(y_j..y_l); for i >= j it reads only l >= j
    upper = np.maximum.accumulate(means[..., ::-1], axis=-1)[..., ::-1]
    return np.where(stop >= start, upper, np.inf).min(axis=1)


def _cone_project_faces(spec: ConeSpec, a: Tensor3):
    mid = tprod(conj_transpose(spec.U), tprod(a, spec.V))
    # faces k and p - k share their real diagonal, so a real mid projects on
    # the half spectrum
    half, (faces,) = to_faces(mid)
    diag = np.arange(spec.r)
    out = np.zeros_like(faces)
    out[:, diag, diag] = np.maximum(_antitone_fit(faces[:, diag, diag].real), 0.0)
    return from_faces(out, a.p, half)


def cone_membership(spec: ConeSpec, a: Tensor3, tol=1e-8):
    """(bool, residual): distance to the nearest aligned ordered-diagonal tensor."""
    if a.m != spec.U.n or a.n != spec.V.n or a.p != spec.U.p:
        raise DimMismatch(f"tensor {a.shape} does not fit the cone frames")
    shat = _cone_project_faces(spec, a)
    ahat = tprod(spec.U, tprod(shat, conj_transpose(spec.V)))
    residual = fnorm(a - ahat) / max(fnorm(a), _TINY)
    return residual <= tol, residual


def random_cone_member(spec: ConeSpec, seed=0) -> Tensor3:
    """U * S * V^H with random ordered nonnegative diagonals of rank ``spec.r``."""
    rng = np.random.default_rng(seed)
    rank = spec.r
    m, n, p = spec.U.n, spec.V.n, spec.U.p
    faces = np.zeros((p, m, n))
    faces[:, np.arange(rank), np.arange(rank)] = -np.sort(-rng.uniform(0.2, 2.0, (p, rank)))
    s = from_faces(faces, p, half=False)
    return tprod(spec.U, tprod(s, conj_transpose(spec.V)))


def cone_invariance_check(spec: ConeSpec, f, trials=5, seed=0, tol=1e-8):
    """Harness: members stay members under f_gen.

    f must be nonnegative, vanish at 0, and be non-decreasing on the sampled
    singular-value range; that keeps the per-face diagonals ordered.
    """
    f = named_scalar_fn(f)
    if f.value_at_zero != 0:
        raise HypothesisViolation(f"{f.name or 'f'} must vanish at 0")
    xs = np.linspace(0.01, 2.5, 40)
    ys = np.asarray(f(xs), dtype=np.complex128)
    if np.any(np.abs(ys.imag) > 1e-12) or np.any(ys.real < -1e-12):
        raise HypothesisViolation(f"{f.name or 'f'} must be nonnegative on the sampled range")
    if np.any(np.diff(ys.real) < -1e-12):
        raise HypothesisViolation(f"{f.name or 'f'} must be non-decreasing on the sampled range")

    results = []
    for t in range(trials):
        member = random_cone_member(spec, seed=seed + 31 * t)
        image = gfun(member, f)
        _, residual = cone_membership(spec, image, tol)
        results.append(residual)
    worst = max(results, default=0.0)
    return worst <= tol, worst, tuple(results)
