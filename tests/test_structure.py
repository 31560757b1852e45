import numpy as np
import pytest

from tprod import (
    ConeSpec,
    StructClass,
    Tensor3,
    bcirc,
    bcirc_commutation_check,
    cone_invariance_check,
    cone_membership,
    conj_transpose,
    fnorm,
    gfun,
    identity,
    is_member,
    is_unitary,
    make_permutation,
    make_pseudo,
    make_reverse,
    make_skew_hamiltonian,
    membership_residual,
    named_scalar_fn,
    odd_part,
    phi,
    phi_inv,
    polynomial,
    preservation_check,
    random_cone_member,
    random_member,
    random_unitary,
    scalar_fn,
    specnorm,
    tprod,
    zero_slice_check,
)
from tprod.errors import (
    BadPermutation,
    DimMismatch,
    HypothesisViolation,
    RadiusViolation,
    UnsupportedClass,
)
from tprod.structure import (ENTRYWISE_CLASSES, FORM_CLASSES, TABLE1_CLASSES, TABLE2_CLASSES,
                             _antitone_fit, _cone_project_faces)

from conftest import rand3

SIN = named_scalar_fn("sin")
CUBE = named_scalar_fn("cube")


def test_constructors_are_involutions():
    r = make_reverse(4, 3)
    assert fnorm(tprod(r, r) - identity(4, 3)) <= 1e-14
    j = make_skew_hamiltonian(2, 3)
    assert fnorm(tprod(j, conj_transpose(j)) - identity(4, 3)) <= 1e-14
    s = make_pseudo(2, 1, 2)
    assert fnorm(tprod(s, s) - identity(3, 2)) <= 1e-14
    for t in (r, j, s):
        assert is_unitary(t)


def test_permutation_tensor():
    p = make_permutation([2, 0, 1], 3, 4)
    assert is_unitary(p)
    ok, _ = is_member(p, "orthogonal")
    assert ok
    with pytest.raises(BadPermutation):
        make_permutation([0, 0, 1], 3, 2)


def test_permutation_tensor_places_ones_at_perm_j_j():
    p = make_permutation([2, 0, 1], 3, 2)
    want = np.zeros((2, 3, 3))
    want[0, 2, 0] = want[0, 0, 1] = want[0, 1, 2] = 1.0
    assert np.array_equal(p.data, want)


def test_identity_memberships():
    eye = identity(3, 2)
    for name in ("symmetric", "orthogonal", "doubly_f_stochastic", "normal", "f_circulant"):
        ok, res = is_member(eye, name)
        assert ok, (name, res)


def test_uniform_tensor_doubly_stochastic():
    n, p = 3, 2
    t = Tensor3(np.full((p, n, n), 1.0 / (n * p)))
    ok, res = is_member(t, "doubly_f_stochastic")
    assert ok and res <= 1e-14


def test_centrohermitian_constructed(rng):
    b = rand3(rng, 3, 4, 2, cplx=True)
    rm, rn = make_reverse(3, 2), make_reverse(4, 2)
    a = 0.5 * (b + tprod(rm, tprod(b.conj(), rn)))
    ok, _ = is_member(a, "centrohermitian")
    assert ok
    bad, res = is_member(b, "centrohermitian")
    assert not bad and res > 1e-3


def test_random_tensor_not_symmetric(rng):
    a = rand3(rng, 4, 4, 3)
    ok, res = is_member(a, "symmetric")
    assert not ok and res > 1e-2


@pytest.mark.parametrize("name", sorted(FORM_CLASSES))
def test_random_member_passes_predicate(name):
    shape = (4, 4, 3)
    member = random_member(name, shape, seed=13)
    ok, res = is_member(member, name)
    assert ok, (name, res)


@pytest.mark.parametrize("name", [c for c in ENTRYWISE_CLASSES if c != "f_block_circulant"])
def test_random_member_entrywise(name):
    member = random_member(name, (4, 4, 3), seed=5)
    ok, res = is_member(member, name)
    assert ok, (name, res)


def test_random_member_block_circulant():
    cls = StructClass("f_block_circulant", q=2)
    member = random_member(cls, (4, 4, 2), seed=3)
    ok, res = is_member(member, cls)
    assert ok, res


def _entrywise_block_circulant_projection(data, q):
    """Every entry replaced by the mean of its orbit, summed one entry at a time.

    An orbit is one slice k, one block diagonal (i // q - j // q) mod (n / q)
    and one in-block diagonal (i - j) mod q; q = 1 gives the (i - j) mod n
    diagonals of a circulant.
    """
    p, n, _ = data.shape

    def label(k, i, j):
        return k, (i // q - j // q) % (n // q), (i - j) % q

    cells = [(k, i, j) for k in range(p) for i in range(n) for j in range(n)]
    sums, counts = {}, {}
    for c in cells:
        sums[label(*c)] = sums.get(label(*c), 0) + data[c]
        counts[label(*c)] = counts.get(label(*c), 0) + 1
    out = np.empty_like(data)
    for c in cells:
        out[c] = sums[label(*c)] / counts[label(*c)]
    return out


@pytest.mark.parametrize("name, q", [
    ("f_circulant", None), ("f_block_circulant", 1), ("f_block_circulant", 2),
    ("f_block_circulant", 3),
])
def test_circulant_residual_of_non_member_matches_entrywise_projection(name, q):
    rng = np.random.default_rng(21)
    data = rng.standard_normal((3, 6, 6)) + 1j * rng.standard_normal((3, 6, 6))
    proj = _entrywise_block_circulant_projection(data, q or 1)
    want = np.linalg.norm(data - proj) / np.linalg.norm(data)
    got = membership_residual(Tensor3(data), StructClass(name, q=q))
    assert want > 0.5
    assert abs(got - want) <= 1e-12


def test_f_circulant_is_block_circulant_with_unit_blocks(rng):
    t = rand3(rng, 5, 5, 4, cplx=True)
    circ, unit = StructClass("f_circulant"), StructClass("f_block_circulant", q=1)
    assert membership_residual(t, circ) == membership_residual(t, unit)
    a, b = random_member(circ, (5, 5, 4), seed=8), random_member(unit, (5, 5, 4), seed=8)
    assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("p", [1, 2, 16])
def test_doubly_f_stochastic_member_has_unit_bcirc_sums(p):
    mat = bcirc(random_member("doubly_f_stochastic", (5, 5, p), seed=p))
    assert np.all(mat.imag == 0.0) and mat.real.min() > 0.0
    assert np.abs(mat.sum(axis=1) - 1.0).max() <= 1e-12
    assert np.abs(mat.sum(axis=0) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("text", [
    "f_block_circulant(-2)", "f_block_circulant(x)", "f_block_circulant(0)",
    "f_block_circulant(2,3)", "pseudo_symmetric(1,y)",
])
def test_bad_class_parameters_are_unsupported(text):
    with pytest.raises(UnsupportedClass):
        StructClass.parse(text)


@pytest.mark.parametrize("name, q", [
    ("f_block_circulant", 0), ("f_block_circulant", -1), ("f_block_circulant", 1.5),
    ("f_circulant", 2),
])
def test_struct_class_rejects_bad_block_size(name, q):
    with pytest.raises(UnsupportedClass):
        StructClass(name, q=q)


def test_unsupported_class():
    with pytest.raises(UnsupportedClass):
        is_member(identity(2, 2), "frobnicated")


@pytest.mark.parametrize("name", sorted(TABLE1_CLASSES))
def test_preservation_table1(name):
    rep = preservation_check(name, SIN, trials=2, shape=(4, 4, 2), seed=1)
    assert rep.ok, (name, rep.max_residual)


@pytest.mark.parametrize("name", sorted(TABLE2_CLASSES))
def test_preservation_table2(name):
    rep = preservation_check(name, CUBE, trials=2, shape=(4, 4, 2), seed=2)
    assert rep.ok, (name, rep.max_residual)


@pytest.mark.parametrize("name,fn", [
    ("centrohermitian", "sin"),
    ("skew_centrohermitian", "sin"),
    ("normal", "sin"),
    ("f_circulant", "sin"),
    ("doubly_f_stochastic", "cube"),
])
def test_preservation_entrywise(name, fn):
    rep = preservation_check(name, fn, trials=2, shape=(4, 4, 2), seed=3)
    assert rep.ok, (name, rep.max_residual)


def test_preservation_block_circulant():
    cls = StructClass("f_block_circulant", q=2)
    rep = preservation_check(cls, SIN, trials=2, shape=(4, 4, 2), seed=4)
    assert rep.ok, rep.max_residual


def test_orthogonal_image_is_rescaled_input():
    # every singular value of an orthogonal tensor is 1, so f acts as f(1)
    q = random_member("orthogonal", (4, 4, 3), seed=8)
    f = polynomial([0.0, 0.5, 0.0, 0.5])  # f(1) = 1, odd, f(x) f(1/x) = 1 fails
    image = gfun(q, named_scalar_fn("cube"))
    assert fnorm(image - q) <= 1e-9 * fnorm(q)
    del f


def test_preservation_hypothesis_violations():
    with pytest.raises(HypothesisViolation):
        preservation_check("symmetric", named_scalar_fn("exp"), trials=1)
    with pytest.raises(HypothesisViolation):
        preservation_check("orthogonal", named_scalar_fn("sinh"), trials=1)
    with pytest.raises(HypothesisViolation):
        preservation_check("nonnegative", named_scalar_fn("exp"), trials=1)
    with pytest.raises(HypothesisViolation):
        # odd nonneg coefficients but f(1) = sinh(1) != 1
        preservation_check("doubly_f_stochastic", named_scalar_fn("sinh"), trials=1)



def test_preservation_odd_hypothesis_is_sampled():
    # f(0) = 0 but even, so only the sampled f(-x) = -f(x) test refuses it
    with pytest.raises(HypothesisViolation, match="sampled oddness"):
        preservation_check("symmetric", named_scalar_fn("square"), trials=1)


@pytest.mark.parametrize("name", ["ln1p", "inverse_shift"])
def test_oddness_is_sampled_inside_the_series_radius(name):
    # the odd half of a radius-1 series is odd: sampling passes, and a member
    # whose singular values leave the radius is refused for the radius
    f = odd_part(named_scalar_fn(name))
    with pytest.raises(RadiusViolation, match="radius 1"):
        preservation_check("symmetric", f, trials=1)
    member = random_member("symmetric", (4, 4, 3), seed=0)
    a = (0.5 / specnorm(member)) * member
    assert is_member(gfun(a, f), "symmetric", tol=1e-8)[0]


def test_oddness_sampling_inside_the_radius_still_refuses_an_even_part():
    # ln1p has f(0) = 0 but is not odd: inside its radius it fails for its values
    with pytest.raises(HypothesisViolation, match="sampled oddness"):
        preservation_check("symmetric", named_scalar_fn("ln1p"), trials=1)


def test_preservation_check_without_trials_is_vacuous():
    rep = preservation_check("symmetric", SIN, trials=0)
    assert (rep.trials, rep.residuals, rep.max_residual) == (0, (), 0.0)
    assert rep.ok

def test_nonnegative_preservation_sinh(rng):
    a = random_member("nonnegative", (3, 5, 2), seed=6)
    a = (0.8 / max(fnorm(a), 1.0)) * a
    image = gfun(a, named_scalar_fn("sinh"))
    assert float(image.data.real.min()) >= -1e-12
    assert image.is_real(1e-10)


def test_zero_slice_preservation(rng):
    data = rand3(rng, 5, 5, 3).data.copy()
    data[:, :, 4] = 0.0
    data[:, 2, :] = 0.0
    ok, worst = zero_slice_check(Tensor3(data), SIN)
    assert ok, worst
    okz, _ = zero_slice_check(Tensor3.zeros(3, 3, 2), SIN)
    assert okz


def test_block_diagonal_stays_block_diagonal(rng):
    # F-block-diagonal input: generalized functions act per block
    a = rand3(rng, 2, 2, 3)
    b = rand3(rng, 3, 3, 3)
    from tprod import block

    t = block([[a, 0], [0, b]])
    image = gfun(t, SIN)
    assert np.abs(image.data[:, :2, 2:]).max() <= 1e-12
    assert np.abs(image.data[:, 2:, :2]).max() <= 1e-12
    # and permuted block-diagonal structure survives conjugation by the
    # permutations that reveal it
    perm = make_permutation([1, 3, 0, 2, 4], 5, 3)
    hidden = tprod(conj_transpose(perm), tprod(t, perm))
    unhidden = tprod(perm, tprod(gfun(hidden, SIN), conj_transpose(perm)))
    assert fnorm(unhidden - image) <= 1e-9 * max(fnorm(image), 1.0)


def test_phi_basics(rng):
    eye = identity(3, 2)
    assert fnorm(phi(eye) - identity(6, 2)) <= 1e-14
    j_like = phi(1j * eye)
    want = np.zeros((2, 6, 6))
    want[0, :3, 3:] = -np.eye(3)
    want[0, 3:, :3] = np.eye(3)
    assert np.allclose(j_like.data.real, want)
    a = rand3(rng, 3, 3, 2, cplx=True)
    assert fnorm(phi_inv(phi(a)) - a) <= 1e-14 * fnorm(a)


def test_phi_homomorphism(rng):
    a = rand3(rng, 3, 3, 2, cplx=True)
    b = rand3(rng, 3, 3, 2, cplx=True)
    lhs = phi(tprod(a, b))
    rhs = tprod(phi(a), phi(b))
    assert fnorm(lhs - rhs) <= 1e-12 * max(fnorm(lhs), 1.0)
    assert fnorm(phi(a + b) - (phi(a) + phi(b))) <= 1e-12 * fnorm(phi(a))


def test_phi_commutes_with_gfun(rng):
    a = rand3(rng, 3, 3, 2, cplx=True)
    lhs = gfun(phi(a), SIN)
    rhs = phi(gfun(a, SIN))
    assert fnorm(lhs - rhs) <= 1e-9 * max(fnorm(lhs), 1.0)


def test_bcirc_commutation(rng):
    a = rand3(rng, 3, 2, 4)
    assert bcirc_commutation_check(a, CUBE) <= 1e-9
    assert bcirc_commutation_check(a, named_scalar_fn("id")) <= 1e-13
    sq = rand3(rng, 3, 3, 3)
    assert bcirc_commutation_check(sq, named_scalar_fn("exp"), standard=True) <= 1e-9


def test_cone_membership(rng):
    u = random_unitary(4, 3, seed=20)
    v = random_unitary(3, 3, seed=21)
    spec = ConeSpec(U=u, V=v, r=2)
    member = random_cone_member(spec, seed=22)
    ok, res = cone_membership(spec, member)
    assert ok, res
    outsider = rand3(rng, 4, 3, 3)
    ok2, res2 = cone_membership(spec, outsider)
    assert not ok2 and res2 > 1e-3


def test_cone_invariance(rng):
    u = random_unitary(4, 3, seed=30)
    v = random_unitary(3, 3, seed=31)
    spec = ConeSpec(U=u, V=v, r=2)
    ok, worst, results = cone_invariance_check(spec, named_scalar_fn("square"), trials=3)
    assert ok, worst
    assert len(results) == 3
    # sampled-validity: x e^-x is increasing only below 1; members here have
    # singular values up to 2, so the harness must reject it
    xexp = scalar_fn(lambda x: np.asarray(x) * np.exp(-np.asarray(x)), 0.0, "xexp")
    with pytest.raises(HypothesisViolation):
        cone_invariance_check(spec, xexp, trials=1)


def _pava_nonincreasing(y):
    # pool-adjacent-violators: merge neighbouring blocks while they increase
    vals, wts = [], []
    for v in y:
        vals.append(v)
        wts.append(1)
        while len(vals) > 1 and vals[-2] < vals[-1]:
            v2, w2 = vals.pop(), wts.pop()
            v1, w1 = vals.pop(), wts.pop()
            vals.append((v1 * w1 + v2 * w2) / (w1 + w2))
            wts.append(w1 + w2)
    return np.repeat(vals, wts)


@pytest.mark.parametrize("r", range(1, 9))
def test_antitone_fit_matches_pava(r):
    y = np.random.default_rng(r).standard_normal((400, r))
    y[::2] = np.round(2 * y[::2]) / 2  # ties and equal runs
    want = np.array([_pava_nonincreasing(row) for row in y])
    assert np.abs(_antitone_fit(y) - want).max() <= 1e-14


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("cplx", [False, True])
def test_cone_projection_matches_pava_per_face(rng, r, cplx):
    # r = 1 and r = min(m, n); the diagonals past r are dropped
    u, v = random_unitary(4, 5, seed=40), random_unitary(3, 5, seed=41)
    a = rand3(rng, 4, 3, 5, cplx)
    faces = np.fft.fft(tprod(conj_transpose(u), tprod(a, v)).data, axis=0)
    want = np.zeros_like(faces)
    for face, out in zip(faces, want):
        fit = _pava_nonincreasing(face.diagonal()[:r].real)
        out[np.arange(r), np.arange(r)] = np.maximum(fit, 0.0)
    want = Tensor3(np.fft.ifft(want, axis=0))
    got = _cone_project_faces(ConeSpec(U=u, V=v, r=r), a)
    assert fnorm(got - want) <= 1e-14 * max(fnorm(want), 1.0)


def test_cone_rejects_bad_frames(rng):
    with pytest.raises(DimMismatch):
        ConeSpec(U=rand3(rng, 3, 3, 2), V=random_unitary(3, 2, seed=1), r=1)


def test_dim_guards():
    with pytest.raises(DimMismatch):
        is_member(identity(3, 2), "hamiltonian")  # odd dimension
    with pytest.raises(DimMismatch):
        membership_residual(Tensor3.zeros(2, 3, 2), StructClass("normal"))
