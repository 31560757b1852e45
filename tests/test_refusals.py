"""Refusals of the public API: each raises its documented TprodError class."""

import numpy as np
import pytest

from tprod import (
    ConeSpec,
    FormKind,
    ScalarFn,
    StructClass,
    Tensor3,
    bcirc_inv,
    block,
    cone_invariance_check,
    cone_membership,
    even_odd_split,
    gfun_taylor,
    identity,
    inverse,
    named_scalar_fn,
    phi,
    phi_inv,
    polynomial,
    preservation_check,
    random_member,
    standard_fn_contour,
)
from tprod.cli import main
from tprod.errors import DimMismatch, FnDomainError, HypothesisViolation, UnsupportedClass

from conftest import FIXTURES

_WIDE = Tensor3(np.arange(12.0).reshape(2, 2, 3))  # 2 x 3 x 2: not F-square
_FRAMES = ConeSpec(identity(2, 2), identity(2, 2), 1)


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: inverse(_WIDE), "inverse needs", id="inverse"),
    pytest.param(lambda: standard_fn_contour(_WIDE, named_scalar_fn("exp")),
                 "standard function needs", id="standard_fn_contour"),
    pytest.param(lambda: phi(_WIDE), "doubling map needs", id="phi"),
    pytest.param(lambda: FormKind("bilinear", _WIDE), "form tensor", id="FormKind"),
    pytest.param(lambda: phi_inv(identity(3, 2)), "image of the doubling", id="phi_inv"),
    pytest.param(lambda: Tensor3(np.zeros((2, 2, 2, 2))), "nonempty", id="Tensor3-4d"),
    pytest.param(lambda: Tensor3(np.zeros((0, 2, 2))), "nonempty", id="Tensor3-empty"),
    pytest.param(lambda: identity(2, 2) + 1, "expected Tensor3", id="Tensor3-plus-scalar"),
    pytest.param(lambda: bcirc_inv(np.zeros((5, 5)), 2, 2, 2), "expected shape", id="bcirc_inv"),
    pytest.param(lambda: block([[identity(2, 2)], [identity(2, 2), identity(2, 2)]]),
                 "rectangular", id="block"),
    pytest.param(lambda: ConeSpec(identity(2, 2), identity(2, 2), 5), "rank bound",
                 id="ConeSpec-rank"),
    pytest.param(lambda: cone_membership(_FRAMES, identity(3, 2)), "cone frames",
                 id="cone_membership"),
])
def test_shape_refusals_raise_dim_mismatch(call, match):
    with pytest.raises(DimMismatch, match=match):
        call()


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: polynomial([]), "nonempty", id="polynomial-empty"),
    pytest.param(lambda: named_scalar_fn("bogus"), "unknown", id="named_scalar_fn"),
    pytest.param(lambda: gfun_taylor(identity(2, 2), named_scalar_fn("sign")), "Taylor series",
                 id="gfun_taylor-sign"),
    pytest.param(lambda: even_odd_split(named_scalar_fn("sign")), "power series",
                 id="even_odd_split-sign"),
])
def test_function_refusals_raise_fn_domain_error(call, match):
    with pytest.raises(FnDomainError, match=match):
        call()


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: StructClass.parse("pseudo_symmetric(1)"), "two integers",
                 id="parse-one-signature-integer"),
    pytest.param(lambda: StructClass.parse("foo(2)"), "unknown parametric", id="parse-unknown"),
    pytest.param(lambda: random_member("foo", (2, 2, 2)), "no generator",
                 id="random_member-unknown"),
])
def test_class_refusals_raise_unsupported_class(call, match):
    with pytest.raises(UnsupportedClass, match=match):
        call()


@pytest.mark.parametrize("cls, fn, match", [
    ("symmetric", "cos", "must be odd"),
    ("orthogonal", "exp", r"f\(0\) = 0"),
    ("nonnegative", "sign", "odd terms only"),
    ("nonnegative", "sin", "negative/complex odd coefficient"),
])
def test_preservation_check_refuses_a_function_outside_its_hypothesis(cls, fn, match):
    with pytest.raises(HypothesisViolation, match=match):
        preservation_check(cls, fn, trials=1)


def _cube_of_nonnegatives(x):
    if (np.asarray(x).real < 0).any():
        raise ValueError("negative argument")
    return np.asarray(x) ** 3


def test_preservation_check_refuses_an_odd_class_function_that_raises_on_negatives():
    f = ScalarFn(_cube_of_nonnegatives, 0.0, name="cube_of_nonnegatives")
    with pytest.raises(HypothesisViolation, match="^cube_of_nonnegatives is not evaluable at "
                       "negatives$") as exc:
        preservation_check("symmetric", f, trials=1)
    assert isinstance(exc.value.__cause__, ValueError)


@pytest.mark.parametrize("f, match", [
    pytest.param(named_scalar_fn("cos"), "vanish at 0", id="cos"),
    pytest.param(polynomial([0, -1]), "nonnegative", id="-z"),
])
def test_cone_invariance_check_refuses_a_function_outside_its_hypothesis(f, match):
    with pytest.raises(HypothesisViolation, match=match):
        cone_invariance_check(_FRAMES, f, trials=1)


@pytest.mark.parametrize("argv", [
    ["apply", str(FIXTURES / "tube4.txt"), "--fn", "bogus"],
    ["apply", str(FIXTURES / "tube4.txt"), "--poly="],
    ["check", str(FIXTURES / "tube4.txt"), "--class", "foo(2)"],
], ids=["apply-fn", "apply-poly", "check-class"])
def test_cli_refusals_are_usage_errors(argv, tmp_path, capsys):
    out = tmp_path / "o.tt3a"
    if argv[0] == "apply":
        argv = [*argv, "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()
