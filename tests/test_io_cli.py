import re
import struct
import warnings

import numpy as np
import pytest

from tprod import Tensor3, fnorm, identity, pinv, tprod, conj_transpose
from tprod.cli import main
from tprod.errors import FileFormatError
from tprod.io import (
    read_binary,
    read_tensor,
    read_text,
    write_binary,
    write_tensor,
    write_text,
)

from conftest import FIXTURES, rand3


def test_binary_round_trip_bitwise(tmp_path, rng):
    for cplx in (False, True):
        a = rand3(rng, 3, 4, 2, cplx=cplx)
        path = tmp_path / f"t_{cplx}.tt3a"
        write_binary(path, a)
        b = read_binary(path)
        assert np.array_equal(a.data, b.data)


def test_text_round_trip_bitwise(tmp_path, rng):
    for cplx in (False, True):
        a = rand3(rng, 2, 3, 3, cplx=cplx)
        path = tmp_path / f"t_{cplx}.txt"
        write_text(path, a)
        b = read_text(path)
        assert np.array_equal(a.data, b.data)


def test_text_writer_golden_bytes(tmp_path):
    # shortest round-trip reprs from subnormals to the top of the range; a -0.0
    # imaginary part is written +0.0i
    re_ = np.array([[[5e-324, -0.0, 1e-310], [1.7976931348623157e308, -2.5e-300, 0.1]],
                    [[1e308, 3.0, -1.5e-05], [123456.789, -7e22, 2.2250738585072014e-308]]])
    z = np.array([
        [[complex(5e-324, -0.0), complex(-0.0, 5e-324)], [complex(1e-310, -1e308), 0.1 + 0.2j]],
        [[complex(-1.7976931348623157e308, 1e-300), complex(2.0, -3.5e-7)],
         [complex(-0.0, -0.0), complex(6.02214076e23, -5e-324)]],
    ])
    cases = [
        (Tensor3(re_), False,
         "2 3 2 real64\n"
         "5e-324 -0.0 1e-310\n"
         "1.7976931348623157e+308 -2.5e-300 0.1\n"
         "1e+308 3.0 -1.5e-05\n"
         "123456.789 -7e+22 2.2250738585072014e-308\n"),
        (Tensor3(z), False,
         "2 2 2 complex128\n"
         "5e-324+0.0i -0.0+5e-324i\n"
         "1e-310-1e+308i 0.1+0.2i\n"
         "-1.7976931348623157e+308+1e-300i 2.0-3.5e-07i\n"
         "-0.0+0.0i 6.02214076e+23-5e-324i\n"),
        (Tensor3(re_[:1, :1]), True,
         "1 3 1 complex128\n"
         "5e-324+0.0i -0.0+0.0i 1e-310+0.0i\n"),
    ]
    for i, (a, force_complex, want) in enumerate(cases):
        path = tmp_path / f"g{i}.txt"
        write_text(path, a, force_complex=force_complex)
        assert path.read_bytes() == want.encode()
        assert np.array_equal(read_text(path).data, a.data)


def test_read_tensor_dispatches(tmp_path, rng):
    a = rand3(rng, 2, 2, 2)
    write_binary(tmp_path / "b.tt3a", a)
    write_text(tmp_path / "t.txt", a)
    assert np.array_equal(read_tensor(tmp_path / "b.tt3a").data, a.data)
    assert np.array_equal(read_tensor(tmp_path / "t.txt").data, a.data)


def _refused(read, path, message, capsys):
    # the reader raises FileFormatError, and `tprod info` exits 4 with one error line
    with pytest.raises(FileFormatError, match=message):
        read(path)
    assert main(["info", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_truncated_binary_rejected(tmp_path, rng, capsys):
    a = rand3(rng, 2, 2, 2)
    path = tmp_path / "t.tt3a"
    write_binary(path, a)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(FileFormatError):
        read_binary(path)
    for head, message in [
        (raw[:35], "truncated header"),
        (b"XT3A" + raw[4:36], "bad magic b'XT3A'"),
        (raw[:4] + struct.pack("<I", 2) + raw[8:36], "unsupported version 2"),
        (raw[:32] + struct.pack("<I", 3), "unknown dtype tag 3"),
    ]:
        path.write_bytes(head + raw[36:] if len(head) == 36 else head)
        _refused(read_binary, path, message, capsys)


def test_bad_text_headers(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2 oops real64\n1 2\n3 4\n")
    with pytest.raises(FileFormatError):
        read_text(bad)
    bad.write_text("2 2 1 real64\n1 2\n")
    with pytest.raises(FileFormatError):
        read_text(bad)
    bad.write_text("2 2 1 complex128\n1+2i 3\n4+0i 5+1i\n")
    with pytest.raises(FileFormatError):
        read_text(bad)
    for text, message in [
        ("", "empty file"),
        ("2 2 1\n1 2\n3 4\n", "bad header line '2 2 1'"),
        ("2 2 1 real32\n1 2\n3 4\n", "bad header line '2 2 1 real32'"),
    ]:
        bad.write_text(text)
        _refused(read_text, bad, message, capsys)


@pytest.mark.parametrize("body, message", [
    ("1 2\n3 x\n", "bad real token 'x'"),
    ("1 2 5\n3\n", "line 2 has 3 values, expected 2"),
    ("1 2\n3\n", "line 3 has 1 values, expected 2"),
])
def test_real_text_defects_name_the_defect(tmp_path, body, message):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2 1 real64\n" + body)
    with pytest.raises(FileFormatError, match=message):
        read_text(bad)


def test_real_text_values_parse_as_python_float(tmp_path):
    toks = ["0.1", "-0.0", "1e-320", "1_0", "+3.5E2", "2.2250738585072014e-308"]
    path = tmp_path / "r.txt"
    path.write_text("2 3 1 real64\n" + " ".join(toks[:3]) + "\n" + " ".join(toks[3:]) + "\n")
    data = read_text(path).data
    assert data.dtype == np.float64
    assert data.ravel().tobytes() == np.array([float(t) for t in toks]).tobytes()


@pytest.mark.parametrize("tok, want", [("1_0+2i", 10 + 2j), ("1.+2.i", 1 + 2j), ("2i", 2j)])
def test_complex_text_token_is_a_python_complex_literal(tmp_path, tok, want):
    path = tmp_path / "c.txt"
    path.write_text(f"1 1 1 complex128\n{tok}\n")
    assert read_text(path).data[0, 0, 0] == want


@pytest.mark.parametrize("tok", ["3", "1+2j", "(1+2i)", "1+2I", "i", "1+-2i"])
def test_bad_complex_text_token_is_named(tmp_path, tok):
    path = tmp_path / "c.txt"
    path.write_text(f"2 1 1 complex128\n1+0i\n{tok}\n")
    with pytest.raises(FileFormatError, match=f"^bad complex token {re.escape(repr(tok))}$"):
        read_text(path)


def test_nan_complex_token_fails_as_non_finite(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("1 1 1 complex128\nnan+0i\n")
    with pytest.raises(FileFormatError, match="non-finite value"):
        read_text(path)


def test_scientific_notation_tokens(tmp_path):
    t = Tensor3(np.array([[[1e-5 + 2e3j]]]))
    path = tmp_path / "sci.txt"
    write_text(path, t)
    back = read_text(path)
    assert np.array_equal(t.data, back.data)


def test_cli_info_golden(tmp_path, capsys):
    rc = main(["info", str(FIXTURES / "csvd_example.txt")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "tubal rank: 2" in out
    assert "face ranks: 1 2 2" in out


def test_cli_info_identity(tmp_path, capsys):
    path = tmp_path / "eye.tt3a"
    write_tensor(path, identity(3, 2))
    rc = main(["info", str(path)])
    out = capsys.readouterr().out
    assert rc == 0 and "tubal rank: 3" in out


def test_cli_info_zero(tmp_path, capsys):
    path = tmp_path / "zero.tt3a"
    write_tensor(path, Tensor3.zeros(2, 2, 2))
    rc = main(["info", str(path)])
    assert rc == 0 and "tubal rank: 0" in capsys.readouterr().out


def test_cli_decompose_reconstructs(tmp_path, capsys, rng):
    a = rand3(rng, 3, 2, 4)
    src = tmp_path / "a.tt3a"
    write_tensor(src, a)
    rc = main(["decompose", str(src), "--out-prefix", str(tmp_path / "f")])
    assert rc == 0
    u = read_tensor(tmp_path / "f_U.tt3a")
    s = read_tensor(tmp_path / "f_S.tt3a")
    v = read_tensor(tmp_path / "f_V.tt3a")
    rec = tprod(u, tprod(s, conj_transpose(v)))
    assert fnorm(rec - a) <= 1e-10 * fnorm(a)


def test_cli_decompose_compact_golden(tmp_path, capsys):
    rc = main([
        "decompose", str(FIXTURES / "csvd_example.txt"), "--compact",
        "--out-prefix", str(tmp_path / "c"),
    ])
    out = capsys.readouterr().out
    assert rc == 0 and "tubal rank: 2" in out
    u = read_tensor(tmp_path / "c_U.tt3a")
    assert u.shape == (3, 2, 3)


def test_cli_decompose_p1_matrix_case(tmp_path, capsys, rng):
    a = rand3(rng, 4, 3, 1)
    src = tmp_path / "m.tt3a"
    write_tensor(src, a)
    rc = main(["decompose", str(src), "--compact", "--out-prefix", str(tmp_path / "m")])
    assert rc == 0


def test_cli_apply_standard_vs_generalized(tmp_path, capsys):
    tube = FIXTURES / "tube4.txt"
    rc = main(["apply", str(tube), "--fn", "square", "--standard",
               "--out", str(tmp_path / "std.tt3a")])
    assert rc == 0
    std = read_tensor(tmp_path / "std.tt3a")
    assert np.allclose(std.data.ravel().real, [26, 20, 26, 28], atol=1e-10)
    rc = main(["apply", str(tube), "--fn", "square", "--generalized",
               "--out", str(tmp_path / "gen.tt3a")])
    assert rc == 0
    gen = read_tensor(tmp_path / "gen.tt3a")
    r2 = 2 * np.sqrt(2)
    assert np.allclose(gen.data.ravel().real, [24 - r2, 26 + r2, 24 + r2, 26 - r2],
                       atol=1e-10)


def test_cli_apply_identity_echo(tmp_path, rng):
    a = rand3(rng, 3, 2, 2)
    src = tmp_path / "a.tt3a"
    write_tensor(src, a)
    rc = main(["apply", str(src), "--fn", "id", "--out", str(tmp_path / "out.tt3a")])
    assert rc == 0
    assert fnorm(read_tensor(tmp_path / "out.tt3a") - a) <= 1e-12 * fnorm(a)


def test_cli_apply_methods_cross_check(tmp_path, capsys, rng):
    a = rand3(rng, 3, 3, 2)
    src = tmp_path / "a.tt3a"
    write_tensor(src, a)
    for method in ("series", "contour"):
        rc = main(["apply", str(src), "--fn", "square", "--method", method,
                   "--out", str(tmp_path / f"{method}.tt3a")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cross-check vs spectral" in out


@pytest.mark.parametrize("kind", ["--generalized", "--standard"])
def test_cli_contour_route_writes_real_output_for_real_input(tmp_path, capsys, kind):
    out = tmp_path / "out.tt3a"
    rc = main(["apply", str(FIXTURES / "tube4.txt"), "--fn", "square", kind, "--method",
               "contour", "--out", str(out)])
    assert rc == 0
    assert read_tensor(out).exactly_real
    assert main(["info", str(out)]) == 0
    assert "dtype: real64" in capsys.readouterr().out


def test_cli_apply_failed_cross_check_exits_3(tmp_path, capsys):
    # the default circle of the standard-function contour oracle loses digits
    # on these unscaled faces (8.6e-4 from the spectral route)
    src = tmp_path / "a.tt3a"
    write_tensor(src, Tensor3(2 * np.random.default_rng(0).standard_normal((16, 4, 4))))
    out = tmp_path / "out.tt3a"
    rc = main(["apply", str(src), "--fn", "exp", "--standard", "--method", "contour",
               "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 3
    assert "cross-check vs spectral: " in captured.out
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("method", [[], ["--method", "spectral"]], ids=["default", "spectral"])
def test_cli_nodes_outside_the_contour_route_is_usage_error(tmp_path, capsys, method):
    out = tmp_path / "out.tt3a"
    rc = main(["apply", str(FIXTURES / "tube4.txt"), "--fn", "square", *method,
               "--nodes", "100", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not out.exists()


def test_cli_standard_sqrt_of_a_negative_scalar_writes_complex(tmp_path):
    src, out = tmp_path / "a.txt", tmp_path / "out.txt"
    write_text(src, Tensor3([[[-4.0]]]))
    assert main(["apply", str(src), "--fn", "sqrt", "--standard", "--text", "--out", str(out)]) == 0
    assert out.read_text().splitlines() == ["1 1 1 complex128", "0.0+2.0i"]


@pytest.mark.parametrize("nodes", [[], ["--nodes", "256"]], ids=["default", "explicit"])
def test_cli_apply_contour_refuses_an_unsettled_quadrature(tmp_path, capsys, nodes):
    # exp on the circle around 60 outgrows the result: with --nodes unset the
    # library's halving estimate refuses it before any cross-check; with 256
    # given, the sum is returned and the cross-check (3.5e-5) refuses it
    src = tmp_path / "a.tt3a"
    write_tensor(src, Tensor3(np.diag([60.0, 1.0])[None]))
    out = tmp_path / "out.tt3a"
    rc = main(["apply", str(src), "--fn", "exp", "--method", "contour", *nodes,
               "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert ("did not settle" in captured.err) == (not nodes)
    assert ("cross-check vs spectral: " in captured.out) == bool(nodes)
    assert not out.exists()


def test_cli_apply_poly(tmp_path, rng):
    a = rand3(rng, 2, 2, 2)
    src = tmp_path / "a.tt3a"
    write_tensor(src, a)
    rc = main(["apply", str(src), "--poly", "0,1,0,2", "--out", str(tmp_path / "p.tt3a")])
    assert rc == 0


def test_cli_apply_zero_gate_exit_code(tmp_path):
    # unequal face ranks put a zero singular value inside the window, which
    # exp cannot accept; the CLI must report a numerical failure
    faces = np.zeros((2, 3, 3), dtype=complex)
    faces[0] = np.diag([1.0, 2.0, 0.0])
    faces[1] = np.diag([1.0, 0.0, 0.0])
    t = Tensor3(np.fft.ifft(faces, axis=0))
    src = tmp_path / "zero_gate.tt3a"
    write_tensor(src, t)
    rc = main(["apply", str(src), "--fn", "exp", "--out", str(tmp_path / "out.tt3a")])
    assert rc == 3


def test_cli_apply_spectral_factors_once(tmp_path, rng, monkeypatch):
    import tprod.genfun

    calls = []
    real_tcsvd = tprod.genfun.tcsvd

    def counting_tcsvd(*args, **kwargs):
        calls.append(1)
        return real_tcsvd(*args, **kwargs)

    monkeypatch.setattr(tprod.genfun, "tcsvd", counting_tcsvd)
    src = tmp_path / "a.tt3a"
    write_tensor(src, rand3(rng, 3, 2, 4))
    rc = main(["apply", str(src), "--fn", "sinh", "--out", str(tmp_path / "out.tt3a")])
    assert rc == 0
    assert len(calls) == 1


@pytest.mark.parametrize("mode", ["--generalized", "--standard"])
def test_cli_invalid_contour_is_usage_error(tmp_path, capsys, rng, mode):
    src = tmp_path / "a.tt3a"
    write_tensor(src, rand3(rng, 3, 3, 2))
    rc = main(["apply", str(src), "--fn", "sinh", mode, "--method", "contour",
               "--nodes", "8", "--out", str(tmp_path / "out.tt3a")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_standard_fn_off_domain_is_usage_error(tmp_path, capsys):
    # ln1p(-1) = -inf on a Hermitian face must not come back as NaN
    src = tmp_path / "m1.txt"
    src.write_text("1 1 1 real64\n-1.0\n")
    out = tmp_path / "o.tt3a"
    with np.errstate(divide="ignore"):
        rc = main(["apply", str(src), "--fn", "ln1p", "--standard", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_cli_unexpected_error_is_one_line_exit_3(capsys, monkeypatch):
    import tprod.cli

    def broken(args):
        raise RuntimeError("first line\nsecond line")

    monkeypatch.setattr(tprod.cli, "cmd_info", broken)
    rc = main(["info", "any.tt3a"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == "error: RuntimeError: first line second line\n"


def test_cli_series_overflow_is_one_line_exit_3(tmp_path, capsys):
    # 200**k overflows before the exp series settles
    src = tmp_path / "big.tt3a"
    write_binary(src, Tensor3(np.array([[[200.0]], [[1.0]]])))
    argv = ["apply", str(src), "--fn", "exp", "--method", "series", "--out", str(tmp_path / "o")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "OverflowError" not in err and "Traceback" not in err
    assert not caught


def test_cli_pinv(tmp_path, rng):
    a = rand3(rng, 3, 2, 2)
    src = tmp_path / "a.tt3a"
    write_tensor(src, a)
    rc = main(["pinv", str(src), "--out", str(tmp_path / "x.tt3a")])
    assert rc == 0
    assert fnorm(read_tensor(tmp_path / "x.tt3a") - pinv(a)) <= 1e-12


def test_cli_pinv_identity(tmp_path):
    src = tmp_path / "eye.tt3a"
    write_tensor(src, identity(2, 3))
    rc = main(["pinv", str(src), "--out", str(tmp_path / "x.tt3a")])
    assert rc == 0
    assert fnorm(read_tensor(tmp_path / "x.tt3a") - identity(2, 3)) <= 1e-12


def test_cli_solve_and_lstsq(tmp_path, capsys, rng):
    a = rand3(rng, 3, 3, 2)
    b = rand3(rng, 3, 3, 2)
    y = rand3(rng, 3, 3, 2)
    d = tprod(a, tprod(y, b))
    for name, t in (("A", a), ("B", b), ("D", d)):
        write_tensor(tmp_path / f"{name}.tt3a", t)
    rc = main(["solve", "--A", str(tmp_path / "A.tt3a"), "--B", str(tmp_path / "B.tt3a"),
               "--D", str(tmp_path / "D.tt3a"), "--out", str(tmp_path / "X.tt3a")])
    out = capsys.readouterr().out
    assert rc == 0 and "consistency residual" in out
    assert float(out.split("residual:")[1].strip()) < 1e-9

    rc = main(["lstsq", "--A", str(tmp_path / "A.tt3a"), "--B", str(tmp_path / "D.tt3a"),
               "--out", str(tmp_path / "LS.tt3a")])
    assert rc == 0
    want = tprod(pinv(a), d)
    assert fnorm(read_tensor(tmp_path / "LS.tt3a") - want) <= 1e-10 * fnorm(want)


def test_cli_check_membership(tmp_path, capsys, rng):
    from tprod import random_member

    member = random_member("doubly_f_stochastic", (3, 3, 2), seed=2)
    src = tmp_path / "ds.tt3a"
    write_tensor(src, member)
    rc = main(["check", str(src), "--class", "doubly_f_stochastic"])
    assert rc == 0
    bad = rand3(rng, 3, 3, 2)
    write_tensor(tmp_path / "bad.tt3a", bad)
    rc = main(["check", str(tmp_path / "bad.tt3a"), "--class", "symmetric"])
    assert rc == 1


def test_cli_check_permutation_orthogonal(tmp_path):
    from tprod import make_permutation

    src = tmp_path / "perm.tt3a"
    write_tensor(src, make_permutation([1, 2, 0], 3, 2))
    rc = main(["check", str(src), "--class", "orthogonal"])
    assert rc == 0


def test_cli_check_with_fn_and_trials(tmp_path, capsys):
    from tprod import random_member

    member = random_member("symmetric", (3, 3, 2), seed=4)
    src = tmp_path / "sym.tt3a"
    write_tensor(src, member)
    rc = main(["check", str(src), "--class", "symmetric", "--fn", "sin", "--trials", "2"])
    out = capsys.readouterr().out
    assert rc == 0 and "harness" in out


def test_cli_check_negative_trials_is_usage_error(tmp_path, capsys):
    src = tmp_path / "ds.tt3a"
    write_tensor(src, identity(3, 2))
    rc = main(["check", str(src), "--class", "doubly_f_stochastic", "--fn", "cube",
               "--trials", "-2"])
    assert rc == 2
    assert "--trials" in capsys.readouterr().err


def test_cli_check_unknown_class(tmp_path, capsys):
    src = tmp_path / "a.tt3a"
    write_tensor(src, identity(2, 2))
    rc = main(["check", str(src), "--class", "bogus"])
    assert rc == 2


@pytest.mark.parametrize("spec", [
    "f_block_circulant(-2)", "f_block_circulant(x)", "f_block_circulant(0)",
    "f_block_circulant(2,3)",
])
def test_cli_check_bad_class_parameter_is_usage_error(tmp_path, capsys, spec):
    src = tmp_path / "a.tt3a"
    write_tensor(src, identity(4, 3))
    rc = main(["check", str(src), "--class", spec])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "ValueError" not in err and "Traceback" not in err


def test_cli_missing_file_is_io_error(capsys):
    rc = main(["info", "/nonexistent/never.tt3a"])
    assert rc == 4


def _assert_io_exit(argv, capsys):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 4
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_non_finite_value_is_io_error(tmp_path, capsys):
    path = tmp_path / "nan.txt"
    path.write_text("2 2 1 real64\n1 nan\n3 4\n")
    _assert_io_exit(["info", str(path)], capsys)


def test_cli_oversized_binary_header_is_io_error(tmp_path, capsys):
    path = tmp_path / "huge.tt3a"
    path.write_bytes(struct.pack("<4sIQQQI", b"TT3A", 1, 2**40, 2**40, 1, 1))
    _assert_io_exit(["info", str(path)], capsys)


def test_cli_zero_dimension_is_io_error(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("0 2 1 real64\n")
    _assert_io_exit(["info", str(path)], capsys)


@pytest.mark.parametrize("argv", [
    ["check", "sq", "--class", "f_block_circulant(3)"],
    ["check", "sq", "--class", "pseudo_symmetric(-1,5)"],
    ["check", "rect", "--class", "hermitian"],
    ["solve", "--A", "sq", "--B", "small", "--D", "sq", "--out", "out"],
    ["lstsq", "--A", "sq", "--B", "small", "--out", "out"],
    ["apply", "rect", "--fn", "exp", "--standard", "--out", "out"],
    ["apply", "sq", "--poly", "1,a", "--out", "out"],
    ["apply", "sq", "--fn", "power(x)", "--out", "out"],
], ids=["check-block-size", "check-signature", "check-non-square", "solve", "lstsq",
        "apply-standard-non-square", "apply-poly", "apply-power"])
def test_cli_usage_errors_exit_2(tmp_path, capsys, rng, argv):
    # operands that do not fit each other, the class or the function are the user's
    shapes = {"sq": (4, 4, 3), "rect": (4, 2, 3), "small": (3, 3, 3)}
    for name, shape in shapes.items():
        write_tensor(tmp_path / f"{name}.tt3a", rand3(rng, *shape))
    files = {name: str(tmp_path / f"{name}.tt3a") for name in [*shapes, "out"]}
    rc = main([files.get(arg, arg) for arg in argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "ValueError" not in err and "Traceback" not in err
    assert not (tmp_path / "out.tt3a").exists()



@pytest.mark.parametrize("flags", [
    ["--fn", "power(nan)"],
    ["--fn", "power(inf)"],
    ["--fn", "power(1e400)"],
    ["--fn", "square", "--standard", "--method", "series", "--z0", "5"],
    ["--fn", "square", "--method", "spectral", "--z0", "0.5"],
    ["--fn", "square", "--method", "contour", "--z0", "0.5"],
    ["--fn", "square", "--method", "spectral", "--nodes", "3", "--z0", "9"],
    ["--fn", "square", "--standard", "--method", "series", "--nodes", "64"],
], ids=["power-nan", "power-inf", "power-overflow", "z0-standard", "z0-spectral",
        "z0-contour", "nodes-spectral", "nodes-series"])
def test_cli_apply_refuses_what_its_route_cannot_use(tmp_path, capsys, flags):
    # a non-finite exponent, or a flag the chosen route would silently drop
    out = tmp_path / "out.tt3a"
    rc = main(["apply", str(FIXTURES / "tube4.txt"), *flags, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "ValueError" not in err and "OverflowError" not in err
    assert not out.exists()


def test_cli_standard_series_route_is_gone(tmp_path, capsys):
    # --method series is the generalized Taylor route only
    out = tmp_path / "out.tt3a"
    rc = main(["apply", str(FIXTURES / "tube4.txt"), "--fn", "square", "--standard",
               "--method", "series", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: --method series is the generalized") and err.count("\n") == 1
    assert not out.exists()


def test_cli_apply_passes_z0_and_nodes_to_their_routes(tmp_path, monkeypatch):
    import tprod.cli

    seen = []
    real_taylor, real_contour = tprod.cli.gfun_taylor, tprod.cli.gfun_contour
    monkeypatch.setattr(tprod.cli, "gfun_taylor",
                        lambda a, f, z0: seen.append(z0) or real_taylor(a, f, z0=z0))
    monkeypatch.setattr(tprod.cli, "gfun_contour",
                        lambda a, f, nodes: seen.append(nodes) or real_contour(a, f, nodes=nodes))
    base = ["apply", str(FIXTURES / "tube4.txt"), "--fn", "square", "--out",
            str(tmp_path / "out.tt3a")]
    for extra in (["--method", "series"], ["--method", "series", "--z0", "0.5"],
                  ["--method", "contour"], ["--method", "contour", "--nodes", "64"]):
        assert main(base + extra) == 0
    # an unset --nodes leaves the node count to the library
    assert seen == [0.0, 0.5, None, 64]

def test_cli_usage_error(capsys):
    rc = main(["apply", "x.tt3a"])  # missing --fn/--poly and --out
    assert rc == 2
