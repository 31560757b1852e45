"""Command-line surface: tensor file I/O, decompose/apply/solve/check.

Exit codes: 0 success, 1 check failed, 2 usage error, 3 numerical failure
(or any other unexpected error), 4 I/O or parse failure.
"""

from __future__ import annotations

import argparse
import sys

from . import io as tio
from .algebra import tprod
from .core import conj_transpose, fnorm
from .errors import FnDomainError, InvalidArgument, TprodError
from .genfun import gfun, gfun_taylor, named_scalar_fn, polynomial, standard_tfn
from .solve import gfun_contour, lstsq, pinv, solve_axb, standard_fn_contour
from .spectral import tcsvd
from .structure import StructClass, is_member, preservation_check

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_NUMERICAL = 3
EXIT_IO = 4
_CROSS_CHECK_RTOL = 1e-6  # the contour tolerance of acceptance criterion 07


def cmd_info(args):
    a = tio.read_tensor(args.path)
    c = tcsvd(a)
    print(f"dims: {a.m} x {a.n} x {a.p}")
    print(f"dtype: {'real64' if a.exactly_real else 'complex128'}")
    print(f"fnorm: {fnorm(a):.12g}")
    print(f"specnorm: {c.sigma.max(initial=0.0):.12g}")
    print(f"tubal rank: {c.r}")
    print(f"face ranks: {' '.join(str(r) for r in c.face_ranks)}")
    return EXIT_OK


def cmd_decompose(args):
    a = tio.read_tensor(args.path)
    c = tcsvd(a) if args.compact else None
    if args.compact:
        u, s, v = c.Ur, c.Sr, c.Vr
    else:
        from .spectral import tsvd

        f = tsvd(a)
        u, s, v = f.U, f.S, f.V
    rec = tprod(u, tprod(s, conj_transpose(v)))
    residual = fnorm(rec - a) / max(fnorm(a), 1e-300)
    prefix = args.out_prefix
    tio.write_tensor(f"{prefix}_U.tt3a", u, text=args.text)
    tio.write_tensor(f"{prefix}_S.tt3a", s, text=args.text)
    tio.write_tensor(f"{prefix}_V.tt3a", v, text=args.text)
    print(f"reconstruction residual: {residual:.3e}")
    if args.compact:
        print(f"tubal rank: {c.r}")
    if residual > 1e-10:
        print("error: factors fail to reconstruct the input", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _resolve_fn(args):
    if args.poly is not None:
        try:
            coeffs = [float(v) for v in args.poly.split(",") if v.strip()]
        except ValueError:
            raise FnDomainError(f"polynomial coefficients must be numbers: {args.poly!r}") from None
        return polynomial(coeffs)
    return named_scalar_fn(args.fn)


def cmd_apply(args):
    if args.standard and args.method == "series":
        raise InvalidArgument("--method series is the generalized Taylor route; drop --standard")
    if args.z0 is not None and args.method != "series":
        raise InvalidArgument("--z0 belongs to the generalized series route (--method series)")
    if args.nodes is not None and args.method != "contour":
        raise InvalidArgument("--nodes belongs to the contour routes (--method contour)")
    a = tio.read_tensor(args.path)
    f = _resolve_fn(args)
    spectral_fn = standard_tfn if args.standard else gfun
    if args.method == "spectral":
        out = spectral_fn(a, f)
    else:
        if args.method == "series":
            out = gfun_taylor(a, f, z0=args.z0 or 0.0)
        else:
            out = (standard_fn_contour if args.standard else gfun_contour)(a, f, nodes=args.nodes)
        reference = spectral_fn(a, f)
        diff = fnorm(out - reference) / max(fnorm(reference), 1e-300)
        print(f"cross-check vs spectral: {diff:.3e}")
        if not diff <= _CROSS_CHECK_RTOL:
            print(f"error: cross-check exceeds {_CROSS_CHECK_RTOL:g}", file=sys.stderr)
            return EXIT_NUMERICAL
    tio.write_tensor(args.out, out, text=args.text)
    return EXIT_OK


def cmd_pinv(args):
    a = tio.read_tensor(args.path)
    tio.write_tensor(args.out, pinv(a), text=args.text)
    return EXIT_OK


def cmd_solve(args):
    a = tio.read_tensor(args.A)
    b = tio.read_tensor(args.B)
    d = tio.read_tensor(args.D)
    res = solve_axb(a, b, d)
    print(f"consistency residual: {res.residual:.3e}")
    tio.write_tensor(args.out, res.x, text=args.text)
    return EXIT_OK


def cmd_lstsq(args):
    a = tio.read_tensor(args.A)
    b = tio.read_tensor(args.B)
    tio.write_tensor(args.out, lstsq(a, b), text=args.text)
    return EXIT_OK


def cmd_check(args):
    a = tio.read_tensor(args.path)
    cls = StructClass.parse(args.cls)
    ok, residual = is_member(a, cls, tol=args.tol)
    print(f"membership[{cls.name}]: residual {residual:.3e} -> {'ok' if ok else 'FAIL'}")
    failed = not ok
    if args.fn is not None:
        f = named_scalar_fn(args.fn)
        image = gfun(a, f)
        ok2, res2 = is_member(image, cls, tol=args.preserve_tol)
        print(f"after {args.fn}: residual {res2:.3e} -> {'ok' if ok2 else 'FAIL'}")
        failed = failed or not ok2
        if args.trials:
            report = preservation_check(
                cls, f, trials=args.trials, shape=(a.m, a.n, a.p), seed=args.seed,
                tol=args.preserve_tol,
            )
            print(
                f"harness[{report.cls}, {report.fn}, {report.trials} trials]: "
                f"max residual {report.max_residual:.3e} -> {'ok' if report.ok else 'FAIL'}"
            )
            failed = failed or not report.ok
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def count(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {value}")
    return value


def build_parser():
    ap = argparse.ArgumentParser(prog="tprod", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="dims, norms, tubal rank, face ranks")
    p_info.add_argument("path")
    p_info.set_defaults(fn_=cmd_info)

    p_dec = sub.add_parser("decompose", help="write U, S, V factor files")
    p_dec.add_argument("path")
    p_dec.add_argument("--compact", action="store_true", help="truncate at the tubal rank")
    p_dec.add_argument("--out-prefix", required=True)
    p_dec.add_argument("--text", action="store_true", help="write text files")
    p_dec.set_defaults(fn_=cmd_decompose)

    p_app = sub.add_parser("apply", help="apply a scalar function to a tensor")
    p_app.add_argument("path")
    g = p_app.add_mutually_exclusive_group(required=True)
    g.add_argument("--fn", help="named function, e.g. exp, sin, sqrt, square, power(1.5)")
    g.add_argument("--poly", help="comma-separated polynomial coefficients c0,c1,...")
    mode = p_app.add_mutually_exclusive_group()
    mode.add_argument("--generalized", action="store_true", default=True)
    mode.add_argument("--standard", action="store_true", default=False)
    p_app.add_argument("--method", choices=("spectral", "series", "contour"),
                       default="spectral")
    p_app.add_argument("--nodes", type=int, help="quadrature nodes of the contour routes")
    p_app.add_argument("--z0", type=float, help="expansion point of the generalized series route")
    p_app.add_argument("--out", required=True)
    p_app.add_argument("--text", action="store_true")
    p_app.set_defaults(fn_=cmd_apply)

    p_pinv = sub.add_parser("pinv", help="Moore-Penrose inverse")
    p_pinv.add_argument("path")
    p_pinv.add_argument("--out", required=True)
    p_pinv.add_argument("--text", action="store_true")
    p_pinv.set_defaults(fn_=cmd_pinv)

    p_solve = sub.add_parser("solve", help="best-consistent solution of A*X*B = D")
    p_solve.add_argument("--A", required=True)
    p_solve.add_argument("--B", required=True)
    p_solve.add_argument("--D", required=True)
    p_solve.add_argument("--out", required=True)
    p_solve.add_argument("--text", action="store_true")
    p_solve.set_defaults(fn_=cmd_solve)

    p_ls = sub.add_parser("lstsq", help="least squares solution of A*X = B")
    p_ls.add_argument("--A", required=True)
    p_ls.add_argument("--B", required=True)
    p_ls.add_argument("--out", required=True)
    p_ls.add_argument("--text", action="store_true")
    p_ls.set_defaults(fn_=cmd_lstsq)

    p_chk = sub.add_parser("check", help="structured-class membership and preservation")
    p_chk.add_argument("path")
    p_chk.add_argument("--class", dest="cls", required=True)
    p_chk.add_argument("--fn", default=None)
    p_chk.add_argument("--trials", type=count, default=0)
    p_chk.add_argument("--tol", type=float, default=1e-8)
    p_chk.add_argument("--preserve-tol", type=float, default=1e-8)
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.set_defaults(fn_=cmd_check)

    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.fn_(args)
    except TprodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        # the last guard: one line, no traceback, and never the exit code of a failed check
        msg = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
