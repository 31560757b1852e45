"""The four workloads: seeded inputs, the fixed task mix, and its checks.

A round is one pass through a workload's task list. Each task is one library
call on one generated input. ``call`` resolves the library function through
the package at call time, so a traced run sees its wrappers. ``same`` is the
cheap repeat check made after every timed call (outside the timed interval);
``verify`` is the full check of one result against an independent route
(``reference``), made once after the timed phase.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import reference as ref

PENROSE_TOL = 1e-9      # acceptance criterion 06
CONTOUR_TOL = 1e-6      # acceptance criterion 07
SOLVE_TOL = 1e-9        # acceptance criterion 12: reported consistency residual
SOLVE_DIRECT_TOL = 1e-8  # acceptance criterion 12: |A*X*B - D| / |D|
SPECTRAL_TOL = 1e-9     # face-domain references (gfun, standard_tfn, tcsvd, tprod)
REPEAT_TOL = 1e-10      # a repeated call must reproduce the verified result


@dataclass
class Task:
    name: str
    call: Callable[[], object]
    same: Callable[[object, object], bool]
    verify: Callable[[object], Optional[str]]


@dataclass(frozen=True)
class Workload:
    build: Callable  # (tp, seed, workdir) -> (tasks, input_bytes)
    # Fixed tail percentile of call latency: whole rounds make a fixed
    # percentile fall on the same task types whatever the round count, and
    # at run_seconds it leaves at least ten calls beyond it.
    tail_q: float


def _close(x, y, tol=REPEAT_TOL):
    return bool(np.linalg.norm(x - y) <= tol * np.linalg.norm(y))


def _same_tensor(out, want):
    return _close(out.data, want.data)


def _same_csvd(out, want):
    return out.r == want.r and out.face_ranks == want.face_ranks and _close(out.sigma, want.sigma)


def _same_solve(out, want):
    return _close(out.x.data, want.x.data)


def _fail(**checks):
    """None when every named check holds, else a message naming those that do not."""
    bad = [name for name, ok in checks.items() if not ok]
    return ", ".join(bad) or None


def _real_ok(a, out):
    return ref.is_real(out) if ref.is_real(a) else True


def _label(shape, cplx, rank):
    m, n, p = shape
    kind = "complex" if cplx else "real"
    low = f" rank{rank}" if rank < min(m, n) else ""
    return f"{m}x{n}x{p} {kind}{low}"


# -- faces-small / faces-large ------------------------------------------------

def _face_tasks(tp, a, b, d, rank, label):
    """tprod, tcsvd, gfun(sinh), pinv, standard_tfn(exp), solve_axb on one input."""
    A, B, D = tp.Tensor3(a), tp.Tensor3(b), tp.Tensor3(d)
    sinh = tp.named_scalar_fn("sinh")
    exp = tp.named_scalar_fn("exp")
    p, m, n = a.shape

    def v_tprod(out):
        c = out.data
        err = max(np.linalg.norm(c[k] - ref.conv_slice(a, b, k)) for k in (0, p // 3, p - 1))
        return _fail(conv_slices=err <= SPECTRAL_TOL * np.linalg.norm(a) * np.linalg.norm(b),
                     real=_real_ok(a, c))

    def v_tcsvd(c):
        s = np.linalg.svd(np.fft.fft(a, axis=0), compute_uv=False)
        cut = ref.rank_cutoff(s, m, n, p)
        ranks = tuple(int(v) for v in (s > cut).sum(axis=1))
        want = np.where(s > cut, s, 0.0)[:, :c.r]
        rec = ref.t_mul(ref.t_mul(c.Ur.data, c.Sr.data), ref.t_ct(c.Vr.data))
        return _fail(tubal_rank=c.r == rank == max(ranks),
                     face_ranks=c.face_ranks == ranks,
                     sigma=c.sigma.shape == want.shape
                     and np.abs(c.sigma - want).max() <= SPECTRAL_TOL * s.max(),
                     reconstruction=ref.fnorm(rec - a) <= SPECTRAL_TOL * ref.fnorm(a),
                     real=_real_ok(a, c.Ur.data) and _real_ok(a, c.Vr.data))

    def v_gfun(out):
        return _fail(face_reference=ref.rel(out.data, ref.gfun_reference(a, np.sinh))
                     <= SPECTRAL_TOL, real=_real_ok(a, out.data))

    def v_pinv(out):
        return _fail(penrose=max(ref.penrose_residuals(a, out.data)) <= PENROSE_TOL,
                     real=_real_ok(a, out.data))

    def v_std(out):
        return _fail(face_expm=ref.rel(out.data, ref.expm_faces(a)) <= SPECTRAL_TOL,
                     real=_real_ok(a, out.data))

    def v_solve(res):
        x = res.x.data
        direct = ref.fnorm(ref.t_mul(ref.t_mul(a, x), b) - d) / ref.fnorm(d)
        return _fail(residual=res.residual <= SOLVE_TOL, direct=direct <= SOLVE_DIRECT_TOL,
                     real=_real_ok(a, x))

    return [
        Task(f"tprod[{label}]", lambda: tp.tprod(A, B), _same_tensor, v_tprod),
        Task(f"tcsvd[{label}]", lambda: tp.tcsvd(A), _same_csvd, v_tcsvd),
        Task(f"gfun_sinh[{label}]", lambda: tp.gfun(A, sinh), _same_tensor, v_gfun),
        Task(f"pinv[{label}]", lambda: tp.pinv(A), _same_tensor, v_pinv),
        Task(f"standard_tfn_exp[{label}]", lambda: tp.standard_tfn(A, exp), _same_tensor, v_std),
        Task(f"solve_axb[{label}]", lambda: tp.solve_axb(A, B, D), _same_solve, v_solve),
    ]


def _face_inputs(rng, shape, cplx, rank):
    """A of the given tubal rank, B dense, and a consistent D = A * X0 * B."""
    m, n, p = shape
    a = ref.random_input(rng, m, n, p, cplx, rank)
    b = ref.random_input(rng, n, n, p, cplx, n)
    x0 = ref.random_input(rng, n, n, p, cplx, n)
    d = ref.t_mul(ref.t_mul(a, x0), b)
    return a, b, d.real if not cplx else d


def _faces(specs):
    def build(tp, seed, workdir):
        rng = np.random.default_rng(seed)
        tasks, nbytes = [], 0
        for shape, cplx, low in specs:
            rank = min(shape[:2]) // 2 if low else min(shape[:2])
            a, b, d = _face_inputs(rng, shape, cplx, rank)
            nbytes += a.nbytes + b.nbytes + d.nbytes
            tasks += _face_tasks(tp, a, b, d, rank, _label(shape, cplx, rank))
        return tasks, nbytes
    return build


# Every shape real and complex; half the A inputs have low tubal rank.
FACES_SMALL = [
    ((2, 2, 4096), False, False), ((2, 2, 4096), True, True),
    ((4, 4, 1024), False, True), ((4, 4, 1024), True, False),
    ((8, 8, 256), False, False), ((8, 8, 256), True, True),
]
FACES_LARGE = [
    ((32, 32, 64), False, False), ((32, 32, 64), True, True),
    ((128, 128, 16), False, True), ((128, 128, 16), True, False),
]


# -- contour-oracles ----------------------------------------------------------

def _contour(tp, seed, workdir):
    rng = np.random.default_rng(seed)
    square = tp.named_scalar_fn("square")
    exp = tp.named_scalar_fn("exp")
    tasks, nbytes = [], 0

    def oracle(want):
        return lambda out: _fail(dense_oracle=ref.rel(out.data, want) <= CONTOUR_TOL)

    for shape in ((3, 3, 4), (4, 4, 8)):
        for cplx in (False, True):
            m, n, p = shape
            a = ref.random_input(rng, m, n, p, cplx, min(m, n))
            nbytes += a.nbytes
            A = tp.Tensor3(a)
            top = float(ref.face_svd(a)[1].max())
            label = _label(shape, cplx, min(m, n))
            tasks += [
                Task(f"gfun_contour_square[{label}]", lambda A=A: tp.gfun_contour(A, square),
                     _same_tensor, oracle(ref.dense_gfun(a, np.square))),
                Task(f"pinv_contour[{label}]", lambda A=A: tp.pinv_contour(A),
                     _same_tensor, oracle(ref.dense_pinv(a))),
                Task(f"cluster_projector_contour[{label}]",
                     lambda A=A, top=top: tp.cluster_projector_contour(A, top),
                     _same_tensor, oracle(ref.dense_cluster_projector(a, top))),
            ]
    for cplx in (False, True):
        a = ref.random_input(rng, 8, 8, 64, cplx, 8)
        nbytes += a.nbytes
        A = tp.Tensor3(a)
        tasks.append(Task(f"standard_fn_contour_exp[{_label((8, 8, 64), cplx, 8)}]",
                          lambda A=A: tp.standard_fn_contour(A, exp),
                          _same_tensor, oracle(ref.dense_expm(a))))
    return tasks, nbytes


# -- cli-files ----------------------------------------------------------------

def _run_cli(tp, argv):
    """tprod.cli.main in-process, its stdout captured: returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tp.cli.main(argv)
    return code, buf.getvalue()


def _same_exit(out, want):
    return out[0] == 0


def _stdout_value(text, key):
    for line in text.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    return None


def _cli(tp, seed, workdir):
    rng = np.random.default_rng(seed)
    w = Path(workdir)
    tasks, nbytes = [], 0

    def task(name, argv, check):
        def verify(out):
            code, text = out
            return _fail(exit_code=code == 0) or check(text)
        tasks.append(Task(name, lambda: _run_cli(tp, argv), _same_exit, verify))

    for cplx in (False, True):
        kind = "complex" if cplx else "real"
        a, b, d = _face_inputs(rng, (32, 32, 64), cplx, 32)
        paths = {k: str(w / f"{k}_{kind}.tt3a") for k in ("A", "B", "D")}
        a_txt = str(w / f"A_{kind}.txt")
        for k, arr in (("A", a), ("B", b), ("D", d)):
            ref.write_tt3a(paths[k], arr)
        ref.write_text(a_txt, a)
        nbytes += a.nbytes + b.nbytes + d.nbytes
        dec, sinh_txt = str(w / f"dec_{kind}"), str(w / f"sinh_{kind}.txt")
        pinv_out, x_out = str(w / f"pinv_{kind}.tt3a"), str(w / f"x_{kind}.tt3a")

        def v_info(text, a=a, cplx=cplx):
            fn = _stdout_value(text, "fnorm")
            return _fail(dims=_stdout_value(text, "dims") == "32 x 32 x 64",
                         dtype=_stdout_value(text, "dtype") == ("complex128" if cplx else "real64"),
                         fnorm=fn is not None and abs(float(fn) - ref.fnorm(a)) <= 1e-9 * ref.fnorm(a),
                         tubal_rank=_stdout_value(text, "tubal rank") == "32")

        def v_dec(text, a=a, dec=dec):
            u, s, v = (ref.read_tt3a(f"{dec}_{k}.tt3a") for k in "USV")
            rec = ref.t_mul(ref.t_mul(u, s), ref.t_ct(v))
            return _fail(reconstruction=ref.fnorm(rec - a) <= SPECTRAL_TOL * ref.fnorm(a),
                         tubal_rank=_stdout_value(text, "tubal rank") == "32")

        def v_apply(text, a=a, out=sinh_txt):
            got = ref.read_text(out)
            return _fail(face_reference=ref.rel(got, ref.gfun_reference(a, np.sinh)) <= SPECTRAL_TOL,
                         real=_real_ok(a, got))

        def v_pinv(text, a=a, out=pinv_out):
            return _fail(penrose=max(ref.penrose_residuals(a, ref.read_tt3a(out))) <= PENROSE_TOL)

        def v_solve(text, a=a, b=b, d=d, out=x_out):
            x = ref.read_tt3a(out)
            direct = ref.fnorm(ref.t_mul(ref.t_mul(a, x), b) - d) / ref.fnorm(d)
            res = _stdout_value(text, "consistency residual")
            return _fail(residual=res is not None and float(res) <= SOLVE_TOL,
                         direct=direct <= SOLVE_DIRECT_TOL)

        task(f"cli.info[binary {kind}]", ["info", paths["A"]], v_info)
        task(f"cli.decompose[binary {kind}]",
             ["decompose", paths["A"], "--compact", "--out-prefix", dec], v_dec)
        task(f"cli.apply_sinh[text {kind}]",
             ["apply", a_txt, "--fn", "sinh", "--text", "--out", sinh_txt], v_apply)
        task(f"cli.pinv[text->binary {kind}]", ["pinv", a_txt, "--out", pinv_out], v_pinv)
        task(f"cli.solve[binary {kind}]",
             ["solve", "--A", paths["A"], "--B", paths["B"], "--D", paths["D"], "--out", x_out],
             v_solve)

    s = ref.doubly_stochastic(rng, 8, 16)
    s_path = str(w / "S.tt3a")
    ref.write_tt3a(s_path, s)
    nbytes += s.nbytes

    def v_check(text, s=s):
        lines = text.strip().splitlines()
        unit = max(np.abs(s.sum(axis=(0, 2)) - 1).max(), np.abs(s.sum(axis=(0, 1)) - 1).max())
        return _fail(three_ok_lines=len(lines) == 3 and all(ln.endswith("-> ok") for ln in lines),
                     input_unit_sums=unit <= 1e-10)

    task("cli.check[doubly_f_stochastic 8x8x16]",
         ["check", s_path, "--class", "doubly_f_stochastic", "--fn", "cube", "--trials", "5",
          "--seed", str(seed % 100003)], v_check)
    return tasks, nbytes


WORKLOADS = {
    "faces-small": Workload(_faces(FACES_SMALL), tail_q=0.9),
    "faces-large": Workload(_faces(FACES_LARGE), tail_q=0.85),
    "contour-oracles": Workload(_contour, tail_q=0.75),
    "cli-files": Workload(_cli, tail_q=0.8),
}
