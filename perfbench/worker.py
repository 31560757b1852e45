"""One benchmark process: set up, run the timed phase, verify, report.

Started by ``run.py``. When set-up (import, input generation and one warm-up
round) is done it writes ``READY <calibration seconds> <speed factor>`` on
stdout, so the parent can time set-up from process start. With ``--probe``
it stops there. Otherwise its last stdout line is a JSON object for the
parent.

Load model: one caller in a closed loop; the next library call starts when
the previous one returns. BLAS/OpenMP threads are pinned to 1 before numpy
is imported.

Speed normalization: the machine this runs on is shared, and its speed
drifts by tens of percent within seconds. A fixed calibration block runs
before the first call of a round and after every call, outside the timed
intervals. Each call's time is scaled by CAL_REF_S over the median of the
(up to) four blocks nearest it: two before the call and two after.
The median drops a block that an interrupt slowed. Every gated time is in
seconds at the reference speed. The raw times are recorded beside them.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tprod  # noqa: E402
import tprod.cli  # noqa: E402,F401  (the package does not import its CLI)
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

if Path(tprod.__file__).resolve().parent != ROOT / "src" / "tprod":
    raise SystemExit(f"tprod imported from {tprod.__file__}, not from {ROOT / 'src'}")

# The calibration block: two batched SVDs of sixteen 24x24 matrices. It takes
# CAL_REF_S on the reference machine (a 2-vCPU Xeon under KVM, OpenBLAS, one
# thread) when that machine is unloaded.
CAL_MATS = np.random.default_rng(0).standard_normal((16, 24, 24))
CAL_REF_S = 0.0035


def calibration_block():
    t0 = time.perf_counter()
    for _ in range(2):
        np.linalg.svd(CAL_MATS)
    return time.perf_counter() - t0


def run_round(tasks, refs, fails, log, tracer=None, round_id=0):
    """One pass through the task list.

    Returns the raw time of each call and the calibration blocks around the
    calls (one more than the calls). Repeat checks and calibration run
    untimed; a failed check counts into ``fails`` (one counter per task).
    """
    times, cal = [], [calibration_block()]
    if tracer is not None:
        tracer.round_id = round_id
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            out = task.call()
        except Exception as exc:  # a failing call is counted, the loop goes on
            out, err = None, exc
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.enabled = False
        times.append(t1 - t0)
        cal.append(calibration_block())
        if out is None:
            fails[i] += 1
            log.append(f"{task.name}: raised {type(err).__name__}: {err}")
        elif refs[i] is None or not task.same(out, refs[i]):
            fails[i] += 1
            log.append(f"{task.name}: result differs from the verified one")
    return times, cal


def speed_factors(cal):
    """CAL_REF_S over the median of the blocks nearest each call; block i runs
    just before call i and block i + 1 just after it."""
    return [CAL_REF_S / statistics.median(cal[max(0, i - 1):i + 3])
            for i in range(len(cal) - 1)]


class Phase:
    """Call and round times of a timed phase, raw and at the reference speed."""

    def __init__(self):
        self.raw, self.calls, self.rounds, self.raw_rounds, self.cal = [], [], [], [], []

    def add_round(self, times, cal):
        scaled = [t * f for t, f in zip(times, speed_factors(cal))]
        self.raw += times
        self.calls += scaled
        self.rounds.append(sum(scaled))
        self.raw_rounds.append(sum(times))
        self.cal += cal


def timed_phase(tasks, refs, seconds, fails, log, tracer=None):
    """Whole rounds until ``seconds`` of raw call time have passed (at least one)."""
    phase = Phase()
    while not phase.rounds or sum(phase.raw_rounds) < seconds:
        phase.add_round(*run_round(tasks, refs, fails, log, tracer, len(phase.rounds)))
    return phase


def warm_up(tasks, log):
    """One untimed round whose results are verified later; also returns the
    calibration blocks run around its calls."""
    refs, cal = [], [calibration_block()]
    for task in tasks:
        try:
            refs.append(task.call())
        except Exception as exc:
            refs.append(None)
            log.append(f"{task.name}: warm-up raised {type(exc).__name__}: {exc}")
        cal.append(calibration_block())
    return refs, cal


def verify(tasks, refs, log):
    """Full independent check of each warm-up result; the indices that fail."""
    bad = set()
    for i, (task, out) in enumerate(zip(tasks, refs)):
        if out is None:
            bad.add(i)
            continue
        try:
            msg = task.verify(out)
        except Exception as exc:
            msg = f"check raised {type(exc).__name__}: {exc}"
        if msg:
            bad.add(i)
            log.append(f"{task.name}: verification failed: {msg}")
    return bad


def cache_sizes():
    """L1d/L2/L3 sizes in bytes from sysconf (glibc reads them from cpuid)."""
    try:
        libc = ctypes.CDLL(None)
    except OSError:
        return {}
    names = {"l1d": 188, "l2": 191, "l3": 194}  # _SC_LEVEL{1_DCACHE,2_CACHE,3_CACHE}_SIZE
    return {k: int(libc.sysconf(v)) for k, v in names.items()}


def blas_info():
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return "unknown"
    return f"{cfg.get('name')} {cfg.get('version')}"


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile (a Beta-weighted mean of the
    order statistics), and the number of samples beyond nearest rank q."""
    from scipy.special import betainc  # after set-up, so set-up does not pay for it

    x = np.sort(values)
    n = len(x)
    weights = np.diff(betainc((n + 1) * q, (n + 1) * (1 - q), np.arange(n + 1) / n))
    return float(weights @ x), n - max(1, math.ceil(q * n))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="stop after set-up")
    args = ap.parse_args(argv)

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        log = []
        tasks, input_bytes = WORKLOADS[args.workload].build(tprod, args.seed, workdir)
        refs, cal = warm_up(tasks, log)
        # the parent subtracts the calibration time and scales the rest
        print(f"READY {sum(cal)!r} {CAL_REF_S / statistics.median(cal)!r}", flush=True)
        if args.probe:
            return 0
        result = measure(args.workload, args.seed, args.seconds, args.trace,
                         tasks, refs, input_bytes, log)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in log[:20]:
        print(line, file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


def measure(workload, seed, seconds, trace, tasks, refs, input_bytes, log):
    """Timed phase (untraced, or half untraced and half traced), then verification."""
    env = {
        "workload": workload, "seed": seed, "numpy": np.__version__,
        "python": sys.version.split()[0], "blas": blas_info(),
        "threads": os.environ["OPENBLAS_NUM_THREADS"], "nproc": os.cpu_count(),
        "cache_bytes": cache_sizes(), "input_bytes": input_bytes,
        "tasks_per_round": len(tasks), "cal_ref_s": CAL_REF_S,
    }
    fails = [0] * len(tasks)
    if trace:
        plain = timed_phase(tasks, refs, seconds / 2, fails, log)
        tracer = Tracer()
        tracer.install(tprod)
        try:
            traced = timed_phase(tasks, refs, seconds / 2, fails, log, tracer)
        finally:
            env["restored_attributes"] = tracer.uninstall()
        metrics = tracer.per_round(len(traced.rounds))
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced.rounds) / statistics.median(plain.rounds), "ratio")
        # raw, like the spans, so the layers' self times can be set against it
        metrics["trace.round_s"] = (statistics.mean(traced.raw_rounds), "s")
        env["traced_rounds"] = len(traced.rounds)
        env["calibration_s"] = statistics.median(plain.cal + traced.cal)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"spans-{workload}-seed{seed}.csv")
        n_rounds = len(plain.rounds) + len(traced.rounds)
    else:
        phase = timed_phase(tasks, refs, seconds, fails, log)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tail_q = WORKLOADS[workload].tail_q
        tail, beyond = quantile(phase.calls, tail_q)
        # The call median is recorded, not gated: it falls between the two
        # middle task types of the mix, so a small shift in either moves it a lot.
        env.update(rounds=len(phase.rounds), calls=len(phase.calls),
                   call_s_p50=statistics.median(phase.calls),
                   tail_percentile=100 * tail_q, calls_beyond_tail=beyond,
                   calibration_s=statistics.median(phase.cal),
                   raw_round_s_p50=statistics.median(phase.raw_rounds),
                   raw_call_s_tail=quantile(phase.raw, tail_q)[0])
        metrics = {
            "round_s.p50": (statistics.median(phase.rounds), "s"),
            "call_s.tail": (tail, "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        n_rounds = len(phase.rounds)

    bad = verify(tasks, refs, log)
    # every call of a task whose warm-up result fails verification is a failure
    failed = sum(n_rounds if i in bad else f for i, f in enumerate(fails))
    attempted = n_rounds * len(tasks)
    if not trace:
        metrics["ops_per_s"] = ((attempted - failed) / sum(phase.calls), "1/s")
        env["raw_ops_per_s"] = (attempted - failed) / sum(phase.raw)
    env["failed_ratio"] = failed / attempted
    return {
        "env": env,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
