"""tprod benchmark: the command named in BENCHMARK.json.

    python3 perfbench/run.py --workload faces-small --seed 1 --seconds 10 --trace 0

Runs ``worker.py`` in child processes: two set-up probes and the measuring
worker (``--trace 0``), or the worker alone (``--trace 1``). Set-up time is
taken from process start to the child's ``READY`` line and scaled to the
reference speed (see ``worker.py``); ``setup_s`` is the median of the three.
The last stdout line is the result object ``{"correct", "attempted",
"failed", "metrics"}``; the line before it records the run's environment.
Exits non-zero, printing no result, when any child fails or the run
overruns its time limit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
PROBES = 2
TIME_LIMIT_S = 170.0


def run_child(argv, deadline):
    """Start a worker; returns (set-up seconds at the reference speed, last stdout line).

    Set-up runs from process start to the READY line, minus the calibration
    blocks the worker ran during its warm-up round, times the worker's
    speed factor.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER)] + argv,
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.perf_counter(), 0.0), proc.kill)
    timer.start()
    try:
        setup_s, last = None, None
        for line in proc.stdout:
            if setup_s is None and line.startswith("READY "):
                cal_s, factor = (float(v) for v in line.split()[1:])
                setup_s = (time.perf_counter() - t0 - cal_s) * factor
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    if code != 0 or setup_s is None:
        raise SystemExit(f"worker {' '.join(argv)} exited with {code}")
    return setup_s, last


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="faces-small, faces-large, "
                    "contour-oracles or cli-files")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    deadline = time.perf_counter() + TIME_LIMIT_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for _ in range(PROBES):
            setups.append(run_child(base + ["--seconds", "0", "--probe"], deadline)[0])
    setup_s, last = run_child(
        base + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    setups.append(setup_s)
    result = json.loads(last)

    env = result.pop("env")
    env["setup_samples_s"] = setups
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
