"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(PERFBENCH))
import worker  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


def bench(workload, trace, seed=3, seconds=1):
    out = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_the_declared_metrics(workload):
    res = bench(workload, trace=0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_repeats_counts_and_self_time_fits_the_round():
    first, second = bench("cli-files", trace=1), bench("cli-files", trace=1)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for res in (first, second):
        assert res["correct"]
        assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
        m = {k: v["value"] for k, v in res["metrics"].items()}
        self_total = sum(m[f"{layer}.self_s"] for layer in LAYERS)
        assert self_total <= m["trace.round_s"] * (1 + 1e-9)
        assert m["io.calls"] > 0 and m["cli.calls"] > 0 and m["structure.calls"] > 0
    exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count/round", "B/round")]
    assert exact
    for name in exact:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def _snapshot():
    tp = worker.tprod
    owners = [tp] + [getattr(tp, layer) for layer in LAYERS if not layer.startswith("numpy")]
    owners += [worker.np.fft, worker.np.linalg]
    snap = {(id(o), k): v for o in owners for k, v in vars(o).items()}
    snap.update({("Tensor3", k): v for k, v in vars(tp.Tensor3).items()})
    return snap


def test_tracer_restores_every_wrapped_attribute():
    before = _snapshot()
    tracer = Tracer()
    tracer.install(worker.tprod)
    assert worker.tprod.tprod is not before[(id(worker.tprod), "tprod")]
    assert tracer.uninstall() > 0
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _run_in_process(workload, seconds, tmp_path):
    log = []
    tasks, nbytes = worker.WORKLOADS[workload].build(worker.tprod, 5, tmp_path)
    refs, _ = worker.warm_up(tasks, log)
    return worker.measure(workload, 5, seconds, 0, tasks, refs, nbytes, log)


def test_wrong_result_counts_as_failed(monkeypatch, tmp_path):
    cli = worker.tprod.cli
    right = cli.pinv
    monkeypatch.setattr(cli, "pinv", lambda a, tol_rank=None: right(a) * 1.001)
    res = _run_in_process("cli-files", 0.1, tmp_path)
    rounds = res["env"]["rounds"]
    # the real and the complex pinv command write a wrong pseudoinverse
    assert not res["correct"]
    assert res["failed"] == 2 * rounds
    assert res["env"]["failed_ratio"] == pytest.approx(2 / 11)


def test_raising_call_counts_as_failed(monkeypatch, tmp_path):
    cli = worker.tprod.cli

    def broken(a, tol_rank=None):
        raise worker.tprod.errors.Singular("injected")

    monkeypatch.setattr(cli, "pinv", broken)
    res = _run_in_process("cli-files", 0.1, tmp_path)
    assert res["failed"] == 2 * res["env"]["rounds"]
