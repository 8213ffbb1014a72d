"""Smoke test of the benchmark: every workload at --smoke size, plus the
tracer's handling of a function the program no longer has.

    python3 -m pytest bench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from layers import METRICS, layer_metrics, make_tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace):
    res = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke_run_is_correct(workload):
    result = run_bench(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_reports_every_layer_metric():
    result = run_bench("train-ladder", trace=1)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert set(result["metrics"]) == {name for name, *_ in METRICS}
    assert result["metrics"]["trainer.loss_and_grad_calls"]["value"] > 0


def test_missing_function_makes_its_metric_absent(monkeypatch):
    import tqd.analysis
    import tqd.trainer
    monkeypatch.delattr(tqd.trainer, "grad_at_timestep")
    monkeypatch.delattr(tqd.analysis, "grad_at_timestep")
    tracer = make_tracer()
    tracer.install()
    tracer.uninstall()
    metrics, absent = layer_metrics([[]], tracer.installed)
    assert {"trainer.grad_at_timestep_s", "trainer.grad_at_timestep_calls"} <= set(absent)
    assert "trainer.grad_at_timestep_s" not in metrics
    assert metrics["trainer.loss_and_grad_calls"]["value"] == 0
