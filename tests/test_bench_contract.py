"""The benchmark's per-layer contract, checked against the program.

A traced bench run reports one metric per entry of bench/layers.py's
METRICS, and a metric whose span (a public tqd function) the tracer
cannot wrap is reported absent. BENCHMARK.json declares every metric, so
renaming or deleting a public function that a metric needs breaks the
benchmark's result. These tests load bench/tracer.py and bench/layers.py
by path, change nothing under bench/, and fail on such a change first.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def layers(monkeypatch):
    # layers.py imports its sibling as a top-level module
    monkeypatch.setitem(sys.modules, "tracer", _load("tracer"))
    return _load("layers")


def test_every_layer_metric_finds_its_spans(layers):
    tracer = layers.make_tracer()
    try:
        tracer.install()
        missing = {name: [span for span in needs if span not in tracer.installed]
                   for name, _, needs, _ in layers.METRICS}
        _, absent = layers.layer_metrics([[]], tracer.installed)
    finally:
        tracer.uninstall()
    assert {name: spans for name, spans in missing.items() if spans} == {}
    assert absent == []


def test_layer_metrics_are_the_declared_ones(layers):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    assert [(name, unit) for name, unit, _, _ in layers.METRICS] == \
        [(m["name"], m["unit"]) for m in declared]
