"""tools/bench_pairs.py's summary of paired benchmark runs, on canned
result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
METRICS = [{"name": "wall_s", "unit": "s", "better": "lower"},
           {"name": "throughput", "unit": "units/s", "better": "higher"}]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stdout(wall, throughput, correct=True):
    """bench/run.py's output: progress lines, then the result line."""
    result = {"correct": correct, "attempted": 3, "failed": 0 if correct else 1,
              "metrics": {"wall_s": {"value": wall, "unit": "s"},
                          "throughput": {"value": throughput, "unit": "units/s"}}}
    return f"round 1 done\nround 2 done\n{json.dumps(result)}\n"


def _run(bench_pairs, side, pair, stdout, returncode=0):
    return {"side": side, "pair": pair, "returncode": returncode, "stdout": stdout,
            "result": bench_pairs.result_of(stdout)}


def test_result_of_reads_the_last_line(bench_pairs):
    assert bench_pairs.result_of(_stdout(1.0, 5.0))["metrics"]["wall_s"]["value"] == 1.0
    assert bench_pairs.result_of("") is None
    assert bench_pairs.result_of("Traceback (most recent call last):\n  boom\n") is None
    assert bench_pairs.result_of("[1, 2]\n") is None


def test_summary_gives_medians_quartiles_and_pair_wins(bench_pairs):
    parent_walls = [1.0, 1.2, 1.1, 1.4, 1.3]
    change_walls = [0.9, 1.2, 1.0, 1.5, 1.1]  # wins pairs 0, 2, 4; ties pair 1
    runs = []
    for pair, (p, c) in enumerate(zip(parent_walls, change_walls)):
        runs.append(_run(bench_pairs, "parent", pair, _stdout(p, 10.0 / p)))
        runs.append(_run(bench_pairs, "change", pair, _stdout(c, 10.0 / c)))
    summary = bench_pairs.summarize(runs, METRICS)

    wall = summary["wall_s"]
    assert wall["parent"] == pytest.approx({"n": 5, "median": 1.2, "q1": 1.1, "q3": 1.3,
                                            "quartile_distance": 0.2})
    assert wall["change"]["median"] == pytest.approx(1.1)
    assert (wall["pairs"], wall["change_wins"], wall["ties"]) == (5, 3, 1)
    # higher is better for throughput: the same pairs win
    rate = summary["throughput"]
    assert (rate["pairs"], rate["change_wins"], rate["ties"]) == (5, 3, 1)
    assert rate["better"] == "higher" and rate["unit"] == "units/s"


def test_failed_and_incorrect_runs_drop_out_of_the_summary(bench_pairs):
    runs = [_run(bench_pairs, "parent", 0, _stdout(1.0, 1.0)),
            _run(bench_pairs, "change", 0, _stdout(0.5, 2.0)),
            _run(bench_pairs, "parent", 1, _stdout(1.0, 1.0)),
            _run(bench_pairs, "change", 1, "Traceback ...\n", returncode=1),
            _run(bench_pairs, "parent", 2, _stdout(9.0, 1.0, correct=False)),
            _run(bench_pairs, "change", 2, _stdout(0.5, 2.0))]
    wall = bench_pairs.summarize(runs, METRICS)["wall_s"]
    assert wall["parent"]["n"] == 2 and wall["change"]["n"] == 2
    assert (wall["pairs"], wall["change_wins"]) == (1, 1)
    # one run is its own median and quartiles
    one = bench_pairs.summarize(runs[:2], METRICS)["wall_s"]["change"]
    assert (one["median"], one["q1"], one["q3"], one["quartile_distance"]) == (0.5,) * 3 + (0,)
