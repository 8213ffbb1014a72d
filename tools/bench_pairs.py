"""Paired benchmark runs of two checkouts, summarized per metric.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload probe-default --seed 1 --seconds 10 --pairs 10 \
        --label streamprobe --what "what the change does"

Runs `bench/run.py --workload W --seed S --seconds T --trace 0` in the
parent checkout and in the change checkout, one run of each per pair,
each from its own checkout's directory; with several --workload names,
each gets --pairs pairs in turn. The side that runs first alternates:
the parent in even pairs, the change in odd ones. Every run is kept with
its exit code, its stdout and stderr, and its result (the JSON object on
the last stdout line, or null). BENCH_<label>.json, written at the root
of this checkout, gets the runs and, per workload and end-to-end metric
of BENCHMARK.json, each side's median, quartiles and quartile distance
over its correct runs, and the pairs the change wins and ties, counted
over the pairs where both runs are correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def result_of(stdout: str):
    """The result object on the last non-blank stdout line, or None."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py run in a checkout: its exit code, output and result."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    return {"returncode": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "result": result_of(proc.stdout)}


def _value(run: dict, metric: str):
    """The metric's value in a correct run's result, else None."""
    result = run["result"]
    if run["returncode"] != 0 or not result or not result.get("correct"):
        return None
    entry = result.get("metrics", {}).get(metric)
    return None if entry is None else entry["value"]


def _spread(values: list) -> dict:
    if not values:
        return {"n": 0}
    # with one value the quartiles are that value
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "quartile_distance": q3 - q1}


def summarize(runs: list, metrics: list) -> dict:
    """Per metric, each side's spread and the change's pair wins.

    runs holds dicts with "side", "pair", "returncode" and "result";
    metrics holds BENCHMARK.json's end-to-end entries ("name", "unit",
    "better"). A tie counts for neither side.
    """
    summary = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: {} for side in SIDES}
        for run in runs:
            value = _value(run, name)
            if value is not None:
                values[run["side"]][run["pair"]] = value
        both = sorted(set(values["parent"]) & set(values["change"]))
        gaps = [values["change"][k] - values["parent"][k] for k in both]
        wins = sum(1 for gap in gaps if (gap < 0 if lower else gap > 0))
        summary[name] = {
            "unit": metric["unit"], "better": metric["better"],
            **{side: _spread(list(values[side].values())) for side in SIDES},
            "pairs": len(both), "change_wins": wins,
            "ties": sum(1 for gap in gaps if gap == 0),
        }
    return summary


def _machine() -> str:
    return (f"{os.cpu_count()} CPUs, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="change checkout")
    ap.add_argument("--workload", required=True, nargs="+")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--label", required=True, help="names BENCH_<label>.json")
    ap.add_argument("--what", required=True, help="what the runs compare, for the record")
    args = ap.parse_args(argv)

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    for workload in args.workload:
        for pair in range(args.pairs):
            for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
                run = run_once(checkouts[side], workload, args.seed, args.seconds)
                runs.append({"side": side, "pair": pair, "workload": workload,
                             "seed": args.seed, **run})
                print(f"{workload} pair {pair} {side}: exit {run['returncode']}",
                      file=sys.stderr)
    record = {
        "what": args.what,
        "command": (f"bench/run.py --workload W --seed {args.seed} "
                    f"--seconds {args.seconds:g} --trace 0"),
        "machine": _machine(),
        "summary": {workload: summarize([run for run in runs if run["workload"] == workload],
                                        metrics)
                    for workload in args.workload},
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record["summary"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
