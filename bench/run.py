"""Benchmark for tqd: one workload per run, one JSON result line.

    python3 bench/run.py --workload train-ladder --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; tqd is imported from ./src. A
run builds the workload's inputs from --seed (three times, to time the
set-up), then repeats whole rounds of the workload's operations, each
round in a fresh process (child.py), until at least two rounds are done
and --seconds have passed. It checks every output and prints as its
last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (means over
rounds); with --trace 1 the public functions of tqd's modules are
wrapped and the metrics are per-layer ones derived from the recorded
spans, which are also written to .perfbench/trace-<workload>-seed<n>.json.
--smoke shrinks every input so that a run takes a few seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
THREAD_VARS = ("TQD_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("train-ladder", "train-wide", "probe-default", "stats-population")
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "throughput": "units/s",
             "peak_rss_mb": "MB", "artifact_mb": "MB"}


def import_tqd() -> float:
    """Import tqd from the checkout's src/ and return the seconds it took."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import tqd
    seconds = time.perf_counter() - start
    if src not in Path(tqd.__file__).resolve().parents:
        raise ImportError(f"tqd was imported from {tqd.__file__}, not from {src}")
    return seconds


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for a quick check")
    return ap.parse_args(argv)


def run_child(request: dict, work: Path, k: int):
    """Run round k in a fresh process; (its result or None, its resource
    usage, its exit code and the tail of its stderr)."""
    req_path, err_path = work / f"round-{k}.request.json", work / f"round-{k}.stderr"
    req_path.write_text(json.dumps(request), encoding="utf-8")
    with open(err_path, "w", encoding="utf-8") as err:
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), str(req_path)],
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    result = Path(request["result"])
    res = json.loads(result.read_text()) if proc.returncode == 0 and result.exists() else None
    tail = err_path.read_text(encoding="utf-8").strip().splitlines()[-3:]
    return res, usage, f"exit code {proc.returncode}: " + " | ".join(tail)


def main(argv=None) -> int:
    args = parse_args(argv)
    # turn SIGTERM into SystemExit, so a running round's process is killed too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        import_s = import_tqd()
    except ImportError as exc:
        print(f"bench: cannot import tqd from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    # these import tqd, so they come after the path is set
    from layers import layer_metrics
    from tracer import Tracer
    from workloads import WORKLOADS, Op

    state = ROOT / ".perfbench"
    work = state / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, args.smoke)
        setup_times = []
        for k in range(SETUP_REPEATS):
            dest = work / f"setup-{k}"
            dest.mkdir()
            start = time.perf_counter()
            wl.setup(dest)
            setup_times.append(time.perf_counter() - start)

        rounds, usages, spans, installed, died = [], [], [], set(), []
        start, k = time.perf_counter(), 0
        while k < wl.min_rounds or time.perf_counter() - start < args.seconds:
            out = work / f"round-{k}"
            out.mkdir()
            request = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
                       "setup": str(dest), "out": str(out), "trace": args.trace,
                       "result": str(work / f"round-{k}.result.json")}
            res, usage, err = run_child(request, work, k)
            if res is None:  # the round's process died: all its operations failed
                died += [Op(label, False, err) for label in wl.labels]
            else:
                rounds.append(wl.check(out, res))
                usages.append(usage)
                spans.append(res.get("spans", []))
                installed.update(res.get("installed", []))
            if k > 0:  # the last round's outputs stay for the final checks
                shutil.rmtree(work / f"round-{k - 1}")
            k += 1
        if not rounds:
            print(f"bench: every round's process died; last: {died[-1].detail}",
                  file=sys.stderr)
            return 1
        try:
            finals = wl.final_checks(rounds, out)
        except Exception as exc:  # e.g. the last round left no checkpoint
            finals = [Op("final checks", False, f"{type(exc).__name__}: {exc}")]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for r in rounds for op in r.ops] + died
    for op in ops + finals:
        if not op.ok:
            print(f"bench: FAILED {op.label}: {op.detail}", file=sys.stderr)
    walls = [r.wall for r in rounds]
    rss = [u.ru_maxrss * 1024 for u in usages]
    info = {
        "workload": args.workload, "seed": args.seed, "rounds": k,
        "threads": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "nproc": os.cpu_count(), "round_walls": walls, "round_peak_rss": rss,
        "round_minor_faults": [u.ru_minflt for u in usages],
        "checks": {op.label: op.detail for op in rounds[0].ops + finals},
    }
    if "final_loss" in rounds[0].extra:
        info["final_loss"] = rounds[0].extra["final_loss"]
    if not args.trace:
        # means over rounds: a round's process can land in either of two
        # allocator modes (README), and the median of two or three such
        # values jumps between them where their mean does not
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "wall_s": statistics.fmean(walls),
            "throughput": statistics.fmean(r.units / r.rate_wall for r in rounds),
            "peak_rss_mb": statistics.fmean(rss) / 1e6,
            "artifact_mb": statistics.fmean(r.artifact_bytes for r in rounds) / 1e6,
        }
        metrics = {k: {"value": float(v), "unit": E2E_UNITS[k]} for k, v in values.items()}
    else:
        metrics, info["absent"] = layer_metrics(spans, installed)
        trace_path = state / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps([
            {"round": k, "fields": Tracer.SPAN_FIELDS, "spans": s}
            for k, s in enumerate(spans)]), encoding="utf-8")
        info["trace"] = str(trace_path.relative_to(ROOT))
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": all(op.ok for op in finals),
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
