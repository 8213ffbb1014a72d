"""One round of a benchmark workload, in a fresh process.

    python3 bench/child.py <request.json>

run.py starts one of these per round, so every round sees the process
state a user's `tqd` command starts from rather than whatever the
benchmark process allocated before. The request names the workload, its
seed and size, the set-up directory to attach to, the output directory,
whether to trace, and the file to write the result to: the dict that
the workload's `execute` returns, plus the spans and the wrapped span
names when tracing.
"""

import json
import sys
from pathlib import Path

from run import import_tqd


def main(request_path: str) -> int:
    req = json.loads(Path(request_path).read_text(encoding="utf-8"))
    import_tqd()
    from layers import make_tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[req["workload"]](req["seed"], req["smoke"])
    wl.attach(Path(req["setup"]))
    tracer = make_tracer() if req["trace"] else None
    if tracer is not None:
        tracer.install()
    try:
        res = wl.execute(Path(req["out"]))
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        res["spans"] = tracer.spans
        res["installed"] = sorted(tracer.installed)
    Path(req["result"]).write_text(json.dumps(res), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
