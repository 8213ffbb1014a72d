"""Per-layer metrics derived from the spans of a traced run.

Every metric is computed per benchmark round and reported as the median
over rounds. A metric whose function the tracer could not find (renamed
or deleted) is absent; one whose function exists but was never called
on this workload reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import Tracer

# float64 array passes (reads + writes, temporaries included) made by the
# numpy expressions of trainer.adam_update, counted per parameter
ADAM_PASSES = 33
ADAM_BYTES_PER_PARAM = 8 * ADAM_PASSES

PREPARE = "sampler.TqdSampler.prepare_batch"
LOSS = "trainer.loss_and_grad"
ADAM = "trainer.adam_update"


def _loss_info(args, kwargs, result):
    model, x0 = args[0], args[1]
    frames = getattr(x0, "frames", x0)
    batch = frames.size // model.data_dim
    return (batch, model.input_dim, model.hidden_width, model.data_dim,
            model.param_count)


def _adam_info(args, kwargs, result):
    return args[0].size


def _batch_info(args, kwargs, result):
    return (result.attempts, result.accepted)


def make_tracer() -> Tracer:
    tracer = Tracer()
    for name, fn in ((LOSS, _loss_info), (ADAM, _adam_info), (PREPARE, _batch_info)):
        tracer.annotate(name, fn)
    return tracer


def matmul_flops(info) -> float:
    """Multiply-adds x 2 of one loss_and_grad call: three forward matmuls
    and five backward ones (no gradient flows to the input)."""
    b, n_in, h, d, _ = info
    return 2.0 * b * (2 * n_in * h + 3 * h * h + 3 * h * d)


class RoundSpans:
    """The spans of one round, with their parent -> children index."""

    def __init__(self, spans, children):
        self.spans = spans
        self.children = children

    def named(self, name, site=None):
        return [s for s in self.spans
                if s[2] == name and (site is None or s[3] == site)]

    def total(self, name, site=None) -> float:
        return sum(s[6] - s[5] for s in self.named(name, site))

    def calls(self, name) -> int:
        return len(self.named(name))

    def median_info(self, name, fn=lambda info: info) -> float:
        vals = [fn(s[7]) for s in self.named(name) if s[7] is not None]
        return float(statistics.median(vals)) if vals else 0.0

    def self_time(self, parents, child_names=None) -> float:
        """Parent span time not covered by its direct children (all of
        them, or those named in child_names)."""
        total = 0.0
        for p in parents:
            start, end = p[5], p[6]
            ivals = sorted(
                (max(c[5], start), min(c[6], end))
                for c in self.children.get(p[0], ())
                if child_names is None or c[2] in child_names)
            covered, cur_lo, cur_hi = 0.0, None, None
            for lo, hi in ivals:
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            total += (end - start) - covered
        return total

    def commands(self):
        return [s for s in self.spans if s[2].startswith("cli.cmd_")]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _acceptance(r: RoundSpans) -> float:
    infos = [s[7] for s in r.named(PREPARE) if s[7] is not None]
    return _ratio(sum(i[1] for i in infos), sum(i[0] for i in infos))


def _probe_busy(r: RoundSpans) -> float:
    probes = r.named("analysis.gradient_probe")
    busy = sum(c[6] - c[5] for p in probes for c in r.children.get(p[0], ()))
    return _ratio(busy, sum(p[6] - p[5] for p in probes))


def _timed(name):
    return lambda r: r.total(name)


def _counted(name):
    return lambda r: r.calls(name)


# (metric, unit, span names the program must have, value of one round)
METRICS = [
    ("trainer.adam_update_s", "s", [ADAM], _timed(ADAM)),
    ("trainer.adam_bytes_per_step", "B", [ADAM],
     lambda r: ADAM_BYTES_PER_PARAM * r.median_info(ADAM)),
    ("trainer.loss_and_grad_s", "s", [LOSS], _timed(LOSS)),
    ("trainer.loss_and_grad_calls", "count", [LOSS], _counted(LOSS)),
    ("trainer.matmul_flops_per_step", "flop", [LOSS],
     lambda r: r.median_info(LOSS, matmul_flops)),
    ("trainer.param_count", "count", [LOSS],
     lambda r: r.median_info(LOSS, lambda i: i[4])),
    ("trainer.train_self_s", "s", ["trainer.train", PREPARE, LOSS, ADAM],
     lambda r: r.self_time(r.named("trainer.train"), {PREPARE, LOSS, ADAM})),
    ("trainer.grad_at_timestep_s", "s", ["trainer.grad_at_timestep"],
     _timed("trainer.grad_at_timestep")),
    ("trainer.grad_at_timestep_calls", "count", ["trainer.grad_at_timestep"],
     _counted("trainer.grad_at_timestep")),
    ("synth.generate_moving_shape_s", "s", ["synth.generate_moving_shape"],
     _timed("synth.generate_moving_shape")),
    ("synth.generate_moving_shape_calls", "count", ["synth.generate_moving_shape"],
     _counted("synth.generate_moving_shape")),
    ("synth.degrade_s", "s", ["synth.degrade"], _timed("synth.degrade")),
    ("synth.degrade_calls", "count", ["synth.degrade"], _counted("synth.degrade")),
    ("synth.resolve_payload_s", "s", ["synth.resolve_payload"],
     _timed("synth.resolve_payload")),
    ("sampler.prepare_batch_s", "s", [PREPARE], _timed(PREPARE)),
    ("sampler.prepare_batch_calls", "count", [PREPARE], _counted(PREPARE)),
    ("sampler.beta_variates_s", "s", ["sampler.beta_variates"],
     _timed("sampler.beta_variates")),
    ("sampler.acceptance_ratio", "ratio", [PREPARE], _acceptance),
    ("analysis.timestep_histogram_s", "s", ["analysis.timestep_histogram"],
     _timed("analysis.timestep_histogram")),
    ("analysis.histogram_self_s", "s", ["analysis.timestep_histogram", PREPARE],
     lambda r: r.self_time(r.named("analysis.timestep_histogram"), {PREPARE})),
    ("analysis.gradient_probe_s", "s", ["analysis.gradient_probe"],
     _timed("analysis.gradient_probe")),
    ("analysis.probe_busy_over_wall", "ratio", ["analysis.gradient_probe"], _probe_busy),
    ("quality.read_manifest_s", "s", ["quality.read_manifest"],
     _timed("quality.read_manifest")),
    ("quality.normalize_scores_s", "s", ["quality.normalize_scores"],
     _timed("quality.normalize_scores")),
    ("analysis.quadrant_report_s", "s", ["analysis.quadrant_report"],
     _timed("analysis.quadrant_report")),
    ("cli.command_self_s", "s", ["cli.main"], lambda r: r.self_time(r.commands())),
    ("cli.save_checkpoint_s", "s", ["trainer.save_checkpoint"],
     lambda r: r.total("trainer.save_checkpoint", site="cli")),
    ("cli.write_training_log_s", "s", ["trainer.write_training_log"],
     lambda r: r.total("trainer.write_training_log", site="cli")),
]


def layer_metrics(rounds: list[list], installed) -> tuple[dict, list[str]]:
    """(metrics in the result-line format, names of absent metrics) from
    the spans of each round and the span names the tracer could wrap."""
    views = []
    for spans in rounds:
        children = defaultdict(list)
        for s in spans:
            children[s[1]].append(s)
        views.append(RoundSpans(spans, children))
    metrics, absent = {}, []
    for name, unit, needs, fn in METRICS:
        if not all(n in installed for n in needs):
            absent.append(name)
            continue
        value = statistics.median(fn(r) for r in views)
        metrics[name] = {"value": float(value), "unit": unit}
    return metrics, absent
