"""Command-line front door: curate, sample-stats, train, probe.

Every command resolves its full parameter set (config file merged with
flag overrides) against its one key table and does its work. Only then
does it derive a run id from the resolved values and echo them to
out/<run-id>/resolved_config.json beside its results, so a failed command
leaves no run directory. Feeding that file back through --config
reproduces the run bit-exactly.

Exit codes are stable: 0 success, 1 usage, 2 I/O, 3 bad data,
4 numeric/statistical failure, 5 artifact mismatch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np

from .analysis import (
    PROBE_N_NOISE,
    PROBE_T_GRID,
    gradient_probe,
    histogram_csv,
    probe_curves_csv,
    quadrant_report,
    timestep_histogram,
)
from .errors import (
    CheckpointError,
    DataError,
    NumericError,
    SamplingError,
    UsageError,
    regular_file_size,
)
from .quality import (
    QUADRANTS,
    inject_score_noise,
    normalize_scores,
    quadrant_of,
    read_manifest,
)
from .sampler import MAX_BATCH_SIZE, SamplerConfig, TqdSampler
from .synth import DegradationSpec, generate_moving_shape, resolve_payload
from .trainer import (
    TrainerConfig,
    final_loss,
    load_checkpoint,
    save_checkpoint,
    train,
    write_training_log,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_ARTIFACT = 5

def _keys(cls) -> dict:
    """The key table of a config dataclass: each field is typed by its default."""
    return {f.name: (type(f.default), f.default) for f in fields(cls)}


# Key tables, {key: (type, default)}: every key a command reads, listed
# once. A None default makes a key optional; an ... default, required.
_CURATE_KEYS = {  # a None threshold is the manifest's median raw score
    "manifest": (str, None), "mq_threshold": (float, None), "vq_threshold": (float, None)}
_SAMPLE_STATS_KEYS = {  # not batch_size: sample-stats sets it from n_draws
    "manifest": (str, None),
    **{key: entry for key, entry in _keys(SamplerConfig).items() if key != "batch_size"},
    "seed": (int, 0), "n_draws": (int, 10000)}
_TRAIN_KEYS = {
    "manifest": (str, None), **_keys(SamplerConfig), **_keys(TrainerConfig),
    "noise_level": (float, 0.0), "filter_quadrants": (list, None),
    # raw-score quadrant thresholds of filter_quadrants
    "mq_threshold": (float, 2.5), "vq_threshold": (float, 2.7),
}
_PROBE_KEYS = {
    "model": (str, None), "seed": (int, 0),
    "t_grid": (list, list(PROBE_T_GRID)), "n_noise": (int, PROBE_N_NOISE),
    "degradations": (list, [
        {"kind": "blur", "strength": 2.0, "seed": 0},
        {"kind": "compression", "strength": 8.0, "seed": 0},
        {"kind": "noise", "strength": 0.1, "seed": 0},
        {"kind": "shuffle", "strength": 1.0, "seed": 0},
    ]),
    "samples": (dict, {}),
}
_PROBE_SAMPLE_KEYS = {
    "n": (int, 40), "speed_min": (float, 1.5), "speed_max": (float, 3.0),
    "texture_noise": (float, 0.02), "frames": (int, 8), "height": (int, 16), "width": (int, 16),
}
_DEGRADATION_KEYS = {"kind": (str, ...), "strength": (float, ...), "seed": (int, 0)}

# Largest probe samples.n: every sample and its degraded copies are held at
# once, 2.5 MiB per sample at synth.MAX_CLIP_PIXELS with four degradations.
# The largest n in use is 40.
MAX_PROBE_SAMPLES = 1024


class _Parser(argparse.ArgumentParser):
    """argparse that surfaces bad flags as UsageError (exit 1, not 2)."""

    def error(self, message):
        raise UsageError(message)


def _int_at_least(least: int):
    """argparse type for an integer flag: a decimal integer >= least."""
    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < least:
            raise argparse.ArgumentTypeError(f"must be an integer >= {least}, got {text!r}")
        return int(text)
    return parse


def _finite_float(least: float = -math.inf):
    """argparse type for a number flag: a finite number >= least."""
    bound = f" >= {least:g}" if least > -math.inf else ""

    def parse(text: str) -> float:
        try:
            value = float(text)
            if math.isfinite(value) and value >= least:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be a finite number{bound}, got {text!r}")
    return parse


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _load_params(config_path, command: str) -> dict:
    """Read a config file: either a flat user config or an echoed
    resolved_config.json (recognized by its command/params envelope).
    A path that is not a regular file is OSError, before it is opened."""
    if config_path is None:
        return {}
    regular_file_size(config_path, "config file")
    with open(config_path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # bad JSON, bad UTF-8, an over-long int
            raise DataError(f"malformed config file {config_path}: {exc}") from exc
    if not isinstance(data, dict):
        raise DataError(f"config file {config_path} must hold a JSON object")
    if "command" in data and "params" in data:
        if data["command"] != command:
            raise UsageError(
                f"config {config_path} was echoed by '{data['command']}', "
                f"not '{command}'")
        params = data["params"]
        if not isinstance(params, dict):
            raise DataError(f"config file {config_path} has a malformed params block")
        params = dict(params)
        # surface the echoed input paths so a re-run needs no extra flags
        for key in ("manifest", "model"):
            if key in data and key not in params:
                params[key] = data[key]
        return params
    return data


def _start_run(command: str, out_dir: str, params: dict, inputs: dict) -> tuple[Path, str]:
    """Create out/<run-id>/ and echo the resolved config, once the results exist.

    The run id hashes the command, its input paths, and the resolved
    parameters, so identical invocations land in the same directory and
    rewrite identical files.
    """
    resolved = {"command": command, "params": params, **inputs}
    run_id = hashlib.sha256(_canonical(resolved).encode("utf-8")).hexdigest()[:12]
    run_dir = Path(out_dir) / run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    echo = dict(resolved)
    echo["run_id"] = run_id
    (run_dir / "resolved_config.json").write_text(
        json.dumps(echo, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return run_dir, run_id


def _require(value, flag: str):
    if value is None:
        raise UsageError(f"{flag} is required (flag or config)")
    return value


_KIND_NAMES = {bool: "a JSON bool", int: "an integer", float: "a number",
               str: "a string", list: "a list", dict: "an object"}


def _typed(key: str, value, kind: type):
    """Check one config value against its declared type.

    The JSON type must match exactly: 1 is not a bool and 2.5 not an
    int. Only an integer may stand for a float, and becomes one. A
    number must be finite (JSON NaN and Infinity parse to floats). A
    mismatch is bad data (exit 3).
    """
    if kind is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise DataError(f"config key {key} must be a finite number, "
                            "got an integer too large for a float") from None
    if type(value) is not kind:
        raise DataError(f"config key {key} must be {_KIND_NAMES[kind]}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise DataError(f"config key {key} must be a finite number, got {value!r}")
    return value


def _resolve(given: dict, keys: dict, where: str = "") -> dict:
    """Resolve config values against a key table {key: (type, default)}.

    A key the table does not list, a missing required key and a value
    of the wrong type (see _typed) are bad data. An absent key takes its
    default; with a None default, null or absent gives None. The result
    is the dict a command both uses and echoes. where prefixes the key
    names of a nested block in messages.
    """
    for key in given:
        if key not in keys:
            raise DataError(f"unknown config key {where}{key}")
    resolved = {}
    for key, (kind, default) in keys.items():
        value = given.get(key, default)
        if value is ...:
            raise DataError(f"config key {where}{key} is required")
        resolved[key] = (None if value is None and default is None
                         else _typed(where + key, value, kind))
    return resolved


def _params(args, keys: dict) -> dict:
    """The command's config file with its given flags laid over it (each
    flag's dest is its key), resolved against the command's key table."""
    given = _load_params(args.config, args.command)
    given.update((key, value) for key, value in vars(args).items()
                 if key in keys and value is not None)
    return _resolve(given, keys)


def _build(cls, params: dict):
    """Config dataclass cls from the resolved params that name its fields."""
    return cls(**{f.name: params[f.name] for f in fields(cls)})


# --- curate -------------------------------------------------------------------

def cmd_curate(args) -> int:
    params = _params(args, _CURATE_KEYS)
    manifest = _require(params.pop("manifest"), "--manifest")
    records = read_manifest(manifest)
    report = quadrant_report(records, params["mq_threshold"], params["vq_threshold"])
    # echo the thresholds used, a None one being the manifest's median
    params.update((key, report.data[key]) for key in ("mq_threshold", "vq_threshold"))

    run_dir, run_id = _start_run("curate", args.out, params, {"manifest": str(manifest)})
    (run_dir / "quadrant_report.json").write_text(
        json.dumps(report.data, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    (run_dir / "quadrant_report.txt").write_text(report.text, encoding="utf-8")

    print(f"run {run_id}: curated {len(records)} records")
    print(report.text, end="")
    return EXIT_OK


# --- sample-stats -------------------------------------------------------------

def cmd_sample_stats(args) -> int:
    params = _params(args, _SAMPLE_STATS_KEYS)
    manifest = _require(params.pop("manifest"), "--manifest")
    n_draws = params["n_draws"]
    # all draws from one rejection batch, up to the largest batch;
    # timestep_histogram owns the minimum number of draws
    config = _build(SamplerConfig,
                    {**params, "batch_size": max(1, min(n_draws, MAX_BATCH_SIZE))})

    records = read_manifest(manifest)
    normalized = normalize_scores(records)
    sampler = TqdSampler(normalized, config)
    report = timestep_histogram(sampler, n_draws, seed=params["seed"])

    # one row per distinct quality profile, first-appearance order; the
    # law and retention depend on the profile alone, so any member serves
    profiles = [(rec.mq_norm, rec.vq_norm) for rec in sampler.records]
    n_records = Counter(profiles)
    member = {key: i for i, key in enumerate(profiles)}
    law_lines = ["profile,mq_norm,vq_norm,n_records,retention,alpha,beta"]
    for k, ((mq, vq), i) in enumerate(member.items()):
        law = sampler.laws[i]
        law_lines.append(f"{k},{mq!r},{vq!r},{n_records[mq, vq]},"
                         f"{float(sampler.retention[i])!r},{law.alpha!r},{law.beta!r}")

    # fixed 1% level: chi-square p-value plus the asymptotic KS bound
    ks_critical = float(1.6276 / np.sqrt(n_draws))
    chi_ok = report.chi_square_pvalue > 0.01
    ks_ok = report.ks_stat < ks_critical
    stats_payload = {
        "n_draws": report.n_draws,
        "chi_square": report.chi_square,
        "dof": report.dof,
        "chi_square_pvalue": report.chi_square_pvalue,
        "ks_stat": report.ks_stat,
        "ks_critical_1pct": float(ks_critical),
        "chi_square_pass": chi_ok,
        "ks_pass": ks_ok,
    }

    # a goodness-of-fit miss (exit 4) is reported after its run is written
    run_dir, run_id = _start_run("sample-stats", args.out, params,
                                 {"manifest": str(manifest)})
    (run_dir / "histogram.csv").write_text(histogram_csv(report), encoding="utf-8")
    (run_dir / "laws.csv").write_text("\n".join(law_lines) + "\n", encoding="utf-8")
    (run_dir / "stats.json").write_text(
        json.dumps(stats_payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")

    print(f"run {run_id}: {n_draws} draws from {len(records)} records "
          f"({len(member)} profiles)")
    print(f"chi-square {report.chi_square:.2f} (dof {report.dof}, "
          f"p {report.chi_square_pvalue:.4g}) -> {'pass' if chi_ok else 'FAIL'}")
    print(f"KS {report.ks_stat:.5f} vs 1% critical {ks_critical:.5f} "
          f"-> {'pass' if ks_ok else 'FAIL'}")
    if not (chi_ok and ks_ok):
        raise NumericError("timestep draws failed the 1% goodness-of-fit checks")
    return EXIT_OK


# --- train --------------------------------------------------------------------

def _parse_filter(spec: str) -> list[str]:
    """argparse type for --filter: quadrant=HMLV,LMHV as a quadrant list."""
    key, sep, value = spec.partition("=")
    if not sep or key.strip() != "quadrant":
        raise argparse.ArgumentTypeError(
            f"unsupported filter {spec!r}; expected quadrant=Q1[,Q2...]")
    quads = [q.strip().upper() for q in value.split(",") if q.strip()]
    if not quads:
        raise argparse.ArgumentTypeError("empty quadrant filter")
    for q in quads:
        if q not in QUADRANTS:
            raise argparse.ArgumentTypeError(
                f"unknown quadrant {q!r}; valid: {', '.join(QUADRANTS)}")
    return quads


def cmd_train(args) -> int:
    params = _params(args, _TRAIN_KEYS)
    manifest = _require(params.pop("manifest"), "--manifest")
    sampler_cfg = _build(SamplerConfig, params)
    trainer_cfg = _build(TrainerConfig, params)
    quads = params["filter_quadrants"]
    if quads is not None and any(q not in QUADRANTS for q in quads):
        raise DataError(f"config key filter_quadrants must name quadrants of "
                        f"{', '.join(QUADRANTS)}, got {quads!r}")

    records = read_manifest(manifest)
    if quads is not None:
        kept = [rec for rec in records if quadrant_of(
            rec, params["mq_threshold"], params["vq_threshold"]) in quads]
        if not kept:
            raise DataError(f"no records left after filter quadrant={','.join(quads)}")
        records = kept
    records = inject_score_noise(records, params["noise_level"], trainer_cfg.seed)
    normalized = normalize_scores(records)

    base_dir = Path(manifest).parent
    dataset = []
    for rec in normalized:
        if rec.payload_ref is None:
            raise DataError(f"record {rec.id!r} has no payload reference")
        dataset.append((rec, resolve_payload(rec.payload_ref, base_dir=base_dir)))
    state = train(dataset, sampler_cfg, trainer_cfg)

    run_dir, run_id = _start_run("train", args.out, params, {"manifest": str(manifest)})
    save_checkpoint(state.model, run_dir / "checkpoint.bin", step=state.step,
                    seed=trainer_cfg.seed)
    write_training_log(state, run_dir / "training_log.csv")

    arm = "baseline" if trainer_cfg.baseline else "quality-aware"
    print(f"run {run_id}: trained {arm} arm for {state.step} steps "
          f"on {len(dataset)} records")
    if state.loss_history:
        print(f"final loss (trailing mean): {final_loss(state):.6f}")
        print(f"mean batch acceptance: {float(np.mean(state.acceptance_history)):.4f}")
    return EXIT_OK


# --- probe --------------------------------------------------------------------

def _probe_samples(spec: dict, seed: int):
    """Render the probe's clean samples from its resolved samples block."""
    n = spec["n"]
    if not 1 <= n <= MAX_PROBE_SAMPLES:
        raise DataError(f"samples.n must be in [1, {MAX_PROBE_SAMPLES}], got {n}")
    if spec["speed_min"] > spec["speed_max"]:
        raise DataError(f"samples.speed_min ({spec['speed_min']}) must not exceed "
                        f"samples.speed_max ({spec['speed_max']})")
    rng = np.random.default_rng([seed, 101])
    speeds = rng.uniform(spec["speed_min"], spec["speed_max"], n)
    starts = rng.uniform(0.0, spec["width"], n)
    return [
        generate_moving_shape(
            motion_speed=float(speeds[i]),
            texture_noise=spec["texture_noise"],
            seed=int(rng.integers(0, 2**31)),
            frames=spec["frames"],
            height=spec["height"],
            width=spec["width"],
            start_x=float(starts[i]),
        )
        for i in range(n)
    ]


def cmd_probe(args) -> int:
    params = _params(args, _PROBE_KEYS)
    model_path = _require(params.pop("model"), "--model")
    seed = params["seed"]
    if seed < 0:
        raise DataError(f"config key seed must be >= 0, got {seed}")
    t_grid = params["t_grid"] = [_typed("t_grid", t, float) for t in params["t_grid"]]
    params["degradations"] = [
        _resolve(_typed("degradations", d, dict), _DEGRADATION_KEYS, "degradations.")
        for d in params["degradations"]]
    degradations = [DegradationSpec(**d) for d in params["degradations"]]
    params["samples"] = _resolve(params["samples"], _PROBE_SAMPLE_KEYS, "samples.")

    model, header = load_checkpoint(model_path)
    videos = _probe_samples(params["samples"], seed)
    shape = videos[0].frames.shape
    if shape != model.data_shape:
        raise CheckpointError(
            f"checkpoint {model_path} expects data shape {model.data_shape}, "
            f"probe samples have {shape}")
    curves = gradient_probe(model, videos, degradations, t_grid=t_grid,
                            n_noise=params["n_noise"], noise_seed=seed)

    run_dir, run_id = _start_run("probe", args.out, params, {"model": str(model_path)})
    for i, curve in enumerate(curves):
        out_path = run_dir / f"probe_{i:02d}_{curve.kind}.csv"
        out_path.write_text(probe_curves_csv([curve]), encoding="utf-8")

    print(f"run {run_id}: probed {len(videos)} samples x {len(t_grid)} timesteps "
          f"(model step {header.get('step')})")
    for curve in curves:
        first_t, first_d = curve.points[0]
        last_t, last_d = curve.points[-1]
        print(f"{curve.kind} (strength {curve.strength:g}): "
              f"distance {first_d:.4g} at t={first_t:g} -> {last_d:.4g} at t={last_t:g}")
    return EXIT_OK


# --- entry point --------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="tqd", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    cur = sub.add_parser("curate", help="report quadrant occupancy and the MQ/VQ correlation")
    cur.add_argument("--manifest", help="JSONL score manifest")
    cur.add_argument("--config", help="JSON config (flat or echoed resolved config)")
    cur.add_argument("--out", required=True, help="output directory root")
    cur.add_argument("--mq-threshold", type=_finite_float(), help="raw MQ quadrant threshold")
    cur.add_argument("--vq-threshold", type=_finite_float(), help="raw VQ quadrant threshold")
    cur.set_defaults(func=cmd_curate)

    ss = sub.add_parser("sample-stats",
                        help="draw timesteps and test them against the analytic law")
    ss.add_argument("--manifest", help="JSONL score manifest")
    ss.add_argument("--config", help="JSON sampler config")
    ss.add_argument("--out", required=True)
    ss.add_argument("--n-draws", type=_int_at_least(1), help="number of timestep draws")
    ss.add_argument("--seed", type=_int_at_least(0))
    ss.set_defaults(func=cmd_sample_stats)

    tr = sub.add_parser("train", help="run the quality-aware training loop")
    tr.add_argument("--manifest", help="JSONL score manifest with payload refs")
    tr.add_argument("--config", help="JSON config (sampler + trainer keys)")
    tr.add_argument("--out", required=True)
    tr.add_argument("--seed", type=_int_at_least(0))
    tr.add_argument("--steps", type=_int_at_least(0))
    tr.add_argument("--baseline", action="store_const", const=True,
                    help="disable dropout and draw every timestep from "
                         "Beta(kappa_base/2, kappa_base/2), flat at kappa_base 2")
    tr.add_argument("--filter", dest="filter_quadrants", type=_parse_filter,
                    help="keep only listed quadrants, e.g. quadrant=HMLV,LMHV")
    tr.add_argument("--noise-level", type=_finite_float(0.0),
                    help="inject scorer noise of this relative level before training")
    tr.set_defaults(func=cmd_train)

    pr = sub.add_parser("probe", help="gradient-alignment probe on a checkpoint")
    pr.add_argument("--model", help="checkpoint file from train")
    pr.add_argument("--config", help="JSON probe config")
    pr.add_argument("--out", required=True)
    pr.add_argument("--seed", type=_int_at_least(0))
    pr.set_defaults(func=cmd_probe)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CheckpointError as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return EXIT_ARTIFACT
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, SamplingError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        name = getattr(exc, "filename", None)
        detail = f"{exc} ({name})" if name and str(name) not in str(exc) else str(exc)
        print(f"io error: {detail}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
