"""Command-line front door: curate, sample-stats, train, probe.

Every command resolves its full parameter set (config file merged with
flag overrides), derives a run id from the resolved values, and echoes
them to out/<run-id>/resolved_config.json before doing any work. Feeding
that file back through --config reproduces the run bit-exactly.

Exit codes are stable: 0 success, 1 usage, 2 I/O, 3 bad data,
4 numeric/statistical failure, 5 artifact mismatch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import typing
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .analysis import (
    MIN_HISTOGRAM_DRAWS,
    PROBE_N_NOISE,
    PROBE_T_GRID,
    check_t_grid,
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
    TqdError,
    UsageError,
)
from .quality import (
    QUADRANTS,
    inject_score_noise,
    normalize_scores,
    quadrant_of,
    read_manifest,
    write_sidecar,
)
from .sampler import SamplerConfig, density_curve, make_law, retention_probability
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

# raw-score quadrant thresholds used by --filter when the config is silent
DEFAULT_MQ_THRESHOLD = 2.5
DEFAULT_VQ_THRESHOLD = 2.7

_PROBE_DEFAULT_DEGRADATIONS = [
    {"kind": "blur", "strength": 2.0, "seed": 0},
    {"kind": "compression", "strength": 8.0, "seed": 0},
    {"kind": "noise", "strength": 0.1, "seed": 0},
    {"kind": "shuffle", "strength": 1.0, "seed": 0},
]

_PROBE_DEFAULT_SAMPLES = {
    "n": 40,
    "speed_min": 1.5,
    "speed_max": 3.0,
    "texture_noise": 0.02,
    "frames": 8,
    "height": 16,
    "width": 16,
}


class _Parser(argparse.ArgumentParser):
    """argparse that surfaces bad flags as UsageError (exit 1, not 2)."""

    def error(self, message):
        raise UsageError(message)


def _non_negative_int(text: str) -> int:
    """argparse type for --seed and --steps: an integer >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _load_params(config_path, command: str) -> dict:
    """Read a config file: either a flat user config or an echoed
    resolved_config.json (recognized by its command/params envelope)."""
    if config_path is None:
        return {}
    with open(config_path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
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
    """Create out/<run-id>/ and echo the resolved config before any work.

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
    mismatch is bad data (exit 3).
    """
    if kind is float and type(value) is int:
        return float(value)
    if type(value) is not kind:
        raise DataError(f"config key {key} must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def _param(params: dict, key: str, kind: type, default=None):
    """A command key that is not a config field, checked like one. A
    None default makes the key optional (null or absent gives None)."""
    value = params.get(key, default)
    return None if value is None and default is None else _typed(key, value, kind)


def _config(cls, params: dict):
    """Build config dataclass cls from the params keys that name its
    fields, each checked against the field's declared type; other keys
    are ignored."""
    hints = typing.get_type_hints(cls)
    values = {}
    for f in fields(cls):
        if f.name in params:
            kinds = typing.get_args(hints[f.name]) or (hints[f.name],)
            value = params[f.name]
            optional = value is None and type(None) in kinds
            values[f.name] = None if optional else _typed(f.name, value, kinds[0])
    return cls(**values)


# --- curate -------------------------------------------------------------------

def cmd_curate(args) -> int:
    params = _load_params(args.config, "curate")
    manifest = _require(args.manifest or _param(params, "manifest", str), "--manifest")
    if args.mq_threshold is not None:
        params["mq_threshold"] = args.mq_threshold
    if args.vq_threshold is not None:
        params["vq_threshold"] = args.vq_threshold

    mq_thr = _param(params, "mq_threshold", float)
    vq_thr = _param(params, "vq_threshold", float)
    records = read_manifest(manifest)
    if mq_thr is None:
        mq_thr = float(np.median([r.mq_raw for r in records]))
    if vq_thr is None:
        vq_thr = float(np.median([r.vq_raw for r in records]))
    params = {"mq_threshold": mq_thr, "vq_threshold": vq_thr}

    _, consts = normalize_scores(records)
    report = quadrant_report(records, params["mq_threshold"], params["vq_threshold"])

    run_dir, run_id = _start_run("curate", args.out, params, {"manifest": str(manifest)})
    sidecar = write_sidecar(consts, manifest)
    (run_dir / "quadrant_report.json").write_text(
        json.dumps(report.data, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    (run_dir / "quadrant_report.txt").write_text(report.text, encoding="utf-8")

    print(f"run {run_id}: curated {len(records)} records")
    print(f"normalization sidecar: {sidecar}")
    print(report.text, end="")
    return EXIT_OK


# --- sample-stats -------------------------------------------------------------

def cmd_sample_stats(args) -> int:
    params = _load_params(args.config, "sample-stats")
    manifest = _require(args.manifest or _param(params, "manifest", str), "--manifest")
    if args.n_draws is not None:
        if args.n_draws < 1:
            raise UsageError("--n-draws must be >= 1")
        params["n_draws"] = args.n_draws
    if args.seed is not None:
        params["seed"] = args.seed

    n_draws = _param(params, "n_draws", int, 10000)
    if n_draws < 1:
        raise UsageError("n_draws must be >= 1")
    if n_draws < MIN_HISTOGRAM_DRAWS:
        raise DataError(f"n_draws must be >= {MIN_HISTOGRAM_DRAWS} for stable "
                        f"statistics, got {n_draws}")
    config = _config(SamplerConfig, params)
    params = {**asdict(config), "n_draws": n_draws}

    records = read_manifest(manifest)
    normalized, _ = normalize_scores(records)

    run_dir, run_id = _start_run("sample-stats", args.out, params,
                                 {"manifest": str(manifest)})
    report = timestep_histogram(normalized, config, n_draws)

    # density curve per distinct quality profile, first-appearance order
    profiles = []
    seen = set()
    for rec in normalized:
        key = (rec.mq_norm, rec.vq_norm)
        if key not in seen:
            seen.add(key)
            profiles.append(rec)
    curve_lines = ["profile,mq_norm,vq_norm,retention,t,pdf"]
    for i, rec in enumerate(profiles):
        law = make_law(rec, config)
        keep = retention_probability(rec)
        ts, pdf = density_curve(law)
        for t, p in zip(ts, pdf):
            curve_lines.append(
                f"{i},{rec.mq_norm!r},{rec.vq_norm!r},{keep!r},{float(t)!r},{float(p)!r}")
    (run_dir / "density_curves.csv").write_text(
        "\n".join(curve_lines) + "\n", encoding="utf-8")
    (run_dir / "histogram.csv").write_text(histogram_csv(report), encoding="utf-8")

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
    (run_dir / "stats.json").write_text(
        json.dumps(stats_payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")

    print(f"run {run_id}: {n_draws} draws from {len(records)} records "
          f"({len(profiles)} profiles)")
    print(f"chi-square {report.chi_square:.2f} (dof {report.dof}, "
          f"p {report.chi_square_pvalue:.4g}) -> {'pass' if chi_ok else 'FAIL'}")
    print(f"KS {report.ks_stat:.5f} vs 1% critical {ks_critical:.5f} "
          f"-> {'pass' if ks_ok else 'FAIL'}")
    if not (chi_ok and ks_ok):
        raise NumericError("timestep draws failed the 1% goodness-of-fit checks")
    return EXIT_OK


# --- train --------------------------------------------------------------------

def _parse_filter(spec: str) -> list[str]:
    """Parse --filter quadrant=HMLV,LMHV into a quadrant list."""
    key, sep, value = spec.partition("=")
    if not sep or key.strip() != "quadrant":
        raise UsageError(f"unsupported filter {spec!r}; expected quadrant=Q1[,Q2...]")
    quads = [q.strip().upper() for q in value.split(",") if q.strip()]
    if not quads:
        raise UsageError("empty quadrant filter")
    for q in quads:
        if q not in QUADRANTS:
            raise UsageError(f"unknown quadrant {q!r}; valid: {', '.join(QUADRANTS)}")
    return quads


def cmd_train(args) -> int:
    params = _load_params(args.config, "train")
    manifest = _require(args.manifest or _param(params, "manifest", str), "--manifest")
    if args.seed is not None:
        params["seed"] = args.seed
    if args.steps is not None:
        params["steps"] = args.steps
    if args.baseline:
        params["baseline"] = True
    if args.filter is not None:
        params["filter_quadrants"] = _parse_filter(args.filter)
    if args.noise_level is not None:
        if args.noise_level < 0:
            raise UsageError("--noise-level must be >= 0")
        params["noise_level"] = args.noise_level

    sampler_cfg = _config(SamplerConfig, params)
    trainer_cfg = _config(TrainerConfig, params)
    noise_level = _param(params, "noise_level", float, 0.0)
    quads = _param(params, "filter_quadrants", list)
    if quads is not None and any(q not in QUADRANTS for q in quads):
        raise DataError(f"config key filter_quadrants must name quadrants of "
                        f"{', '.join(QUADRANTS)}, got {quads!r}")
    mq_thr = _param(params, "mq_threshold", float, DEFAULT_MQ_THRESHOLD)
    vq_thr = _param(params, "vq_threshold", float, DEFAULT_VQ_THRESHOLD)
    params = {
        **asdict(sampler_cfg), **asdict(trainer_cfg),
        "noise_level": noise_level,
        "filter_quadrants": quads,
        "mq_threshold": mq_thr, "vq_threshold": vq_thr,
    }

    records = read_manifest(manifest)
    if quads is not None:
        kept = [rec for rec in records if quadrant_of(rec, mq_thr, vq_thr) in quads]
        if not kept:
            raise DataError(f"no records left after filter quadrant={','.join(quads)}")
        records = kept
    if noise_level > 0:
        records = inject_score_noise(records, noise_level, trainer_cfg.seed)
    normalized, _ = normalize_scores(records)

    run_dir, run_id = _start_run("train", args.out, params, {"manifest": str(manifest)})

    base_dir = Path(manifest).parent
    dataset = []
    for rec in normalized:
        if rec.payload_ref is None:
            raise DataError(f"record {rec.id!r} has no payload reference")
        dataset.append((rec, resolve_payload(rec.payload_ref, base_dir=base_dir)))

    state = train(dataset, sampler_cfg, trainer_cfg)
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

def _probe_samples(params: dict, seed: int):
    given = _param(params, "samples", dict, {})
    spec = {key: _typed(f"samples.{key}", given.get(key, default), type(default))
            for key, default in _PROBE_DEFAULT_SAMPLES.items()}
    n = spec["n"]
    if n < 1:
        raise DataError(f"probe needs at least one sample, got n={n}")
    if spec["speed_min"] > spec["speed_max"]:
        raise DataError(f"samples.speed_min ({spec['speed_min']}) must not exceed "
                        f"samples.speed_max ({spec['speed_max']})")
    rng = np.random.default_rng([seed, 101])
    speeds = rng.uniform(spec["speed_min"], spec["speed_max"], n)
    starts = rng.uniform(0.0, spec["width"], n)
    videos = [
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
    return videos, spec


def cmd_probe(args) -> int:
    params = _load_params(args.config, "probe")
    model_path = _require(args.model or _param(params, "model", str), "--model")
    if args.seed is not None:
        params["seed"] = args.seed

    seed = _param(params, "seed", int, 0)
    if seed < 0:
        raise DataError(f"config key seed must be >= 0, got {seed}")
    t_grid = check_t_grid([_typed("t_grid", t, float)
                           for t in _param(params, "t_grid", list, list(PROBE_T_GRID))])
    n_noise = _param(params, "n_noise", int, PROBE_N_NOISE)
    degradations = []
    for d in _param(params, "degradations", list, _PROBE_DEFAULT_DEGRADATIONS):
        d = _typed("degradations", d, dict)
        degradations.append(DegradationSpec(
            kind=_typed("degradations.kind", d.get("kind"), str),
            strength=_typed("degradations.strength", d.get("strength"), float),
            seed=_typed("degradations.seed", d.get("seed", 0), int)))
    if not degradations:
        raise DataError("gradient probe needs at least one degradation")

    model, header = load_checkpoint(model_path)
    videos, sample_spec = _probe_samples(params, seed)
    shape = videos[0].frames.shape
    if shape != model.data_shape:
        raise CheckpointError(
            f"checkpoint {model_path} expects data shape {model.data_shape}, "
            f"probe samples have {shape}")

    params = {
        "seed": seed, "t_grid": t_grid, "n_noise": n_noise,
        "degradations": [
            {"kind": d.kind, "strength": d.strength, "seed": d.seed}
            for d in degradations],
        "samples": sample_spec,
    }
    run_dir, run_id = _start_run("probe", args.out, params, {"model": str(model_path)})

    curves = gradient_probe(model, videos, degradations, t_grid=t_grid,
                            n_noise=n_noise, noise_seed=seed)
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

    cur = sub.add_parser("curate", help="normalize scores and report quadrants")
    cur.add_argument("--manifest", help="JSONL score manifest")
    cur.add_argument("--config", help="JSON config (flat or echoed resolved config)")
    cur.add_argument("--out", required=True, help="output directory root")
    cur.add_argument("--mq-threshold", type=float, help="raw MQ quadrant threshold")
    cur.add_argument("--vq-threshold", type=float, help="raw VQ quadrant threshold")
    cur.set_defaults(func=cmd_curate)

    ss = sub.add_parser("sample-stats",
                        help="draw timesteps and test them against the analytic law")
    ss.add_argument("--manifest", help="JSONL score manifest")
    ss.add_argument("--config", help="JSON sampler config")
    ss.add_argument("--out", required=True)
    ss.add_argument("--n-draws", type=int, help="number of timestep draws")
    ss.add_argument("--seed", type=_non_negative_int)
    ss.set_defaults(func=cmd_sample_stats)

    tr = sub.add_parser("train", help="run the quality-aware training loop")
    tr.add_argument("--manifest", help="JSONL score manifest with payload refs")
    tr.add_argument("--config", help="JSON config (sampler + trainer keys)")
    tr.add_argument("--out", required=True)
    tr.add_argument("--seed", type=_non_negative_int)
    tr.add_argument("--steps", type=_non_negative_int)
    tr.add_argument("--baseline", action="store_true",
                    help="disable dropout and force the flat timestep law")
    tr.add_argument("--filter", help="keep only listed quadrants, e.g. quadrant=HMLV,LMHV")
    tr.add_argument("--noise-level", type=float,
                    help="inject scorer noise of this relative level before training")
    tr.set_defaults(func=cmd_train)

    pr = sub.add_parser("probe", help="gradient-alignment probe on a checkpoint")
    pr.add_argument("--model", help="checkpoint file from train")
    pr.add_argument("--config", help="JSON probe config")
    pr.add_argument("--out", required=True)
    pr.add_argument("--seed", type=_non_negative_int)
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
    except TqdError as exc:  # any future library error defaults to data
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        name = getattr(exc, "filename", None)
        detail = f"{exc} ({name})" if name and str(name) not in str(exc) else str(exc)
        print(f"io error: {detail}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
