"""End-to-end tests for the command-line interface: exit codes, run
directories, echoed configs, and artifact contents."""

import dataclasses
import json
import os
import signal
import struct
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats as scipy_stats
from scipy.special import betainc

from tqd import analysis
from tqd.analysis import (
    MAX_HISTOGRAM_DRAWS,
    MAX_PROBE_DEGRADATIONS,
    MAX_PROBE_TIMESTEPS,
    robustness_sweep,
)
from tqd.cli import MAX_PROBE_SAMPLES, main
from tqd.errors import DataError
from tqd.quality import normalize_scores, read_manifest, synth_population
from tqd.sampler import MIN_SHAPE, SamplerConfig, TqdSampler, law_table
from tqd.synth import ToyVideo, generate_moving_shape, resolve_payload
from tqd.trainer import (
    MAX_HIDDEN_WIDTH,
    MAX_N_NOISE,
    N_FREQS,
    TrainerConfig,
    TrainState,
    VelocityModel,
    final_loss,
    load_checkpoint,
    param_count,
    save_checkpoint,
)


def _write_lines(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def _synth_ref(speed, seed, tex=0.05):
    return (f"synth:speed={speed},noise={tex},seed={seed},"
            f"frames=2,height=5,width=5")


def _quadrant_manifest(path):
    # one record per quadrant at thresholds mq 2.5 / vq 2.7
    _write_lines(path, [
        {"id": "hmhv", "mq": 3.0, "vq": 3.0, "payload": _synth_ref(2.0, 1)},
        {"id": "hmlv", "mq": 3.0, "vq": 2.0, "payload": _synth_ref(2.5, 2)},
        {"id": "lmhv", "mq": 2.0, "vq": 3.0, "payload": _synth_ref(0.5, 3)},
        {"id": "lmlv", "mq": 2.0, "vq": 2.0, "payload": _synth_ref(0.8, 4)},
    ])
    return path


def _run_dirs(out):
    return [p for p in out.iterdir() if p.is_dir()]


# --- curate --------------------------------------------------------------


def test_curate_reports_quadrants(tmp_path, capsys):
    manifest = _quadrant_manifest(tmp_path / "scores.jsonl")
    out = tmp_path / "out"
    code = main(["curate", "--manifest", str(manifest), "--out", str(out),
                 "--mq-threshold", "2.5", "--vq-threshold", "2.7"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "curated 4 records" in stdout
    (run_dir,) = _run_dirs(out)
    report = json.loads((run_dir / "quadrant_report.json").read_text())
    assert report["n"] == 4
    for key in ("HMHV", "HMLV", "LMHV", "LMLV"):
        assert report["fractions"][key] == 0.25
    assert (run_dir / "quadrant_report.txt").exists()
    assert (run_dir / "resolved_config.json").exists()
    # nothing is written outside --out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "scores.jsonl"]


def test_curate_missing_manifest_is_io_error(tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    code = main(["curate", "--manifest", str(missing), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "nope.jsonl" in capsys.readouterr().err


def test_curate_non_finite_score_is_data_error(tmp_path, capsys):
    manifest = tmp_path / "bad.jsonl"
    manifest.write_text('{"id": "broken", "mq": NaN, "vq": 2.0}\n')
    code = main(["curate", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "broken" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_curate_non_finite_threshold_flag_is_usage_error(tmp_path, capsys, value):
    manifest = _quadrant_manifest(tmp_path / "scores.jsonl")
    out = tmp_path / "out"
    code = main(["curate", "--manifest", str(manifest), "--out", str(out),
                 f"--mq-threshold={value}"])
    assert code == 1
    err = capsys.readouterr().err
    assert "finite number" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("key, literal", [("mq_threshold", "NaN"),
                                          ("vq_threshold", "Infinity"),
                                          ("mq_threshold", "1" + "0" * 400)],
                         ids=["nan", "infinity", "overflowing-int"])
def test_curate_non_finite_threshold_config_is_data_error(tmp_path, capsys, key, literal):
    manifest = _quadrant_manifest(tmp_path / "scores.jsonl")
    config = tmp_path / "curate.json"
    config.write_text(f'{{"{key}": {literal}}}')
    out = tmp_path / "out"
    code = main(["curate", "--manifest", str(manifest), "--config", str(config),
                 "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and key in err and err.count("\n") == 1
    assert not out.exists()


def test_curate_malformed_line_names_line_number(tmp_path, capsys):
    manifest = tmp_path / "bad.jsonl"
    manifest.write_text('{"id": "a", "mq": 1.0, "vq": 2.0}\nnot json\n')
    code = main(["curate", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "line 2" in capsys.readouterr().err


def test_curate_echoed_config_reproduces_run(tmp_path, capsys):
    manifest = _quadrant_manifest(tmp_path / "scores.jsonl")
    out1 = tmp_path / "out1"
    assert main(["curate", "--manifest", str(manifest), "--out", str(out1)]) == 0
    (run1,) = _run_dirs(out1)
    echo = run1 / "resolved_config.json"

    out2 = tmp_path / "out2"
    assert main(["curate", "--config", str(echo), "--out", str(out2)]) == 0
    (run2,) = _run_dirs(out2)
    assert run1.name == run2.name
    assert (run1 / "quadrant_report.json").read_bytes() == \
        (run2 / "quadrant_report.json").read_bytes()


def test_echoed_config_refuses_wrong_command(tmp_path, capsys):
    manifest = _quadrant_manifest(tmp_path / "scores.jsonl")
    out = tmp_path / "out"
    assert main(["curate", "--manifest", str(manifest), "--out", str(out)]) == 0
    (run_dir,) = _run_dirs(out)
    code = main(["train", "--config", str(run_dir / "resolved_config.json"),
                 "--out", str(tmp_path / "o2")])
    assert code == 1
    assert "curate" in capsys.readouterr().err


# --- sample-stats ------------------------------------------------------------


def test_sample_stats_uniform_degenerate_passes(tmp_path, capsys):
    # equal raw scores normalize to 0.5 everywhere, so every law is flat
    manifest = tmp_path / "flat.jsonl"
    _write_lines(manifest, [{"id": f"r{i}", "mq": 2.5, "vq": 2.5} for i in range(4)])
    out = tmp_path / "out"
    code = main(["sample-stats", "--manifest", str(manifest), "--out", str(out),
                 "--n-draws", "2000", "--seed", "0"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.count("pass") == 2
    (run_dir,) = _run_dirs(out)
    stats = json.loads((run_dir / "stats.json").read_text())
    assert stats["chi_square_pass"] is True
    assert stats["ks_pass"] is True
    assert stats["n_draws"] == 2000
    assert set(stats) == {"n_draws", "chi_square", "dof", "chi_square_pvalue", "ks_stat",
                          "ks_critical_1pct", "chi_square_pass", "ks_pass"}
    hist_lines = (run_dir / "histogram.csv").read_text().strip().split("\n")
    assert len(hist_lines) == 51
    laws = (run_dir / "laws.csv").read_text().strip().split("\n")
    assert laws[0] == "profile,mq_norm,vq_norm,n_records,retention,alpha,beta"
    # identical profiles collapse to one law row
    assert len(laws) == 2
    profile, _, _, n_records, retention, alpha, beta = laws[1].split(",")
    assert (profile, int(n_records), float(retention)) == ("0", 4, 0.5)
    assert float(alpha) == float(beta) == 1.0
    # and nothing else: no per-profile density file
    assert sorted(p.name for p in run_dir.iterdir()) == [
        "histogram.csv", "laws.csv", "resolved_config.json", "stats.json"]


def test_sample_stats_motion_skew_puts_mass_high(tmp_path, capsys):
    # three high-motion records ride above t = 0.5; the low anchor owns
    # the score minima so normalization cannot collapse the skew
    manifest = tmp_path / "skew.jsonl"
    _write_lines(manifest, [
        {"id": "anchor", "mq": 1.0, "vq": 3.0},
        {"id": "m1", "mq": 2.8, "vq": 1.0},
        {"id": "m2", "mq": 2.9, "vq": 1.1},
        {"id": "m3", "mq": 3.0, "vq": 1.2},
    ])
    out = tmp_path / "out"
    code = main(["sample-stats", "--manifest", str(manifest), "--out", str(out),
                 "--n-draws", "2000", "--seed", "1"])
    assert code == 0
    (run_dir,) = _run_dirs(out)
    high = 0
    total = 0
    for line in (run_dir / "histogram.csv").read_text().strip().split("\n")[1:]:
        lo, _, obs, _ = line.split(",")
        total += int(obs)
        if float(lo) >= 0.5:
            high += int(obs)
    assert total == 2000
    assert high / total > 0.5

    # laws.csv alone rebuilds the expected counts: a mixture of its Beta
    # laws weighted by n_records * retention
    hist = np.loadtxt(run_dir / "histogram.csv", delimiter=",", skiprows=1)
    laws = np.loadtxt(run_dir / "laws.csv", delimiter=",", skiprows=1, ndmin=2)
    n_records, retention, alpha, beta = laws[:, 3:].T
    assert n_records.sum() == 4
    weights = n_records * retention / (n_records * retention).sum()
    lo, hi = hist[:, :1], hist[:, 1:2]
    masses = scipy_stats.beta.cdf(hi, alpha, beta) - scipy_stats.beta.cdf(lo, alpha, beta)
    np.testing.assert_allclose(2000 * masses @ weights, hist[:, 3], rtol=1e-9)


def test_sample_stats_draws_one_batch_of_n_draws(tmp_path, capsys):
    # the observed counts are those of one prepare_batch of n_draws from
    # default_rng(seed)
    manifest = tmp_path / "scores.jsonl"
    _write_lines(manifest, [{"id": f"r{i}", "mq": 1.0 + i, "vq": 3.0 - 0.5 * i}
                            for i in range(4)])
    out = tmp_path / "out"
    code = main(["sample-stats", "--manifest", str(manifest), "--out", str(out),
                 "--n-draws", "3000", "--seed", "5"])
    assert code == 0
    (run_dir,) = _run_dirs(out)
    observed = np.loadtxt(run_dir / "histogram.csv", delimiter=",", skiprows=1)[:, 2]
    sampler = TqdSampler(*normalize_scores(read_manifest(manifest)),
                         SamplerConfig(batch_size=3000))
    t = sampler.prepare_batch(np.random.default_rng(5)).timesteps
    np.testing.assert_array_equal(observed, np.histogram(t, np.linspace(0.0, 1.0, 51))[0])


@pytest.mark.parametrize("block", [None, 120])
def test_sample_stats_expected_counts_sum_bin_masses_in_record_order(tmp_path, capsys,
                                                                     monkeypatch, block):
    # the bench population with a third of its records at the score
    # corners (one shape clamped to MIN_SHAPE) and one weightless record at
    # both score minima; at block 120 the laws' table spans 150 blocks
    records = synth_population(300, -0.22, seed=17)
    rows = [{"id": r.id, "mq": r.mq_raw, "vq": r.vq_raw} for r in records]
    for k, row in enumerate(rows[::3]):
        row["mq"], row["vq"] = (4.5, 0.9) if k % 2 else (0.5, 4.5)
    rows.append({"id": "floor", "mq": 0.5, "vq": 0.9})
    manifest = tmp_path / "scores.jsonl"
    _write_lines(manifest, rows)
    if block is not None:
        monkeypatch.setattr(analysis, "_KS_BLOCK", block)
    out = tmp_path / "out"
    assert main(["sample-stats", "--manifest", str(manifest), "--out", str(out),
                 "--n-draws", "5000"]) in (0, 4)
    (run_dir,) = _run_dirs(out)
    expected = np.loadtxt(run_dir / "histogram.csv", delimiter=",", skiprows=1)[:, 3]
    mq, vq = normalize_scores(read_manifest(manifest))
    sampler = TqdSampler(mq, vq, SamplerConfig())
    assert sampler.retention[-1] == 0.0
    assert np.sum(np.minimum(sampler.alpha, sampler.beta) == MIN_SHAPE) >= 100
    weights = sampler.retention / sampler.retention.sum()
    edges = np.linspace(0.0, 1.0, 51)
    _, _, alpha, beta = law_table(mq, vq, sampler.config)
    masses = np.zeros(50)
    for a, b, w in zip(alpha, beta, weights):
        masses += w * np.diff(betainc(a, b, edges))
    assert np.array_equal(expected, 5000 * masses)


def test_sample_stats_starved_sampler_is_data_error(tmp_path, capsys):
    # one retainable record among 2000: the one batch of 1000 runs out of
    # attempts
    manifest = tmp_path / "scores.jsonl"
    _write_lines(manifest, [{"id": f"r{i}", "mq": 1.0 + (i == 0), "vq": 1.0 + (i == 0)}
                            for i in range(2000)])
    out = tmp_path / "out"
    code = main(["sample-stats", "--manifest", str(manifest), "--out", str(out),
                 "--n-draws", "1000"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "cap exhausted" in err
    assert not out.exists()


def test_sample_stats_with_many_weightless_records(tmp_path, capsys):
    # 1100 records tied at the minimum of both raw scores have retention
    # 0, so their laws carry no weight in the KS reference mixture
    manifest = tmp_path / "scores.jsonl"
    _write_lines(manifest, [{"id": f"z{i}", "mq": 1.0, "vq": 1.0} for i in range(1100)]
                 + [{"id": "a", "mq": 3.0, "vq": 1.5}, {"id": "b", "mq": 2.0, "vq": 3.0}])
    out = tmp_path / "out"
    code = main(["sample-stats", "--manifest", str(manifest), "--out", str(out),
                 "--n-draws", "2000", "--seed", "0"])
    assert code == 0, capsys.readouterr().err
    (run_dir,) = _run_dirs(out)
    stats = json.loads((run_dir / "stats.json").read_text())
    assert stats["ks_pass"] is True and 0.0 < stats["ks_stat"] < stats["ks_critical_1pct"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sample_stats_passes_at_the_score_corners_with_a_million_draws(tmp_path, capsys,
                                                                      seed):
    # the two corner laws at kappa_max 1e6 put a sixth of the draws on each
    # censoring atom; with the atoms at float eps, draws that rounded onto
    # the top one gave it 0.002 more mass than the reference, which failed
    # the 1% KS check (critical value 0.00163) on correct draws
    manifest = tmp_path / "corners.jsonl"
    _write_lines(manifest, [{"id": "motion", "mq": 1.0, "vq": 0.0},
                            {"id": "visual", "mq": 0.0, "vq": 1.0}])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kappa_max": 1e6}))
    out = tmp_path / "out"
    code = main(["sample-stats", "--manifest", str(manifest), "--config", str(config),
                 "--out", str(out), "--n-draws", "1000000", "--seed", str(seed)])
    assert code == 0, capsys.readouterr().err
    (run_dir,) = _run_dirs(out)
    stats = json.loads((run_dir / "stats.json").read_text())
    assert stats["ks_stat"] < stats["ks_critical_1pct"]


def test_sample_stats_rejects_zero_draws(tmp_path, capsys):
    manifest = tmp_path / "flat.jsonl"
    _write_lines(manifest, [{"id": "r", "mq": 2.5, "vq": 2.5}])
    code = main(["sample-stats", "--manifest", str(manifest),
                 "--out", str(tmp_path / "o"), "--n-draws", "0"])
    assert code == 1


def test_sample_stats_too_few_draws_is_data_error(tmp_path, capsys):
    manifest = tmp_path / "flat.jsonl"
    _write_lines(manifest, [{"id": "r", "mq": 2.5, "vq": 2.5}])
    code = main(["sample-stats", "--manifest", str(manifest),
                 "--out", str(tmp_path / "o"), "--n-draws", "500"])
    assert code == 3
    assert "1000" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sample_stats_goodness_of_fit_miss_writes_its_run_then_exits_4(
        tmp_path, capsys, monkeypatch):
    real = analysis.timestep_histogram
    monkeypatch.setattr("tqd.cli.timestep_histogram", lambda *args, **kwargs:
                        dataclasses.replace(real(*args, **kwargs), ks_stat=1.0))
    manifest = tmp_path / "flat.jsonl"
    _write_lines(manifest, [{"id": "r", "mq": 2.5, "vq": 2.5}])
    out = tmp_path / "o"
    code = main(["sample-stats", "--manifest", str(manifest), "--out", str(out)])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric error: ") and "goodness-of-fit" in err
    assert err.count("\n") == 1
    (run_dir,) = _run_dirs(out)
    assert sorted(p.name for p in run_dir.iterdir()) == [
        "histogram.csv", "laws.csv", "resolved_config.json", "stats.json"]
    stats = json.loads((run_dir / "stats.json").read_text())
    assert stats["ks_stat"] == 1.0
    assert stats["ks_pass"] is False and stats["chi_square_pass"] is True


def test_sample_stats_non_finite_statistic_is_numeric_error(tmp_path, capsys, monkeypatch):
    # a NaN KS statistic must not read as a failed fit, nor reach
    # stats.json, where NaN is not JSON
    monkeypatch.setattr("tqd.analysis._ks_statistic", lambda *args: float("nan"))
    manifest = tmp_path / "flat.jsonl"
    _write_lines(manifest, [{"id": "r", "mq": 2.5, "vq": 2.5}])
    code = main(["sample-stats", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric error: non-finite goodness-of-fit statistic")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


# --- train ---------------------------------------------------------------------


def test_train_writes_checkpoint_and_log(tmp_path, capsys):
    manifest = _quadrant_manifest(tmp_path / "scores.jsonl")
    out = tmp_path / "out"
    code = main(["train", "--manifest", str(manifest), "--out", str(out),
                 "--steps", "10", "--seed", "0"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "quality-aware arm for 10 steps on 4 records" in stdout
    assert "final loss (trailing mean):" in stdout
    (run_dir,) = _run_dirs(out)
    model, header = load_checkpoint(run_dir / "checkpoint.bin")
    assert model.data_shape == (2, 5, 5)
    assert header["step"] == 10
    log_lines = (run_dir / "training_log.csv").read_text().strip().split("\n")
    assert log_lines[0] == "step,loss,mean_t,batch_acceptance_rate"
    assert len(log_lines) == 11


def test_train_is_reproducible_from_echoed_config(tmp_path, capsys):
    manifest = _quadrant_manifest(tmp_path / "scores.jsonl")
    out1 = tmp_path / "out1"
    assert main(["train", "--manifest", str(manifest), "--out", str(out1),
                 "--steps", "10", "--seed", "3"]) == 0
    (run1,) = _run_dirs(out1)

    out2 = tmp_path / "out2"
    assert main(["train", "--config", str(run1 / "resolved_config.json"),
                 "--out", str(out2)]) == 0
    (run2,) = _run_dirs(out2)
    assert run1.name == run2.name
    assert (run1 / "training_log.csv").read_bytes() == \
        (run2 / "training_log.csv").read_bytes()
    assert (run1 / "checkpoint.bin").read_bytes() == \
        (run2 / "checkpoint.bin").read_bytes()


def test_train_flag_overrides_config_value(tmp_path, capsys):
    manifest = _quadrant_manifest(tmp_path / "scores.jsonl")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"steps": 5}))
    code = main(["train", "--manifest", str(manifest), "--config", str(config),
                 "--out", str(tmp_path / "out"), "--steps", "7", "--seed", "0"])
    assert code == 0
    assert "for 7 steps" in capsys.readouterr().out


def test_train_baseline_accepts_all(tmp_path, capsys):
    manifest = _quadrant_manifest(tmp_path / "scores.jsonl")
    out = tmp_path / "out"
    code = main(["train", "--manifest", str(manifest), "--out", str(out),
                 "--steps", "8", "--seed", "0", "--baseline"])
    assert code == 0
    assert "baseline arm" in capsys.readouterr().out
    (run_dir,) = _run_dirs(out)
    for line in (run_dir / "training_log.csv").read_text().strip().split("\n")[1:]:
        assert float(line.split(",")[3]) == 1.0


def test_train_zero_steps_writes_initial_checkpoint(tmp_path, capsys):
    manifest = _quadrant_manifest(tmp_path / "scores.jsonl")
    out = tmp_path / "out"
    code = main(["train", "--manifest", str(manifest), "--out", str(out),
                 "--steps", "0", "--seed", "0"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "final loss" not in stdout
    (run_dir,) = _run_dirs(out)
    _, header = load_checkpoint(run_dir / "checkpoint.bin")
    assert header["step"] == 0
    log_lines = (run_dir / "training_log.csv").read_text().strip().split("\n")
    assert log_lines == ["step,loss,mean_t,batch_acceptance_rate"]


def test_train_filter_keeps_named_quadrants(tmp_path, capsys):
    manifest = _quadrant_manifest(tmp_path / "scores.jsonl")
    code = main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
                 "--steps", "5", "--seed", "0", "--filter", "quadrant=HMLV,LMHV"])
    assert code == 0
    assert "on 2 records" in capsys.readouterr().out


@pytest.mark.parametrize("given, code, expected", [
    (["--filter", "quadrant=XXXX"], 1, "unknown quadrant 'XXXX'"),
    (["--filter", "speed=2"], 1, "unsupported filter 'speed=2'"),
    (["--filter", "quadrant="], 1, "empty quadrant filter"),
    ({"filter_quadrants": ["XXXX"]}, 3, "config key filter_quadrants"),
], ids=["unknown-quadrant", "other-key", "no-quadrants", "unknown-config-quadrant"])
def test_train_filter_validates_quadrant_names(tmp_path, capsys, given, code, expected):
    manifest = _quadrant_manifest(tmp_path / "scores.jsonl")
    if isinstance(given, dict):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(given))
        given = ["--config", str(config)]
    out = tmp_path / "out"
    assert main(["train", "--manifest", str(manifest), "--out", str(out), "--steps", "5",
                 *given]) == code
    err = capsys.readouterr().err
    assert err.startswith("usage error: " if code == 1 else "data error: ")
    assert expected in err and err.count("\n") == 1
    assert not out.exists()


def test_train_filter_to_nothing_is_data_error(tmp_path, capsys):
    manifest = tmp_path / "scores.jsonl"
    _write_lines(manifest, [
        {"id": "a", "mq": 2.0, "vq": 2.0, "payload": _synth_ref(1.0, 1)},
        {"id": "b", "mq": 2.1, "vq": 2.1, "payload": _synth_ref(1.0, 2)},
    ])
    # thresholds above every score; at the medians, b would be HMHV
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mq_threshold": 2.5, "vq_threshold": 2.7}))
    code = main(["train", "--manifest", str(manifest), "--config", str(config),
                 "--out", str(tmp_path / "out"), "--steps", "5", "--filter", "quadrant=HMHV"])
    assert code == 3
    assert "no records left" in capsys.readouterr().err


def test_train_missing_payload_is_data_error(tmp_path, capsys):
    # no payload, a missing file and unusable synth references all fail
    # before the run directory is made
    manifest = tmp_path / "scores.jsonl"
    for payload, expected in [(None, "bare"), ("absent.tvid", "absent.tvid"),
                              ("synth:sped=2", "sped"), ("synth:frames=inf", "frames")]:
        row = {"id": "bare", "mq": 2.0, "vq": 2.1}
        _write_lines(manifest, [row if payload is None else {**row, "payload": payload}])
        code = main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
                     "--steps", "5"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert expected in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["mixed-shapes", "zero-frames", "nan-pixels"])
def test_bad_payload_video_fails_before_the_run_directory(tmp_path, capsys, case, write_tvid):
    video = generate_moving_shape(motion_speed=1.0, texture_noise=0.02, seed=9,
                                  frames=2, height=5, width=5)
    if case == "zero-frames":
        video = ToyVideo(np.zeros((0, 5, 5)))
    elif case == "nan-pixels":
        video.frames[1, 2, 3] = np.nan
    write_tvid(video, tmp_path / "clip.tvid")
    second = _synth_ref(1.5, 5)
    if case == "mixed-shapes":
        second = second.replace("frames=2", "frames=3")
    manifest = tmp_path / "scores.jsonl"
    _write_lines(manifest, [
        {"id": "file", "mq": 2.0, "vq": 2.1, "payload": "clip.tvid"},
        {"id": "synth", "mq": 2.2, "vq": 2.0, "payload": second},
    ])
    out = tmp_path / "out"
    code = main(["train", "--manifest", str(manifest), "--out", str(out), "--steps", "5"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    expected = {"mixed-shapes": ["shape mismatch"],
                "zero-frames": ["clip.tvid", "(0, 5, 5)"],
                "nan-pixels": ["clip.tvid", "non-finite pixels"]}[case]
    assert all(part in err for part in expected)
    assert not out.exists()


def test_noisy_train_is_the_robustness_sweep_row(tmp_path):
    # the sweep seeds its scorer noise as `train --noise-level` does, by
    # the trainer seed, so its row at a level is that command's final loss
    manifest = _quadrant_manifest(tmp_path / "scores.jsonl")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"steps": 20, "hidden_width": 16, "batch_size": 4}))
    out = tmp_path / "out"
    assert main(["train", "--manifest", str(manifest), "--config", str(config),
                 "--noise-level", "0.1", "--seed", "3", "--out", str(out)]) == 0
    (run_dir,) = _run_dirs(out)
    rows = (run_dir / "training_log.csv").read_text().strip().split("\n")[1:]
    logged = TrainState(model=None, step=len(rows),
                        loss_history=[float(row.split(",")[1]) for row in rows])

    records = read_manifest(manifest)
    dataset = [(rec, resolve_payload(rec.payload_ref)) for rec in records]
    sweep = robustness_sweep(dataset, [0.0, 0.1], SamplerConfig(batch_size=4),
                             TrainerConfig(steps=20, hidden_width=16, seed=3))
    assert sweep[1].noise_level == 0.1
    assert sweep[1].final_loss == final_loss(logged)


def test_train_rejects_negative_flags(tmp_path, capsys):
    manifest = _quadrant_manifest(tmp_path / "scores.jsonl")
    assert main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "o"),
                 "--steps", "-1"]) == 1
    assert main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "o"),
                 "--steps", "5", "--noise-level", "-0.5"]) == 1
    assert main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "o"),
                 "--steps", "5", "--noise-level", "abc"]) == 1
    assert "finite number" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "sample-stats", "probe"])
def test_negative_seed_flag_is_one_line_usage_error(tmp_path, capsys, command):
    manifest = _quadrant_manifest(tmp_path / "scores.jsonl")
    ckpt, _ = _tiny_probe_setup(tmp_path)
    inputs = ["--model", str(ckpt)] if command == "probe" else ["--manifest", str(manifest)]
    code = main([command, *inputs, "--out", str(tmp_path / "o"), "--seed", "-1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "--seed" in err


def test_train_resolves_file_payload_against_manifest_dir(tmp_path, capsys, write_tvid):
    video = generate_moving_shape(motion_speed=1.0, texture_noise=0.02, seed=9,
                                  frames=2, height=5, width=5)
    write_tvid(video, tmp_path / "clip.tvid")
    manifest = tmp_path / "scores.jsonl"
    _write_lines(manifest, [
        {"id": "file", "mq": 2.0, "vq": 2.1, "payload": "clip.tvid"},
        {"id": "synth", "mq": 2.2, "vq": 2.0, "payload": _synth_ref(1.5, 5)},
    ])
    code = main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
                 "--steps", "5", "--seed", "0"])
    assert code == 0
    assert "on 2 records" in capsys.readouterr().out


# --- probe -----------------------------------------------------------------------


def _tiny_probe_setup(tmp_path, strength=0.0, kinds=("blur",)):
    model = VelocityModel.init((2, 5, 5), seed=2, hidden_width=8,
                               zero_final=False)
    ckpt = tmp_path / "model.bin"
    save_checkpoint(model, ckpt, step=42)
    config = tmp_path / "probe.json"
    config.write_text(json.dumps({
        "samples": {"n": 3, "frames": 2, "height": 5, "width": 5,
                    "speed_min": 1.0, "speed_max": 2.0, "texture_noise": 0.02},
        "degradations": [{"kind": k, "strength": strength, "seed": 1} for k in kinds],
        "n_noise": 2,
    }))
    return ckpt, config


def test_probe_zero_strength_gives_zero_curves(tmp_path, capsys):
    ckpt, config = _tiny_probe_setup(tmp_path, strength=0.0)
    out = tmp_path / "out"
    code = main(["probe", "--model", str(ckpt), "--config", str(config),
                 "--out", str(out)])
    assert code == 0
    assert "model step 42" in capsys.readouterr().out
    (run_dir,) = _run_dirs(out)
    csv_files = sorted(run_dir.glob("probe_*.csv"))
    assert len(csv_files) == 1
    lines = csv_files[0].read_text().strip().split("\n")
    # default grid has nine timesteps
    assert len(lines) == 10
    for line in lines[1:]:
        assert float(line.split(",")[3]) == 0.0


def test_probe_writes_one_csv_per_degradation(tmp_path, capsys):
    ckpt, config = _tiny_probe_setup(tmp_path, strength=0.5,
                                     kinds=("blur", "noise", "shuffle"))
    out = tmp_path / "out"
    code = main(["probe", "--model", str(ckpt), "--config", str(config),
                 "--out", str(out)])
    assert code == 0
    (run_dir,) = _run_dirs(out)
    names = sorted(p.name for p in run_dir.glob("probe_*.csv"))
    assert names == ["probe_00_blur.csv", "probe_01_noise.csv", "probe_02_shuffle.csv"]


def test_probe_shape_mismatch_is_artifact_error(tmp_path, capsys):
    model = VelocityModel.init((2, 4, 4), seed=2, hidden_width=8)
    ckpt = tmp_path / "model.bin"
    save_checkpoint(model, ckpt)
    config = tmp_path / "probe.json"
    config.write_text(json.dumps({
        "samples": {"n": 2, "frames": 2, "height": 5, "width": 5,
                    "speed_min": 1.0, "speed_max": 2.0, "texture_noise": 0.0},
        "n_noise": 2,
    }))
    code = main(["probe", "--model", str(ckpt), "--config", str(config),
                 "--out", str(tmp_path / "out")])
    assert code == 5
    assert "data shape" in capsys.readouterr().err


def test_probe_defaults_take_the_checkpoint_clip_size(tmp_path, capsys):
    # a probe at its defaults runs on a checkpoint of any clip size, here
    # the training-win ladder's 2x10x10, and echoes the size it used
    model = VelocityModel.init((2, 10, 10), seed=2, hidden_width=16, zero_final=False)
    ckpt = tmp_path / "model.bin"
    save_checkpoint(model, ckpt)
    out1 = tmp_path / "out1"
    assert main(["probe", "--model", str(ckpt), "--out", str(out1)]) == 0
    (run1,) = _run_dirs(out1)
    echo = json.loads((run1 / "resolved_config.json").read_text())
    samples = echo["params"]["samples"]
    assert (samples["frames"], samples["height"], samples["width"]) == (2, 10, 10)

    out2 = tmp_path / "out2"
    assert main(["probe", "--config", str(run1 / "resolved_config.json"),
                 "--out", str(out2)]) == 0
    (run2,) = _run_dirs(out2)
    assert run1.name == run2.name
    written = {p.name: p.read_bytes() for p in run1.iterdir()}
    assert len(written) == 5
    assert written == {p.name: p.read_bytes() for p in run2.iterdir()}


def test_probe_corrupt_checkpoint_is_artifact_error(tmp_path, capsys):
    ckpt = tmp_path / "junk.bin"
    ckpt.write_bytes(b"JUNKJUNKJUNK")
    code = main(["probe", "--model", str(ckpt), "--out", str(tmp_path / "out")])
    assert code == 5
    assert "not a checkpoint" in capsys.readouterr().err


def _fail_if_blocked(signum, frame):
    pytest.fail("a reader opened a FIFO and blocked")


@pytest.mark.parametrize("kind", ["dev-zero", "fifo"])
@pytest.mark.parametrize("reader, code, prefix", [
    ("checkpoint", 5, "artifact error: "),
    ("payload", 3, "data error: "),
    ("manifest", 2, "io error: "),
    ("config", 2, "io error: "),
], ids=["checkpoint", "payload", "manifest", "config"])
def test_input_that_is_not_a_regular_file_is_one_line(tmp_path, capsys, kind, reader,
                                                      code, prefix):
    # refused from os.stat, before it is opened: /dev/zero would be read
    # until memory runs out, and opening a FIFO blocks
    if kind == "dev-zero":
        special = "/dev/zero"
    else:
        special = str(tmp_path / "pipe")
        os.mkfifo(special)
    manifest = _quadrant_manifest(tmp_path / "scores.jsonl")
    out = tmp_path / "out"
    argv = {
        "checkpoint": ["probe", "--model", special],
        "payload": ["train", "--manifest", str(manifest), "--steps", "1"],
        "manifest": ["curate", "--manifest", special],
        "config": ["curate", "--manifest", str(manifest), "--config", special],
    }[reader]
    if reader == "payload":
        _write_lines(manifest, [{"id": "a", "mq": 2.0, "vq": 2.1, "payload": special}])
    previous = signal.signal(signal.SIGALRM, _fail_if_blocked)
    signal.alarm(20)
    try:
        assert main([*argv, "--out", str(out)]) == code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1
    assert "Traceback" not in err and "not a regular file" in err and special in err
    assert not out.exists()


def _write_raw_checkpoint(path, data_shape, hidden_width, stated=None):
    """A checkpoint whose header states any architecture, with as many
    zero parameters as that architecture counts; stated replaces header
    values after the count."""
    n_params = param_count(int(np.prod(data_shape)), hidden_width)
    header = json.dumps({"data_shape": data_shape, "hidden_width": hidden_width,
                         "n_freqs": N_FREQS, "param_count": n_params, "step": 0,
                         "seed": None, **(stated or {})}, sort_keys=True).encode()
    path.write_bytes(b"TQDC" + struct.pack("<I", len(header)) + header
                     + np.zeros(max(n_params, 0)).tobytes())


@pytest.mark.parametrize("data_shape, hidden_width, stated", [
    ([2, 5, 5], 0, None), ([2, 5, 5], 8, {"n_freqs": 0}), ([2, 5, 5], 8, {"n_freqs": 16}),
    ([2, 0, 5], 8, None),
    ([2, 5, 5], -1, None), ([10, 5], 8, None),
    # the parameters fit the architecture that the stated value would be
    # rounded to, so only the value's JSON type is wrong
    ([2, 5, 5], 8, {"param_count": "abc"}), ([2, 5, 5], 8, {"param_count": None}),
    ([2, 5, 5], 8, {"param_count": [1]}), ([2, 5, 5], 8, {"data_shape": [2.7, 5, 5]}),
    ([2, 5, 5], 8, {"data_shape": "255"}), ([2, 5, 5], 1, {"hidden_width": True}),
    ([2, 5, 5], 8, {"n_freqs": float(N_FREQS)}),
    # sizes the parameters cannot match: a pixel count that wraps to 0 in
    # int64, and a width over the limit
    ([2, 5, 5], 8, {"data_shape": [2**32, 2**32, 1]}),
    ([2, 5, 5], 8, {"hidden_width": MAX_HIDDEN_WIDTH + 1}),
    # an integer count that the parameters and the architecture disagree with
    ([2, 5, 5], 8, {"param_count": 1}),
], ids=["zero-width", "zero-freqs", "wrong-freqs", "zero-height", "negative-width", "two-dims",
        "string-count", "null-count", "list-count", "float-dim", "string-shape",
        "bool-width", "float-freqs", "wrapping-pixel-count", "width-over-limit",
        "wrong-count"])
def test_probe_checkpoint_without_valid_architecture_is_artifact_error(
        tmp_path, capsys, data_shape, hidden_width, stated):
    _, config = _tiny_probe_setup(tmp_path)
    ckpt = tmp_path / "bad.bin"
    _write_raw_checkpoint(ckpt, data_shape, hidden_width, stated)
    out = tmp_path / "out"
    code = main(["probe", "--model", str(ckpt), "--config", str(config), "--out", str(out)])
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith("artifact error: ") and err.count("\n") == 1
    assert not out.exists()


def test_probe_requires_model(tmp_path, capsys):
    code = main(["probe", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "--model" in capsys.readouterr().err


# --- config values -------------------------------------------------------------


@pytest.mark.parametrize("command, config, manifest_rows", [
    ("train", {}, [{"id": "a"}, {"id": "a"}]),
    ("train", {}, [{"id": "a", "payload": 5}, {"id": "b"}]),
    ("train", {"steps": 2.5}, None),
    ("train", {"baseline": "no"}, None),
    ("sample-stats", {"kappa_base": "abc"}, None),
    ("sample-stats", {"n_draws": "many"}, None),
    ("probe", {"n_noise": 2.7}, None),
    ("probe", {"degradations": [{"kind": "blur", "strength": float("nan")}]}, None),
    ("train", "{not json", None),
    ("train", "[1, 2]", None),
    ("train", {"command": "train", "params": [1]}, None),
    ("train", {"seed": -2}, None),
    ("probe", {"seed": -4}, None),
    ("probe", {"t_grid": []}, None),
    ("probe", {"degradations": []}, None),
    ("probe", {"degradations": [{"kind": "blur", "strength": 1.0, "seed": -3}]}, None),
    ("probe", {"samples": {"speed_min": 3, "speed_max": 1}}, None),
    ("probe", {"samples": {"frames": 0}}, None),
    ("probe", {"t_grid": [0.0, 0.5]}, None),
    ("sample-stats", {"n_draws": 500}, None),
    ("probe", {"n_noise": 0}, None),
    ("probe", {"degradations": [{"kind": "compression", "strength": 1.0}]}, None),
    ("probe", {"degradations": [{"kind": "shuffle", "strength": 2.0}]}, None),
    ("train", {"min_shape": 0.3}, None),
    ("sample-stats", {"hidden_width": 64}, None),
    ("probe", {"samples": {"fps": 8}}, None),
    ("probe", {"degradations": [{"kind": "blur", "strength": 1.0, "radius": 2}]}, None),
    ("probe", {"degradations": [{"strength": 1.0}]}, None),
    ("sample-stats", {"n_draws": 0}, None),
    ("train", b'{"steps": "\xff"}', None),
    ("train", {"noise_level": -0.5}, None),
    ("train", '{"steps": 1' + "0" * 5000 + "}", None),
    ("probe", {"degradations": [{"kind": "blur", "strength": 1e300}]}, None),
    ("sample-stats", {"kappa_max": 1e308}, None),
    ("train", {"batch_size": 10**11}, None),
    ("train", {"hidden_width": 10**15}, None),
    ("train", {}, [{"id": "a", "payload": "synth:speed=1,frames=1000000000000000,"
                                          "height=100000,width=100000"}, {"id": "b"}]),
    ("train", {}, [{"id": "a", "payload": "synth:speed=1,frames=1,height=256,width=257"},
                   {"id": "b"}]),
    ("probe", {"samples": {"n": 1, "frames": 10**15, "height": 10**5, "width": 10**5}}, None),
    ("probe", {"samples": {"frames": 1, "height": 256, "width": 257}}, None),
    ("probe", {"n_noise": 10**18}, None),
    ("probe", {"n_noise": MAX_N_NOISE + 1}, None),
    ("probe", {"samples": {"n": MAX_PROBE_SAMPLES + 1}}, None),
    ("probe", {"t_grid": [(j + 1) / (MAX_PROBE_TIMESTEPS + 2)
                          for j in range(MAX_PROBE_TIMESTEPS + 1)]}, None),
    ("probe", {"degradations": [{"kind": "blur", "strength": 1.0}]
               * (MAX_PROBE_DEGRADATIONS + 1)}, None),
    ("sample-stats", {"seed": -1}, None),
    ("sample-stats", {"batch_size": 16}, None),
    ("sample-stats", {"n_draws": 10**12}, None),
    ("sample-stats", {"n_draws": MAX_HISTOGRAM_DRAWS + 1}, None),
    ("train", {}, [{"id": "a", "payload": "synth:speed=1,start=nan,frames=2,height=5,width=5"},
                   {"id": "b"}]),
    ("probe", {"samples": {"speed_min": 1e308, "speed_max": 1e308, "frames": 8}}, None),
    ("probe", {"samples": {"speed_min": -1e308, "speed_max": 1e308}}, None),
    ("probe", {"samples": {"frames": 1, "height": 1, "width": 10**400}}, None),
], ids=["duplicate-ids", "non-string-payload", "float-steps", "string-baseline", "string-kappa",
        "string-draws", "float-n-noise", "nan-strength", "malformed-json",
        "non-object", "non-object-params", "negative-seed", "negative-probe-seed", "empty-t-grid",
        "no-degradations", "negative-degradation-seed", "inverted-speed-range",
        "zero-frames", "t-grid-out-of-range", "too-few-draws", "zero-n-noise",
        "one-level-compression", "shuffle-fraction-two", "unknown-key",
        "other-command-key", "unknown-samples-key", "unknown-degradation-key",
        "degradation-without-kind", "zero-draws", "non-utf8", "negative-noise-level",
        "over-long-int", "huge-blur-radius", "huge-kappa-max", "huge-batch-size",
        "huge-hidden-width", "huge-payload-clip", "payload-clip-over-limit",
        "huge-probe-clip", "probe-clip-over-limit", "huge-n-noise", "n-noise-over-limit",
        "probe-samples-over-limit", "t-grid-over-limit", "degradations-over-limit",
        "negative-stats-seed", "stats-batch-size",
        "huge-draws", "draws-over-limit", "nan-payload-start", "overflowing-probe-path",
        "infinite-speed-range", "huge-probe-width"])
def test_bad_config_or_manifest_is_one_line_data_error(
        tmp_path, capsys, command, config, manifest_rows):
    manifest = _quadrant_manifest(tmp_path / "scores.jsonl")
    if manifest_rows is not None:
        _write_lines(manifest, [{"mq": 2.0 + i, "vq": 2.0, "payload": _synth_ref(1.0, i),
                                 **row} for i, row in enumerate(manifest_rows)])
        # the manifest is bad in the library, before the CLI sees it
        with pytest.raises(DataError, match="duplicate|payload|pixels"):
            for rec in read_manifest(manifest):
                resolve_payload(rec.payload_ref)
    ckpt, probe_config = _tiny_probe_setup(tmp_path)
    if command == "probe":
        # the bad value rides on a config that otherwise fits the checkpoint
        base = json.loads(probe_config.read_text())
        config = {**base, **config,
                  "samples": {**base["samples"], **config.get("samples", {})}}
    path = tmp_path / "config.json"
    if isinstance(config, bytes):
        path.write_bytes(config)
    else:
        path.write_text(config if isinstance(config, str) else json.dumps(config))
    inputs = ["--model", str(ckpt)] if command == "probe" else ["--manifest", str(manifest)]
    out = tmp_path / "out"
    code = main([command, *inputs, "--config", str(path), "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    # the run directory is made only once a command has its results
    assert not out.exists()


def _cli(args, out, env=None):
    """Run the CLI in a subprocess, so that numpy's RuntimeWarnings
    would reach the captured stderr."""
    return subprocess.run([sys.executable, "-m", "tqd.cli", *args, "--out", str(out)],
                          capture_output=True, text=True, env=env)


def test_probe_defaults_write_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    # the README's promise: every product the probe makes rounds alike
    # however OpenBLAS splits it, at the default shape where D > H
    model = VelocityModel.init((8, 16, 16), seed=1, hidden_width=128, zero_final=False)
    ckpt = tmp_path / "model.bin"
    save_checkpoint(model, ckpt)
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        res = _cli(["probe", "--model", str(ckpt)], out,
                   env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
        assert res.returncode == 0, res.stderr
        (run_dir,) = _run_dirs(out)
        written.append({p.name: p.read_bytes() for p in run_dir.glob("probe_*.csv")})
    assert len(written[0]) == 4
    assert written[0] == written[1]


@pytest.mark.parametrize("case", ["diverging-train", "overflowing-W2", "overflowing-W3",
                                  "starved-sampler", "overflowing-W3-gram"])
def test_numeric_failure_is_one_stderr_line(tmp_path, case):
    if case == "diverging-train":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"learning_rate": 1e300}))
        args = ["train", "--manifest", str(_quadrant_manifest(tmp_path / "scores.jsonl")),
                "--config", str(config), "--steps", "5"]
    elif case == "starved-sampler":
        # one retainable record among 2000: the rejection loop runs out
        # of attempts while filling the first batch
        manifest = tmp_path / "scores.jsonl"
        ref = "synth:speed=1.0,noise=0.0,seed=0,frames=1,height=3,width=3"
        _write_lines(manifest, [{"id": f"r{i}", "mq": 1.0 + (i == 0), "vq": 1.0 + (i == 0),
                                 "payload": ref} for i in range(2000)])
        args = ["train", "--manifest", str(manifest), "--steps", "5"]
    else:
        ckpt, config = _tiny_probe_setup(tmp_path, strength=1.0)
        model, _ = load_checkpoint(ckpt)
        # W3 at 1e200 keeps the output layer finite, but W3 W3^T overflows
        layer, value = {"overflowing-W2": ("W2", 1e308), "overflowing-W3": ("W3", 1e150),
                        "overflowing-W3-gram": ("W3", 1e200)}[case]
        model.views()[layer][...] = value
        save_checkpoint(model, ckpt, step=42)
        args = ["probe", "--model", str(ckpt), "--config", str(config)]
    out = tmp_path / "out"
    res = _cli(args, out)
    code, kind = (3, "data") if case == "starved-sampler" else (4, "numeric")
    assert res.returncode == code
    assert res.stderr.startswith(f"{kind} error: ") and res.stderr.count("\n") == 1
    assert case != "starved-sampler" or "cap exhausted" in res.stderr
    # a failed run leaves no run directory
    assert not out.exists()


def test_curate_on_opposite_extreme_scores_is_silent_and_matches_scipy(tmp_path):
    # max - min of mq overflows; the mean and the norms do not
    manifest = tmp_path / "scores.jsonl"
    pairs = [(1e308, 1.0), (-1e308, 2.0), (0.0, 3.0)]
    _write_lines(manifest, [{"id": f"r{i}", "mq": mq, "vq": vq}
                            for i, (mq, vq) in enumerate(pairs)])
    res = _cli(["curate", "--manifest", str(manifest)], tmp_path / "out")
    assert res.returncode == 0 and res.stderr == ""
    (run_dir,) = _run_dirs(tmp_path / "out")
    report = json.loads((run_dir / "quadrant_report.json").read_text())
    ref = scipy_stats.pearsonr(*np.array(pairs).T)
    assert (report["pearson_r"], report["p_value"]) == (ref.statistic, ref.pvalue)


@pytest.mark.parametrize("command, mq, expected", [
    ("curate", [1e308, 1e308, 0.0], "mq scores are too large"),
    ("sample-stats", [1e308, -1e308, 0.0], "mq score range"),
    ("train --noise-level 0.1", [1e308, -1e308, 0.0], "mq score range"),
], ids=["curate-mean-overflows", "sample-stats-range-overflows",
        "train-noise-range-overflows"])
def test_overflowing_scores_are_one_line_data_error(tmp_path, command, mq, expected):
    manifest = tmp_path / "scores.jsonl"
    _write_lines(manifest, [{"id": f"r{i}", "mq": m, "vq": 1.0 + i} for i, m in enumerate(mq)])
    out = tmp_path / "out"
    res = _cli([*command.split(), "--manifest", str(manifest)], out)
    assert res.returncode == 3
    assert res.stderr.startswith("data error: ") and res.stderr.count("\n") == 1
    assert expected in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("row, key", [
    ({"id": None}, "id"),
    ({"id": "a", "mq": True}, "mq"),
    ({"id": "a", "vq": "2.5"}, "vq"),
    ({"id": "a", "mq": int("1" + "0" * 400)}, "non-finite"),
], ids=["null-id", "bool-mq", "string-vq", "overflowing-int-mq"])
def test_manifest_value_of_wrong_type_is_one_line_data_error(tmp_path, capsys, row, key):
    manifest = tmp_path / "scores.jsonl"
    _write_lines(manifest, [{"mq": 2.0, "vq": 2.0, **row}])
    out = tmp_path / "out"
    code = main(["curate", "--manifest", str(manifest), "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert key in err
    assert not out.exists()


# --- entry point -------------------------------------------------------------------


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_module_invocation_smoke():
    res = subprocess.run([sys.executable, "-m", "tqd.cli", "--help"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    for name in ("curate", "sample-stats", "train", "probe"):
        assert name in res.stdout


def test_cli_import_leaves_out_scipy_stats():
    code = "import sys, tqd.cli; print('scipy.stats' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"


def test_cli_import_leaves_out_scipy_special_and_ndimage():
    # each command imports the scipy module it uses when it runs
    code = ("import sys, tqd.cli; "
            "print([m for m in ('scipy.special', 'scipy.ndimage') if m in sys.modules])")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_package_import_loads_no_submodule():
    code = ("import sys, tqd; "
            "print(tqd.__version__); "
            "print(sorted(m for m in sys.modules if m.startswith('tqd.')))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["0.1.0", "[]"]
