"""Tests for the diagnostics layer: gradient probe, timestep statistics,
robustness sweep, and quadrant reporting."""

import numpy as np
import pytest
from scipy.special import betainc

from tqd.analysis import (
    GradientProbeCurve,
    HistogramReport,
    SweepRow,
    gradient_probe,
    histogram_csv,
    probe_curves_csv,
    quadrant_report,
    robustness_sweep,
    sweep_csv,
    timestep_histogram,
)
from tqd.errors import DataError
from tqd.quality import QualityRecord, normalize_scores, synth_population
from tqd.sampler import SamplerConfig, make_law
from tqd.synth import DegradationSpec, generate_moving_shape
from tqd.trainer import TrainerConfig, VelocityModel, final_loss, train


def _video(seed=0, speed=1.0, tex=0.05, frames=2, height=5, width=5):
    return generate_moving_shape(motion_speed=speed, texture_noise=tex, seed=seed,
                                 frames=frames, height=height, width=width)


def _probe_model(seed=3):
    return VelocityModel.init((2, 5, 5), seed=seed, hidden_width=8, n_freqs=2,
                              zero_final=False)


# --- gradient probe ----------------------------------------------------------


def test_zero_strength_degradations_give_zero_curves():
    # identity degradation plus common random numbers means the original
    # and degraded gradients are the same array
    model = _probe_model()
    samples = [_video(seed=s) for s in range(3)]
    specs = [DegradationSpec(kind, 0.0, seed=1)
             for kind in ("blur", "compression", "noise")]
    curves = gradient_probe(model, samples, specs, t_grid=[0.2, 0.5, 0.8], n_noise=4)
    assert len(curves) == 3
    for curve in curves:
        assert curve.n_samples == 3
        for _, dist in curve.points:
            assert dist == 0.0


def test_shuffle_on_static_video_gives_zero_curve():
    # frame order carries no information when every frame is identical
    model = _probe_model()
    static = [_video(seed=s, speed=0.0, tex=0.0) for s in range(2)]
    curves = gradient_probe(model, static, [DegradationSpec("shuffle", 1.0, seed=5)],
                            t_grid=[0.3, 0.7], n_noise=4)
    for _, dist in curves[0].points:
        assert dist == 0.0


def test_real_degradation_gives_positive_curve():
    model = _probe_model()
    samples = [_video(seed=s, speed=2.0) for s in range(2)]
    curves = gradient_probe(model, samples, [DegradationSpec("noise", 0.5, seed=5)],
                            t_grid=[0.3, 0.7], n_noise=4)
    for _, dist in curves[0].points:
        assert dist > 0.0


def test_probe_default_grid_and_metadata():
    model = _probe_model()
    curves = gradient_probe(model, [_video()], [DegradationSpec("blur", 1.0, seed=2)],
                            n_noise=2)
    (curve,) = curves
    assert curve.kind == "blur"
    assert curve.strength == 1.0
    assert [t for t, _ in curve.points] == [round(0.1 * k, 1) for k in range(1, 10)]


def test_probe_is_deterministic():
    model = _probe_model()
    samples = [_video(seed=s, speed=1.5) for s in range(3)]
    specs = [DegradationSpec("noise", 0.3, seed=7), DegradationSpec("blur", 2.0, seed=8)]

    def run():
        return gradient_probe(model, samples, specs, t_grid=[0.2, 0.6], n_noise=4,
                              noise_seed=9)

    for a, b in zip(run(), run()):
        assert a.points == b.points


def test_probe_validates_inputs():
    model = _probe_model()
    spec = DegradationSpec("blur", 1.0, seed=0)
    with pytest.raises(DataError, match="at least one sample"):
        gradient_probe(model, [], [spec])
    with pytest.raises(DataError, match="open interval"):
        gradient_probe(model, [_video()], [spec], t_grid=[0.0, 0.5])
    with pytest.raises(DataError, match="strictly increasing"):
        gradient_probe(model, [_video()], [spec], t_grid=[0.5, 0.5])
    with pytest.raises(DataError, match="at least one timestep"):
        gradient_probe(model, [_video()], [spec], t_grid=[])
    with pytest.raises(DataError, match="at least one degradation"):
        gradient_probe(model, [_video()], [])


def test_probe_curve_invariants():
    with pytest.raises(DataError, match="strictly increasing"):
        GradientProbeCurve(kind="blur", strength=1.0,
                           points=[(0.5, 0.1), (0.2, 0.1)], n_samples=1)
    with pytest.raises(DataError, match="negative"):
        GradientProbeCurve(kind="blur", strength=1.0,
                           points=[(0.2, -0.1)], n_samples=1)
    curve = GradientProbeCurve(kind="blur", strength=1.0,
                               points=[(0.1, 0.4), (0.9, 0.2)], n_samples=1)
    assert curve.distance_at(0.9) == 0.2
    with pytest.raises(DataError, match="no probe point"):
        curve.distance_at(0.5)


# --- timestep histogram ---------------------------------------------------------


def _norm_record(rid, mq, vq):
    return QualityRecord(id=rid, mq_raw=3.0, vq_raw=3.0, mq_norm=mq, vq_norm=vq)


def test_uniform_degenerate_histogram_passes_both_tests():
    # equal scores with kappa_base 2 reduce every law to Beta(1, 1); the
    # draws must look uniform to both the pooled chi-square and the KS
    # statistic
    records = [_norm_record(f"r{i}", 0.5, 0.5) for i in range(4)]
    report = timestep_histogram(records, SamplerConfig(seed=0), n_draws=5000, n_bins=20)
    assert report.n_draws == 5000
    assert report.chi_square_pvalue > 0.001
    assert report.ks_stat < 0.05
    assert sum(obs for _, _, obs, _ in report.bins) == 5000
    for _, _, _, exp in report.bins:
        np.testing.assert_allclose(exp, 5000 / 20, rtol=1e-9)


def test_high_motion_record_concentrates_mass_high():
    # observed draw mass above one half against the analytic Beta tail,
    # reached through a different code path than the sampler itself
    rec = _norm_record("hm", 1.0, 0.2)
    cfg = SamplerConfig(seed=1)
    report = timestep_histogram([rec], cfg, n_draws=5000, n_bins=20)
    observed_hi = sum(obs for lo, _, obs, _ in report.bins if lo >= 0.5) / 5000
    law = make_law(rec, cfg)
    analytic_hi = 1.0 - betainc(law.alpha, law.beta, 0.5)
    assert observed_hi > 0.9
    assert abs(observed_hi - analytic_hi) < 0.015
    assert report.chi_square_pvalue > 0.001


def test_low_motion_record_mirrors_high_motion():
    # swapping the two quality scores swaps the Beta shape parameters
    hm = _norm_record("hm", 1.0, 0.2)
    lm = _norm_record("lm", 0.2, 1.0)
    cfg = SamplerConfig(seed=2)
    law_h = make_law(hm, cfg)
    law_l = make_law(lm, cfg)
    np.testing.assert_allclose(law_h.alpha, law_l.beta, rtol=1e-12)
    np.testing.assert_allclose(law_h.beta, law_l.alpha, rtol=1e-12)
    report = timestep_histogram([lm], cfg, n_draws=5000, n_bins=20)
    observed_lo = sum(obs for _, hi, obs, _ in report.bins if hi <= 0.5) / 5000
    assert observed_lo > 0.9


def test_clamped_extreme_law_keeps_censored_ks_small():
    # mu == 1 clamps beta to the minimum shape; the law then carries real
    # mass beyond float resolution near 1, which the censored reference
    # absorbs into a boundary atom
    rec = _norm_record("ext", 1.0, 0.0)
    report = timestep_histogram([rec], SamplerConfig(seed=3), n_draws=5000, n_bins=20)
    assert report.ks_stat < 0.05


def test_histogram_validates_arguments():
    records = [_norm_record("r", 0.5, 0.5)]
    with pytest.raises(DataError, match="1000"):
        timestep_histogram(records, SamplerConfig(), n_draws=10)
    with pytest.raises(DataError, match="2 bins"):
        timestep_histogram(records, SamplerConfig(), n_draws=2000, n_bins=1)


def test_histogram_report_checks_count_conservation():
    with pytest.raises(DataError, match="sum to"):
        HistogramReport(bins=[(0.0, 0.5, 10, 10.0), (0.5, 1.0, 10, 10.0)],
                        chi_square=0.0, chi_square_pvalue=1.0, dof=1,
                        ks_stat=0.0, n_draws=30)


# --- robustness sweep -------------------------------------------------------------


def _sweep_dataset():
    raw = [QualityRecord(id="a", mq_raw=1.0, vq_raw=2.0),
           QualityRecord(id="b", mq_raw=2.0, vq_raw=3.5),
           QualityRecord(id="c", mq_raw=3.0, vq_raw=1.5),
           QualityRecord(id="d", mq_raw=4.0, vq_raw=4.0)]
    videos = [_video(seed=i, height=4, width=4) for i in range(4)]
    return list(zip(raw, videos))


def test_sweep_level_zero_is_the_clean_run():
    dataset = _sweep_dataset()
    scfg = SamplerConfig(batch_size=4)
    tcfg = TrainerConfig(steps=8, hidden_width=16, seed=0)
    rows = robustness_sweep(dataset, [0.0, 0.1], scfg, tcfg)
    assert rows[0].noise_level == 0.0
    assert rows[0].mean_mu_shift == 0.0
    clean_records, _ = normalize_scores([rec for rec, _ in dataset])
    clean = train(list(zip(clean_records, [v for _, v in dataset])), scfg, tcfg)
    assert rows[0].final_loss == final_loss(clean)


def test_sweep_mu_shift_grows_with_noise_level():
    rows = robustness_sweep(_sweep_dataset(), [0.0, 0.05, 0.2, 1.0],
                            SamplerConfig(batch_size=4),
                            TrainerConfig(steps=4, hidden_width=16, seed=0))
    shifts = [row.mean_mu_shift for row in rows]
    assert shifts == sorted(shifts)
    assert shifts[-1] > shifts[1] > 0.0


def test_sweep_rejects_negative_levels():
    with pytest.raises(DataError, match=">= 0"):
        robustness_sweep(_sweep_dataset(), [-0.1], SamplerConfig(),
                         TrainerConfig(steps=1))


# --- quadrant report ----------------------------------------------------------------


def test_quadrant_report_fixture_fractions():
    records = [QualityRecord(id="hh", mq_raw=3.0, vq_raw=3.0),
               QualityRecord(id="hl", mq_raw=3.0, vq_raw=2.0),
               QualityRecord(id="lh", mq_raw=2.0, vq_raw=3.0),
               QualityRecord(id="ll", mq_raw=2.0, vq_raw=2.0)]
    report = quadrant_report(records, mq_threshold=2.5, vq_threshold=2.5)
    assert report.data["n"] == 4
    for key in ("HMHV", "HMLV", "LMHV", "LMLV"):
        assert report.data["counts"][key] == 1
        assert report.data["fractions"][key] == 0.25
    assert "HMLV" in report.text
    assert "0.2500" in report.text


def test_quadrant_report_defaults_to_median_thresholds():
    records = [QualityRecord(id=str(i), mq_raw=float(i), vq_raw=float(10 - i))
               for i in range(1, 6)]
    report = quadrant_report(records)
    assert report.data["mq_threshold"] == 3.0
    assert report.data["vq_threshold"] == 7.0
    # anti-ranked scores leave HMHV empty; the median record ties both
    # thresholds and ties count as low, so it lands in LMLV
    assert report.data["counts"]["HMHV"] == 0
    assert report.data["counts"]["LMLV"] == 1


def test_quadrant_report_matches_arcsine_rule_for_gaussian_scores():
    # for a bivariate normal split at its medians, P(both high) is
    # 1/4 + arcsin(r) / (2 pi)
    records = synth_population(5000, target_r=-0.22, seed=11)
    report = quadrant_report(records)
    expected = 0.25 + np.arcsin(-0.22) / (2.0 * np.pi)
    assert abs(report.data["fractions"]["HMHV"] - expected) < 0.02
    assert abs(report.data["pearson_r"] - (-0.22)) < 0.05


def test_quadrant_report_rejects_empty_input():
    with pytest.raises(DataError, match="empty after filtering"):
        quadrant_report([])


# --- serializers ---------------------------------------------------------------------


def test_probe_curves_csv_round_trips_floats():
    curves = [GradientProbeCurve(kind="blur", strength=2.0,
                                 points=[(0.1, 0.123456789012345), (0.9, 0.2)],
                                 n_samples=3)]
    text = probe_curves_csv(curves)
    lines = text.strip().split("\n")
    assert lines[0] == "degradation,strength,t,mean_distance,n_samples"
    assert len(lines) == 3
    kind, strength, t, dist, n = lines[1].split(",")
    assert kind == "blur"
    assert float(strength) == 2.0
    assert float(t) == 0.1
    assert float(dist) == 0.123456789012345
    assert int(n) == 3


def test_histogram_csv_format():
    report = HistogramReport(bins=[(0.0, 0.5, 12, 10.0), (0.5, 1.0, 8, 10.0)],
                             chi_square=0.8, chi_square_pvalue=0.37, dof=1,
                             ks_stat=0.02, n_draws=20)
    lines = histogram_csv(report).strip().split("\n")
    assert lines[0] == "lo,hi,observed,expected"
    assert len(lines) == 3
    assert lines[1].split(",") == ["0.0", "0.5", "12", "10.0"]


def test_sweep_csv_format():
    rows = [SweepRow(noise_level=0.0, final_loss=0.5, mean_mu_shift=0.0),
            SweepRow(noise_level=0.1, final_loss=0.6, mean_mu_shift=0.03)]
    lines = sweep_csv(rows).strip().split("\n")
    assert lines[0] == "noise_level,final_loss,mean_mu_shift"
    assert len(lines) == 3
    assert [float(x) for x in lines[2].split(",")] == [0.1, 0.6, 0.03]
