"""Timestep laws, Beta/Gamma sampling, and dropout batch preparation."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from tqd.quality import QualityRecord
from tqd.sampler import (
    MAX_KAPPA,
    Batch,
    SamplerConfig,
    TimestepLaw,
    TqdSampler,
    beta_variates,
    bin_masses,
    compute_kappa,
    compute_mu,
    density_curve,
    gamma_variates,
    make_law,
    retention_probability,
)
from tqd.errors import DataError, SamplingError


def _rec(mq_norm, vq_norm, rid="r0"):
    return QualityRecord(id=rid, mq_raw=0.0, vq_raw=0.0,
                         mq_norm=mq_norm, vq_norm=vq_norm)


class TestSamplerConfig:
    @pytest.mark.parametrize("kwargs", [
        {"kappa_base": 0.0},
        {"kappa_base": 4.0, "kappa_max": 2.0},
        {"batch_size": 0},
        {"kappa_max": float("nan")},
        {"seed": -1},
        {"kappa_max": float("inf")},
        {"kappa_max": 1e308},
    ])
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(DataError):
            SamplerConfig(**kwargs)

    def test_kappa_max_is_capped(self):
        SamplerConfig(kappa_max=MAX_KAPPA)
        with pytest.raises(DataError, match="kappa_max must be <="):
            SamplerConfig(kappa_max=MAX_KAPPA * (1 + 1e-15))


class TestComputeMu:
    def test_extreme_motion_advantage(self):
        assert compute_mu(1.0, 0.0) == 1.0

    @pytest.mark.parametrize("x", [0.0, 0.3, 0.5, 1.0])
    def test_equal_quality_centers(self, x):
        assert compute_mu(x, x) == 0.5

    def test_direct_evaluation(self):
        assert compute_mu(0.8, 0.3) == pytest.approx(0.75)

    def test_out_of_range_raises(self):
        with pytest.raises(DataError):
            compute_mu(1.2, 0.5)


class TestComputeKappa:
    def test_zero_disparity_gives_base(self):
        assert compute_kappa(0.6, 0.6, SamplerConfig(kappa_base=4.0)) == 4.0

    def test_full_disparity_gives_max(self):
        config = SamplerConfig(kappa_base=2.0, kappa_max=20.0)
        assert compute_kappa(1.0, 0.0, config) == 20.0

    def test_linear_interpolation(self):
        config = SamplerConfig(kappa_base=2.0, kappa_max=30.0)
        assert compute_kappa(0.5, 0.0, config) == pytest.approx(16.0)


class TestMakeLaw:
    def test_equal_scores_degenerate_to_uniform(self):
        law = make_law(_rec(0.4, 0.4), SamplerConfig(kappa_base=2.0))
        assert (law.alpha, law.beta) == (1.0, 1.0)

    def test_zero_shape_clamped_to_min_shape(self):
        law = make_law(_rec(1.0, 0.0), SamplerConfig(kappa_base=2.0, kappa_max=20.0))
        assert law.mu == 1.0
        assert law.kappa == 20.0
        assert law.alpha == 20.0
        assert law.beta == 0.05

    def test_direct_shape_evaluation(self):
        law = make_law(_rec(0.9, 0.4), SamplerConfig(kappa_base=4.0, kappa_max=30.0))
        assert law.mu == pytest.approx(0.75)
        assert law.kappa == pytest.approx(17.0)
        assert law.alpha == pytest.approx(12.75)
        assert law.beta == pytest.approx(4.25)

    def test_unnormalized_record_raises(self):
        with pytest.raises(DataError):
            make_law(QualityRecord("raw", 1.0, 2.0), SamplerConfig())

    def test_moment_properties(self):
        law = TimestepLaw(mu=0.75, kappa=20.0, alpha=15.0, beta=5.0)
        assert law.mean == pytest.approx(0.75)


class TestRetentionProbability:
    def test_best_quality_wins(self):
        assert retention_probability(_rec(1.0, 0.2)) == 1.0
        assert retention_probability(_rec(0.3, 0.7)) == 0.7

    def test_worst_case_never_retained(self):
        assert retention_probability(_rec(0.0, 0.0)) == 0.0

    def test_unnormalized_record_raises(self):
        with pytest.raises(DataError):
            retention_probability(QualityRecord("raw", 1.0, 2.0))


class TestGammaVariates:
    @pytest.mark.parametrize("shape", [0.5, 1.0, 3.0, 20.0])
    def test_moments_match_gamma_law(self, shape):
        n = 100_000
        draws = gamma_variates(shape, np.random.default_rng(31), n)
        # Gamma(a, 1): mean a, variance a
        assert draws.mean() == pytest.approx(shape, abs=5 * np.sqrt(shape / n))
        assert draws.var() == pytest.approx(shape, rel=0.05)
        assert (draws > 0).all()

    def test_per_draw_shape_array(self):
        shapes = np.array([0.5, 5.0] * 500)
        draws = gamma_variates(shapes, np.random.default_rng(32), 1000)
        assert draws[1::2].mean() > draws[0::2].mean()

    def test_nonpositive_shape_raises(self):
        with pytest.raises(DataError):
            gamma_variates(0.0, np.random.default_rng(0), 4)

    def test_deterministic_for_seed(self):
        a = gamma_variates(2.0, np.random.default_rng(33), 16)
        b = gamma_variates(2.0, np.random.default_rng(33), 16)
        assert (a == b).all()


class TestBetaVariates:
    def test_uniform_degenerate_moments_and_ks(self):
        n = 1_000_000
        draws = beta_variates(1.0, 1.0, np.random.default_rng(41), n)
        assert abs(draws.mean() - 0.5) < 0.002
        # independent oracle: scipy one-sample KS against Uniform(0,1)
        ks = stats.kstest(draws, "uniform").statistic
        assert ks < 1.63 / np.sqrt(n)

    def test_skewed_law_moments(self):
        n = 1_000_000
        draws = beta_variates(15.0, 5.0, np.random.default_rng(42), n)
        assert abs(draws.mean() - 0.75) < 0.003
        expected_var = 0.75 * 0.25 / 21.0
        assert abs(draws.var() - expected_var) < 0.1 * expected_var

    def test_high_concentration_stays_near_center(self):
        draws = beta_variates(500.0, 500.0, np.random.default_rng(43), 100_000)
        assert ((draws > 0.4) & (draws < 0.6)).all()

    def test_draws_strictly_inside_unit_interval(self):
        draws = beta_variates(0.05, 0.05, np.random.default_rng(44), 100_000)
        assert (draws > 0.0).all() and (draws < 1.0).all()

class TestDensityCurve:
    def test_uniform_law_is_flat(self):
        law = TimestepLaw(mu=0.5, kappa=2.0, alpha=1.0, beta=1.0)
        _, pdf = density_curve(law)
        assert pdf == pytest.approx(np.ones_like(pdf))

    def test_symmetric_law_matches_closed_form(self):
        law = TimestepLaw(mu=0.5, kappa=4.0, alpha=2.0, beta=2.0)
        t, pdf = density_curve(law)
        assert pdf == pytest.approx(6.0 * t * (1.0 - t), abs=1e-12)
        assert pdf.max() == pytest.approx(1.5, abs=1e-4)

    def test_skewed_law_peaks_at_mode(self):
        law = TimestepLaw(mu=0.75, kappa=20.0, alpha=15.0, beta=5.0)
        t, pdf = density_curve(law, grid_points=512)
        mode = (law.alpha - 1.0) / (law.alpha + law.beta - 2.0)
        assert abs(t[np.argmax(pdf)] - mode) <= 1.0 / 512

    def test_trapezoid_integral_near_one_for_proper_shapes(self):
        law = TimestepLaw(mu=0.75, kappa=20.0, alpha=15.0, beta=5.0)
        t, pdf = density_curve(law, grid_points=512)
        assert np.trapezoid(pdf, t) == pytest.approx(1.0, abs=0.01)

    def test_tiny_grid_raises(self):
        law = TimestepLaw(mu=0.5, kappa=2.0, alpha=1.0, beta=1.0)
        with pytest.raises(DataError):
            density_curve(law, grid_points=1)


class TestBinMasses:
    def test_uniform_law_mass_equals_width(self):
        law = TimestepLaw(mu=0.5, kappa=2.0, alpha=1.0, beta=1.0)
        edges = np.array([0.0, 0.25, 0.5, 1.0])
        assert bin_masses(law, edges) == pytest.approx([0.25, 0.25, 0.5])

    def test_full_partition_sums_to_one(self):
        law = TimestepLaw(mu=1.0, kappa=20.0, alpha=20.0, beta=0.05)
        edges = np.linspace(0.0, 1.0, 51)
        assert bin_masses(law, edges).sum() == pytest.approx(1.0)


class TestPrepareBatch:
    def test_single_fully_retained_record_fills_batch(self):
        sampler = TqdSampler([_rec(1.0, 1.0, "only")], SamplerConfig())
        batch = sampler.prepare_batch(8, np.random.default_rng(51))
        assert len(batch.indices) == 8
        assert batch.acceptance_rate == 1.0
        assert all(rec.id == "only" for rec, _ in batch.members)

    def test_acceptance_rate_matches_retention(self):
        records = [_rec(0.5, 0.5, f"r{i}") for i in range(10)]
        sampler = TqdSampler(records, SamplerConfig())
        rng = np.random.default_rng(52)
        attempts = accepted = 0
        while attempts < 100_000:
            batch = sampler.prepare_batch(16, rng)
            attempts += batch.attempts
            accepted += batch.accepted
        assert abs(accepted / attempts - 0.5) < 0.01

    def test_zero_retention_record_never_appears(self):
        records = [_rec(1.0, 1.0, "keep"), _rec(0.0, 0.0, "drop")]
        sampler = TqdSampler(records, SamplerConfig())
        rng = np.random.default_rng(53)
        for _ in range(10):
            batch = sampler.prepare_batch(16, rng)
            assert all(rec.id == "keep" for rec, _ in batch.members)

    def test_no_retainable_records_raises(self):
        sampler = TqdSampler([_rec(0.0, 0.0)], SamplerConfig())
        with pytest.raises(SamplingError, match="no retainable"):
            sampler.prepare_batch(4, np.random.default_rng(54))

    def test_attempt_cap_exhaustion_raises(self):
        # the cap is 1000 attempts per slot of the configured batch size;
        # at retention 1e-6, 16 acceptances in 16 000 attempts never happen
        sampler = TqdSampler([_rec(1e-6, 0.0)], SamplerConfig(batch_size=16))
        with pytest.raises(SamplingError, match="cap exhausted: .* in 16000 attempts"):
            sampler.prepare_batch(16, np.random.default_rng(55))

    def test_baseline_arm_disables_dropout(self):
        records = [_rec(0.9, 0.1, "a"), _rec(0.0, 0.0, "b")]
        sampler = TqdSampler(records, SamplerConfig())
        batch = sampler.prepare_batch(64, np.random.default_rng(56), baseline=True)
        assert batch.attempts == batch.accepted == 64
        assert {rec.id for rec, _ in batch.members} == {"a", "b"}

    def test_baseline_timesteps_are_uniform(self):
        sampler = TqdSampler([_rec(0.9, 0.1)], SamplerConfig(kappa_base=2.0))
        rng = np.random.default_rng(57)
        draws = np.concatenate([
            sampler.prepare_batch(1000, rng, baseline=True).timesteps
            for _ in range(5)])
        assert stats.kstest(draws, "uniform").pvalue > 0.01

    def test_timesteps_follow_per_record_law(self):
        # strongly motion-dominant record: mass sits at high t
        sampler = TqdSampler([_rec(1.0, 0.0)], SamplerConfig(kappa_max=20.0))
        batch = sampler.prepare_batch(1000, np.random.default_rng(58))
        assert np.mean(batch.timesteps > 0.5) > 0.9

    def test_deterministic_for_generator_state(self):
        records = [_rec(0.8, 0.3, f"r{i}") for i in range(5)]
        a = TqdSampler(records, SamplerConfig()).prepare_batch(32, np.random.default_rng(59))
        b = TqdSampler(records, SamplerConfig()).prepare_batch(32, np.random.default_rng(59))
        assert [(rec.id, t) for rec, t in a.members] == [
            (rec.id, t) for rec, t in b.members]

    def test_empty_dataset_raises(self):
        with pytest.raises(DataError):
            TqdSampler([], SamplerConfig())

    def test_nonpositive_batch_size_raises(self):
        sampler = TqdSampler([_rec(1.0, 1.0)], SamplerConfig())
        with pytest.raises(DataError):
            sampler.prepare_batch(0, np.random.default_rng(60))

    def test_acceptance_rate_nan_on_empty_batch_object(self):
        batch = Batch([], np.array([], dtype=int), np.array([]), attempts=0, accepted=0)
        assert np.isnan(batch.acceptance_rate)
