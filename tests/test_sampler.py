"""Timestep laws, Beta/Gamma sampling, and dropout batch preparation."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from tqd.quality import QualityRecord
from tqd.sampler import (
    MAX_BATCH_SIZE,
    MAX_KAPPA,
    MIN_SHAPE,
    SamplerConfig,
    TimestepLaw,
    TqdSampler,
    beta_variates,
    bin_masses,
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
        {"kappa_max": float("inf")},
        {"kappa_max": 1e308},
        {"batch_size": MAX_BATCH_SIZE + 1},
    ])
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(DataError):
            SamplerConfig(**kwargs)

    def test_kappa_max_is_capped(self):
        SamplerConfig(kappa_max=MAX_KAPPA)
        with pytest.raises(DataError, match="kappa_max must be <="):
            SamplerConfig(kappa_max=MAX_KAPPA * (1 + 1e-15))


class TestComputeMu:
    """make_law's center, mu = 0.5 + 0.5*(mq - vq)."""

    def test_extreme_motion_advantage(self):
        assert make_law(_rec(1.0, 0.0), SamplerConfig()).mu == 1.0

    @pytest.mark.parametrize("x", [0.0, 0.3, 0.5, 1.0])
    def test_equal_quality_centers(self, x):
        assert make_law(_rec(x, x), SamplerConfig()).mu == 0.5

    def test_direct_evaluation(self):
        assert make_law(_rec(0.8, 0.3), SamplerConfig()).mu == pytest.approx(0.75)

    def test_out_of_range_raises(self):
        with pytest.raises(DataError, match="mq_norm must be in"):
            make_law(_rec(1.2, 0.5), SamplerConfig())
        with pytest.raises(DataError, match="vq_norm must be in"):
            make_law(_rec(0.5, -0.1), SamplerConfig())


class TestComputeKappa:
    """make_law's concentration, linear in |mq - vq| from kappa_base to kappa_max."""

    def test_zero_disparity_gives_base(self):
        assert make_law(_rec(0.6, 0.6), SamplerConfig(kappa_base=4.0)).kappa == 4.0

    def test_full_disparity_gives_max(self):
        config = SamplerConfig(kappa_base=2.0, kappa_max=20.0)
        assert make_law(_rec(1.0, 0.0), config).kappa == 20.0

    def test_linear_interpolation(self):
        config = SamplerConfig(kappa_base=2.0, kappa_max=30.0)
        assert make_law(_rec(0.5, 0.0), config).kappa == pytest.approx(16.0)


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

    @pytest.mark.parametrize("shape", [0.05, 0.7, 1.0, 2.5, 40.0, 5e5, "mixed"])
    def test_matches_the_squeeze_first_rounds_bit_for_bit(self, shape):
        # the reference takes both Marsaglia-Tsang tests on every draw of
        # a round; gamma_variates takes the squeeze only where the exact
        # test rejects, and must accept the same draws
        size = 20000
        rng = np.random.default_rng(34)
        if shape == "mixed":
            shape = 10.0 ** rng.uniform(-1.3, 3.0, size)
        a = np.broadcast_to(np.asarray(shape, dtype=float), (size,))
        boost = a < 1.0
        d = np.where(boost, a + 1.0, a) - 1.0 / 3.0
        c = 1.0 / np.sqrt(9.0 * d)
        expected = np.empty(size)
        todo = np.arange(size)
        ref = np.random.default_rng(35)
        while todo.size:
            x, u = ref.standard_normal(todo.size), ref.random(todo.size)
            v = (1.0 + c[todo] * x) ** 3
            pos = v > 0.0
            squeeze = u < 1.0 - 0.0331 * x**4
            with np.errstate(invalid="ignore", divide="ignore"):
                slow = np.log(u) < 0.5 * x**2 + d[todo] * (1.0 - v + np.log(np.where(pos, v, 1.0)))
            accept = pos & (squeeze | slow)
            expected[todo[accept]] = d[todo[accept]] * v[accept]
            todo = todo[~accept]
        if boost.any():
            expected[boost] *= ref.random(int(boost.sum())) ** (1.0 / a[boost])
        assert np.array_equal(gamma_variates(shape, np.random.default_rng(35), size), expected)


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


def _ids(sampler, batch):
    return [sampler.records[i].id for i in batch.indices]


class TestPrepareBatch:
    def test_single_fully_retained_record_fills_batch(self):
        sampler = TqdSampler([_rec(1.0, 1.0, "only")], SamplerConfig(batch_size=8))
        batch = sampler.prepare_batch(np.random.default_rng(51))
        assert len(batch.indices) == 8
        assert batch.acceptance_rate == 1.0
        assert set(_ids(sampler, batch)) == {"only"}

    def test_large_batch_at_half_retention_fills(self):
        # the attempt cap scales with the batch being drawn
        records = [_rec(0.5, 0.5, f"r{i}") for i in range(10)]
        sampler = TqdSampler(records, SamplerConfig(batch_size=2000))
        batch = sampler.prepare_batch(np.random.default_rng(61))
        assert len(batch.indices) == len(batch.timesteps) == 2000
        assert batch.accepted >= 2000

    def test_acceptance_rate_matches_retention(self):
        records = [_rec(0.5, 0.5, f"r{i}") for i in range(10)]
        sampler = TqdSampler(records, SamplerConfig(batch_size=16))
        rng = np.random.default_rng(52)
        attempts = accepted = 0
        while attempts < 100_000:
            batch = sampler.prepare_batch(rng)
            attempts += batch.attempts
            accepted += batch.accepted
        assert abs(accepted / attempts - 0.5) < 0.01

    def test_zero_retention_record_never_appears(self):
        records = [_rec(1.0, 1.0, "keep"), _rec(0.0, 0.0, "drop")]
        sampler = TqdSampler(records, SamplerConfig(batch_size=16))
        rng = np.random.default_rng(53)
        for _ in range(10):
            assert set(_ids(sampler, sampler.prepare_batch(rng))) == {"keep"}

    def test_no_retainable_records_raises(self):
        sampler = TqdSampler([_rec(0.0, 0.0)], SamplerConfig(batch_size=4))
        with pytest.raises(SamplingError, match="no retainable"):
            sampler.prepare_batch(np.random.default_rng(54))

    def test_attempt_cap_exhaustion_raises(self):
        # the cap is 1000 attempts per batch slot; at retention 1e-6, 16
        # acceptances in 16 000 attempts never happen
        sampler = TqdSampler([_rec(1e-6, 0.0)], SamplerConfig(batch_size=16))
        with pytest.raises(SamplingError, match="cap exhausted: .* in 16000 attempts"):
            sampler.prepare_batch(np.random.default_rng(55))

    def test_baseline_arm_disables_dropout(self):
        records = [_rec(0.9, 0.1, "a"), _rec(0.0, 0.0, "b")]
        sampler = TqdSampler(records, SamplerConfig(batch_size=64), baseline=True)
        batch = sampler.prepare_batch(np.random.default_rng(56))
        assert batch.attempts == batch.accepted == 64
        assert set(_ids(sampler, batch)) == {"a", "b"}

    def test_baseline_timesteps_are_uniform(self):
        sampler = TqdSampler([_rec(0.9, 0.1)], SamplerConfig(kappa_base=2.0, batch_size=1000),
                             baseline=True)
        rng = np.random.default_rng(57)
        draws = np.concatenate([sampler.prepare_batch(rng).timesteps for _ in range(5)])
        assert stats.kstest(draws, "uniform").pvalue > 0.01

    def test_timesteps_follow_per_record_law(self):
        # strongly motion-dominant record: mass sits at high t
        sampler = TqdSampler([_rec(1.0, 0.0)], SamplerConfig(kappa_max=20.0, batch_size=1000))
        batch = sampler.prepare_batch(np.random.default_rng(58))
        assert np.mean(batch.timesteps > 0.5) > 0.9

    def test_deterministic_for_generator_state(self):
        records = [_rec(0.8, 0.3, f"r{i}") for i in range(5)]
        config = SamplerConfig(batch_size=32)
        a = TqdSampler(records, config).prepare_batch(np.random.default_rng(59))
        b = TqdSampler(records, config).prepare_batch(np.random.default_rng(59))
        assert a.indices.tolist() == b.indices.tolist()
        assert a.timesteps.tolist() == b.timesteps.tolist()

    @pytest.mark.parametrize("batch_size", [16, 1000])
    def test_matches_per_draw_reference(self, batch_size):
        # the rejection loop kept one accepted index at a time; the batch
        # must hold the same indices, in the same order, from the same draws
        records = [_rec(0.1 * i, 0.05 * i, f"r{i}") for i in range(10)]
        sampler = TqdSampler(records, SamplerConfig(batch_size=batch_size))
        rng = np.random.default_rng(60)
        chosen, attempts = [], 0
        while len(chosen) < batch_size:
            k = max(64, batch_size)
            idx = rng.integers(0, len(records), k)
            keep = rng.random(k) < sampler.retention[idx]
            attempts += k
            chosen.extend(int(i) for i in idx[keep])
        batch = sampler.prepare_batch(np.random.default_rng(60))
        assert batch.indices.tolist() == chosen[:batch_size]
        assert (batch.attempts, batch.accepted) == (attempts, len(chosen))
        expected_t = beta_variates(sampler.alpha[chosen[:batch_size]],
                                   sampler.beta[chosen[:batch_size]], rng, batch_size)
        assert batch.timesteps.tolist() == expected_t.tolist()

    @pytest.mark.parametrize("kappa_base", [1e-300, 0.05, 0.3, 2.0, 4.0, 7.3e5])
    def test_baseline_matches_symmetric_law_reference(self, kappa_base):
        # the baseline arm picks records uniformly, then draws every t from
        # the one scalar law Beta(s, s) of equal scores
        records = [_rec(0.1 * i, 0.05 * i, f"r{i}") for i in range(10)]
        config = SamplerConfig(kappa_base=kappa_base, kappa_max=max(20.0, kappa_base),
                               batch_size=500)
        rng = np.random.default_rng(62)
        idx = rng.integers(0, len(records), 500)
        s = max(kappa_base / 2.0, MIN_SHAPE)
        expected_t = beta_variates(s, s, rng, 500)
        batch = TqdSampler(records, config, baseline=True).prepare_batch(
            np.random.default_rng(62))
        assert batch.indices.tolist() == idx.tolist()
        assert batch.timesteps.tolist() == expected_t.tolist()
        assert batch.attempts == batch.accepted == 500

    def test_full_retention_still_runs_the_rejection_loop(self):
        # opposite scores give both records retention 1, yet the quality-
        # aware arm draws its keep/drop uniforms all the same
        records = [_rec(1.0, 0.0, "hi"), _rec(0.0, 1.0, "lo")]
        config = SamplerConfig(batch_size=16)
        laws = [make_law(rec, config) for rec in records]
        assert [retention_probability(rec) for rec in records] == [1.0, 1.0]
        rng = np.random.default_rng(63)
        idx = rng.integers(0, 2, 64)[:16]
        rng.random(64)  # the keep/drop uniforms, all below retention 1
        expected_t = beta_variates(np.array([laws[i].alpha for i in idx]),
                                   np.array([laws[i].beta for i in idx]), rng, 16)
        batch = TqdSampler(records, config).prepare_batch(np.random.default_rng(63))
        assert batch.indices.tolist() == idx.tolist()
        assert batch.timesteps.tolist() == expected_t.tolist()
        assert (batch.attempts, batch.accepted) == (64, 64)

    def test_empty_dataset_raises(self):
        with pytest.raises(DataError):
            TqdSampler([], SamplerConfig())
