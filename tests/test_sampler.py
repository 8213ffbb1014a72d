"""Timestep laws, Beta sampling, and dropout batch preparation."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import special, stats

from tqd.sampler import (
    MAX_BATCH_SIZE,
    MAX_KAPPA,
    MIN_SHAPE,
    T_CLIP,
    SamplerConfig,
    TqdSampler,
    beta_variates,
    law_table,
)
from tqd.errors import DataError, SamplingError


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


def _law(mq, vq, config=SamplerConfig()):
    """One record's (mu, kappa, alpha, beta) read from law_table."""
    return tuple(float(column[0]) for column in law_table([mq], [vq], config))


class TestComputeMu:
    """law_table's center, mu = 0.5 + 0.5*(mq - vq)."""

    def test_extreme_motion_advantage(self):
        assert _law(1.0, 0.0)[0] == 1.0

    @pytest.mark.parametrize("x", [0.0, 0.3, 0.5, 1.0])
    def test_equal_quality_centers(self, x):
        assert _law(x, x)[0] == 0.5

    def test_direct_evaluation(self):
        assert _law(0.8, 0.3)[0] == pytest.approx(0.75)


class TestComputeKappa:
    """law_table's concentration, linear in |mq - vq| from kappa_base to kappa_max."""

    def test_zero_disparity_gives_base(self):
        assert _law(0.6, 0.6, SamplerConfig(kappa_base=4.0))[1] == 4.0

    def test_full_disparity_gives_max(self):
        config = SamplerConfig(kappa_base=2.0, kappa_max=20.0)
        assert _law(1.0, 0.0, config)[1] == 20.0

    def test_linear_interpolation(self):
        config = SamplerConfig(kappa_base=2.0, kappa_max=30.0)
        assert _law(0.5, 0.0, config)[1] == pytest.approx(16.0)


class TestMakeLaw:
    """law_table's clamped shapes, one record at a time."""

    def test_equal_scores_degenerate_to_uniform(self):
        assert _law(0.4, 0.4, SamplerConfig(kappa_base=2.0))[2:] == (1.0, 1.0)

    def test_zero_shape_clamped_to_min_shape(self):
        law = _law(1.0, 0.0, SamplerConfig(kappa_base=2.0, kappa_max=20.0))
        assert law == (1.0, 20.0, 20.0, 0.05)

    def test_corner_records_get_the_documented_shares(self):
        # the README and law_table's docstring: at the defaults the (1, 0)
        # record puts 84.3% of its mass above 0.999 and 29.8% on the top
        # clip atom; the (0, 1) record mirrors it
        top = _law(1.0, 0.0, SamplerConfig())[2:]
        assert _law(0.0, 1.0, SamplerConfig())[2:] == top[::-1]
        for x, share in ((0.999, 0.843), (1.0 - T_CLIP, 0.298)):
            assert 1.0 - special.betainc(*top, x) == pytest.approx(share, abs=5e-4)

    def test_direct_shape_evaluation(self):
        mu, kappa, alpha, beta = _law(0.9, 0.4, SamplerConfig(kappa_base=4.0, kappa_max=30.0))
        assert mu == pytest.approx(0.75)
        assert kappa == pytest.approx(17.0)
        assert alpha == pytest.approx(12.75)
        assert beta == pytest.approx(4.25)

    def test_moment_properties(self):
        # unclamped, the law's mean alpha/(alpha + beta) is its center
        mu, _, alpha, beta = _law(0.9, 0.4, SamplerConfig(kappa_base=4.0, kappa_max=30.0))
        assert alpha / (alpha + beta) == pytest.approx(mu)


class TestRetentionProbability:
    def test_best_quality_wins(self):
        sampler = TqdSampler([1.0, 0.3], [0.2, 0.7], SamplerConfig())
        assert sampler.retention.tolist() == [1.0, 0.7]

    def test_worst_case_never_retained(self):
        assert TqdSampler([0.0], [0.0], SamplerConfig()).retention.tolist() == [0.0]


_NAN = float("nan")


@pytest.mark.parametrize("mq, vq, message", [
    (1.2, 0.5, "mq_norm must be in \\[0, 1\\], got 1.2 at index 1"),
    (0.5, -0.1, "vq_norm must be in \\[0, 1\\], got -0.1 at index 1"),
    (_NAN, 0.5, "mq_norm must be in \\[0, 1\\], got nan at index 1"),
    (0.5, _NAN, "vq_norm must be in \\[0, 1\\], got nan at index 1"),
    (None, 0.5, "mq_norm must be in \\[0, 1\\], got nan at index 1"),
    (0.5, None, "vq_norm must be in \\[0, 1\\], got nan at index 1"),
], ids=["mq-above-one", "vq-below-zero", "mq-nan", "vq-nan", "mq-missing", "vq-missing"])
def test_bad_scores_raise(mq, vq, message):
    # law_table sees numbers (a missing score is NaN to it) and refuses
    # one out of range, naming its index; the sampler's table does the same
    with pytest.raises(DataError, match=message):
        law_table([0.5, mq], [0.5, vq], SamplerConfig())
    with pytest.raises(DataError, match=message):
        TqdSampler([0.5, mq], [0.5, vq], SamplerConfig())


@pytest.mark.parametrize("mq, vq", [
    ([], []),
    ([0.5, 0.5], [0.5]),
    ([[0.5, 0.5]], [[0.5, 0.5]]),
    (0.5, 0.5),
], ids=["empty", "unequal-lengths", "two-d", "zero-d"])
def test_sampler_needs_one_d_score_arrays_of_one_length(mq, vq):
    with pytest.raises(DataError, match="1-D arrays of one length of at least 1"):
        TqdSampler(mq, vq, SamplerConfig())


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


class TestBetaVariateChecks:
    @pytest.mark.parametrize("bad", [0.0, -1.0, _NAN, float("inf")])
    @pytest.mark.parametrize("argument", ["alpha", "beta"])
    def test_bad_shape_raises(self, argument, bad):
        shapes = {"alpha": 2.0, "beta": 2.0, argument: np.array([2.0, bad, 2.0])}
        with pytest.raises(DataError, match=f"Beta shape {argument} must be positive and finite"):
            beta_variates(shapes["alpha"], shapes["beta"], np.random.default_rng(0), 3)

    @pytest.mark.parametrize("alpha, beta, size", [
        (np.ones(3), np.ones(3), 4),
        (1.0, np.ones(5), 4),
        (np.ones((4, 1)), 1.0, 4),
    ], ids=["both-short", "beta-long", "two-d"])
    def test_shapes_must_be_scalar_or_one_per_draw(self, alpha, beta, size):
        with pytest.raises(DataError, match="must be a scalar or 4 per-draw shapes"):
            beta_variates(alpha, beta, np.random.default_rng(0), size)

    def test_negative_size_raises(self):
        with pytest.raises(DataError, match="size must be >= 0, got -1"):
            beta_variates(1.0, 1.0, np.random.default_rng(0), -1)

    def test_per_draw_shape_array(self):
        # alternating laws Beta(0.5, 5) and Beta(5, 0.5): the second has the larger mean
        alpha = np.array([0.5, 5.0] * 500)
        draws = beta_variates(alpha, alpha[::-1], np.random.default_rng(32), 1000)
        assert draws[1::2].mean() > draws[0::2].mean()

    def test_deterministic_for_seed(self):
        a = beta_variates(2.0, 3.0, np.random.default_rng(33), 16)
        b = beta_variates(2.0, 3.0, np.random.default_rng(33), 16)
        assert (a == b).all()

    @pytest.mark.parametrize("alpha, beta", [
        (0.05, 0.05), (0.05, 1e6), (1e6, 0.05), (5e5, 5e5), (0.05, 20.0)])
    def test_extreme_shapes_stay_inside_with_atom_masses(self, alpha, beta):
        # the shapes law_table can emit at its limits: draws censored to the
        # atoms T_CLIP and 1 - T_CLIP carry the law's mass beyond them
        n = 200_000
        with np.errstate(all="raise"):
            draws = beta_variates(alpha, beta, np.random.default_rng(45), n)
        assert np.isfinite(draws).all()
        assert ((draws > 0.0) & (draws < 1.0)).all()
        for atom, mass in ((T_CLIP, special.betainc(alpha, beta, T_CLIP)),
                           (1.0 - T_CLIP, 1.0 - special.betainc(alpha, beta, 1.0 - T_CLIP))):
            share = np.mean(draws == atom)
            assert abs(share - mass) <= 5 * np.sqrt(mass * (1.0 - mass) / n)


def _reference_law(mq, vq, config):
    """The quality-to-law rule for one record, in Python floats: the
    reference the vectorized law table must equal bit for bit."""
    mu = 0.5 + 0.5 * (mq - vq)
    kappa = config.kappa_base + (config.kappa_max - config.kappa_base) * abs(mq - vq)
    return mu, kappa, max(mu * kappa, MIN_SHAPE), max((1.0 - mu) * kappa, MIN_SHAPE)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _reference_scores():
    """Random score pairs, then the four corners and the centre."""
    scores = [(float(mq), float(vq)) for mq, vq in np.random.default_rng(64).random((2000, 2))]
    return scores + [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.5, 0.5)]


_KAPPA_PAIRS = [(2.0, 20.0), (0.02, 1e6), (1e-300, 7.3e5), (4.0, 4.0), (0.3, 11.7)]


@pytest.mark.parametrize("kappa_base, kappa_max", _KAPPA_PAIRS)
def test_law_table_matches_scalar_reference(kappa_base, kappa_max):
    scores = _reference_scores()
    config = SamplerConfig(kappa_base=kappa_base, kappa_max=kappa_max)
    expected = np.array([_reference_law(mq, vq, config) for mq, vq in scores]).T
    table = law_table([mq for mq, _ in scores], [vq for _, vq in scores], config)
    for column, reference in zip(table, expected):
        assert np.array_equal(_bits(column), _bits(reference))


@pytest.mark.parametrize("kappa_base, kappa_max", _KAPPA_PAIRS)
def test_arm_tables_match_scalar_reference(kappa_base, kappa_max):
    # both arms, against the rule applied one record at a time
    scores = _reference_scores()
    mq, vq = np.array(scores).T
    config = SamplerConfig(kappa_base=kappa_base, kappa_max=kappa_max)
    laws = [_reference_law(m, v, config) for m, v in scores]
    tqd = TqdSampler(mq, vq, config)
    assert np.array_equal(_bits(tqd.alpha), _bits([law[2] for law in laws]))
    assert np.array_equal(_bits(tqd.beta), _bits([law[3] for law in laws]))
    assert np.array_equal(_bits(tqd.retention), _bits([max(v, m) for m, v in scores]))
    # the baseline arm, the sampler at equal full scores, puts every record
    # at the equal-score law, kept always
    flat = [_reference_law(1.0, 1.0, config)] * len(scores)
    ones = np.ones(len(scores))
    baseline = TqdSampler(ones, ones, config)
    assert np.array_equal(_bits(baseline.alpha), _bits([law[2] for law in flat]))
    assert np.array_equal(_bits(baseline.beta), _bits([law[3] for law in flat]))
    assert np.array_equal(_bits(baseline.retention), _bits([1.0] * len(scores)))


def _ramp(step):
    """Record i's score step * i, for ten records."""
    return np.array([step * i for i in range(10)])


class TestPrepareBatch:
    def test_single_fully_retained_record_fills_batch(self):
        sampler = TqdSampler([1.0], [1.0], SamplerConfig(batch_size=8))
        batch = sampler.prepare_batch(np.random.default_rng(51))
        assert len(batch.indices) == 8
        assert batch.acceptance_rate == 1.0
        assert set(batch.indices.tolist()) == {0}

    def test_large_batch_at_half_retention_fills(self):
        # the attempt cap scales with the batch being drawn
        sampler = TqdSampler(np.full(10, 0.5), np.full(10, 0.5), SamplerConfig(batch_size=2000))
        batch = sampler.prepare_batch(np.random.default_rng(61))
        assert len(batch.indices) == len(batch.timesteps) == 2000
        assert batch.accepted >= 2000

    def test_acceptance_rate_matches_retention(self):
        sampler = TqdSampler(np.full(10, 0.5), np.full(10, 0.5), SamplerConfig(batch_size=16))
        rng = np.random.default_rng(52)
        attempts = accepted = 0
        while attempts < 100_000:
            batch = sampler.prepare_batch(rng)
            attempts += batch.attempts
            accepted += batch.accepted
        assert abs(accepted / attempts - 0.5) < 0.01

    def test_zero_retention_record_never_appears(self):
        # record 0 is kept always, record 1 never
        sampler = TqdSampler([1.0, 0.0], [1.0, 0.0], SamplerConfig(batch_size=16))
        rng = np.random.default_rng(53)
        for _ in range(10):
            assert set(sampler.prepare_batch(rng).indices.tolist()) == {0}

    def test_no_retainable_records_raises(self):
        sampler = TqdSampler([0.0], [0.0], SamplerConfig(batch_size=4))
        with pytest.raises(SamplingError, match="no retainable"):
            sampler.prepare_batch(np.random.default_rng(54))

    def test_attempt_cap_exhaustion_raises(self):
        # the cap is 1000 attempts per batch slot; at retention 1e-6, 16
        # acceptances in 16 000 attempts never happen
        sampler = TqdSampler([1e-6], [0.0], SamplerConfig(batch_size=16))
        with pytest.raises(SamplingError, match="cap exhausted: .* in 16000 attempts"):
            sampler.prepare_batch(np.random.default_rng(55))

    def test_baseline_arm_disables_dropout(self):
        # equal full scores keep every record: each attempt is accepted
        sampler = TqdSampler([1.0, 1.0], [1.0, 1.0], SamplerConfig(batch_size=64))
        batch = sampler.prepare_batch(np.random.default_rng(56))
        assert batch.attempts == batch.accepted == 64
        assert set(batch.indices.tolist()) == {0, 1}

    def test_baseline_timesteps_are_uniform(self):
        sampler = TqdSampler([1.0], [1.0], SamplerConfig(kappa_base=2.0, batch_size=1000))
        rng = np.random.default_rng(57)
        draws = np.concatenate([sampler.prepare_batch(rng).timesteps for _ in range(5)])
        assert stats.kstest(draws, "uniform").pvalue > 0.01

    def test_timesteps_follow_per_record_law(self):
        # strongly motion-dominant record: mass sits at high t
        sampler = TqdSampler([1.0], [0.0], SamplerConfig(kappa_max=20.0, batch_size=1000))
        batch = sampler.prepare_batch(np.random.default_rng(58))
        assert np.mean(batch.timesteps > 0.5) > 0.9

    def test_deterministic_for_generator_state(self):
        mq, vq = np.full(5, 0.8), np.full(5, 0.3)
        config = SamplerConfig(batch_size=32)
        a = TqdSampler(mq, vq, config).prepare_batch(np.random.default_rng(59))
        b = TqdSampler(mq, vq, config).prepare_batch(np.random.default_rng(59))
        assert a.indices.tolist() == b.indices.tolist()
        assert a.timesteps.tolist() == b.timesteps.tolist()

    @pytest.mark.parametrize("batch_size", [16, 1000])
    def test_matches_per_draw_reference(self, batch_size):
        # the rejection loop kept one accepted index at a time; the batch
        # must hold the same indices, in the same order, from the same draws
        sampler = TqdSampler(_ramp(0.1), _ramp(0.05), SamplerConfig(batch_size=batch_size))
        rng = np.random.default_rng(60)
        chosen, attempts = [], 0
        while len(chosen) < batch_size:
            k = max(64, batch_size)
            idx = rng.integers(0, 10, k)
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
        # the baseline arm runs the rejection loop at equal full scores: it
        # picks records uniformly, draws keep/drop uniforms that all fall
        # below retention 1, then draws every t from the one scalar law
        # Beta(s, s) of equal scores
        config = SamplerConfig(kappa_base=kappa_base, kappa_max=max(20.0, kappa_base),
                               batch_size=500)
        rng = np.random.default_rng(62)
        idx = rng.integers(0, 10, 500)
        rng.random(500)  # the keep/drop uniforms
        s = max(kappa_base / 2.0, MIN_SHAPE)
        expected_t = beta_variates(s, s, rng, 500)
        batch = TqdSampler(np.ones(10), np.ones(10), config).prepare_batch(
            np.random.default_rng(62))
        assert batch.indices.tolist() == idx.tolist()
        assert batch.timesteps.tolist() == expected_t.tolist()
        assert batch.attempts == batch.accepted == 500

    def test_full_retention_still_runs_the_rejection_loop(self):
        # opposite scores give both records retention 1, yet the quality-
        # aware arm draws its keep/drop uniforms all the same
        mq, vq = [1.0, 0.0], [0.0, 1.0]
        config = SamplerConfig(batch_size=16)
        laws = [_reference_law(m, v, config) for m, v in zip(mq, vq)]
        assert [max(v, m) for m, v in zip(mq, vq)] == [1.0, 1.0]
        rng = np.random.default_rng(63)
        idx = rng.integers(0, 2, 64)[:16]
        rng.random(64)  # the keep/drop uniforms, all below retention 1
        expected_t = beta_variates(np.array([laws[i][2] for i in idx]),
                                   np.array([laws[i][3] for i in idx]), rng, 16)
        batch = TqdSampler(mq, vq, config).prepare_batch(np.random.default_rng(63))
        assert batch.indices.tolist() == idx.tolist()
        assert batch.timesteps.tolist() == expected_t.tolist()
        assert (batch.attempts, batch.accepted) == (64, 64)

    def test_empty_dataset_raises(self):
        with pytest.raises(DataError):
            TqdSampler([], [], SamplerConfig())
