"""Tests for the diagnostics layer: gradient probe, timestep statistics,
robustness sweep, and quadrant reporting."""

import numpy as np
import pytest
from scipy import stats as scipy_stats
from scipy.special import betainc

from tqd import analysis, trainer
from tqd.analysis import (
    _KS_BLOCK,
    _KS_STRIDE,
    _derived_seed,
    _ks_statistic,
    HISTOGRAM_BINS,
    MAX_HISTOGRAM_DRAWS,
    PROBE_N_NOISE,
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
from tqd.errors import DataError, NumericError
from tqd.quality import QualityRecord, normalize_scores, synth_population
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
from tqd.synth import DegradationSpec, degrade, generate_moving_shape
from tqd.trainer import (
    TrainerConfig,
    VelocityModel,
    final_loss,
    grad_at_timestep,
    train,
)


def _video(seed=0, speed=1.0, tex=0.05, frames=2, height=5, width=5):
    return generate_moving_shape(motion_speed=speed, texture_noise=tex, seed=seed,
                                 frames=frames, height=height, width=width)


def _probe_model(seed=3):
    return VelocityModel.init((2, 5, 5), seed=seed, hidden_width=8,
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


def _reference_probe(model, samples, degradations, t_grid, n_noise, noise_seed=0):
    """Mean gradient distances the per-copy way: one full gradient per
    video from grad_at_timestep, one norm of each difference."""
    sums = np.zeros((len(degradations), len(t_grid)))
    for i, video in enumerate(samples):
        copies = [degrade(video, DegradationSpec(spec.kind, spec.strength,
                                                 seed=_derived_seed(spec.seed, i)))
                  for spec in degradations]
        for j, t in enumerate(t_grid):
            seed_ij = _derived_seed(noise_seed, i, j)
            g_orig = grad_at_timestep(model, video, t, seed_ij, n_noise)
            for k, copy in enumerate(copies):
                sums[k, j] += np.linalg.norm(
                    g_orig - grad_at_timestep(model, copy, t, seed_ij, n_noise))
    return sums / len(samples)


def _trained_model(samples, hidden_width=16):
    """A small model fitted to samples by train; its gradients run some
    30 times smaller than an untrained zero_final=False model's."""
    half = np.full(len(samples), 0.5)
    return train(samples, half, half, SamplerConfig(batch_size=8),
                 TrainerConfig(steps=300, learning_rate=3e-3, hidden_width=hidden_width,
                               seed=5)).model


# the probe CLI's default degradations, plus an identity copy
_EQUIV_SPECS = [DegradationSpec("blur", 2.0, seed=0), DegradationSpec("compression", 8.0, seed=0),
                DegradationSpec("noise", 0.1, seed=0), DegradationSpec("shuffle", 1.0, seed=0),
                DegradationSpec("blur", 0.0, seed=0)]


def _cap_blocks(monkeypatch, model, per_block):
    """Cap gradient_distances' timestep blocks at per_block timesteps of
    PROBE_N_NOISE rows, for a video with len(_EQUIV_SPECS) copies; None
    keeps the default cap, which fits a 3-point grid in one block at both
    test shapes."""
    step_bytes = PROBE_N_NOISE * 8 * (model.data_dim
                                      + 2 * (1 + len(_EQUIV_SPECS)) * model.hidden_width)
    if per_block is None:
        assert trainer._PROBE_BLOCK_BYTES >= 3 * step_bytes
    else:
        monkeypatch.setattr(trainer, "_PROBE_BLOCK_BYTES", per_block * step_bytes)


_BLOCKINGS = pytest.mark.parametrize("trained, per_block", [
    pytest.param(trained, per_block,
                 id=name + ("" if per_block is None else f"-{per_block}-per-block"))
    for per_block in (None, 1, 2) for trained, name in ((False, "untrained"), (True, "trained"))])


@_BLOCKINGS
def test_probe_matches_per_copy_gradients(trained, per_block, monkeypatch):
    samples = [_video(seed=s, speed=2.0 + 0.5 * s, tex=0.02, frames=8, height=16, width=16)
               for s in range(2)]
    if trained:
        model = _trained_model(samples)
    else:
        model = VelocityModel.init((8, 16, 16), seed=5, hidden_width=16, zero_final=False)
    _cap_blocks(monkeypatch, model, per_block)
    t_grid = [0.1, 0.5, 0.9]
    curves = gradient_probe(model, samples, _EQUIV_SPECS, t_grid=t_grid,
                            n_noise=PROBE_N_NOISE, noise_seed=3)
    expected = _reference_probe(model, samples, _EQUIV_SPECS, t_grid, PROBE_N_NOISE,
                                noise_seed=3)
    got = np.array([[d for _, d in curve.points] for curve in curves])
    np.testing.assert_allclose(got, expected, rtol=1e-10, atol=0.0)
    assert np.all(got[-1] == 0.0) and np.all(got[:-1] > 0.0)


@_BLOCKINGS
def test_probe_matches_per_copy_gradients_with_narrow_output(trained, per_block, monkeypatch):
    # D = 32 pixels under a width-64 hidden layer: W3 W3^T is 64 x 64 of
    # rank at most 32, the opposite of the probe's default shape
    samples = [_video(seed=s, speed=1.0 + 0.5 * s, tex=0.02, frames=2, height=4, width=4)
               for s in range(2)]
    if trained:
        model = _trained_model(samples, hidden_width=64)
    else:
        model = VelocityModel.init((2, 4, 4), seed=5, hidden_width=64, zero_final=False)
    _cap_blocks(monkeypatch, model, per_block)
    t_grid = [0.1, 0.5, 0.9]
    curves = gradient_probe(model, samples, _EQUIV_SPECS, t_grid=t_grid,
                            n_noise=PROBE_N_NOISE, noise_seed=3)
    expected = _reference_probe(model, samples, _EQUIV_SPECS, t_grid, PROBE_N_NOISE,
                                noise_seed=3)
    got = np.array([[d for _, d in curve.points] for curve in curves])
    np.testing.assert_allclose(got, expected, rtol=1e-10, atol=0.0)
    assert np.all(got[-1] == 0.0) and np.all(got[:-1] > 0.0)


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


def test_probe_rejects_a_negative_noise_seed():
    # numpy's SeedSequence would raise its own ValueError at the first seed
    with pytest.raises(DataError, match="noise_seed must be >= 0, got -1"):
        gradient_probe(_probe_model(), [_video()], [DegradationSpec("blur", 1.0, seed=0)],
                       noise_seed=-1)


def test_probe_curve_invariants():
    curve = GradientProbeCurve(kind="blur", strength=1.0,
                               points=[(0.1, 0.4), (0.9, 0.2)], n_samples=1)
    assert curve.distance_at(0.9) == 0.2
    with pytest.raises(DataError, match="no probe point"):
        curve.distance_at(0.5)


# --- timestep histogram ---------------------------------------------------------


def test_uniform_degenerate_histogram_passes_both_tests():
    # equal scores with kappa_base 2 reduce every law to Beta(1, 1); the
    # draws must look uniform to both the pooled chi-square and the KS
    # statistic
    half = np.full(4, 0.5)
    report = timestep_histogram(TqdSampler(half, half, SamplerConfig()), n_draws=5000,
                                seed=0)
    assert report.n_draws == 5000
    assert report.chi_square_pvalue > 0.001
    assert report.ks_stat < 0.05
    assert sum(obs for _, _, obs, _ in report.bins) == 5000
    for _, _, _, exp in report.bins:
        np.testing.assert_allclose(exp, 5000 / HISTOGRAM_BINS, rtol=1e-9)


@pytest.mark.parametrize("kappa_base", [0.5, 2.0, 4.0])
def test_baseline_arm_histogram_passes_both_tests(kappa_base):
    # the baseline arm, the sampler at equal full scores, holds every
    # record at the equal-score law Beta(kappa_base/2, kappa_base/2) with
    # equal weight; its draws must pass both 1% checks against that table
    ones = np.ones(40)
    config = SamplerConfig(kappa_base=kappa_base, batch_size=1000)
    report = timestep_histogram(TqdSampler(ones, ones, config), 20000, seed=0)
    s = kappa_base / 2.0
    expected = 20000 * np.diff(betainc(s, s, np.linspace(0.0, 1.0, HISTOGRAM_BINS + 1)))
    np.testing.assert_allclose([exp for *_, exp in report.bins], expected, rtol=1e-9)
    assert report.chi_square_pvalue > 0.01
    assert report.ks_stat < 1.6276 / np.sqrt(20000)


def test_high_motion_record_concentrates_mass_high():
    # observed draw mass above one half against the analytic Beta tail,
    # reached through a different code path than the sampler itself
    cfg = SamplerConfig()
    report = timestep_histogram(TqdSampler([1.0], [0.2], cfg), n_draws=5000, seed=1)
    observed_hi = sum(obs for lo, _, obs, _ in report.bins if lo >= 0.5) / 5000
    _, _, alpha, beta = law_table([1.0], [0.2], cfg)
    analytic_hi = 1.0 - betainc(alpha[0], beta[0], 0.5)
    assert observed_hi > 0.9
    assert abs(observed_hi - analytic_hi) < 0.015
    assert report.chi_square_pvalue > 0.001


def test_low_motion_record_mirrors_high_motion():
    # swapping the two quality scores swaps the Beta shape parameters
    # record 0 is high-motion, record 1 its mirror
    cfg = SamplerConfig()
    _, _, alpha, beta = law_table([1.0, 0.2], [0.2, 1.0], cfg)
    np.testing.assert_allclose(alpha[0], beta[1], rtol=1e-12)
    np.testing.assert_allclose(beta[0], alpha[1], rtol=1e-12)
    report = timestep_histogram(TqdSampler([0.2], [1.0], cfg), n_draws=5000, seed=2)
    observed_lo = sum(obs for _, hi, obs, _ in report.bins if hi <= 0.5) / 5000
    assert observed_lo > 0.9


def test_clamped_extreme_law_keeps_censored_ks_small():
    # mu == 1 clamps beta to the minimum shape; the law then carries real
    # mass beyond float resolution near 1, which the censored reference
    # absorbs into a boundary atom
    report = timestep_histogram(TqdSampler([1.0], [0.0], SamplerConfig()), n_draws=5000,
                                seed=3)
    assert report.ks_stat < 0.05


def _full_loop_ks(t, alpha, beta, weights):
    """The KS statistic the unpruned way, with the mixture CDF at every
    distinct draw. Returns it and the index of the distinct draw where
    the largest gap sits."""
    vals, counts = np.unique(np.sort(t), return_counts=True)
    cum = np.cumsum(counts)
    n = len(t)
    cdf = np.zeros_like(vals)
    for a, b, w in zip(alpha, beta, weights):
        cdf += w * betainc(a, b, np.clip(vals, 0.0, 1.0))
    post_jump = cdf.copy()
    post_jump[vals >= 1.0 - T_CLIP] = 1.0
    left_limit = cdf.copy()
    left_limit[vals <= T_CLIP] = 0.0
    d_post = np.abs(cum / n - post_jump)
    d_pre = np.abs((cum - counts) / n - left_limit)
    return float(max(d_post.max(), d_pre.max())), int(np.argmax(np.maximum(d_post, d_pre)))


def _sampler_draws(sampler, n_draws, seed):
    """The draws timestep_histogram takes: whole batches from seed, cut
    to n_draws."""
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < n_draws:
        draws.extend(sampler.prepare_batch(rng).timesteps.tolist())
    return np.array(draws[:n_draws])


def _population_sampler(n_records, config=SamplerConfig()):
    mq, vq = normalize_scores(synth_population(n_records, -0.22, seed=17))
    return TqdSampler(mq, vq, config)


def _table(sampler):
    """The sampler's law shapes and their mixture weights."""
    return sampler.alpha, sampler.beta, sampler.retention / sampler.retention.sum()


def _bench_sampler():
    # the population and sampler of `sample-stats` on the benchmark's
    # 300-record manifest at 20 000 draws: all draws in one batch
    return _population_sampler(300, SamplerConfig(batch_size=20000))


@pytest.mark.parametrize("case", ["clamped-both-atoms", "uniform", "max-between-anchors",
                                  "max-kappa", "duplicated-records"])
def test_histogram_ks_matches_full_loop(case):
    if case == "clamped-both-atoms":
        # mu of 1 and of 0 clamp one shape each to MIN_SHAPE
        sampler, n_draws, seed = TqdSampler([1.0, 0.0], [0.0, 1.0], SamplerConfig()), 5000, 3
    elif case == "uniform":
        sampler, n_draws, seed = TqdSampler([0.5], [0.5], SamplerConfig()), 2000, 3
    elif case == "max-kappa":
        # laws up to a standard deviation of 5e-4: the narrowest pdf
        # spikes, and the density bounds' rounding margin at its largest
        sampler, n_draws, seed = _population_sampler(40, SamplerConfig(kappa_max=MAX_KAPPA)), 5000, 1
    elif case == "duplicated-records":
        mq, vq = normalize_scores(synth_population(5, -0.22, seed=17))
        sampler = TqdSampler(np.concatenate([mq, mq[::-1]]), np.concatenate([vq, vq[::-1]]),
                             SamplerConfig())
        n_draws, seed = 5000, 2
    else:
        sampler, n_draws, seed = _population_sampler(40), 3000, 0
    t = _sampler_draws(sampler, n_draws, seed)
    expected, where = _full_loop_ks(t, *_table(sampler))
    assert timestep_histogram(sampler, n_draws, seed=seed).ks_stat == expected
    if case == "clamped-both-atoms":
        assert t.min() == T_CLIP and t.max() == 1.0 - T_CLIP
    elif case == "max-between-anchors":
        # the largest gap sits inside a coarse bracket, at a draw whose F
        # only the bisection evaluates
        assert where % _KS_STRIDE != 0 and where != len(np.unique(t)) - 1


@pytest.mark.parametrize("case", ["fewer-than-stride", "many-ties", "atoms-below-clip",
                                  "tie-after-deficit", "tie-before-surplus", "weightless-laws"])
def test_pruned_ks_matches_full_loop_on_other_draws(case):
    # draws the sampler does not produce: heavy ties, values below the clip
    # that make the bottom atom span many distinct draws, and a tie that
    # carries the largest gap next to a long deficit or surplus, so that
    # only one of its two one-sided bounds reaches it
    sampler = _population_sampler(5)
    alpha, beta, weights = _table(sampler)
    t = _sampler_draws(sampler, 5000, seed=4)
    quantiles = (np.arange(len(t)) + 0.5) / len(t)
    if case == "fewer-than-stride":
        # every draw between the first and the last lies in one coarse
        # bracket
        t = np.round(t, 1)
        assert len(np.unique(t)) < _KS_STRIDE
    elif case == "many-ties":
        t = np.round(t, 2)
    elif case == "atoms-below-clip":
        # a MIN_SHAPE Beta law's quantiles, unclipped: some 12% lie below
        # T_CLIP, so the bottom atom spans more distinct draws than the
        # anchor spacing and holds some that are not spaced anchors
        alpha, beta, weights = [MIN_SHAPE], [MIN_SHAPE], [1.0]
        quantiles = (np.arange(20000) + 0.5) / 20000
        t = scipy_stats.beta.ppf(quantiles, MIN_SHAPE, MIN_SHAPE)
        assert np.sum(np.unique(t) <= T_CLIP) > _KS_STRIDE
    elif case == "weightless-laws":
        # records at the minimum of both raw scores have retention 0: more
        # than _KS_STRIDE leading laws of weight 0, flat ones as such
        # records get and MIN_SHAPE ones whose pdf is infinite at both ends
        alpha, beta = (np.concatenate([np.ones(1000), np.full(100, MIN_SHAPE), shapes])
                       for shapes in (alpha, beta))
        weights = np.concatenate([np.zeros(1100), weights])
    else:
        # Beta(2, 3) quantiles with every other one of 1000..2999 moved onto
        # quantile 3000 (a deficit) or onto quantile 1000 (a surplus); the
        # tie is distinct draw 2000 or 1000, not an anchor
        alpha, beta, weights = [2.0], [3.0], [1.0]
        t = scipy_stats.beta.ppf(quantiles, 2.0, 3.0)
        if case == "tie-after-deficit":
            t[1000:3000:2] = t[3000]
        else:
            t[1001:3000:2] = t[1000]
    assert _ks_statistic(t, alpha, beta, weights) == _full_loop_ks(t, alpha, beta, weights)[0]


@pytest.mark.parametrize("alpha, beta, drawn_from, n_draws, seed", [
    (MIN_SHAPE, MIN_SHAPE, None, 20000, 5), (0.5, 3.0, None, 20000, 5),
    (3.0, 0.5, None, 20000, 5), (1.0, 1.0, None, 20000, 5), (16.0, 30.0, (14.0, 50.0), 6000, 13),
], ids=["u-shaped", "decreasing", "increasing", "uniform", "misfit"])
def test_pruned_ks_matches_full_loop_on_single_laws(alpha, beta, drawn_from, n_draws, seed):
    # one law whose pdf is infinite at both ends, at one end, or constant
    # (its stationary point is 0/0); and draws from another law, a KS of
    # about 0.76 whose largest gaps lie in the coarse bracket around the
    # law's mode, where only the stationary point gives the pdf maximum
    t = beta_variates(*(drawn_from or (alpha, beta)), np.random.default_rng(seed), n_draws)
    assert _ks_statistic(t, [alpha], [beta], [1.0]) == _full_loop_ks(t, [alpha], [beta], [1.0])[0]


def test_pruned_ks_matches_full_loop_past_one_block():
    # more distinct draws than one block of the first bound pass holds,
    # with the largest gap in a later block
    t = beta_variates(2.2, 3.0, np.random.default_rng(6), 3 * _KS_BLOCK)
    expected, where = _full_loop_ks(t, [2.0], [3.0], [1.0])
    assert where >= _KS_BLOCK
    assert _ks_statistic(t, [2.0], [3.0], [1.0]) == expected


@pytest.mark.parametrize("block", [16, 1000])
def test_pruned_ks_is_the_same_float_in_any_block_size(monkeypatch, block):
    # a block size sets how many draws the first bound pass and how many
    # law pdfs the density bounds hold at once, not the statistic; at 16
    # the 40 laws take eight blocks of the density bounds over the three
    # coarse brackets
    sampler = _population_sampler(40)
    table = _table(sampler)
    t = _sampler_draws(sampler, 3000, seed=0)
    expected, _ = _full_loop_ks(t, *table)
    monkeypatch.setattr(analysis, "_KS_BLOCK", block)
    assert _ks_statistic(t, *table) == expected


def test_density_bounds_hold_the_mixture_pdf():
    # U-shaped, one-sided, uniform, peaked and MAX_KAPPA-narrow laws, over
    # brackets that hold a mode, touch an end or are narrow
    shapes = [(MIN_SHAPE, MIN_SHAPE), (0.5, 3.0), (1.0, 1.0), (1.0, 4.0), (30.0, 12.0),
              (5e5, 5e5)]
    alpha, beta = np.array(shapes).T
    weights = np.full(len(shapes), 1.0 / len(shapes))
    x_lo = np.array([0.0, 0.01, 0.3, 0.4999, 0.5, 0.7, 0.2])
    x_hi = np.array([0.05, 0.9, 0.8, 0.5001, 0.5, 1.0, 0.2 + 1e-9])
    f_min, f_max = analysis._density_bounds(alpha, beta, weights, x_lo, x_hi)
    for lo, hi, fmin, fmax in zip(x_lo, x_hi, f_min, f_max):
        x = np.linspace(lo, hi, 401)
        x = x[(x > 0.0) & (x < 1.0)]
        pdf = sum(w * scipy_stats.beta.pdf(x, a, b) for a, b, w in zip(alpha, beta, weights))
        assert np.all(fmin <= pdf) and np.all(pdf <= fmax)
        assert 0.0 <= fmin <= fmax


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_histogram_ks_matches_full_loop_on_bench_population(seed):
    sampler = _bench_sampler()
    t = _sampler_draws(sampler, 20000, seed)
    expected, _ = _full_loop_ks(t, *_table(sampler))
    assert timestep_histogram(sampler, 20000, seed=seed).ks_stat == expected


def test_ks_evaluates_the_mixture_cdf_at_few_draws(monkeypatch):
    # a bound by monotonicity alone needs F at about 1000 of these draws,
    # the density bounds at about 60
    points = []
    mixture_cdf = analysis._mixture_cdf

    def counting(alpha, beta, weights, x):
        points.append(len(x))
        return mixture_cdf(alpha, beta, weights, x)

    monkeypatch.setattr(analysis, "_mixture_cdf", counting)
    sampler = _bench_sampler()
    t = _sampler_draws(sampler, 20000, seed=0)
    _ks_statistic(t, *_table(sampler))
    assert sum(points) <= 150


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("n_points", [1, 2, 3, 5000])
def test_mixture_cdf_sums_laws_in_record_order(monkeypatch, n_points, block):
    # the bench population with weightless flat laws and MIN_SHAPE laws
    # mixed in, under random weights; at block 7 the laws span many blocks
    # at any number of points. The KS bisection evaluates single points,
    # where a reduce down the laws sums pairwise, not in record order.
    sampler = _bench_sampler()
    flat = [(1.0, 1.0)]
    _, _, corner_alpha, corner_beta = law_table([1.0, 0.0], [0.0, 1.0], SamplerConfig())
    clamped = [(MIN_SHAPE, MIN_SHAPE)] + list(zip(corner_alpha, corner_beta))
    shapes = (flat + clamped) * 7 + list(zip(sampler.alpha, sampler.beta)) + clamped + flat
    alpha, beta = np.array(shapes).T
    rng = np.random.default_rng(n_points)
    weights = rng.random(len(alpha))
    weights[:21:3] = weights[-1] = 0.0
    weights /= weights.sum()
    pool = np.concatenate([[0.0, T_CLIP, 0.5, 1.0 - T_CLIP, 1.0, -0.1, 1.1], rng.random(4993)])
    if block is not None:
        monkeypatch.setattr(analysis, "_KS_BLOCK", block)
    for start in range(0, min(len(pool), 20 * n_points), n_points):
        x = pool[start:start + n_points]
        expected = np.zeros_like(x)
        for a, b, w in zip(alpha, beta, weights):
            expected += w * betainc(a, b, np.clip(x, 0.0, 1.0))
        assert np.array_equal(analysis._mixture_cdf(alpha, beta, weights, x), expected)


@pytest.mark.parametrize("n_records, seed", [(1, 20), (40, 20), (40, 50), (300, 100)])
def test_histogram_pvalue_matches_scipy_chi2(n_records, seed):
    report = timestep_histogram(_population_sampler(n_records), 5000, seed=seed)
    expected = float(scipy_stats.chi2.sf(report.chi_square, report.dof))
    assert report.chi_square_pvalue == pytest.approx(expected, rel=1e-12, abs=0)


def test_histogram_cuts_concatenated_batches_to_n_draws():
    # one draw past the largest batch takes a second batch, of which only
    # its first timestep is used
    sampler = TqdSampler([0.5, 0.9], [0.5, 0.3], SamplerConfig(batch_size=MAX_BATCH_SIZE))
    n_draws = MAX_BATCH_SIZE + 1
    report = timestep_histogram(sampler, n_draws, seed=7)
    rng = np.random.default_rng(7)
    t = np.concatenate([sampler.prepare_batch(rng).timesteps for _ in range(2)])[:n_draws]
    observed = np.histogram(t, np.linspace(0.0, 1.0, HISTOGRAM_BINS + 1))[0]
    assert [obs for _, _, obs, _ in report.bins] == observed.tolist()
    weights = sampler.retention / sampler.retention.sum()
    assert report.ks_stat == _ks_statistic(t, sampler.alpha, sampler.beta, weights)


def test_histogram_validates_arguments():
    sampler = TqdSampler([0.5], [0.5], SamplerConfig())
    with pytest.raises(DataError, match="1000"):
        timestep_histogram(sampler, n_draws=10)
    with pytest.raises(DataError, match=f"n_draws must be <= {MAX_HISTOGRAM_DRAWS}"):
        timestep_histogram(sampler, n_draws=MAX_HISTOGRAM_DRAWS + 1)
    with pytest.raises(DataError, match="seed must be >= 0, got -1"):
        timestep_histogram(sampler, n_draws=2000, seed=-1)


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
    mq, vq = normalize_scores([rec for rec, _ in dataset])
    clean = train([v for _, v in dataset], mq, vq, scfg, tcfg)
    assert rows[0].final_loss == final_loss(clean)


def test_sweep_mu_shift_grows_with_noise_level():
    rows = robustness_sweep(_sweep_dataset(), [0.0, 0.05, 0.2, 1.0],
                            SamplerConfig(batch_size=4),
                            TrainerConfig(steps=4, hidden_width=16, seed=0))
    shifts = [row.mean_mu_shift for row in rows]
    assert shifts == sorted(shifts)
    assert shifts[-1] > shifts[1] > 0.0


def test_sweep_checks_the_mu_shift_order_before_training(monkeypatch):
    # min-max renormalization does not keep the mean |delta mu| in order
    # of the noise level: on this population it falls from level 0.1 to
    # 0.2, and the sweep must say so before it trains at any level
    raw = [(4.56, 3.73), (4.44, 3.87), (1.97, 0.23), (1.23, 0.03), (1.16, 4.57), (0.37, 3.31)]
    dataset = [(QualityRecord(id=f"r{i}", mq_raw=mq, vq_raw=vq),
                _video(seed=i, height=4, width=4)) for i, (mq, vq) in enumerate(raw)]

    def no_training(*args, **kwargs):
        raise AssertionError("train called before the mu shift check")

    monkeypatch.setattr(analysis, "train", no_training)
    with pytest.raises(NumericError, match="between noise levels 0.1 and 0.2"):
        robustness_sweep(dataset, [0.0, 0.1, 0.2], SamplerConfig(batch_size=4),
                         TrainerConfig(steps=4, hidden_width=16, seed=0))


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
