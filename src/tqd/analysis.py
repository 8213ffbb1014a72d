"""Desk-scale diagnostics: gradient-alignment curves, timestep-draw
statistics, and scorer-noise robustness sweeps.

The gradient probe measures, per timestep, the L2 distance between the
loss gradient computed from an original sample and from a degraded copy
of it, under common random numbers. On a trained model, shuffle (motion
damage) keeps the gradients closer at low timesteps than at high ones,
and blur, compression and noise (appearance damage) at high timesteps.
That asymmetry motivates steering each sample's timestep law by its
relative quality.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .quality import (
    QUADRANTS,
    QualityRecord,
    inject_score_noise,
    normalize_scores,
    pearson_correlation,
    quadrants,
)
from .sampler import T_CLIP, SamplerConfig, TqdSampler, law_table
from .synth import DegradationSpec, ToyVideo, degrade
from .trainer import TrainerConfig, VelocityModel, final_loss, gradient_distances, train
# the per-copy reference path, kept under this module's name because the
# benchmark (bench/) reads it here
from .trainer import grad_at_timestep  # noqa: F401

# gradient_probe's default timestep grid and noise draws per gradient
PROBE_T_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))
PROBE_N_NOISE = 16

# Longest t_grid gradient_probe accepts: it holds one sample's noise seeds
# at a time (a Python int per timestep, about 40 KB at this length) and
# returns a float64 per sample, degradation and timestep: 64 MiB at
# cli.MAX_PROBE_SAMPLES samples and MAX_PROBE_DEGRADATIONS, twice that while
# gradient_distances stacks its rows. The longest grid in use has 9 points.
MAX_PROBE_TIMESTEPS = 1024
# Most degradations gradient_probe accepts: it holds one sample's degraded
# copies at a time, 512 KiB each at synth.MAX_CLIP_PIXELS (4 MiB at this
# limit), and each copy adds 2 n_noise hidden_width float64s per timestep
# to gradient_distances' blocks. The most in use is 5.
MAX_PROBE_DEGRADATIONS = 8

# equal-width bins of (0, 1) that timestep_histogram counts draws in
HISTOGRAM_BINS = 50

# fewest timestep draws timestep_histogram accepts for stable statistics
MIN_HISTOGRAM_DRAWS = 1000

# largest n_draws timestep_histogram accepts: its draws, their distinct
# values and _ks_statistic's per-draw arrays take about 80 bytes per draw,
# and `sample-stats` at this limit on 1000 records peaks at 140 MB RSS
MAX_HISTOGRAM_DRAWS = 1_000_000

# _ks_statistic's coarse anchor spacing in distinct draws; how far below the
# best exact gap a bound may sit and still be evaluated (far above the
# rounding of the mixture CDF's sum); and how few candidate draws it
# evaluates at once instead of bisecting their brackets (on the benchmark's
# 300-record population at 20 000 draws, seeds 0-19, that takes 8.7
# mixture-CDF calls per statistic where bisection to the end takes 10.3,
# at the same 64 points)
_KS_STRIDE = 1024
_KS_SLACK = 1e-9
_KS_FEW = 8
# relative widening of the mixture density bounds. At MAX_KAPPA,
# gammaln(a + b) is about 1.3e7, so the log-density carries about 1e-9 of
# rounding; the margin is far above that and costs almost no pruning.
_KS_DENSITY_MARGIN = 1e-6
# draws per block of _ks_statistic's first bound pass, which holds about a
# dozen temporaries per draw: a block keeps them to a few MB however many
# draws there are, and the benchmark's 20 000 draws stay one block
_KS_BLOCK = 32768


def _derived_seed(*parts: int) -> int:
    """Stable scalar seed from a tuple of indices (for CRN streams)."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


@dataclass(frozen=True)
class GradientProbeCurve:
    """Mean gradient distance per timestep for one degradation setting."""

    kind: str
    strength: float
    points: list  # of (t, mean L2 distance)
    n_samples: int

    def distance_at(self, t: float) -> float:
        for tt, d in self.points:
            if tt == t:
                return d
        raise DataError(f"no probe point at t={t}")


def gradient_probe(
    model: VelocityModel,
    samples: Iterable[ToyVideo],
    degradations: list[DegradationSpec],
    t_grid=PROBE_T_GRID,
    n_noise: int = PROBE_N_NOISE,
    noise_seed: int = 0,
) -> list[GradientProbeCurve]:
    """Gradient-distance curves, one per degradation.

    For sample i at grid point t_j, the probe measures how far the
    full-parameter loss gradient of each degraded copy lies from that of
    the original video, all under one noise stream derived from
    (noise_seed, i, j): common random numbers, so the distance reflects
    the degradation rather than noise resampling. The distances come from
    per-layer Gram matrices (trainer.gradient_distances); no gradient is
    formed. Per-sample degradation randomness is derived from the spec
    seed and the sample index, so two samples never share a noise field
    or shuffle order. noise_seed must be >= 0.

    samples may be any iterable, read once. The probe streams it as one
    generator of (sample, copies, seeds) items: a sample is degraded and
    its len(t_grid) noise seeds derived only when gradient_distances asks
    for its item, so a generator of samples is held one sample, its
    copies and its seeds at a time. What grows with the number of samples
    is 8 bytes per distance entry, one per sample, degradation and
    timestep.
    """
    if not degradations:
        raise DataError("gradient probe needs at least one degradation")
    if len(degradations) > MAX_PROBE_DEGRADATIONS:
        raise DataError(f"gradient probe takes at most {MAX_PROBE_DEGRADATIONS} "
                        f"degradations, got {len(degradations)}")
    if not t_grid:
        raise DataError("t_grid must hold at least one timestep")
    if len(t_grid) > MAX_PROBE_TIMESTEPS:
        raise DataError(f"t_grid must hold at most {MAX_PROBE_TIMESTEPS} timesteps, "
                        f"got {len(t_grid)}")
    t_grid = [float(t) for t in t_grid]
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise DataError("t_grid must be strictly increasing")
    if noise_seed < 0:
        raise DataError(f"noise_seed must be >= 0, got {noise_seed}")

    # one (sample, copies, seeds) item at a time, made when it is asked for
    items = ((video,
              [degrade(video, DegradationSpec(spec.kind, spec.strength,
                                              seed=_derived_seed(spec.seed, i)))
               for spec in degradations],
              [_derived_seed(noise_seed, i, j) for j in range(len(t_grid))])
             for i, video in enumerate(samples))
    # a non-finite value is reported by gradient_distances' NumericError
    # alone, not also by numpy's overflow warnings
    with np.errstate(all="ignore"):
        dists = gradient_distances(model, items, t_grid, n_noise)
    if not len(dists):
        raise DataError("gradient probe needs at least one sample")
    # numpy sums the (samples, K, T) stack over samples row by row, except
    # at K T = 1, where it sums the one column pairwise: summing the stack,
    # not a running total, keeps the means' floats in both cases
    means = dists.sum(axis=0) / len(dists)
    return [
        GradientProbeCurve(
            kind=spec.kind,
            strength=spec.strength,
            points=[(t_grid[j], float(means[k, j])) for j in range(len(t_grid))],
            n_samples=len(dists),
        )
        for k, spec in enumerate(degradations)
    ]


# --- timestep statistics ------------------------------------------------------

@dataclass(frozen=True)
class HistogramReport:
    """Observed vs expected timestep counts over a fixed partition of (0,1).

    Expected counts come from the retention-weighted mixture of the
    records' timestep laws. The chi-square statistic pools adjacent bins
    until each group's expected count reaches 5 (the usual validity
    floor); dof = pooled groups - 1.
    """

    bins: list  # of (lo, hi, observed, expected)
    chi_square: float
    chi_square_pvalue: float
    dof: int
    ks_stat: float
    n_draws: int


def _mixture_sum(alpha, beta, weights, x: np.ndarray, f):
    """Sum of weight * f(alpha, beta, x) over the laws, added in record
    order as a loop of += would: a cumulative sum down each block's (laws x
    points) table, which carries the sum so far into its first row (a
    reduce sums one point pairwise). A block holds at most _KS_BLOCK values."""
    w, a, b = (np.asarray(v, dtype=float)[:, None] for v in (weights, alpha, beta))
    total = 0.0
    rows = max(1, _KS_BLOCK // max(1, x.size))
    for start in range(0, len(w), rows):
        terms = w[start:start + rows] * f(a[start:start + rows], b[start:start + rows], x)
        terms[0] += total
        total = np.cumsum(terms, axis=0)[-1]
    return total


def _mixture_cdf(alpha, beta, weights, x: np.ndarray) -> np.ndarray:
    """The weighted mixture CDF at x, summed term by term in record order."""
    from scipy.special import betainc

    return _mixture_sum(alpha, beta, weights, np.clip(x, 0.0, 1.0), betainc)


def _density_bounds(alpha, beta, weights, x_lo: np.ndarray, x_hi: np.ndarray):
    """Lower and upper bounds on the mixture pdf over each [x_lo, x_hi]
    in [0, 1].

    The log-derivative (a-1)/x - (b-1)/(1-x) of a Beta(a, b) pdf is zero
    at most once on (0, 1), at (a-1)/(a+b-2), so each law's pdf over a
    bracket takes its extremes among the two ends and that point clipped
    into the bracket. A shape below 1 makes the pdf infinite at 0 or 1
    and huge near it; the upper bound then says nothing. Both bounds are
    widened by _KS_DENSITY_MARGIN. Laws go in blocks sized so that a
    temporary holds at most _KS_BLOCK values, as in the first bound pass.
    """
    from scipy.special import gammaln, xlog1py, xlogy

    w = np.asarray(weights, dtype=float)
    keep = w > 0  # a weightless law adds nothing, and 0 * inf would be NaN
    w, a, b = (np.asarray(v, dtype=float)[keep, None] for v in (w, alpha, beta))
    f_min = np.zeros_like(x_lo)
    f_max = np.zeros_like(x_lo)
    rows = max(1, _KS_BLOCK // max(1, len(x_lo)))
    for start in range(0, len(w), rows):
        wk, ak, bk = w[start:start + rows], a[start:start + rows], b[start:start + rows]
        log_norm = gammaln(ak + bk) - gammaln(ak) - gammaln(bk)
        # at a + b == 2 the log-derivative has no zero, or is 0 throughout
        with np.errstate(divide="ignore", invalid="ignore"):
            stationary = np.where(ak + bk != 2.0, (ak - 1.0) / (ak + bk - 2.0), 0.5)
        pdfs = [np.exp(log_norm + xlogy(ak - 1.0, p) + xlog1py(bk - 1.0, -p))
                for p in (x_lo, x_hi, np.clip(stationary, x_lo, x_hi))]
        f_min += (wk * np.minimum.reduce(pdfs)).sum(axis=0)
        f_max += (wk * np.maximum.reduce(pdfs)).sum(axis=0)
    return f_min * (1.0 - _KS_DENSITY_MARGIN), f_max * (1.0 + _KS_DENSITY_MARGIN)


def _ks_statistic(t: np.ndarray, alpha, beta, weights) -> float:
    """One-sample KS statistic of the draws t against the mixture law.

    Draws are clipped into the open unit interval at sampler.T_CLIP, and
    strongly one-sided laws (MIN_SHAPE-clamped Beta) carry real mass
    beyond that bound, so the reference is the censored law with atoms at
    the clip boundaries; comparing against the raw continuous CDF would
    report a spurious gap of up to T_CLIP^MIN_SHAPE per component.

    The mixture CDF F costs one incomplete-beta value per record and
    point, so it is evaluated only where the maximum can be. First at the
    coarse anchors: every _KS_STRIDE-th distinct sorted draw, the last one
    and every draw on a censoring atom, whose gaps follow other rules. The
    best anchor gap is a lower bound on the statistic. Between two
    neighbouring spaced anchors the mixture pdf lies in [f_min, f_max]
    (_density_bounds), so a draw at distance d_l above its nearest
    evaluated draw l and d_h below its nearest evaluated draw h has F in
    [max(F_l + d_l f_min, F_h - d_h f_max), min(F_l + d_l f_max,
    F_h - d_h f_min)], inside the monotone bounds [F_l, F_h]. That
    bounds both of its one-sided gaps. Bisection then evaluates the
    midpoint of every bracket that holds a draw whose bound comes within
    _KS_SLACK of the best gap so far, or every such draw once at most
    _KS_FEW are left, until none is left. Each F value is summed term by
    term in record order, as on all draws, so the result is the same
    float as evaluating F at every distinct draw.
    """
    vals, counts = np.unique(t, return_counts=True)
    cum = np.cumsum(counts)
    n = len(t)
    after, before = cum / n, (cum - counts) / n  # empirical CDF at and below each draw

    def gaps(idx, cdf):
        # the top atom absorbs the censored tail; no censored mass lies
        # below the bottom atom
        post_jump = np.where(vals[idx] >= 1.0 - T_CLIP, 1.0, cdf)
        left_limit = np.where(vals[idx] <= T_CLIP, 0.0, cdf)
        return np.maximum(np.abs(after[idx] - post_jump), np.abs(before[idx] - left_limit))

    m = len(vals)
    cdf = np.empty(m)
    known = (vals <= T_CLIP) | (vals >= 1.0 - T_CLIP)
    known[::_KS_STRIDE] = True
    known[-1] = True
    anchors = np.flatnonzero(known)
    cdf[anchors] = _mixture_cdf(alpha, beta, weights, vals[anchors])
    best = gaps(anchors, cdf[anchors]).max()

    # density bounds over the brackets between spaced anchors; an atom
    # inside one only splits it
    x = np.clip(vals, 0.0, 1.0)  # where F is evaluated
    ends = np.append(np.arange(0, m - 1, _KS_STRIDE), m - 1)
    f_min, f_max = _density_bounds(alpha, beta, weights, x[ends[:-1]], x[ends[1:]])

    def reaching(live):
        """The draws of live whose bounds come within _KS_SLACK of the best
        gap, with their nearest evaluated draws below and above."""
        evaluated = np.flatnonzero(known)
        k = np.searchsorted(evaluated, live)
        lo, hi = evaluated[k - 1], evaluated[k]
        bracket = live // _KS_STRIDE
        d_lo, d_hi = x[live] - x[lo], x[hi] - x[live]
        # valid density bounds keep these inside the monotone bounds
        # [F_lo, F_hi], which they reach where f_min is 0 and f_max infinite
        f_low = np.maximum(cdf[lo] + d_lo * f_min[bracket], cdf[hi] - d_hi * f_max[bracket])
        f_high = np.minimum(cdf[lo] + d_lo * f_max[bracket], cdf[hi] - d_hi * f_min[bracket])
        bound = np.maximum.reduce([np.abs(after[live] - f_low), np.abs(after[live] - f_high),
                                   np.abs(before[live] - f_low), np.abs(before[live] - f_high)])
        reach = bound > best - _KS_SLACK
        return live[reach], lo[reach], hi[reach]

    # the first pass bounds every draw that is not an anchor, a block at a
    # time; each draw's bound depends on the anchors alone, so the blocks
    # keep the same draws as one pass over all of them
    live = np.flatnonzero(~known)
    blocks = [reaching(live[i:i + _KS_BLOCK]) for i in range(0, live.size or 1, _KS_BLOCK)]
    live, lo, hi = (np.concatenate(parts) for parts in zip(*blocks))
    while live.size:
        new = live if live.size <= _KS_FEW else np.unique((lo + hi) // 2)
        cdf[new] = _mixture_cdf(alpha, beta, weights, vals[new])
        known[new] = True
        best = np.maximum(best, gaps(new, cdf[new]).max())  # keeps a NaN
        live, lo, hi = reaching(live[~known[live]])
    return float(best)


def timestep_histogram(sampler: TqdSampler, n_draws: int, seed: int = 0) -> HistogramReport:
    """Draw timesteps through the sampler's batch-preparation path and
    compare against the analytic mixture of its law table, over
    HISTOGRAM_BINS bins.

    The draws use `seed` (>= 0) and the batch size of `sampler.config`.
    The mixture weights each record's timestep law by its retention
    probability (renormalized over the dataset), which is exactly the
    long-run record frequency the sampler produces. A chi-square or
    KS statistic that is not finite is NumericError.
    """
    from scipy.special import betainc, chdtrc

    if n_draws < MIN_HISTOGRAM_DRAWS:
        raise DataError(f"need at least {MIN_HISTOGRAM_DRAWS} draws for stable "
                        f"statistics, got {n_draws}")
    if n_draws > MAX_HISTOGRAM_DRAWS:
        raise DataError(f"n_draws must be <= {MAX_HISTOGRAM_DRAWS}, got {n_draws}")
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    draws = []
    n_drawn = 0
    while n_drawn < n_draws:
        draws.append(sampler.prepare_batch(rng).timesteps)
        n_drawn += draws[-1].size
    t = np.concatenate(draws)[:n_draws]

    edges = np.linspace(0.0, 1.0, HISTOGRAM_BINS + 1)
    observed = np.histogram(t, bins=edges)[0]

    weights = sampler.retention / sampler.retention.sum()
    # each row differences one law's CDF at the edges
    masses = _mixture_sum(sampler.alpha, sampler.beta, weights, edges,
                          lambda a, b, x: np.diff(betainc(a, b, x)))
    # per-record Beta mass over (0,1) integrates to 1, so no renormalization
    expected = n_draws * masses

    # pooled chi-square: group adjacent bins until expected >= 5
    groups = []
    acc_o, acc_e = 0.0, 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            groups.append((acc_o, acc_e))
            acc_o, acc_e = 0.0, 0.0
    if acc_e > 0:  # expected sums to n_draws >= 1000: a group has closed
        last_o, last_e = groups[-1]
        groups[-1] = (last_o + acc_o, last_e + acc_e)
    chi_square = float(sum((o - e) ** 2 / e for o, e in groups))
    dof = max(1, len(groups) - 1)
    pvalue = float(chdtrc(dof, chi_square))

    ks_stat = _ks_statistic(t, sampler.alpha, sampler.beta, weights)
    if not (np.isfinite(chi_square) and np.isfinite(ks_stat)):
        raise NumericError(f"non-finite goodness-of-fit statistic: chi-square "
                           f"{chi_square}, KS {ks_stat}")

    bins = [
        (float(edges[i]), float(edges[i + 1]), int(observed[i]), float(expected[i]))
        for i in range(len(observed))
    ]
    return HistogramReport(bins=bins, chi_square=chi_square, chi_square_pvalue=pvalue,
                           dof=dof, ks_stat=ks_stat, n_draws=n_draws)


# --- robustness ---------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    noise_level: float
    final_loss: float
    mean_mu_shift: float


def robustness_sweep(
    dataset,
    noise_levels: list[float],
    sampler_config: SamplerConfig,
    trainer_config: TrainerConfig,
) -> list[SweepRow]:
    """Score-noise robustness: retrain at each noise level, same seeds.

    dataset pairs QualityRecords (raw scores) with their videos; each
    level normalizes its own noisy scores. Every level perturbs the same
    underlying noise draw, seeded by trainer_config.seed as `tqd train
    --noise-level` seeds it, scaled up (common random numbers), so the
    row at level L is the final loss of that command at L. The mean
    |delta mu| is checked to be non-decreasing in the level before any
    training: min-max renormalization can break that order, and a
    violation raises NumericError rather than returning a silently
    inconsistent table. Level 0 is the clean run itself, bit-identical to
    training on the normalized input scores.
    """
    if any(lv < 0 for lv in noise_levels):
        raise DataError("noise levels must be >= 0")
    records = [rec for rec, _ in dataset]
    videos = [vid for _, vid in dataset]

    def centers(mq, vq):
        return law_table(mq, vq, sampler_config)[0]

    clean_mu = centers(*normalize_scores(records))
    levels = []
    for level in noise_levels:
        mq, vq = normalize_scores(inject_score_noise(records, level, trainer_config.seed))
        shift = float(np.mean(np.abs(centers(mq, vq) - clean_mu)))
        levels.append((float(level), mq, vq, shift))

    by_level = sorted(levels, key=lambda lv: lv[0])
    for (lo, *_, a), (hi, *_, b) in zip(by_level, by_level[1:]):
        if b < a - 1e-12:
            raise NumericError(
                f"mu shift decreased between noise levels {lo} and {hi} ({a} -> {b})")
    rows = []
    for level, mq, vq, shift in levels:
        state = train(videos, mq, vq, sampler_config, trainer_config)
        rows.append(SweepRow(noise_level=level, final_loss=final_loss(state),
                             mean_mu_shift=shift))
    return rows


# --- quadrant reporting -------------------------------------------------------

@dataclass(frozen=True)
class QuadrantReport:
    """Machine- and human-readable summary of the quality landscape."""

    data: dict
    text: str


def quadrant_report(
    records: list[QualityRecord],
    mq_threshold: float | None = None,
    vq_threshold: float | None = None,
) -> QuadrantReport:
    """Quadrant fractions plus score correlation, as JSON dict and table.

    Records split as quality.quadrants splits them, at the medians by default.
    """
    labels, mq_threshold, vq_threshold = quadrants(records, mq_threshold, vq_threshold)
    counts = {key: int(np.count_nonzero(labels == key)) for key in QUADRANTS}
    fractions = {k: counts[k] / len(records) for k in QUADRANTS}
    corr = pearson_correlation(records)
    data = {
        "n": len(records),
        "mq_threshold": mq_threshold,
        "vq_threshold": vq_threshold,
        "counts": counts,
        "fractions": fractions,
        "pearson_r": corr.pearson_r,
        "p_value": corr.p_value,
    }
    lines = [
        f"records: {len(records)}",
        f"pearson r(mq, vq): {corr.pearson_r:+.4f}  (p = {corr.p_value:.3g})",
        f"thresholds: mq > {mq_threshold:.4g}, vq > {vq_threshold:.4g}",
        "quadrant   count  fraction",
    ]
    for key in QUADRANTS:
        lines.append(f"{key:<9} {counts[key]:>6}  {fractions[key]:.4f}")
    return QuadrantReport(data=data, text="\n".join(lines) + "\n")


# --- report serialization -----------------------------------------------------

def probe_curves_csv(curves: list[GradientProbeCurve]) -> str:
    lines = ["degradation,strength,t,mean_distance,n_samples"]
    for curve in curves:
        for t, d in curve.points:
            lines.append(f"{curve.kind},{float(curve.strength)!r},{float(t)!r},"
                         f"{float(d)!r},{curve.n_samples}")
    return "\n".join(lines) + "\n"


def histogram_csv(report: HistogramReport) -> str:
    lines = ["lo,hi,observed,expected"]
    for lo, hi, obs, exp in report.bins:
        lines.append(f"{float(lo)!r},{float(hi)!r},{obs},{float(exp)!r}")
    return "\n".join(lines) + "\n"


def sweep_csv(rows: list[SweepRow]) -> str:
    lines = ["noise_level,final_loss,mean_mu_shift"]
    for row in rows:
        lines.append(f"{row.noise_level!r},{row.final_loss!r},{row.mean_mu_shift!r}")
    return "\n".join(lines) + "\n"
