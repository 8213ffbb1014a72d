"""Desk-scale diagnostics: gradient-alignment curves, timestep-draw
statistics, and scorer-noise robustness sweeps.

The gradient probe measures, per timestep, the L2 distance between the
loss gradient computed from an original sample and from a degraded copy
of it, under common random numbers. Motion-destroying degradations
separate at low timesteps, appearance-destroying ones at high timesteps;
that asymmetry is what motivates steering each sample's timestep law by
its relative quality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, chdtrc

from .errors import DataError, NumericError
from .quality import (
    QUADRANTS,
    QualityRecord,
    inject_score_noise,
    normalize_scores,
    partition_quadrants,
    pearson_correlation,
)
from .sampler import SamplerConfig, TqdSampler, bin_masses, compute_mu
from .synth import DegradationSpec, ToyVideo, degrade
from .trainer import TrainerConfig, VelocityModel, final_loss, gradient_distances, train
# the per-copy reference path, kept under this module's name because the
# benchmark (bench/) reads it here
from .trainer import grad_at_timestep  # noqa: F401

# gradient_probe's default timestep grid and noise draws per gradient
PROBE_T_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))
PROBE_N_NOISE = 16

# fewest timestep draws timestep_histogram accepts for stable statistics
MIN_HISTOGRAM_DRAWS = 1000

# _ks_statistic's anchor spacing in distinct draws, and how far below the
# best exact gap a bound may sit and still be evaluated: far above the
# rounding of the mixture CDF's sum
_KS_STRIDE = 32
_KS_SLACK = 1e-9


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

    def __post_init__(self):
        ts = [t for t, _ in self.points]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise DataError("probe timesteps must be strictly increasing")
        if any(d < 0 for _, d in self.points):
            raise DataError("gradient distances cannot be negative")

    def distance_at(self, t: float) -> float:
        for tt, d in self.points:
            if tt == t:
                return d
        raise DataError(f"no probe point at t={t}")


def gradient_probe(
    model: VelocityModel,
    samples: list[ToyVideo],
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
    or shuffle order.
    """
    if not samples:
        raise DataError("gradient probe needs at least one sample")
    if not degradations:
        raise DataError("gradient probe needs at least one degradation")
    if not t_grid:
        raise DataError("t_grid must hold at least one timestep")
    t_grid = [float(t) for t in t_grid]
    if any(not 0.0 < t < 1.0 for t in t_grid):
        raise DataError("t_grid values must lie in the open interval (0, 1)")
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise DataError("t_grid must be strictly increasing")

    degraded = [
        [degrade(video, DegradationSpec(spec.kind, spec.strength,
                                        seed=_derived_seed(spec.seed, i)))
         for spec in degradations]
        for i, video in enumerate(samples)
    ]

    seeds = [[_derived_seed(noise_seed, i, j) for j in range(len(t_grid))]
             for i in range(len(samples))]
    # a non-finite value is reported by gradient_distances' NumericError
    # alone, not also by numpy's overflow warnings
    with np.errstate(all="ignore"):
        dists = gradient_distances(model, samples, degraded, t_grid, seeds, n_noise)
    means = dists.sum(axis=0) / len(samples)
    return [
        GradientProbeCurve(
            kind=spec.kind,
            strength=spec.strength,
            points=[(t_grid[j], float(means[k, j])) for j in range(len(t_grid))],
            n_samples=len(samples),
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

    def __post_init__(self):
        total = sum(obs for _, _, obs, _ in self.bins)
        if total != self.n_draws:
            raise DataError(f"histogram counts sum to {total}, expected {self.n_draws}")


def _mixture_cdf(laws, weights, x: np.ndarray) -> np.ndarray:
    """The weighted mixture CDF at x, summed term by term in record order."""
    cdf = np.zeros_like(x)
    for law, w in zip(laws, weights):
        cdf += w * betainc(law.alpha, law.beta, np.clip(x, 0.0, 1.0))
    return cdf


def _ks_statistic(t: np.ndarray, laws, weights) -> float:
    """One-sample KS statistic of the draws t against the mixture law.

    Draws are clipped into the open unit interval at float eps, and
    strongly one-sided laws (MIN_SHAPE-clamped Beta) carry real mass
    beyond that resolution, so the reference is the censored law with
    atoms at the clip boundaries; comparing against the raw continuous
    CDF would report a spurious gap of up to eps^MIN_SHAPE per component.

    The mixture CDF F costs one betainc call per record and point, so it
    is evaluated only where the maximum can be. First at the anchors,
    every _KS_STRIDE-th distinct sorted draw and the last one. F is
    monotone, so a draw between anchors a and b has F in [F(a), F(b)],
    which bounds both of its one-sided gaps; the best anchor gap is a
    lower bound on the statistic. Then at every draw whose bound comes
    within _KS_SLACK of that, and at every draw on a censoring atom,
    whose gaps follow other rules. Each F value is summed term by term
    in record order, as on all draws, so the result is the same float as
    evaluating F at every distinct draw.
    """
    eps = float(np.finfo(np.float64).eps)
    vals, counts = np.unique(np.sort(t), return_counts=True)
    cum = np.cumsum(counts)
    n = len(t)
    after, before = cum / n, (cum - counts) / n  # empirical CDF at and below each draw

    def gaps(idx, cdf):
        post_jump = np.where(vals[idx] >= 1.0 - eps, 1.0, cdf)  # top atom absorbs the censored tail
        left_limit = np.where(vals[idx] <= eps, 0.0, cdf)  # no censored mass below the bottom atom
        return np.maximum(np.abs(after[idx] - post_jump), np.abs(before[idx] - left_limit))

    m = len(vals)
    cdf = np.empty(m)
    is_anchor = np.zeros(m, dtype=bool)
    is_anchor[::_KS_STRIDE] = True
    is_anchor[-1] = True
    cdf[is_anchor] = _mixture_cdf(laws, weights, vals[is_anchor])
    best = gaps(is_anchor, cdf[is_anchor]).max()

    lo = np.arange(m) // _KS_STRIDE * _KS_STRIDE
    hi = np.minimum(lo + _KS_STRIDE, m - 1)
    bound = np.maximum.reduce([np.abs(after - cdf[lo]), np.abs(after - cdf[hi]),
                               np.abs(before - cdf[lo]), np.abs(before - cdf[hi])])
    atom = (vals <= eps) | (vals >= 1.0 - eps)
    rest = ~is_anchor & ((bound > best - _KS_SLACK) | atom)
    cdf[rest] = _mixture_cdf(laws, weights, vals[rest])
    exact = is_anchor | rest
    return float(gaps(exact, cdf[exact]).max())


def timestep_histogram(
    sampler: TqdSampler,
    n_draws: int,
    n_bins: int = 50,
) -> HistogramReport:
    """Draw timesteps through the sampler's batch-preparation path and
    compare against the analytic mixture law.

    The draws use the seed and batch size of `sampler.config`. The mixture
    weights each record's timestep law by its retention probability
    (renormalized over the dataset), which is exactly the long-run record
    frequency the rejection loop produces. A chi-square or KS statistic
    that is not finite is NumericError.
    """
    if n_draws < MIN_HISTOGRAM_DRAWS:
        raise DataError(f"need at least {MIN_HISTOGRAM_DRAWS} draws for stable "
                        f"statistics, got {n_draws}")
    if n_bins < 2:
        raise DataError(f"need at least 2 bins, got {n_bins}")
    rng = np.random.default_rng(sampler.config.seed)
    draws = []
    batch_size = sampler.config.batch_size
    while len(draws) < n_draws:
        batch = sampler.prepare_batch(batch_size, rng)
        draws.extend(batch.timesteps.tolist())
    t = np.array(draws[:n_draws])

    edges = np.linspace(0.0, 1.0, n_bins + 1)
    observed = np.histogram(t, bins=edges)[0]

    weights = sampler.retention / sampler.retention.sum()
    masses = np.zeros(n_bins)
    for law, w in zip(sampler.laws, weights):
        masses += w * bin_masses(law, edges)
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
    if acc_e > 0 and groups:
        last_o, last_e = groups[-1]
        groups[-1] = (last_o + acc_o, last_e + acc_e)
    elif acc_e > 0:
        groups.append((acc_o, acc_e))
    chi_square = float(sum((o - e) ** 2 / e for o, e in groups))
    dof = max(1, len(groups) - 1)
    pvalue = float(chdtrc(dof, chi_square))

    ks_stat = _ks_statistic(t, sampler.laws, weights)
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
    noise_seed: int = 0,
) -> list[SweepRow]:
    """Score-noise robustness: retrain at each noise level, same seeds.

    dataset pairs QualityRecords (raw scores; normalization is redone
    here) with their videos. Every level perturbs the same underlying
    noise draw scaled up (common random numbers), so the mean |delta mu|
    must be non-decreasing in the level; a violation raises NumericError
    rather than returning a silently inconsistent table. Level 0 is the
    clean run itself, bit-identical to training on the input records.
    """
    if any(lv < 0 for lv in noise_levels):
        raise DataError("noise levels must be >= 0")
    records = [rec for rec, _ in dataset]
    videos = [vid for _, vid in dataset]
    clean_records, _ = normalize_scores(records)
    clean_mu = np.array([compute_mu(r.mq_norm, r.vq_norm) for r in clean_records])

    rows = []
    for level in noise_levels:
        noisy = inject_score_noise(records, level, noise_seed)
        noisy_records, _ = normalize_scores(noisy)
        mu = np.array([compute_mu(r.mq_norm, r.vq_norm) for r in noisy_records])
        shift = float(np.mean(np.abs(mu - clean_mu)))
        state = train(list(zip(noisy_records, videos)), sampler_config, trainer_config)
        rows.append(SweepRow(noise_level=float(level), final_loss=final_loss(state),
                             mean_mu_shift=shift))

    by_level = sorted(rows, key=lambda r: r.noise_level)
    for a, b in zip(by_level, by_level[1:]):
        if b.mean_mu_shift < a.mean_mu_shift - 1e-12:
            raise NumericError(
                f"mu shift decreased between noise levels {a.noise_level} and "
                f"{b.noise_level} ({a.mean_mu_shift} -> {b.mean_mu_shift})")
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

    Thresholds default to the per-metric medians of the raw scores.
    """
    if not records:
        raise DataError("no records to report on (empty after filtering?)")
    mq = np.array([r.mq_raw for r in records])
    vq = np.array([r.vq_raw for r in records])
    if mq_threshold is None:
        mq_threshold = float(np.median(mq))
    if vq_threshold is None:
        vq_threshold = float(np.median(vq))
    part = partition_quadrants(records, mq_threshold, vq_threshold)
    corr = pearson_correlation(records)
    data = {
        "n": len(records),
        "mq_threshold": mq_threshold,
        "vq_threshold": vq_threshold,
        "counts": dict(part.counts),
        "fractions": dict(part.fractions),
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
        lines.append(f"{key:<9} {part.counts[key]:>6}  {part.fractions[key]:.4f}")
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
