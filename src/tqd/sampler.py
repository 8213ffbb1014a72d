"""Quality-decoupled timestep sampling.

The two-level mechanism implemented here:

1. Sample-level dropout. During batch preparation a record is retained
   with probability max(vq_norm, mq_norm), its best quality. Records weak
   on both axes are naturally down-weighted.
2. Per-sample timestep law. Each retained record draws its training
   timestep t in [0, 1] from Beta(mu*kappa, (1-mu)*kappa), where
   mu = 0.5 + 0.5*(mq_norm - vq_norm) centers the distribution (motion-
   dominant samples toward noisy high t, visually clean samples toward
   low t) and kappa = kappa_base + (kappa_max - kappa_base)*|mq - vq|
   sharpens it with the quality disparity. Equal scores degenerate to
   the baseline law Beta(kappa_base/2, kappa_base/2): uniform for
   kappa_base = 2.

Beta draws are built from scratch out of two Gamma variates via the
Marsaglia-Tsang squeeze method; only uniform/normal primitives of the
supplied numpy Generator are consumed, so sequences are reproducible
from the seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DataError, SamplingError
from .quality import QualityRecord

_OPEN_EPS = np.finfo(np.float64).eps  # nudge for the open interval (0,1)

# Numerical floor for Beta shape parameters: mu of exactly 0 or 1 would
# otherwise give an ill-defined zero shape.
MIN_SHAPE = 0.05

# prepare_batch gives up after this many rejection attempts per batch slot
# of the configured batch size.
ATTEMPTS_PER_SLOT = 1000

# Largest kappa_max SamplerConfig accepts. A Beta law this concentrated has
# a standard deviation of at most 1/(2 sqrt(MAX_KAPPA)) = 5e-4, a fortieth
# of timestep_histogram's default bin; at 1e100 its KS statistic is no
# longer finite.
MAX_KAPPA = 1e6


@dataclass(frozen=True)
class SamplerConfig:
    """Settings of the timestep sampler.

    kappa_base 2 reproduces uniform baseline sampling, 4 approximates a
    logit-normal-like centered law; kappa_max is the concentration at full
    quality disparity, at most MAX_KAPPA. seed drives
    `timestep_histogram`'s draws. The shape floor (MIN_SHAPE) and the
    rejection-attempt cap (ATTEMPTS_PER_SLOT x batch_size) are module
    constants.
    """

    kappa_base: float = 2.0
    kappa_max: float = 20.0
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        if not self.kappa_base > 0:
            raise DataError(f"kappa_base must be > 0, got {self.kappa_base}")
        if not self.kappa_max >= self.kappa_base:
            raise DataError(
                f"kappa_max ({self.kappa_max}) must be >= kappa_base ({self.kappa_base})")
        if not self.kappa_max <= MAX_KAPPA:
            raise DataError(f"kappa_max must be <= {MAX_KAPPA:g}, got {self.kappa_max}")
        if self.batch_size < 1:
            raise DataError(f"batch_size must be positive, got {self.batch_size}")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class TimestepLaw:
    """Per-sample Beta(alpha, beta) timestep distribution.

    mu and kappa are the pre-clamp values (alpha + beta == kappa exactly
    before the MIN_SHAPE floor); alpha/beta carry the clamped shapes used
    for drawing.
    """

    mu: float
    kappa: float
    alpha: float
    beta: float

    @property
    def mean(self) -> float:
        """Analytical mean of the clamped law."""
        return self.alpha / (self.alpha + self.beta)


def _check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise DataError(f"{name} must be in [0, 1], got {value}")


def compute_mu(mq_norm: float, vq_norm: float) -> float:
    """Distribution center from relative quality: 0.5 + 0.5*(mq - vq)."""
    _check_unit("mq_norm", mq_norm)
    _check_unit("vq_norm", vq_norm)
    return 0.5 + 0.5 * (mq_norm - vq_norm)


def compute_kappa(mq_norm: float, vq_norm: float, config: SamplerConfig) -> float:
    """Concentration from quality disparity, linear between kappa_base and kappa_max."""
    _check_unit("mq_norm", mq_norm)
    _check_unit("vq_norm", vq_norm)
    return config.kappa_base + (config.kappa_max - config.kappa_base) * abs(mq_norm - vq_norm)


def make_law(record: QualityRecord, config: SamplerConfig) -> TimestepLaw:
    """Build the record's timestep law from its normalized scores.

    Shapes are floored at MIN_SHAPE: mu of exactly 0 or 1 would otherwise
    give a zero shape parameter, which is not a distribution.
    """
    if not record.is_normalized:
        raise DataError(f"record {record.id!r} is not normalized")
    mu = compute_mu(record.mq_norm, record.vq_norm)
    kappa = compute_kappa(record.mq_norm, record.vq_norm, config)
    alpha = max(mu * kappa, MIN_SHAPE)
    beta = max((1.0 - mu) * kappa, MIN_SHAPE)
    return TimestepLaw(mu=mu, kappa=kappa, alpha=alpha, beta=beta)


def retention_probability(record: QualityRecord) -> float:
    """Dropout survival probability: the record's best normalized quality."""
    if not record.is_normalized:
        raise DataError(f"record {record.id!r} is not normalized")
    return max(record.vq_norm, record.mq_norm)


# --- Beta sampling via Marsaglia-Tsang Gamma variates -----------------------

def gamma_variates(shape, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw `size` Gamma(shape, 1) variates, vectorized over rejection rounds.

    Marsaglia-Tsang: for a >= 1, squeeze-accept d*v with v = (1 + c*x)^3,
    d = a - 1/3, c = 1/sqrt(9d). Shapes below 1 use the boost transform:
    draw at a+1, then multiply by U^(1/a). `shape` may be a scalar or an
    array of per-draw shapes broadcastable to `size`.
    """
    a = np.broadcast_to(np.asarray(shape, dtype=np.float64), (size,)).copy()
    if np.any(a <= 0) or not np.all(np.isfinite(a)):
        raise DataError("gamma shape parameters must be positive and finite")
    boost = a < 1.0
    a_eff = np.where(boost, a + 1.0, a)
    d = a_eff - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    out = np.empty(size, dtype=np.float64)
    todo = np.arange(size)
    while todo.size:
        x = rng.standard_normal(todo.size)
        u = rng.random(todo.size)
        v = (1.0 + c[todo] * x) ** 3
        pos = v > 0.0
        squeeze = u < 1.0 - 0.0331 * x**4
        with np.errstate(invalid="ignore", divide="ignore"):
            slow = np.log(u) < 0.5 * x**2 + d[todo] * (1.0 - v + np.log(np.where(pos, v, 1.0)))
        accept = pos & (squeeze | slow)
        idx = todo[accept]
        out[idx] = d[idx] * v[accept]
        todo = todo[~accept]
    if boost.any():
        u = rng.random(int(boost.sum()))
        out[boost] *= u ** (1.0 / a[boost])
    return out


def beta_variates(alpha, beta, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw Beta(alpha, beta) variates as g1/(g1+g2) from two Gamma draws.

    Results are nudged off exact 0/1 by machine-epsilon scale so every
    draw lies strictly inside (0, 1).
    """
    g1 = gamma_variates(alpha, rng, size)
    g2 = gamma_variates(beta, rng, size)
    t = g1 / (g1 + g2)
    return np.clip(t, _OPEN_EPS, 1.0 - _OPEN_EPS)


def density_curve(law: TimestepLaw, grid_points: int = 512) -> tuple[np.ndarray, np.ndarray]:
    """Beta pdf of the law on the midpoint grid t_i = (i + 0.5)/G over (0, 1).

    The normalizing constant is computed through the log-gamma function
    for stability at large shapes. For laws with alpha, beta >= 1 the
    trapezoidal integral over the grid is within 1% of 1 for
    grid_points >= 512; shape parameters below 1 (MIN_SHAPE-clamped laws)
    put an integrable singularity at an endpoint, where any uniform grid
    underestimates the mass.
    """
    if grid_points < 2:
        raise DataError(f"grid_points must be >= 2, got {grid_points}")
    t = (np.arange(grid_points) + 0.5) / grid_points
    log_norm = (special.gammaln(law.alpha + law.beta)
                - special.gammaln(law.alpha) - special.gammaln(law.beta))
    pdf = np.exp(log_norm + (law.alpha - 1.0) * np.log(t)
                 + (law.beta - 1.0) * np.log1p(-t))
    return t, pdf


def bin_masses(law: TimestepLaw, edges: np.ndarray) -> np.ndarray:
    """Exact Beta probability mass of each [edges[i], edges[i+1]) bin."""
    cdf = special.betainc(law.alpha, law.beta, np.clip(edges, 0.0, 1.0))
    return np.diff(cdf)


# --- batch preparation -------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Batch:
    """A prepared batch: the retained records, as indices into the
    sampler's record list, with one drawn timestep each."""

    records: list[QualityRecord]
    indices: np.ndarray
    timesteps: np.ndarray
    attempts: int
    accepted: int

    @property
    def members(self) -> list[tuple[QualityRecord, float]]:
        return [(self.records[i], float(t)) for i, t in zip(self.indices, self.timesteps)]

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.attempts if self.attempts else float("nan")


class TqdSampler:
    """Immutable batch sampler over a normalized dataset.

    Retention probabilities and per-record Beta shapes are precomputed at
    construction; every `prepare_batch` call takes an explicit Generator,
    so concurrent preparation is safe when each thread owns its own
    stream.
    """

    def __init__(self, records: list[QualityRecord], config: SamplerConfig):
        if not records:
            raise DataError("empty dataset")
        self.records = list(records)
        self.config = config
        self.laws = [make_law(rec, config) for rec in self.records]
        self.retention = np.array([retention_probability(r) for r in self.records])
        self._alpha = np.array([law.alpha for law in self.laws])
        self._beta = np.array([law.beta for law in self.laws])
        # the baseline arm's symmetric law Beta(shape, shape)
        self._baseline_shape = max(config.kappa_base / 2.0, MIN_SHAPE)

    def prepare_batch(
        self,
        batch_size: int,
        rng: np.random.Generator,
        baseline: bool = False,
    ) -> Batch:
        """Rejection-sample records, then attach one timestep draw each.

        Records are drawn uniformly and kept with their retention
        probability until batch_size members are accepted; each accepted
        member then draws t from its own law. `baseline=True` disables
        dropout and draws every timestep from the kappa_base-degenerate
        law instead (the A/B control arm).

        Raises SamplingError when no record is retainable or when
        ATTEMPTS_PER_SLOT x config.batch_size attempts are exhausted.
        """
        if batch_size < 1:
            raise DataError(f"batch_size must be positive, got {batch_size}")
        n = len(self.records)
        if baseline:
            idx = rng.integers(0, n, batch_size)
            ts = beta_variates(self._baseline_shape, self._baseline_shape, rng, batch_size)
            return Batch(self.records, idx, ts, attempts=batch_size, accepted=batch_size)

        if not np.any(self.retention > 0.0):
            raise SamplingError("no retainable samples (all retention probabilities are 0)")
        cap = ATTEMPTS_PER_SLOT * self.config.batch_size
        chosen: list[int] = []
        attempts = 0
        accepted_total = 0
        # Chunked rejection loop: chunk size keeps the expected number of
        # rounds small without overshooting the attempt cap.
        while len(chosen) < batch_size and attempts < cap:
            k = min(max(64, batch_size), cap - attempts)
            idx = rng.integers(0, n, k)
            keep = rng.random(k) < self.retention[idx]
            attempts += k
            accepted_total += int(keep.sum())
            chosen.extend(int(i) for i in idx[keep])
        if len(chosen) < batch_size:
            raise SamplingError(
                f"rejection-attempt cap exhausted: {accepted_total} accepted in "
                f"{attempts} attempts (acceptance rate {accepted_total / attempts:.4f})")
        idx = np.array(chosen[:batch_size])
        ts = beta_variates(self._alpha[idx], self._beta[idx], rng, batch_size)
        return Batch(self.records, idx, ts, attempts=attempts, accepted=accepted_total)
