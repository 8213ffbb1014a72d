"""Quality-decoupled timestep sampling.

The scores mq and vq are the normalized arrays that
`quality.normalize_scores` returns, entry i for record i. The two-level
mechanism implemented here:

1. Sample-level dropout. During batch preparation a record is retained
   with probability max(vq, mq), its best quality. Records weak on both
   axes are naturally down-weighted.
2. Per-sample timestep law. Each retained record draws its training
   timestep t in [0, 1] from Beta(mu*kappa, (1-mu)*kappa), where
   mu = 0.5 + 0.5*(mq - vq) centers the distribution (motion-
   dominant samples toward noisy high t, visually clean samples toward
   low t) and kappa = kappa_base + (kappa_max - kappa_base)*|mq - vq|
   sharpens it with the quality disparity. Equal scores degenerate to
   the baseline law Beta(kappa_base/2, kappa_base/2): uniform for
   kappa_base = 2.

`law_table` is the one place that maps scores to laws, over the score
arrays. A sampler holds one arm as a table of each record's law and
retention; the baseline arm has every record at the equal-score law and
no dropout.

Beta draws are built from scratch out of two Gamma variates via the
Marsaglia-Tsang squeeze method; only uniform/normal primitives of the
supplied numpy Generator are consumed, so sequences are reproducible
from the seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, SamplingError

_OPEN_EPS = np.finfo(np.float64).eps  # nudge for the open interval (0,1)

# Numerical floor for Beta shape parameters: mu of exactly 0 or 1 would
# otherwise give an ill-defined zero shape.
MIN_SHAPE = 0.05

# prepare_batch gives up after this many rejection attempts per batch slot.
ATTEMPTS_PER_SLOT = 1000

# Largest batch_size SamplerConfig accepts: a batch's draws and their
# clips must fit in memory. The largest batch in use is 10 000.
MAX_BATCH_SIZE = 65536

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
    quality disparity, at most MAX_KAPPA. batch_size, at most
    MAX_BATCH_SIZE, is the size of every prepared batch. The shape floor
    (MIN_SHAPE) and the rejection-attempt cap (ATTEMPTS_PER_SLOT x
    batch_size) are module constants.
    """

    kappa_base: float = 2.0
    kappa_max: float = 20.0
    batch_size: int = 16

    def __post_init__(self):
        if not self.kappa_base > 0:
            raise DataError(f"kappa_base must be > 0, got {self.kappa_base}")
        if not self.kappa_max >= self.kappa_base:
            raise DataError(
                f"kappa_max ({self.kappa_max}) must be >= kappa_base ({self.kappa_base})")
        if not self.kappa_max <= MAX_KAPPA:
            raise DataError(f"kappa_max must be <= {MAX_KAPPA:g}, got {self.kappa_max}")
        if not 1 <= self.batch_size <= MAX_BATCH_SIZE:
            raise DataError(f"batch_size must be in [1, {MAX_BATCH_SIZE}], "
                            f"got {self.batch_size}")


def law_table(mq, vq, config: SamplerConfig) -> tuple[np.ndarray, ...]:
    """Each record's timestep law from its normalized scores, as the arrays
    (mu, kappa, alpha, beta); mu and kappa are as in the module docstring.

    The shapes alpha = mu*kappa and beta = (1-mu)*kappa are floored at
    MIN_SHAPE: mu of exactly 0 or 1 would otherwise give a zero shape
    parameter, which is not a distribution. A score outside [0, 1], or
    NaN, is a DataError.
    """
    mq = np.asarray(mq, dtype=np.float64)
    vq = np.asarray(vq, dtype=np.float64)
    for name, scores in (("mq_norm", mq), ("vq_norm", vq)):
        bad = np.flatnonzero(~((scores >= 0.0) & (scores <= 1.0)))
        if bad.size:
            raise DataError(f"{name} must be in [0, 1], got {scores.flat[bad[0]]} "
                            f"at index {bad[0]}")
    mu = 0.5 + 0.5 * (mq - vq)
    kappa = config.kappa_base + (config.kappa_max - config.kappa_base) * np.abs(mq - vq)
    alpha = np.maximum(mu * kappa, MIN_SHAPE)
    beta = np.maximum((1.0 - mu) * kappa, MIN_SHAPE)
    return mu, kappa, alpha, beta


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
        with np.errstate(invalid="ignore", divide="ignore"):
            accept = np.log(u) < 0.5 * x**2 + d[todo] * (1.0 - v + np.log(np.where(pos, v, 1.0)))
        rest = ~accept  # the squeeze decides only these, so the costly x**4 runs on them alone
        accept[rest] = u[rest] < 1.0 - 0.0331 * x[rest] ** 4
        accept &= pos
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


def density_curve(alpha: float, beta: float,
                  grid_points: int = 512) -> tuple[np.ndarray, np.ndarray]:
    """Beta(alpha, beta) pdf on the midpoint grid t_i = (i + 0.5)/G over (0, 1).

    The normalizing constant is computed through the log-gamma function
    for stability at large shapes. For laws with alpha, beta >= 1 the
    trapezoidal integral over the grid is within 1% of 1 for
    grid_points >= 512; shape parameters below 1 (MIN_SHAPE-clamped laws)
    put an integrable singularity at an endpoint, where any uniform grid
    underestimates the mass.
    """
    from scipy import special

    if grid_points < 2:
        raise DataError(f"grid_points must be >= 2, got {grid_points}")
    t = (np.arange(grid_points) + 0.5) / grid_points
    log_norm = special.gammaln(alpha + beta) - special.gammaln(alpha) - special.gammaln(beta)
    pdf = np.exp(log_norm + (alpha - 1.0) * np.log(t) + (beta - 1.0) * np.log1p(-t))
    return t, pdf


# --- batch preparation -------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Batch:
    """A prepared batch: the retained records, as indices into the
    sampler's score arrays, with one drawn timestep each."""

    indices: np.ndarray
    timesteps: np.ndarray
    attempts: int
    accepted: int

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.attempts


class TqdSampler:
    """Immutable batch sampler over normalized score arrays, for one arm.

    The arm's law table is built once from mq and vq: record i draws t
    from Beta(alpha[i], beta[i]) and, when dropout runs, is kept with
    probability retention[i] (1 in the baseline arm).
    """

    def __init__(self, mq, vq, config: SamplerConfig, baseline: bool = False):
        mq = np.asarray(mq, dtype=np.float64)
        vq = np.asarray(vq, dtype=np.float64)
        if not (mq.ndim == 1 and mq.shape == vq.shape and mq.size):
            raise DataError(f"mq and vq must be 1-D arrays of one length of at least 1, "
                            f"got shapes {mq.shape} and {vq.shape}")
        self.config = config
        self.dropout = not baseline
        # the baseline arm puts every record at its equal-score law, always kept
        _, _, self.alpha, self.beta = law_table(mq, mq if baseline else vq, config)
        self.retention = np.ones(len(mq)) if baseline else np.maximum(mq, vq)

    def prepare_batch(self, rng: np.random.Generator) -> Batch:
        """Pick config.batch_size records, then draw one timestep each
        from its own law.

        Records are drawn uniformly; with dropout, each is kept with its
        retention probability until the batch is full.

        Raises SamplingError when no record is retainable or when
        ATTEMPTS_PER_SLOT x batch_size attempts are exhausted.
        """
        batch_size = self.config.batch_size
        n = self.retention.size
        if not self.dropout:
            idx = rng.integers(0, n, batch_size)
            attempts = accepted_total = batch_size
        else:
            if not np.any(self.retention > 0.0):
                raise SamplingError("no retainable samples (all retention probabilities are 0)")
            cap = ATTEMPTS_PER_SLOT * batch_size
            chosen: list[np.ndarray] = []
            attempts = 0
            accepted_total = 0
            # Chunked rejection loop: chunk size keeps the expected number of
            # rounds small without overshooting the attempt cap.
            while accepted_total < batch_size and attempts < cap:
                k = min(max(64, batch_size), cap - attempts)
                idx = rng.integers(0, n, k)
                keep = rng.random(k) < self.retention[idx]
                attempts += k
                chosen.append(idx[keep])
                accepted_total += chosen[-1].size
            if accepted_total < batch_size:
                raise SamplingError(
                    f"rejection-attempt cap exhausted: {accepted_total} accepted in "
                    f"{attempts} attempts (acceptance rate {accepted_total / attempts:.4f})")
            idx = np.concatenate(chosen)[:batch_size]
        ts = beta_variates(self.alpha[idx], self.beta[idx], rng, batch_size)
        return Batch(idx, ts, attempts=attempts, accepted=accepted_total)
