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
arrays, and `TqdSampler` holds its table for one set of scores. Equal
full scores (mq = vq = 1) keep every record and draw every t from
Beta(kappa_base/2, kappa_base/2), so the uniform control is this same
sampler on score arrays of ones.

Every draw (record picks, keep/drop trials, timesteps) comes from the
supplied numpy Generator's own methods, so a batch is reproducible for a
given seed and numpy version.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, SamplingError

# Draws are clipped to [T_CLIP, 1 - T_CLIP], where the KS reference puts its
# censoring atoms. Not float eps: floats below 1 are spaced 2^-53, so draws
# rounding up onto 1 - eps would give the top atom ~1% more mass than the
# law puts beyond it. At 2^-40 the spacing is 2^-13 of the bound.
T_CLIP = 2.0 ** -40

# Numerical floor for Beta shape parameters: mu of exactly 0 or 1 would
# otherwise give an ill-defined zero shape.
MIN_SHAPE = 0.05

# prepare_batch gives up after this many rejection attempts per batch slot.
ATTEMPTS_PER_SLOT = 1000

# Largest batch_size SamplerConfig accepts: a batch's draws and their
# clips must fit in memory. `sample-stats` draws min(n_draws, this) per
# batch, so it reaches the limit at 65 536 draws or more.
MAX_BATCH_SIZE = 65536

# Largest kappa_max SamplerConfig accepts. A Beta law this concentrated has
# a standard deviation of at most 1/(2 sqrt(MAX_KAPPA)) = 5e-4, a fortieth
# of a timestep_histogram bin; at 1e100 its KS statistic is no
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

    A record at a score corner gets the most lopsided law. At the
    defaults, (mq, vq) = (1, 0) gives mu = 1 and kappa = kappa_max = 20,
    so Beta(20, MIN_SHAPE) = Beta(20, 0.05): 84.3% of its draws fall
    above t = 0.999 and 29.8% sit on the 1 - T_CLIP atom, where x_t is
    almost pure noise. The record at (0, 1) is its mirror, Beta(0.05, 20),
    drawn as often near t = 0. Min-max normalization puts a record on a
    corner whenever it holds both the highest score of one metric and
    the lowest of the other.
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


def beta_variates(alpha, beta, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw `size` Beta(alpha, beta) variates with the Generator's Beta method.

    Each shape is a scalar or an array of `size` per-draw shapes, positive
    and finite. Results are clipped to [T_CLIP, 1 - T_CLIP], so every draw
    lies strictly inside (0, 1); the KS reference's censored atoms sit at
    those two points.
    """
    if size < 0:
        raise DataError(f"size must be >= 0, got {size}")
    for name, shape in (("alpha", alpha), ("beta", beta)):
        shape = np.asarray(shape, dtype=np.float64)
        if shape.ndim > 1 or shape.size not in (1, size):
            raise DataError(f"{name} must be a scalar or {size} per-draw shapes, "
                            f"got shape {shape.shape}")
        if not np.all((shape > 0.0) & (shape < np.inf)):
            raise DataError(f"Beta shape {name} must be positive and finite")
    return np.clip(rng.beta(alpha, beta, size), T_CLIP, 1.0 - T_CLIP)


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
    """Immutable batch sampler over normalized score arrays.

    The law table is built once from mq and vq: record i draws t from
    Beta(alpha[i], beta[i]) and is kept with probability retention[i].
    """

    def __init__(self, mq, vq, config: SamplerConfig):
        mq = np.asarray(mq, dtype=np.float64)
        vq = np.asarray(vq, dtype=np.float64)
        if not (mq.ndim == 1 and mq.shape == vq.shape and mq.size):
            raise DataError(f"mq and vq must be 1-D arrays of one length of at least 1, "
                            f"got shapes {mq.shape} and {vq.shape}")
        self.config = config
        _, _, self.alpha, self.beta = law_table(mq, vq, config)
        self.retention = np.maximum(mq, vq)

    def prepare_batch(self, rng: np.random.Generator) -> Batch:
        """Pick config.batch_size records, then draw one timestep each
        from its own law.

        Records are drawn uniformly, and each is kept with its retention
        probability until the batch is full.

        Raises SamplingError when no record is retainable or when
        ATTEMPTS_PER_SLOT x batch_size attempts are exhausted.
        """
        batch_size = self.config.batch_size
        n = self.retention.size
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
