"""Toy flow-matching trainer with hand-written reverse-mode gradients.

The velocity model is a small tanh MLP over flattened video pixels plus
sinusoidal timestep features, trained to regress the straight-path
velocity target x1 - x0 at x_t = t*x1 + (1-t)*x0. Everything runs in
float64 and the backward pass is derived by hand, so gradients can be
checked against central finite differences at tight tolerance; that
check is this module's load-bearing test.

The model is deliberately not a video architecture. The sampling
mechanism under study lives entirely on the data side, so the network
only has to be differentiable and shape-faithful.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CheckpointError, DataError, NumericError, regular_file_size
from .quality import QualityRecord
from .sampler import SamplerConfig, TqdSampler
from .synth import MAX_CLIP_PIXELS, ToyVideo

CHECKPOINT_MAGIC = b"TQDC"

# Adam moment decay rates and damping epsilon (Kingma & Ba defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# share of trailing steps that final_loss averages over
FINAL_LOSS_WINDOW = 0.1

# Largest hidden_width TrainerConfig accepts: W2 alone holds its square
# in float64, 128 MiB at this width. The largest width in use is 1024.
MAX_HIDDEN_WIDTH = 4096

# Largest n_noise the probe's gradients accept: gradient_distances holds
# (copies, n_noise, n_noise) Gram blocks, 32 MiB each for four copies at
# this value, and (n_noise, pixels) noise. The largest n_noise in use is 16.
MAX_N_NOISE = 1024

# elements per adam_update chunk: two float64 scratch buffers of this
# length (256 KiB together) stay in cache while a chunk is updated
_ADAM_CHUNK = 16384

# rows per block when gradient_distances forms W3 W3^T: the row count of
# the probe's other products. One product over all H rows made BLAS touch
# more of its work buffers, which showed as a higher peak RSS.
_G3_ROWS = 16

_LAYER_NAMES = ("W1", "b1", "W2", "b2", "W3", "b3")


def _param_layout(in_dim: int, hidden: int, out_dim: int):
    """Shapes and flat-vector slices for the fixed two-hidden-layer MLP."""
    shapes = {
        "W1": (in_dim, hidden), "b1": (hidden,),
        "W2": (hidden, hidden), "b2": (hidden,),
        "W3": (hidden, out_dim), "b3": (out_dim,),
    }
    layout = {}
    offset = 0
    for name in _LAYER_NAMES:
        n = math.prod(shapes[name])
        layout[name] = (shapes[name], slice(offset, offset + n))
        offset += n
    return layout, offset


def param_count(data_dim: int, hidden_width: int, n_freqs: int) -> int:
    in_dim = data_dim + 2 * n_freqs
    _, total = _param_layout(in_dim, hidden_width, data_dim)
    return total


def time_features(t, n_freqs: int = 8) -> np.ndarray:
    """Sinusoidal features [sin(w_k t), cos(w_k t)] with w_k = 2*pi*2^k."""
    t = np.asarray(t, dtype=np.float64)
    freqs = 2.0 * np.pi * (2.0 ** np.arange(n_freqs, dtype=np.float64))
    angles = t[..., None] * freqs
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)


@dataclass
class VelocityModel:
    """Two-hidden-layer tanh MLP over flat pixels + timestep features.

    Parameters live in one flat float64 vector; views() hands out the
    reshaped weight matrices without copying, so optimizer updates on
    the flat vector are visible to the forward pass.
    """

    data_shape: tuple[int, int, int]
    hidden_width: int
    n_freqs: int
    theta: np.ndarray

    @property
    def data_dim(self) -> int:
        return math.prod(self.data_shape)

    @property
    def input_dim(self) -> int:
        return self.data_dim + 2 * self.n_freqs

    @property
    def param_count(self) -> int:
        return self.theta.size

    def views(self) -> dict:
        return self._layer_views(self.theta)

    def _layer_views(self, flat: np.ndarray) -> dict:
        """Per-layer views into flat, a vector laid out like theta (the
        parameters or their gradient)."""
        layout, total = _param_layout(self.input_dim, self.hidden_width, self.data_dim)
        if flat.size != total:
            raise DataError(
                f"parameter vector has {flat.size} entries, layout needs {total}")
        return {name: flat[sl].reshape(shape) for name, (shape, sl) in layout.items()}

    @classmethod
    def init(cls, data_shape, seed, hidden_width: int = 128, n_freqs: int = 8,
             zero_final: bool = True) -> "VelocityModel":
        """Random init scaled by 1/sqrt(fan-in); biases start at zero.

        zero_final zeroes the output layer so the untrained model is the
        zero velocity field. Gradient-exactness checks want zero_final
        False so every layer sits on a live gradient path.
        """
        data_shape = tuple(int(d) for d in data_shape)
        _check_architecture(data_shape, hidden_width, n_freqs)
        data_dim = math.prod(data_shape)
        in_dim = data_dim + 2 * n_freqs
        layout, total = _param_layout(in_dim, hidden_width, data_dim)
        rng = np.random.default_rng(seed)
        theta = np.zeros(total, dtype=np.float64)
        model = cls(data_shape=data_shape, hidden_width=hidden_width,
                    n_freqs=n_freqs, theta=theta)
        views = model.views()
        views["W1"][...] = rng.normal(0.0, 1.0 / np.sqrt(in_dim), size=views["W1"].shape)
        views["W2"][...] = rng.normal(0.0, 1.0 / np.sqrt(hidden_width), size=views["W2"].shape)
        if not zero_final:
            views["W3"][...] = rng.normal(0.0, 1.0 / np.sqrt(hidden_width),
                                          size=views["W3"].shape)
        return model


def _check_architecture(data_shape: tuple, hidden_width: int, n_freqs: int) -> None:
    """DataError unless data_shape is three positive dims of at most
    MAX_CLIP_PIXELS pixels in all (counted in Python integers, which do
    not wrap), n_freqs >= 1 and hidden_width is in [1, MAX_HIDDEN_WIDTH]."""
    if len(data_shape) != 3 or any(d < 1 for d in data_shape):
        raise DataError(f"data_shape must be three positive dims, got {data_shape}")
    if hidden_width < 1 or n_freqs < 1:
        raise DataError(f"hidden_width and n_freqs must be >= 1, got {hidden_width} "
                        f"and {n_freqs}")
    if math.prod(data_shape) > MAX_CLIP_PIXELS:
        raise DataError(f"data_shape {list(data_shape)} has more than "
                        f"{MAX_CLIP_PIXELS} pixels")
    if hidden_width > MAX_HIDDEN_WIDTH:
        raise DataError(f"hidden_width must be at most {MAX_HIDDEN_WIDTH}, "
                        f"got {hidden_width}")


def _check_finite(arr: np.ndarray, layer: int, name: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in layer {layer} ({name})")


def _forward_batch(model: VelocityModel, xt_flat: np.ndarray, t: np.ndarray):
    """Batched forward pass; returns output plus the backward cache."""
    views = model.views()
    feats = time_features(t, model.n_freqs)
    x = np.concatenate([xt_flat, feats], axis=1)
    z1 = x @ views["W1"] + views["b1"]
    _check_finite(z1, 1, "W1")
    a1 = np.tanh(z1)
    z2 = a1 @ views["W2"] + views["b2"]
    _check_finite(z2, 2, "W2")
    a2 = np.tanh(z2)
    out = a2 @ views["W3"] + views["b3"]
    _check_finite(out, 3, "W3")
    return out, (x, a1, a2, views)


def loss_and_grad(model: VelocityModel, x0, x1, t):
    """Flow-matching loss and its exact gradient w.r.t. the flat parameters.

    x0 and x1 are (B, D) batches of flat samples, D = model.data_dim, and
    t is the (B,) vector of their timesteps. Per-sample loss is the mean
    squared error over coordinates between the predicted velocity at
    x_t = t*x1 + (1-t)*x0 and the target x1 - x0; the batch loss averages
    per-sample losses, so it is invariant to batch order.
    """
    x0f = np.asarray(x0, dtype=np.float64)
    x1f = np.asarray(x1, dtype=np.float64)
    if x0f.ndim != 2 or x0f.shape[1] != model.data_dim:
        raise DataError(f"x0 shape {x0f.shape} does not match model data shape "
                        f"{model.data_shape} flattened to (B, {model.data_dim})")
    if x0f.shape != x1f.shape:
        raise DataError(f"batch mismatch: x0 {x0f.shape} vs x1 {x1f.shape}")
    t_arr = np.asarray(t, dtype=np.float64)
    if t_arr.shape != (x0f.shape[0],):
        raise DataError(f"t has shape {t_arr.shape}, batch needs ({x0f.shape[0]},)")
    if np.any(t_arr < 0.0) or np.any(t_arr > 1.0):
        raise DataError("timesteps must lie in [0, 1]")

    b, d = x0f.shape
    xt = t_arr[:, None] * x1f + (1.0 - t_arr[:, None]) * x0f
    target = x1f - x0f
    out, (x, a1, a2, views) = _forward_batch(model, xt, t_arr)

    resid = out - target
    loss = float(np.mean(resid * resid))

    # backward pass; d(loss)/d(out) = 2*resid / (B*D). Each layer's
    # gradient is written straight into its slot of the flat vector.
    grad = np.empty_like(model.theta)
    g = model._layer_views(grad)
    d_out = (2.0 / (b * d)) * resid
    np.matmul(a2.T, d_out, out=g["W3"])
    d_out.sum(axis=0, out=g["b3"])
    d_a2 = d_out @ views["W3"].T
    d_z2 = d_a2 * (1.0 - a2 * a2)
    np.matmul(a1.T, d_z2, out=g["W2"])
    d_z2.sum(axis=0, out=g["b2"])
    d_a1 = d_z2 @ views["W2"].T
    d_z1 = d_a1 * (1.0 - a1 * a1)
    np.matmul(x.T, d_z1, out=g["W1"])
    d_z1.sum(axis=0, out=g["b1"])
    return loss, grad


def grad_at_timestep(model: VelocityModel, video: ToyVideo, t: float, noise_seed: int,
                     n_noise: int) -> np.ndarray:
    """Loss gradient of one video at a fixed timestep, averaged over
    n_noise frozen noise draws.

    The noise endpoints x1 depend only on noise_seed, never on the video,
    so two calls with the same seed see identical draws. That common-
    random-numbers protocol is what makes gradient distances between an
    original and a degraded sample low-variance at small n_noise.

    The probe measures those distances with gradient_distances, which
    forms no gradient; this function is the per-copy reference it is
    tested against.
    """
    if not 0.0 < float(t) < 1.0:
        raise DataError(f"t must be in the open interval (0, 1), got {t}")
    if not 1 <= n_noise <= MAX_N_NOISE:
        raise DataError(f"n_noise must be in [1, {MAX_N_NOISE}], got {n_noise}")
    if video.frames.shape != model.data_shape:
        raise DataError(f"video shape {video.frames.shape} does not match model "
                        f"data shape {model.data_shape}")
    rng = np.random.default_rng(noise_seed)
    x1f = rng.standard_normal((n_noise, model.data_dim))
    x0rep = np.repeat(video.flat()[None, :], n_noise, axis=0)
    t_arr = np.full(n_noise, float(t))
    _, grad = loss_and_grad(model, x0rep, x1f, t_arr)
    return grad


def _gram(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row dot products x_r . y_r' of each stacked matrix pair."""
    return x @ np.swapaxes(y, -1, -2)


def _layer_sq_dists(gram_dd, gram_dk, gram_kk, b00, b0d, bdd) -> np.ndarray:
    """Squared distances between one layer's weight-and-bias gradients.

    gram_dd, gram_dk and gram_kk are the input-row Gram blocks of
    a_0 - a_k with itself, with a_k, and of a_k with itself; b00, b0d and
    bdd are the output-gradient Gram blocks of b_0 with itself, of b_0
    with b_0 - b_k, and of b_0 - b_k with itself. All broadcast to
    (K, n, n). Returns the K sums of the layer's 2n x 2n kernel (see
    gradient_distances).
    """
    return ((gram_dd * b00).sum(axis=(1, 2))
            + 2.0 * (gram_dk * b0d).sum(axis=(1, 2))
            + ((gram_kk + 1.0) * bdd).sum(axis=(1, 2)))


def _stacked_sq_dists(gram_dd, gram_dk, gram_kk, b: np.ndarray) -> np.ndarray:
    """_layer_sq_dists with the output-gradient rows stacked per video,
    b (1+K, n, width), the original first."""
    b0, db = b[0], b[0] - b[1:]
    return _layer_sq_dists(gram_dd, gram_dk, gram_kk, _gram(b0, b0), _gram(b0, db),
                           _gram(db, db))


def gradient_distances(model: VelocityModel, videos, copies, t_grid, noise_seeds,
                       n_noise: int) -> np.ndarray:
    """||g(video) - g(copy)|| for every video, copy and timestep, where g
    is grad_at_timestep at (t, seed, n_noise), without forming any
    gradient.

    copies[i] lists the K copies of videos[i], the same K for every
    video, and noise_seeds[i][j] is the noise seed of videos[i] at
    t_grid[j]. Returns an array (len(videos), K, len(t_grid)).

    Every layer's weight and bias gradient is sum_r [a_r; 1] b_r^T over
    the batch rows r, with a_r the layer's input row and b_r the loss
    gradient at its output. For the video (rows a, b) and a copy (rows
    a', b'), a b^T - a' b'^T = (a - a') b^T + a' (b - b')^T, so the
    difference of the two gradients is a sum over 2n rows whose squared
    norm is the sum of the Gram kernel (A A^T + E) o (B B^T). A stacks
    the rows a - a' and a', B the rows b and b - b', and E is 1 on the
    (a', a') block only, for the bias. Every kernel entry carries a
    difference, so the result is not the small difference of two large
    squared norms, and an identical copy gives exactly 0.

    One forward and backward pass per (video, t) covers the video and
    all its copies, under the one noise draw x1. Every row shares t, so
    the first layer's pre-activation is t (x1 W1x) + (1-t) (v W1x) +
    feats W1f + b1 and its input Gram follows from x1 x1^T, x1 v^T,
    v . v' and ||feats||^2; v W1x and the v . v' products are taken once
    per video.

    The output layer is D wide, against H for the hidden ones, so only
    the video's own output rows b0 = c (a2_0 W3 + b3 - x1 + v_0),
    c = 2 / (n D), are formed. A copy's difference rows are
    db = c (da W3 + delta), with da = a2_0 - a2_k and delta = v_0 - v_k
    (x1 and b3 cancel), and they enter only through products with W3
    folded into G3 = W3 W3^T, formed once per call:

        b_k W3^T  = b0 W3^T - c (da G3 + delta W3^T)
        b0 . db   = c (b0 W3^T da^T + b0 . delta)
        db . db   = c^2 (da G3 da^T + da W3 delta^T + (da W3 delta^T)^T
                         + delta . delta)

    delta W3^T is taken once per video. An identical copy has da = 0 and
    delta = 0, so every difference term is exactly 0 and its rows equal
    the video's bit for bit.
    """
    t_grid = [float(t) for t in t_grid]
    for t in t_grid:
        if not 0.0 < t < 1.0:
            raise DataError(f"t must be in the open interval (0, 1), got {t}")
    if not 1 <= n_noise <= MAX_N_NOISE:
        raise DataError(f"n_noise must be in [1, {MAX_N_NOISE}], got {n_noise}")
    for clip in (*videos, *(clip for clips in copies for clip in clips)):
        if clip.frames.shape != model.data_shape:
            raise DataError(f"video shape {clip.frames.shape} does not match model "
                            f"data shape {model.data_shape}")
    d = model.data_dim
    c = 2.0 / (n_noise * d)
    views = model.views()
    w1x, w1f, w3 = views["W1"][:d], views["W1"][d:], views["W3"]
    # G3 = W3 W3^T (H, H), in blocks of _G3_ROWS rows
    g3 = np.concatenate([w3[i:i + _G3_ROWS] @ w3.T for i in range(0, len(w3), _G3_ROWS)])

    dists = []
    for video, clips, seeds in zip(videos, copies, noise_seeds):
        v = np.stack([video.flat()] + [clip.flat() for clip in clips])  # (1+K, D)
        vk = v[1:]
        delta = v[0] - vk  # (K, D)
        # Stacked, not flattened: numpy multiplies each video's rows on
        # their own, so identical videos give identical rows bit for bit,
        # where one product over all rows may round a row by its position.
        v_w1 = v[:, None, :] @ w1x  # (1+K, 1, H)
        delta_w3 = delta @ w3.T  # (K, H)
        delta_sq = np.einsum("kd,kd->k", delta, delta)
        delta_vk = np.einsum("kd,kd->k", delta, vk)
        vk_sq = np.einsum("kd,kd->k", vk, vk)

        sq = np.empty((len(clips), len(t_grid)))
        for j, (t, seed) in enumerate(zip(t_grid, seeds)):
            s = 1.0 - t
            x1 = np.random.default_rng(seed).standard_normal((n_noise, d))
            feats = time_features(t, model.n_freqs)

            # forward for every video at once, (1+K, n, H) per layer
            z1 = t * (x1 @ w1x) + (s * v_w1 + (feats @ w1f + views["b1"]))
            _check_finite(z1, 1, "W1")
            a1 = np.tanh(z1)
            z2 = a1 @ views["W2"] + views["b2"]
            _check_finite(z2, 2, "W2")
            a2 = np.tanh(z2)
            # the video's output gradient b0 = c (out - target), with
            # target = x1 - v_0, in place
            b0 = a2[0] @ w3
            b0 += views["b3"]
            _check_finite(b0, 3, "W3")
            b0 -= x1
            b0 += v[0]
            b0 *= c

            # backward: every video's b W3^T from b0 W3^T and G3
            da2 = a2[0] - a2[1:]  # (K, n, H)
            da2_g3 = da2 @ g3
            b0_w3 = b0 @ w3.T  # (n, H)
            d_a2 = np.empty_like(a2)
            d_a2[0] = b0_w3
            d_a2[1:] = b0_w3 - c * (da2_g3 + delta_w3[:, None, :])
            d_z2 = d_a2 * (1.0 - a2 * a2)
            d_z1 = (d_z2 @ views["W2"].T) * (1.0 - a1 * a1)

            # first-layer input Gram blocks, from x_r = [t x1_r + s v; feats]
            cx = vk @ x1.T  # (K, n): x1_r . v_k
            gram_dd = (s * s * delta_sq)[:, None, None]
            gram_dk = s * (t * (delta @ x1.T)[:, None, :] + s * delta_vk[:, None, None])
            gram_kk = (t * t * _gram(x1, x1)
                       + t * s * (cx[:, :, None] + cx[:, None, :])
                       + (s * s * vk_sq + feats @ feats)[:, None, None])
            sq_t = _stacked_sq_dists(gram_dd, gram_dk, gram_kk, d_z1)
            da1 = a1[0] - a1[1:]
            sq_t += _stacked_sq_dists(_gram(da1, da1), _gram(da1, a1[1:]),
                                      _gram(a1[1:], a1[1:]), d_z2)
            # output layer: b0 . db and db . db without the D-wide db rows
            u = (da2 @ delta_w3[:, :, None])[..., 0]  # (K, n): da_r W3 delta^T
            b0d = c * (_gram(b0_w3, da2) + (delta @ b0.T)[:, :, None])
            bdd = c * c * (_gram(da2_g3, da2) + u[:, :, None] + u[:, None, :]
                           + delta_sq[:, None, None])
            sq_t += _layer_sq_dists(_gram(da2, da2), _gram(da2, a2[1:]),
                                    _gram(a2[1:], a2[1:]), _gram(b0, b0), b0d, bdd)
            sq[:, j] = sq_t
        if not np.all(np.isfinite(sq)):
            raise NumericError("non-finite gradient distance")
        dists.append(np.sqrt(np.maximum(sq, 0.0)))
    return np.stack(dists)


# --- optimizer and training loop ---------------------------------------------

@dataclass(frozen=True)
class TrainerConfig:
    """Training-loop settings. seed covers model init and every loop draw;
    hidden_width is at most MAX_HIDDEN_WIDTH.

    The Adam constants (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) are fixed, and
    the model takes VelocityModel.init's defaults for its time features
    (n_freqs 8) and its zeroed output layer.
    """

    steps: int = 500
    learning_rate: float = 1e-3
    hidden_width: int = 128
    seed: int = 0
    baseline: bool = False

    def __post_init__(self):
        if self.steps < 0:
            raise DataError(f"steps must be >= 0, got {self.steps}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise DataError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 1 <= self.hidden_width <= MAX_HIDDEN_WIDTH:
            raise DataError(f"hidden_width must be in [1, {MAX_HIDDEN_WIDTH}], "
                            f"got {self.hidden_width}")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainState:
    """Model plus per-step history."""

    model: VelocityModel
    step: int
    loss_history: list = field(default_factory=list)
    mean_t_history: list = field(default_factory=list)
    acceptance_history: list = field(default_factory=list)


def adam_update(theta: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
                step: int, lr: float) -> None:
    """One bias-corrected Adam update of theta, m and v, in place, with
    ADAM_BETA1, ADAM_BETA2 and ADAM_EPS. step counts from 1.

    The update runs chunk by chunk over _ADAM_CHUNK elements, in place
    through two chunk-sized scratch buffers, so it allocates no
    parameter-sized temporaries and keeps each chunk in cache. Every
    element sees the same operations in the same order as the
    whole-array formula

        m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
        theta -= lr*(m/c1) / (sqrt(v/c2) + eps),  ck = 1 - bk**step

    so the results are bit-identical to it.

    First-step identity: with a fresh state and unit gradient, the
    parameter displacement is lr/(1 + ADAM_EPS), i.e. the learning rate up
    to the damping epsilon.
    """
    c1 = 1.0 - ADAM_BETA1 ** step
    c2 = 1.0 - ADAM_BETA2 ** step
    n = theta.size
    scratch_a = np.empty(min(n, _ADAM_CHUNK))
    scratch_b = np.empty_like(scratch_a)
    for lo in range(0, n, _ADAM_CHUNK):
        hi = min(lo + _ADAM_CHUNK, n)
        g, m_c, v_c = grad[lo:hi], m[lo:hi], v[lo:hi]
        a, b = scratch_a[:hi - lo], scratch_b[:hi - lo]
        m_c *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=a)
        m_c += a
        v_c *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=a)
        a *= g
        v_c += a
        np.divide(m_c, c1, out=a)
        a *= lr
        np.divide(v_c, c2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        theta[lo:hi] -= a


def train(dataset, sampler_config: SamplerConfig, trainer_config: TrainerConfig) -> TrainState:
    """Run the full quality-aware loop and return the final state.

    dataset is a list of (QualityRecord, ToyVideo) pairs; records must
    be normalized. Each step prepares a batch through the quality-aware
    sampler (or, with trainer_config.baseline, the arm that skips dropout
    and draws every t from Beta(kappa_base/2, kappa_base/2), which is flat
    only at the default kappa_base 2), draws fresh noise endpoints, and
    applies one optimizer update. Deterministic given trainer_config.seed.
    A non-finite loss or parameter is NumericError; numpy's own overflow
    warnings are silenced, so that error is the one report.
    """
    if not dataset:
        raise DataError("dataset is empty")
    records = []
    data_shape = dataset[0][1].frames.shape
    for rec, video in dataset:
        if not isinstance(rec, QualityRecord):
            raise DataError(f"dataset entries must pair QualityRecord with ToyVideo, got {type(rec)}")
        shape = video.frames.shape
        if shape != data_shape:
            raise DataError(f"video shape mismatch: {rec.id} has {shape}, expected {data_shape}")
        records.append(rec)
    # row i is records[i]'s video; batches gather rows by index
    x_all = np.stack([video.flat() for _, video in dataset])

    sampler = TqdSampler(records, sampler_config)
    seed_seq = np.random.SeedSequence(trainer_config.seed)
    model_seed, loop_seed = seed_seq.spawn(2)
    model = VelocityModel.init(data_shape, seed=model_seed,
                               hidden_width=trainer_config.hidden_width)
    rng = np.random.default_rng(loop_seed)

    state = TrainState(model=model, step=0)
    m, v = np.zeros_like(model.theta), np.zeros_like(model.theta)
    with np.errstate(all="ignore"):
        for i in range(1, trainer_config.steps + 1):
            batch = sampler.prepare_batch(rng, baseline=trainer_config.baseline)
            x0 = x_all[batch.indices]
            t_arr = batch.timesteps
            x1 = rng.standard_normal(x0.shape)
            loss, grad = loss_and_grad(model, x0, x1, t_arr)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite loss at step {i}")
            adam_update(model.theta, grad, m, v, i, trainer_config.learning_rate)
            # the next loss_and_grad then runs with one gradient alive, not two
            del grad
            if not np.all(np.isfinite(model.theta)):
                raise NumericError(f"non-finite parameters after update at step {i}")
            state.step = i
            state.loss_history.append(loss)
            state.mean_t_history.append(float(np.mean(t_arr)))
            state.acceptance_history.append(batch.acceptance_rate)
    return state


def final_loss(state: TrainState) -> float:
    """Mean loss over the trailing FINAL_LOSS_WINDOW share of steps.

    Single-step losses are noisy at toy batch sizes; the trailing mean
    is the reading used for any between-run comparison.
    """
    if not state.loss_history:
        raise DataError("empty loss history")
    n = max(1, int(round(FINAL_LOSS_WINDOW * len(state.loss_history))))
    return float(np.mean(state.loss_history[-n:]))


# --- artifacts ----------------------------------------------------------------

def write_training_log(state: TrainState, path) -> None:
    """CSV log: step, loss, mean_t, batch_acceptance_rate. Floats are
    written with repr so re-reading reproduces them bit-exactly."""
    lines = ["step,loss,mean_t,batch_acceptance_rate"]
    for i, (loss, mean_t, acc) in enumerate(
            zip(state.loss_history, state.mean_t_history, state.acceptance_history), 1):
        lines.append(f"{i},{float(loss)!r},{float(mean_t)!r},{float(acc)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_checkpoint(model: VelocityModel, path, step: int = 0, seed=None) -> None:
    """Flat binary of theta behind a JSON header (widths, step, seed)."""
    header = {
        "data_shape": list(model.data_shape),
        "hidden_width": model.hidden_width,
        "n_freqs": model.n_freqs,
        "param_count": model.param_count,
        "step": step,
        "seed": seed,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        # theta's own buffer on a little-endian machine: no copy
        fh.write(np.ascontiguousarray(model.theta, dtype="<f8"))


def load_checkpoint(path) -> tuple:
    """Read a checkpoint back; returns (model, header).

    Raises CheckpointError on a path that is not a regular file, bad
    magic, a malformed header, a header data_shape, hidden_width, n_freqs
    or param_count that is not a JSON integer (a bool is not), an
    architecture with a data dim, hidden_width or n_freqs below 1, a
    data_shape of more than MAX_CLIP_PIXELS pixels, a hidden_width over
    MAX_HIDDEN_WIDTH, or a parameter payload that disagrees with the
    header's architecture. Every size is checked against the file's
    before the parameters are read, straight into theta.
    """
    path = Path(path)
    try:
        size = regular_file_size(path, "checkpoint", CheckpointError)
        with open(path, "rb") as fh:
            return _read_checkpoint(fh, size, path)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc


def _read_checkpoint(fh, size: int, path: Path) -> tuple:
    """load_checkpoint's checks and reads on the open file fh of size bytes."""
    preamble = fh.read(8)
    if len(preamble) < 8 or preamble[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"not a checkpoint file: {path}")
    (hlen,) = struct.unpack("<I", preamble[4:])
    if size < 8 + hlen:
        raise CheckpointError(f"truncated checkpoint header in {path}")
    try:
        header = json.loads(fh.read(hlen).decode("utf-8"))
        dims = header["data_shape"]
        hidden_width, n_freqs = header["hidden_width"], header["n_freqs"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"malformed checkpoint header in {path}: {exc}") from exc
    if type(dims) is not list or any(type(d) is not int for d in dims):
        raise CheckpointError(f"checkpoint {path} header data_shape must be a list "
                              f"of integers, got {dims!r}")
    for key in ("hidden_width", "n_freqs", "param_count"):
        if type(header.get(key, 0)) is not int:
            raise CheckpointError(f"checkpoint {path} header {key} must be an integer, "
                                  f"got {header[key]!r}")
    data_shape = tuple(dims)
    try:
        _check_architecture(data_shape, hidden_width, n_freqs)
    except DataError as exc:
        raise CheckpointError(f"checkpoint {path} header: {exc}") from exc
    expected = param_count(math.prod(data_shape), hidden_width, n_freqs)
    body = size - 8 - hlen
    if body != 8 * expected:
        raise CheckpointError(
            f"checkpoint {path} carries {body // 8} parameters, "
            f"architecture needs {expected}")
    theta = np.empty(expected, dtype="<f8")
    if fh.readinto(theta) != body:  # the file shrank after os.stat
        raise CheckpointError(f"checkpoint {path} ended inside its parameters")
    model = VelocityModel(data_shape=data_shape, hidden_width=hidden_width,
                          n_freqs=n_freqs, theta=theta.astype(np.float64, copy=False))
    if header.get("param_count", expected) != expected:
        raise CheckpointError(
            f"checkpoint {path} header param_count {header.get('param_count')} "
            f"does not match architecture ({expected})")
    return model, header
