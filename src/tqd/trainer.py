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
import numbers
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CheckpointError, DataError, NumericError, regular_file_size
from .sampler import SamplerConfig, TqdSampler
from .synth import MAX_CLIP_PIXELS, ToyVideo

CHECKPOINT_MAGIC = b"TQDC"

# Adam moment decay rates and damping epsilon (Kingma & Ba defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# sinusoidal frequencies of the timestep features; a checkpoint header
# states it and load_checkpoint accepts no other value
N_FREQS = 8

# share of trailing steps that final_loss averages over
FINAL_LOSS_WINDOW = 0.1

# Largest hidden_width TrainerConfig accepts: W2 alone holds its square
# in float64, 128 MiB at this width. The largest width in use is 1024.
MAX_HIDDEN_WIDTH = 4096

# Largest n_noise the probe's gradients accept: gradient_distances holds
# (copies, n_noise, n_noise) Gram blocks, 8 MiB per copy at this value, and
# the (n_noise, pixels) noise rows of each timestep in a block: 512 MiB for
# one timestep at synth.MAX_CLIP_PIXELS, which then runs alone (see
# _PROBE_BLOCK_BYTES). The largest n_noise in use is 16.
MAX_N_NOISE = 1024

# elements per adam_update chunk: two float64 scratch buffers of this
# length (256 KiB together) stay in cache while a chunk is updated
_ADAM_CHUNK = 16384

# Largest block of timesteps gradient_distances takes at once, in bytes of
# n_noise (D + 2 (1+K) H) float64s per timestep: its noise rows, D pixels
# wide, and its a1 and a2 rows for the video and K copies, H wide. The
# probe's defaults (9 timesteps at 16 x 2048 pixels, width 128, four
# copies: 3.7 MiB) and the crossing gate's 2-point grid fit one block; a
# timestep over the cap, as at MAX_N_NOISE x synth.MAX_CLIP_PIXELS, runs
# alone.
_PROBE_BLOCK_BYTES = 4 << 20

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


def param_count(data_dim: int, hidden_width: int) -> int:
    _, total = _param_layout(data_dim + 2 * N_FREQS, hidden_width, data_dim)
    return total


def time_features(t) -> np.ndarray:
    """Sinusoidal features [sin(w_k t), cos(w_k t)] with w_k = 2*pi*2^k,
    k < N_FREQS."""
    t = np.asarray(t, dtype=np.float64)
    freqs = 2.0 * np.pi * (2.0 ** np.arange(N_FREQS, dtype=np.float64))
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
    theta: np.ndarray

    @property
    def data_dim(self) -> int:
        return math.prod(self.data_shape)

    @property
    def input_dim(self) -> int:
        return self.data_dim + 2 * N_FREQS

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
    def init(cls, data_shape, seed, hidden_width: int = 128,
             zero_final: bool = True) -> "VelocityModel":
        """Random init scaled by 1/sqrt(fan-in); biases start at zero. The
        input is the flat pixels and N_FREQS pairs of time features.

        zero_final zeroes the output layer so the untrained model is the
        zero velocity field. Gradient-exactness checks want zero_final
        False so every layer sits on a live gradient path.
        """
        data_shape = tuple(int(d) for d in data_shape)
        _check_architecture(data_shape, hidden_width)
        model = cls(data_shape=data_shape, hidden_width=hidden_width,
                    theta=np.zeros(param_count(math.prod(data_shape), hidden_width)))
        rng = np.random.default_rng(seed)
        views = model.views()
        views["W1"][...] = rng.normal(0.0, 1.0 / np.sqrt(model.input_dim),
                                      size=views["W1"].shape)
        views["W2"][...] = rng.normal(0.0, 1.0 / np.sqrt(hidden_width), size=views["W2"].shape)
        if not zero_final:
            views["W3"][...] = rng.normal(0.0, 1.0 / np.sqrt(hidden_width),
                                          size=views["W3"].shape)
        return model


def _check_architecture(data_shape: tuple, hidden_width: int) -> None:
    """DataError unless data_shape is three positive dims of at most
    MAX_CLIP_PIXELS pixels in all (counted in Python integers, which do
    not wrap) and hidden_width is in [1, MAX_HIDDEN_WIDTH]."""
    if len(data_shape) != 3 or any(d < 1 for d in data_shape):
        raise DataError(f"data_shape must be three positive dims, got {data_shape}")
    if hidden_width < 1:
        raise DataError(f"hidden_width must be >= 1, got {hidden_width}")
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
    feats = time_features(t)
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


def gradient_distances(model: VelocityModel, items, t_grid, n_noise: int) -> np.ndarray:
    """||g(video) - g(copy)|| for every video, copy and timestep, where g
    is grad_at_timestep at (t, seed, n_noise), without forming any
    gradient.

    items is any iterable of (video, copies, seeds) tuples, read once:
    copies lists the video's K copies, the same K for every item, and
    seeds[j] is the video's noise seed at t_grid[j]. Returns an array
    (number of items, K, len(t_grid)); no items give an empty
    (0, 0, len(t_grid)) one. K and the noise block buffer are set by the
    first item, and each item is checked only when it is reached. So a
    caller that makes each item only when it is asked for holds one
    video, its copies and its seeds at a time, beside the blocks below
    and 8 bytes per returned distance (twice that while the per-video
    rows are stacked at the end). A new per-video input is one more
    field of the item.

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
    v . v' and ||feats||^2; v W1x and the v . v' products are formed once
    per video.

    A video's timesteps run in blocks that fit _PROBE_BLOCK_BYTES. A
    block's noise rows, for all its timesteps, sit in one buffer that
    every block reuses, so each D-wide product with the noise (x1 W1x,
    x1 v_k^T, x1 delta^T) is one product over all the block's rows. Once
    a timestep's forward pass is done, its output rows b0 overwrite its
    noise rows, and b0 W3^T and b0 delta^T are likewise one product each.
    The x1 x1^T and b0 b0^T Grams are formed per timestep, so no stacked
    copy of the buffer is made.

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

    delta W3^T is formed once per video. An identical copy has da = 0 and
    delta = 0, so every difference term is exactly 0 and its rows equal
    the video's bit for bit.
    """
    t_grid = [float(t) for t in t_grid]
    for t in t_grid:
        if not 0.0 < t < 1.0:
            raise DataError(f"t must be in the open interval (0, 1), got {t}")
    if not 1 <= n_noise <= MAX_N_NOISE:
        raise DataError(f"n_noise must be in [1, {MAX_N_NOISE}], got {n_noise}")
    d = model.data_dim
    c = 2.0 / (n_noise * d)
    views = model.views()
    w1x, w1f, w3 = views["W1"][:d], views["W1"][d:], views["W3"]
    g3 = w3 @ w3.T

    dists = []
    for video, clips, seeds in items:
        if not dists:
            n_copies = len(clips)
            step_bytes = n_noise * (d + 2 * (1 + n_copies) * model.hidden_width) * 8
            block = max(1, min(len(t_grid), _PROBE_BLOCK_BYTES // step_bytes))
            noise = np.empty((block * n_noise, d))
        if len(clips) != n_copies:
            raise DataError(f"video {len(dists)} has {len(clips)} copies, "
                            f"the first has {n_copies}")
        for clip in (video, *clips):
            if clip.frames.shape != model.data_shape:
                raise DataError(f"video shape {clip.frames.shape} does not match model "
                                f"data shape {model.data_shape}")
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
        for j0 in range(0, len(t_grid), block):
            ts = t_grid[j0:j0 + block]
            rows = [slice(i * n_noise, (i + 1) * n_noise) for i in range(len(ts))]
            x1 = noise[:len(ts) * n_noise]  # timestep i's noise in rows[i]
            for r, seed in zip(rows, seeds[j0:j0 + block]):
                np.random.default_rng(seed).standard_normal(out=x1[r])
            x1_w1 = x1 @ w1x
            cx = vk @ x1.T  # (K, rows): x1_r . v_k
            dx = delta @ x1.T  # (K, rows): x1_r . delta

            # forward for every video at once, (1+K, n, H) per layer; each
            # timestep keeps its a1 and a2 for its backward pass
            fwd = []
            for t, r in zip(ts, rows):
                feats = time_features(t)
                z1 = t * x1_w1[r] + ((1.0 - t) * v_w1 + (feats @ w1f + views["b1"]))
                _check_finite(z1, 1, "W1")
                a1 = np.tanh(z1)
                z2 = a1 @ views["W2"] + views["b2"]
                _check_finite(z2, 2, "W2")
                a2 = np.tanh(z2)
                fwd.append((feats, a1, a2, _gram(x1[r], x1[r])))
                # the video's output gradient b0 = c (out - target), with
                # target = x1 - v_0, written over the noise rows
                out = a2[0] @ w3
                out += views["b3"]
                _check_finite(out, 3, "W3")
                b0_t = np.subtract(out, x1[r], out=x1[r])
                b0_t += v[0]
                b0_t *= c
            b0 = x1  # every timestep's noise rows now hold its b0 rows
            b0_w3 = b0 @ w3.T
            db0 = delta @ b0.T  # (K, rows): b0_r . delta

            for i, (t, r, (feats, a1, a2, x1_gram)) in enumerate(zip(ts, rows, fwd)):
                s = 1.0 - t
                # backward: every video's b W3^T from b0 W3^T and G3
                da2 = a2[0] - a2[1:]  # (K, n, H)
                da2_g3 = da2 @ g3
                d_a2 = np.empty_like(a2)
                d_a2[0] = b0_w3[r]
                d_a2[1:] = b0_w3[r] - c * (da2_g3 + delta_w3[:, None, :])
                d_z2 = d_a2 * (1.0 - a2 * a2)
                d_z1 = (d_z2 @ views["W2"].T) * (1.0 - a1 * a1)

                # first-layer input Gram blocks, from x_r = [t x1_r + s v; feats]
                gram_dd = (s * s * delta_sq)[:, None, None]
                gram_dk = s * (t * dx[:, None, r] + s * delta_vk[:, None, None])
                gram_kk = (t * t * x1_gram
                           + t * s * (cx[:, r, None] + cx[:, None, r])
                           + (s * s * vk_sq + feats @ feats)[:, None, None])
                sq_t = _stacked_sq_dists(gram_dd, gram_dk, gram_kk, d_z1)
                da1 = a1[0] - a1[1:]
                sq_t += _stacked_sq_dists(_gram(da1, da1), _gram(da1, a1[1:]),
                                          _gram(a1[1:], a1[1:]), d_z2)
                # output layer: b0 . db and db . db without the D-wide db rows
                u = (da2 @ delta_w3[:, :, None])[..., 0]  # (K, n): da_r W3 delta^T
                b0d = c * (_gram(b0_w3[r], da2) + db0[:, r, None])
                bdd = c * c * (_gram(da2_g3, da2) + u[:, :, None] + u[:, None, :]
                               + delta_sq[:, None, None])
                sq_t += _layer_sq_dists(_gram(da2, da2), _gram(da2, a2[1:]),
                                        _gram(a2[1:], a2[1:]), _gram(b0[r], b0[r]), b0d,
                                        bdd)
                sq[:, j0 + i] = sq_t
        if not np.all(np.isfinite(sq)):
            raise NumericError("non-finite gradient distance")
        dists.append(np.sqrt(np.maximum(sq, 0.0)))
    if not dists:
        return np.empty((0, 0, len(t_grid)))
    return np.stack(dists)


# --- optimizer and training loop ---------------------------------------------

@dataclass(frozen=True)
class TrainerConfig:
    """Training-loop settings. seed covers model init and every loop draw;
    hidden_width is at most MAX_HIDDEN_WIDTH.

    The Adam constants (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) and the model's
    N_FREQS timestep frequencies are fixed, and the model takes
    VelocityModel.init's zeroed output layer.
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

    theta, grad, m and v must be 1-D float64 arrays of one size, step an
    integer >= 1 and lr finite and > 0; anything else is DataError, raised
    before any array is touched.

    The moments follow Kingma & Ba's Algorithm 1,

        m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g

    and the step follows the order their Section 2 suggests: with
    ck = 1 - bk**step, three scalars are computed once per call,

        root_c2 = sqrt(c2);  step_size = lr*root_c2/c1;  eps_t = eps*root_c2

    and each parameter then gets

        theta -= step_size * m / (sqrt(v) + eps_t)

    Multiplying numerator and denominator of Algorithm 1's
    lr*(m/c1) / (sqrt(v/c2) + eps) by root_c2 gives this form, so the two
    are the same update in exact arithmetic. eps is scaled with root_c2,
    so it keeps Algorithm 1's meaning, a floor added to sqrt(v/c2); the
    paper's shortcut adds an unscaled eps-hat instead, which this is not.
    In floats the displacement differs from Algorithm 1's by rounding
    only, about 1e-15 relative, at one division and one square root per
    parameter where Algorithm 1 takes three divisions. m and v are
    Algorithm 1's bit for bit.

    The update runs chunk by chunk over _ADAM_CHUNK elements, in place
    through two chunk-sized scratch buffers, so it allocates no
    parameter-sized temporaries and keeps each chunk in cache. Every
    element sees the same operations in the same order as the
    whole-array form above, so chunking changes no bit.

    First-step identity: with a fresh state and unit gradient, the
    parameter displacement is lr/(1 + ADAM_EPS), i.e. the learning rate up
    to the damping epsilon.
    """
    for name, arr in (("theta", theta), ("grad", grad), ("m", m), ("v", v)):
        if not (isinstance(arr, np.ndarray) and arr.ndim == 1 and arr.dtype == np.float64):
            got = (f"a {arr.ndim}-D {arr.dtype} array" if isinstance(arr, np.ndarray)
                   else type(arr).__name__)
            raise DataError(f"{name} must be a 1-D float64 array, got {got}")
    if not theta.size == grad.size == m.size == v.size:
        raise DataError(f"theta, grad, m and v must have one size, got {theta.size}, "
                        f"{grad.size}, {m.size} and {v.size}")
    if isinstance(step, bool) or not isinstance(step, (int, np.integer)) or step < 1:
        raise DataError(f"step must be an integer >= 1, got {step!r}")
    if not (isinstance(lr, numbers.Real) and math.isfinite(lr) and lr > 0):
        raise DataError(f"lr must be finite and > 0, got {lr!r}")
    n = theta.size
    c1 = 1.0 - ADAM_BETA1 ** step
    root_c2 = math.sqrt(1.0 - ADAM_BETA2 ** step)
    step_size = lr * root_c2 / c1
    eps_t = ADAM_EPS * root_c2
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
        np.sqrt(v_c, out=b)
        b += eps_t
        np.divide(m_c, b, out=a)
        a *= step_size
        theta[lo:hi] -= a


def train(videos, mq, vq, sampler_config: SamplerConfig,
          trainer_config: TrainerConfig) -> TrainState:
    """Run the full quality-aware loop and return the final state.

    videos[i] is record i's ToyVideo and mq[i], vq[i] its normalized
    scores, as `quality.normalize_scores` returns them. Each step prepares
    a batch through the sampler, draws fresh noise endpoints, and applies
    one optimizer update. trainer_config.baseline runs the sampler on
    equal full scores (mq = vq = 1), the uniform control; the scores are
    checked in either arm.
    Deterministic given trainer_config.seed. A non-finite loss or
    parameter is NumericError; numpy's own overflow warnings are
    silenced, so that error is the one report.
    """
    if not len(videos) == len(mq) == len(vq):
        raise DataError(f"videos, mq and vq must have one length, got "
                        f"{len(videos)}, {len(mq)} and {len(vq)}")
    if not videos:
        raise DataError("dataset is empty")
    for i, video in enumerate(videos):
        if not isinstance(video, ToyVideo):
            raise DataError(f"video {i} must be a ToyVideo, got {type(video).__name__}")
        if video.frames.shape != videos[0].frames.shape:
            raise DataError(f"video shape mismatch: video {i} has {video.frames.shape}, "
                            f"expected {videos[0].frames.shape}")
    data_shape = videos[0].frames.shape
    # row i is record i's video; batches gather rows by index
    x_all = np.stack([video.flat() for video in videos])

    # built in both arms, so that bad scores are a DataError in either
    sampler = TqdSampler(mq, vq, sampler_config)
    if trainer_config.baseline:
        ones = np.ones(len(mq))
        sampler = TqdSampler(ones, ones, sampler_config)
    seed_seq = np.random.SeedSequence(trainer_config.seed)
    model_seed, loop_seed = seed_seq.spawn(2)
    model = VelocityModel.init(data_shape, seed=model_seed,
                               hidden_width=trainer_config.hidden_width)
    rng = np.random.default_rng(loop_seed)

    state = TrainState(model=model, step=0)
    m, v = np.zeros_like(model.theta), np.zeros_like(model.theta)
    with np.errstate(all="ignore"):
        for i in range(1, trainer_config.steps + 1):
            batch = sampler.prepare_batch(rng)
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
        "n_freqs": N_FREQS,
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
    architecture with a data dim or hidden_width below 1, a data_shape of
    more than MAX_CLIP_PIXELS pixels, a hidden_width over MAX_HIDDEN_WIDTH,
    an n_freqs other than N_FREQS, or a parameter payload that disagrees
    with the header's architecture. Every size is checked against the file's
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
        _check_architecture(data_shape, hidden_width)
    except DataError as exc:
        raise CheckpointError(f"checkpoint {path} header: {exc}") from exc
    if n_freqs != N_FREQS:
        raise CheckpointError(f"checkpoint {path} header n_freqs must be {N_FREQS}, "
                              f"got {n_freqs}")
    expected = param_count(math.prod(data_shape), hidden_width)
    body = size - 8 - hlen
    if body != 8 * expected:
        raise CheckpointError(
            f"checkpoint {path} carries {body // 8} parameters, "
            f"architecture needs {expected}")
    theta = np.empty(expected, dtype="<f8")
    if fh.readinto(theta) != body:  # the file shrank after os.stat
        raise CheckpointError(f"checkpoint {path} ended inside its parameters")
    model = VelocityModel(data_shape=data_shape, hidden_width=hidden_width,
                          theta=theta.astype(np.float64, copy=False))
    if header.get("param_count", expected) != expected:
        raise CheckpointError(
            f"checkpoint {path} header param_count {header.get('param_count')} "
            f"does not match architecture ({expected})")
    return model, header
