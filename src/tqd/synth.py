"""Synthetic toy videos and quality degradations.

A ToyVideo is a small F x H x W grid sequence in [0, 1]: a bright square
translating over a dark background, with optional additive texture noise.
Motion speed stands in for motion quality, texture cleanliness for visual
quality, so the full training pipeline runs without any real video data.

Four degradation operators mirror the probe's quality axes: blur,
quantization ("compression"), and additive noise corrupt per-frame visual
detail without touching motion; frame shuffling destroys motion while
leaving every frame's pixels intact.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, regular_file_size

VIDEO_MAGIC = b"TVID"
DEGRADATION_KINDS = ("blur", "compression", "noise", "shuffle")

# moving-shape rendering: square side in pixels, foreground and background levels
SHAPE_SIZE = 3
FOREGROUND = 0.9
BACKGROUND = 0.1

# largest blur radius DegradationSpec accepts, in pixels: the box filter's
# buffers and time grow with the radius, and a box this wide spans a toy
# clip's frame many times over
MAX_BLUR_RADIUS = 1024

# largest clip in pixels (frames x height x width) that render_squares
# and read_video accept: clips are held whole in float64, and the model's
# first layer is this wide. The largest clip in use is 8x16x16 = 2048.
MAX_CLIP_PIXELS = 65536


@dataclass
class ToyVideo:
    """F x H x W float array in [0, 1]."""

    frames: np.ndarray

    def flat(self) -> np.ndarray:
        return self.frames.reshape(-1)


@dataclass(frozen=True)
class DegradationSpec:
    """One degradation: kind, strength, and the seed for its randomness.

    strength means: blur -> box kernel radius (rounded, at most
    MAX_BLUR_RADIUS); compression -> number of quantization levels
    (>= 2); noise -> Gaussian std; shuffle -> fraction of frames permuted
    (in [0, 1]). Zero strength (or zero fraction) is the identity for
    every kind. seed must be >= 0. Construction rejects
    a strength outside its kind's range, so `degrade` never has to.
    """

    kind: str
    strength: float
    seed: int = 0

    def __post_init__(self):
        if self.kind not in DEGRADATION_KINDS:
            raise DataError(f"unknown degradation kind {self.kind!r}")
        if not np.isfinite(self.strength):
            raise DataError(f"{self.kind} strength must be finite, got {self.strength}")
        if self.seed < 0:
            raise DataError(f"{self.kind} seed must be >= 0, got {self.seed}")
        if self.kind == "blur" and round(self.strength) < 0:
            raise DataError(f"blur radius must be >= 0, got {self.strength}")
        if self.kind == "blur" and round(self.strength) > MAX_BLUR_RADIUS:
            raise DataError(f"blur radius must be <= {MAX_BLUR_RADIUS}, got {self.strength}")
        if self.kind == "compression" and self.strength != 0 and int(self.strength) < 2:
            raise DataError(f"compression needs >= 2 levels, got {self.strength}")
        if self.kind == "noise" and self.strength < 0:
            raise DataError(f"noise std must be >= 0, got {self.strength}")
        if self.kind == "shuffle" and not 0.0 <= self.strength <= 1.0:
            raise DataError(f"shuffle fraction must be in [0, 1], got {self.strength}")


def generate_moving_shape(
    motion_speed: float,
    texture_noise: float,
    seed: int,
    frames: int = 8,
    height: int = 16,
    width: int = 16,
    start_x: float = 0.0,
) -> ToyVideo:
    """Render one clip through render_squares, add texture noise and
    clamp it to [0, 1].

    Texture noise is additive Gaussian of the given std, drawn from
    default_rng(seed) only when it is positive; seed must be >= 0.
    render_squares checks the speed, start and dimensions.
    """
    if not (np.isfinite(texture_noise) and texture_noise >= 0):
        raise DataError(f"texture_noise must be finite and >= 0, got {texture_noise}")
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
    video = render_squares([motion_speed], [start_x], frames, height, width)[0]
    if texture_noise > 0:
        # only noisy clips draw, so only they pay for building a generator
        video += np.random.default_rng(seed).normal(0.0, texture_noise, size=video.shape)
    np.clip(video, 0.0, 1.0, out=video)
    return ToyVideo(frames=video)


def _check_clip_size(frames: int, height: int, width: int) -> None:
    if frames * height * width > MAX_CLIP_PIXELS:
        raise DataError(f"a {frames}x{height}x{width} clip has more than {MAX_CLIP_PIXELS} pixels")


def render_squares(speeds, starts, frames: int, height: int, width: int) -> np.ndarray:
    """Noise-free clips of a SHAPE_SIZE square at FOREGROUND level over a
    BACKGROUND field, one per (speed, start) pair, as one
    (n, frames, height, width) float64 array.

    Clip i's square sits at column starts[i] + f*speeds[i] in frame f and
    wraps around the right edge when its trajectory leaves the frame
    (negative speeds move left and wrap the other way); its rows are
    fixed at integer placement, so a clip takes only the two nominal
    levels when its start and speed are integral. Each pixel is
    BACKGROUND plus (FOREGROUND - BACKGROUND) times the fraction of it
    the square covers. Nothing is clamped: a square wider than its frame
    overlaps itself and covers a cell more than once.

    speeds and starts must be 1-D arrays of one length with finite
    values, every path must stay finite, and frames, height and width
    must be positive with a product of at most MAX_CLIP_PIXELS.
    """
    speeds = np.asarray(speeds, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.float64)
    if speeds.ndim != 1 or speeds.shape != starts.shape:
        raise DataError(f"speeds and starts must be 1-D arrays of one length, "
                        f"got shapes {speeds.shape} and {starts.shape}")
    if min(frames, height, width) < 1:
        raise DataError(f"video dimensions must be positive, got frames={frames}, "
                        f"height={height}, width={width}")
    _check_clip_size(frames, height, width)
    # a non-finite speed or start makes its whole path non-finite (0 * inf
    # is NaN), so one check covers the speeds, the starts and the paths
    with np.errstate(over="ignore", invalid="ignore"):
        x = starts[:, None] + np.arange(frames, dtype=np.float64) * speeds[:, None]
    if not np.isfinite(x).all():
        i = np.flatnonzero(~np.isfinite(x).all(axis=1))[0]
        raise DataError(f"clip {i}'s path from start {starts[i]} at speed {speeds[i]} "
                        f"is not finite over {frames} frames: no pixels to draw")

    def coverage(lo, hi, n):
        # fraction of each unit cell [j, j+1), j < n, covered by [lo, hi):
        # clip(min(cells + 1, hi) - max(cells, lo), 0, 1), with the clip
        # as two ufuncs (np.clip's wrapper costs more than a small clip)
        cells = np.arange(n, dtype=np.float64)
        overlap = np.minimum(cells + 1.0, hi) - np.maximum(cells, lo)
        return np.minimum(np.maximum(overlap, 0.0), 1.0)

    y0 = float((height - SHAPE_SIZE) // 2)
    rows = coverage(y0, y0 + SHAPE_SIZE, height)
    x = (x % width)[..., None]
    end = x + SHAPE_SIZE
    # the tail past the right edge re-enters at column 0; it covers no
    # cell when end <= width
    cols = coverage(x, end, width) + coverage(0.0, end - width, width)
    clips = rows[:, None] * cols[:, :, None, :]
    clips *= FOREGROUND - BACKGROUND
    clips += BACKGROUND
    return clips


def degrade(video: ToyVideo, spec: DegradationSpec) -> ToyVideo:
    """Apply one degradation, returning a new video (input untouched).

    Zero strength is a bit-exact identity for every kind; shuffling a
    single-frame video is likewise the identity.
    """
    frames = video.frames
    if spec.kind == "blur":
        radius = int(round(spec.strength))
        if radius == 0:
            out = frames.copy()
        else:
            from scipy import ndimage

            size = 2 * radius + 1
            # reflect padding keeps each frame's mean exactly
            out = ndimage.uniform_filter(frames, size=(1, size, size), mode="reflect")
            np.clip(out, 0.0, 1.0, out=out)
    elif spec.kind == "compression":
        if spec.strength == 0:
            out = frames.copy()
        else:
            levels = int(spec.strength)
            # mid-rise quantizer over [0, 1]
            out = (np.clip(np.floor(frames * levels), 0, levels - 1) + 0.5) / levels
    elif spec.kind == "noise":
        if spec.strength == 0:
            out = frames.copy()
        else:
            rng = np.random.default_rng(spec.seed)
            out = frames + rng.normal(0.0, spec.strength, size=frames.shape)
            np.clip(out, 0.0, 1.0, out=out)
    elif spec.kind == "shuffle":
        n_frames = frames.shape[0]
        k = int(round(spec.strength * n_frames))
        if n_frames < 2 or k < 2:
            out = frames.copy()
        else:
            rng = np.random.default_rng(spec.seed)
            picked = rng.choice(n_frames, size=k, replace=False)
            # a shuffle must actually reorder; resample the rare identity
            perm = rng.permutation(k)
            while (perm == np.arange(k)).all():
                perm = rng.permutation(k)
            out = frames.copy()
            out[picked] = frames[picked[perm]]
    else:  # pragma: no cover - DegradationSpec already validates
        raise DataError(f"unknown degradation kind {spec.kind!r}")
    return ToyVideo(frames=out)


# --- serialization -----------------------------------------------------------

def read_video(path: str | Path) -> ToyVideo:
    """Read a toy-video file: the TVID magic, F/H/W as u32-LE, then
    float32-LE pixels in (frame, row, column) order; pixels land as float64.
    DataError on a path that is not a regular file, a malformed file, a
    zero dimension, over MAX_CLIP_PIXELS pixels or a non-finite pixel,
    each checked before the pixels are read. A `<path>.json` file next to
    it is not read."""
    path = Path(path)
    size = regular_file_size(path, "toy-video file", DataError)
    with open(path, "rb") as fh:
        head = fh.read(16)
        if len(head) < 16 or head[:4] != VIDEO_MAGIC:
            raise DataError(f"not a toy-video file: {path}")
        f, h, w = struct.unpack("<III", head[4:])
        if 0 in (f, h, w):
            raise DataError(f"toy-video file {path} has shape ({f}, {h}, {w}), "
                            f"every dimension must be positive")
        _check_clip_size(f, h, w)
        expected = 16 + 4 * f * h * w
        if size != expected:
            raise DataError(f"truncated toy-video file {path}: {size} bytes, "
                            f"expected {expected}")
        pixels = np.empty((f, h, w), dtype="<f4")
        if fh.readinto(pixels) != pixels.nbytes:  # the file shrank after os.stat
            raise DataError(f"truncated toy-video file {path}: it ended inside its pixels")
    frames = pixels.astype(np.float64)
    if not np.isfinite(frames).all():
        raise DataError(f"toy-video file {path} holds non-finite pixels")
    return ToyVideo(frames=frames)


# --- payload resolution -------------------------------------------------------

# the keys of a "synth:" payload reference and their defaults
_SYNTH_DEFAULTS = {"speed": 0.0, "noise": 0.0, "seed": 0, "frames": 8, "height": 16,
                   "width": 16, "start": 0.0}


def resolve_payload(payload_ref: str, base_dir: str | Path | None = None) -> ToyVideo:
    """Materialize a manifest payload reference.

    Two forms are understood:
    - "synth:speed=2.0,noise=0.05,seed=7[,frames=8,height=16,width=16,start=0]"
      renders a moving-shape video from those parameters (an unknown key,
      or a seed, frames, height or width that is not a finite integer,
      is DataError);
    - any other string is a path to a serialized toy video, resolved
      against base_dir when relative.
    """
    if payload_ref.startswith("synth:"):
        params = dict(_SYNTH_DEFAULTS)
        try:
            for part in payload_ref[len("synth:"):].split(","):
                key, val = part.split("=", 1)
                key = key.strip()
                if key not in params:
                    raise DataError(f"unknown key {key!r} in synth payload {payload_ref!r}")
                params[key] = float(val)
        except ValueError as exc:
            raise DataError(f"malformed synth payload {payload_ref!r}") from exc
        for key in ("seed", "frames", "height", "width"):
            if not float(params[key]).is_integer():
                raise DataError(f"synth payload key {key} must be a finite integer, "
                                f"got {params[key]} in {payload_ref!r}")
            params[key] = int(params[key])
        return generate_moving_shape(
            motion_speed=params["speed"],
            texture_noise=params["noise"],
            seed=params["seed"],
            frames=params["frames"],
            height=params["height"],
            width=params["width"],
            start_x=params["start"],
        )
    path = Path(payload_ref)
    if base_dir is not None and not path.is_absolute():
        path = Path(base_dir) / path
    if not path.exists():
        raise DataError(f"payload file not found: {path}")
    return read_video(path)
