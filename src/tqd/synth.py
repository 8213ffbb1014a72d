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

# largest clip in pixels (frames x height x width) that generate_moving_shape
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
    """Render a SHAPE_SIZE square at FOREGROUND level over a BACKGROUND
    field, moving horizontally at motion_speed px/frame.

    The square wraps around the right edge when its trajectory leaves the
    frame (negative speeds move left and wrap the other way). Texture
    noise is additive Gaussian of the given std, clamped to [0, 1].
    frames, height and width must be positive with a product of at most
    MAX_CLIP_PIXELS, seed must be >= 0.
    """
    if not np.isfinite(motion_speed):
        raise DataError(f"motion_speed must be finite, got {motion_speed}")
    if not (np.isfinite(texture_noise) and texture_noise >= 0):
        raise DataError(f"texture_noise must be finite and >= 0, got {texture_noise}")
    if min(frames, height, width) < 1:
        raise DataError(f"video dimensions must be positive, got frames={frames}, "
                        f"height={height}, width={width}")
    _check_clip_size(frames, height, width)
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
    # integer row placement: noise-free videos take only the two nominal
    # levels when start_x and motion_speed are integral
    y0 = float((height - SHAPE_SIZE) // 2)
    cov_y = _interval_coverage(y0, SHAPE_SIZE, height, wrap=False)
    video = np.empty((frames, height, width), dtype=np.float64)
    for f in range(frames):
        x = start_x + f * motion_speed
        cov_x = _interval_coverage(x, SHAPE_SIZE, width, wrap=True)
        video[f] = BACKGROUND + (FOREGROUND - BACKGROUND) * np.outer(cov_y, cov_x)
    if texture_noise > 0:
        # only noisy clips draw, so only they pay for building a generator
        video += np.random.default_rng(seed).normal(0.0, texture_noise, size=video.shape)
    np.clip(video, 0.0, 1.0, out=video)
    return ToyVideo(frames=video)


def _check_clip_size(frames: int, height: int, width: int) -> None:
    if frames * height * width > MAX_CLIP_PIXELS:
        raise DataError(f"a {frames}x{height}x{width} clip has more than {MAX_CLIP_PIXELS} pixels")


def _interval_coverage(start: float, length: float, n: int, wrap: bool) -> np.ndarray:
    """Fraction of each unit cell [j, j+1) covered by [start, start+length).

    With wrap=True the interval lives on a circle of circumference n
    (coverage of the wrapped-around tail is added back at the left edge).
    """
    if wrap:
        start = start % n
    cells = np.arange(n, dtype=np.float64)
    cov = np.clip(np.minimum(cells + 1.0, start + length) - np.maximum(cells, start), 0.0, 1.0)
    if wrap and start + length > n:
        over = start + length - n
        cov += np.clip(np.minimum(cells + 1.0, over) - cells, 0.0, 1.0)
    return cov


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

def write_video(video: ToyVideo, path: str | Path) -> None:
    """Write the flat binary format: TVID magic, F/H/W as u32-LE, then
    float32-LE pixels in (frame, row, column) order."""
    f, h, w = video.frames.shape
    with open(path, "wb") as fh:
        fh.write(VIDEO_MAGIC)
        fh.write(struct.pack("<III", f, h, w))
        fh.write(np.ascontiguousarray(video.frames, dtype="<f4"))


def read_video(path: str | Path) -> ToyVideo:
    """Read the flat binary format back (pixels land as float64).
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
