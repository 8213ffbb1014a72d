"""Quality scores: normalization, population statistics, and scorer-noise injection.

Every training sample carries two raw scorer outputs, a motion-quality (MQ)
and a visual-quality (VQ) score. A record holds what a manifest row
holds: its id, the two raw scores and a payload reference. This module
turns a population of records into the two arrays of normalized [0, 1]
scores the sampler consumes, assigns each record one of the four
high/low quadrants, measures the MQ/VQ correlation, and synthesizes
score populations with a prescribed correlation so the whole pipeline
runs without any external scorer.

All functions are pure: records are frozen dataclasses and every operation
returns new ones.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataError, regular_file_size

QUADRANTS = ("HMHV", "HMLV", "LMHV", "LMLV")

# raw-score ranges synth_population maps its MQ and VQ draws into
SYNTH_MQ_RANGE = (1.0, 4.0)
SYNTH_VQ_RANGE = (1.4, 4.0)


@dataclass(frozen=True)
class QualityRecord:
    """One sample's raw scores plus an opaque reference to its payload."""

    id: str
    mq_raw: float
    vq_raw: float
    payload_ref: str | None = None


@dataclass(frozen=True)
class PopulationStats:
    """Sample Pearson correlation between MQ and VQ with its p-value."""

    pearson_r: float
    p_value: float


def normalize_scores(records: list[QualityRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Min-max normalize raw MQ/VQ over the whole input population.

    Returns the float64 arrays (mq, vq), entry i for records[i]. When all
    raw values of a metric are equal, every normalized value of it is 0.5.

    Raises DataError on empty input, any non-finite raw score, or a
    metric whose range max - min overflows a float.
    """
    if not records:
        raise DataError("empty dataset")
    for rec in records:
        if not (math.isfinite(rec.mq_raw) and math.isfinite(rec.vq_raw)):
            raise DataError(f"non-finite score on record {rec.id!r}")
    return (_minmax("mq", np.array([r.mq_raw for r in records])),
            _minmax("vq", np.array([r.vq_raw for r in records])))


def _minmax(name: str, x: np.ndarray) -> np.ndarray:
    # the first of tied extremes, as min() and max() pick, so a signed
    # zero bound is the same float as theirs
    lo, hi = float(x[x.argmin()]), float(x[x.argmax()])
    _check_range(name, lo, hi)
    # Degenerate range: keep the neutral midpoint so mu stays at 0.5.
    return np.full(x.size, 0.5) if hi == lo else (x - lo) / (hi - lo)


def _check_range(name: str, lo: float, hi: float) -> None:
    if not math.isfinite(hi - lo):
        raise DataError(f"{name} score range {float(lo)!r} to {float(hi)!r} "
                        f"overflows a float")


def quadrants(records: list[QualityRecord], mq_threshold: float | None = None,
              vq_threshold: float | None = None) -> tuple[np.ndarray, float, float]:
    """(labels, mq_threshold, vq_threshold): labels[i], one of QUADRANTS,
    is records[i]'s quadrant. Thresholds are raw scores; a None one is
    that score's median over the records. A score strictly greater than
    its threshold is "high"; a tie, or a NaN threshold, is "low".
    """
    if not records:
        raise DataError("no records to split into quadrants (empty after filtering?)")
    mq = np.array([r.mq_raw for r in records])
    vq = np.array([r.vq_raw for r in records])
    mq_threshold = float(np.median(mq)) if mq_threshold is None else mq_threshold
    vq_threshold = float(np.median(vq)) if vq_threshold is None else vq_threshold
    # QUADRANTS runs HMHV, HMLV, LMHV, LMLV: the index is 2 x low MQ + low VQ
    labels = np.array(QUADRANTS)[3 - 2 * (mq > mq_threshold) - (vq > vq_threshold)]
    return labels, mq_threshold, vq_threshold


def pearson_correlation(records: list[QualityRecord]) -> PopulationStats:
    """Sample Pearson r between raw MQ and VQ, with a two-sided p-value.

    The p-value is the two-sided test of r = 0, under which (r + 1)/2
    follows Beta(n/2 - 1, n/2 - 1). Each step is scipy.stats.pearsonr's,
    so both numbers equal its own. DataError unless n >= 3 and both score
    sequences are non-constant with finite centred norms.
    """
    from scipy import special

    n = len(records)
    if n < 3:
        raise DataError(f"need at least 3 records to correlate, got {n}")
    mq = np.array([r.mq_raw for r in records])
    vq = np.array([r.vq_raw for r in records])
    if mq.min() == mq.max() or vq.min() == vq.max():
        raise DataError("constant score sequence")
    unit = {}
    with np.errstate(all="ignore"):
        for name, x in (("mq", mq), ("vq", vq)):
            xm = x - x.mean()
            # scale by max|xm| first so the norm does not overflow early
            xmax = np.abs(xm).max()
            norm = xmax * np.linalg.norm(xm / xmax, axis=-1)
            if not math.isfinite(norm):
                raise DataError(f"{name} scores are too large to correlate: "
                                f"their mean or norm overflows a float")
            unit[name] = xm / norm
    r = float(np.clip(np.dot(unit["mq"], unit["vq"]), -1.0, 1.0))
    ab = n / 2 - 1
    p = float(2 * special.betaincc(ab, ab, (abs(r) + 1) / 2))
    return PopulationStats(r, p)


def synth_population(n: int, target_r: float, seed: int) -> list[QualityRecord]:
    """Draw n (mq, vq) raw-score pairs with a prescribed correlation.

    Pairs come from a bivariate standard normal with correlation
    `target_r`, then each coordinate is affinely mapped into its raw
    range, SYNTH_MQ_RANGE or SYNTH_VQ_RANGE (center at the midpoint,
    scale = range/6, so the range spans about +-3 sigma). Affine maps leave the correlation untouched, so the
    sample correlation converges to target_r as n grows.
    """
    if not abs(target_r) < 1.0:
        raise DataError(f"target correlation must satisfy |r| < 1, got {target_r}")
    if n < 1:
        raise DataError(f"population size must be positive, got {n}")
    rng = np.random.default_rng(seed)
    z1 = rng.standard_normal(n)
    z2 = target_r * z1 + math.sqrt(1.0 - target_r**2) * rng.standard_normal(n)
    (mq_lo, mq_hi), (vq_lo, vq_hi) = SYNTH_MQ_RANGE, SYNTH_VQ_RANGE
    mq = 0.5 * (mq_lo + mq_hi) + z1 * (mq_hi - mq_lo) / 6.0
    vq = 0.5 * (vq_lo + vq_hi) + z2 * (vq_hi - vq_lo) / 6.0
    return [
        QualityRecord(id=f"synth-{i:06d}", mq_raw=float(mq[i]), vq_raw=float(vq[i]))
        for i in range(n)
    ]


def inject_score_noise(
    records: list[QualityRecord],
    noise_level: float,
    seed: int,
) -> list[QualityRecord]:
    """Perturb raw scores with zero-mean Gaussian noise.

    The per-metric noise std is `noise_level` times that metric's raw
    range over the input records ("10% noise" = std of 0.1 x range).
    noise_level 0 returns the records unchanged, all fields identical.
    A raw range, or a noisy score, that overflows a float is DataError.
    """
    if noise_level < 0:
        raise DataError(f"noise level must be >= 0, got {noise_level}")
    if noise_level == 0:
        return list(records)
    if not records:
        raise DataError("empty dataset")
    rng = np.random.default_rng(seed)
    noisy = []
    with np.errstate(all="ignore"):
        for name, raw in (("mq", np.array([r.mq_raw for r in records])),
                          ("vq", np.array([r.vq_raw for r in records]))):
            _check_range(name, raw.min(), raw.max())
            scores = raw + rng.standard_normal(len(records)) * noise_level * np.ptp(raw)
            if not np.all(np.isfinite(scores)):
                raise DataError(f"{name} scores at noise level {noise_level!r} overflow "
                                f"a float")
            noisy.append(scores)
    mq_noisy, vq_noisy = noisy
    return [
        replace(rec, mq_raw=float(mq_noisy[i]), vq_raw=float(vq_noisy[i]))
        for i, rec in enumerate(records)
    ]


# --- manifest I/O -----------------------------------------------------------

def read_manifest(path: str | Path) -> list[QualityRecord]:
    """Read a JSON-lines score manifest.

    One object per line with keys `id` (string), `mq` (number), `vq`
    (number) and optional `payload` (string). The JSON types must match
    exactly: true is not a number and "2.5" is not one either.

    Raises DataError on bytes that are not UTF-8, naming the line number
    on malformed lines and on values of the wrong JSON type, and the
    record id on a payload that is not a string or null, on non-finite
    scores or on an id seen before. A path that is not a regular file is
    OSError, raised before it is opened.
    """
    regular_file_size(path, "manifest")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"manifest {path} is not UTF-8 text: {exc}") from exc
    records = []
    seen = set()
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            rec_id, mq, vq = obj["id"], obj["mq"], obj["vq"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise DataError(f"malformed manifest line {lineno}: {exc}") from exc
        if type(rec_id) is not str:
            raise DataError(f"id must be a JSON string, got {rec_id!r} (line {lineno})")
        for key, value in (("mq", mq), ("vq", vq)):
            # bool is an int subclass, so the types are compared exactly
            if type(value) not in (int, float):
                raise DataError(f"{key} of record {rec_id!r} must be a JSON number, "
                                f"got {value!r} (line {lineno})")
        try:
            rec = QualityRecord(id=rec_id, mq_raw=float(mq), vq_raw=float(vq),
                                payload_ref=obj.get("payload"))
        except OverflowError as exc:
            raise DataError(f"non-finite score on record {rec_id!r} (line {lineno})") from exc
        if not isinstance(rec.payload_ref, (str, type(None))):
            raise DataError(f"payload of record {rec.id!r} must be a string or null, "
                            f"got {rec.payload_ref!r} (line {lineno})")
        if not (math.isfinite(rec.mq_raw) and math.isfinite(rec.vq_raw)):
            raise DataError(f"non-finite score on record {rec.id!r} (line {lineno})")
        if rec.id in seen:
            raise DataError(f"duplicate record id {rec.id!r} (line {lineno})")
        seen.add(rec.id)
        records.append(rec)
    if not records:
        raise DataError(f"empty manifest: {path}")
    return records


def write_manifest(records: list[QualityRecord], path: str | Path) -> None:
    """Write records as JSON lines. Floats round-trip bit-exactly."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            obj: dict = {"id": rec.id, "mq": rec.mq_raw, "vq": rec.vq_raw}
            if rec.payload_ref is not None:
                obj["payload"] = rec.payload_ref
            fh.write(json.dumps(obj) + "\n")
