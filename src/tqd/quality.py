"""Quality scores: normalization, population statistics, and scorer-noise injection.

Every training sample carries two raw scorer outputs, a motion-quality (MQ)
and a visual-quality (VQ) score. This module turns raw score populations
into the normalized [0, 1] values the sampler consumes, assigns each
record one of the four high/low quadrants, measures the MQ/VQ
correlation, and synthesizes score populations with a prescribed
correlation so the whole pipeline runs without any external scorer.

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


@dataclass(frozen=True)
class QualityRecord:
    """One sample's scores plus an opaque reference to its payload.

    mq_norm/vq_norm stay None until `normalize_scores` has run.
    """

    id: str
    mq_raw: float
    vq_raw: float
    mq_norm: float | None = None
    vq_norm: float | None = None
    payload_ref: str | None = None

    @property
    def is_normalized(self) -> bool:
        return self.mq_norm is not None and self.vq_norm is not None


@dataclass(frozen=True)
class PopulationStats:
    """Sample Pearson correlation between MQ and VQ with its p-value."""

    pearson_r: float
    p_value: float


def normalize_scores(records: list[QualityRecord]) -> list[QualityRecord]:
    """Min-max normalize raw MQ/VQ over the whole input population.

    When all raw values of a metric are equal, every normalized value of
    it is 0.5.

    Raises DataError on empty input, any non-finite raw score, or a
    metric whose range max - min overflows a float.
    """
    if not records:
        raise DataError("empty dataset")
    for rec in records:
        if not (math.isfinite(rec.mq_raw) and math.isfinite(rec.vq_raw)):
            raise DataError(f"non-finite score on record {rec.id!r}")
    mq = [r.mq_raw for r in records]
    vq = [r.vq_raw for r in records]
    mq_lo, mq_hi, vq_lo, vq_hi = min(mq), max(mq), min(vq), max(vq)
    _check_range("mq", mq_lo, mq_hi)
    _check_range("vq", vq_lo, vq_hi)
    return [replace(rec, mq_norm=_minmax(rec.mq_raw, mq_lo, mq_hi),
                    vq_norm=_minmax(rec.vq_raw, vq_lo, vq_hi)) for rec in records]


def _minmax(x: float, lo: float, hi: float) -> float:
    # Degenerate range: keep the neutral midpoint so mu stays at 0.5.
    return 0.5 if hi == lo else (x - lo) / (hi - lo)


def _check_range(name: str, lo: float, hi: float) -> None:
    if not math.isfinite(hi - lo):
        raise DataError(f"{name} score range {float(lo)!r} to {float(hi)!r} "
                        f"overflows a float")


def quadrant_of(record: QualityRecord, mq_threshold: float, vq_threshold: float) -> str:
    """The record's quality quadrant, one of QUADRANTS.

    Thresholds are in raw-score units. A score strictly greater than its
    threshold counts as "high"; an exact tie goes to "low".
    """
    return (("H" if record.mq_raw > mq_threshold else "L") + "M"
            + ("H" if record.vq_raw > vq_threshold else "L") + "V")


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


def synth_population(
    n: int,
    target_r: float,
    seed: int,
    mq_range: tuple[float, float] = (1.0, 4.0),
    vq_range: tuple[float, float] = (1.4, 4.0),
) -> list[QualityRecord]:
    """Draw n (mq, vq) raw-score pairs with a prescribed correlation.

    Pairs come from a bivariate standard normal with correlation
    `target_r`, then each coordinate is affinely mapped into its raw
    range (center at the midpoint, scale = range/6, so the range spans
    about +-3 sigma). Affine maps leave the correlation untouched, so the
    sample correlation converges to target_r as n grows.
    """
    if not abs(target_r) < 1.0:
        raise DataError(f"target correlation must satisfy |r| < 1, got {target_r}")
    if n < 1:
        raise DataError(f"population size must be positive, got {n}")
    rng = np.random.default_rng(seed)
    z1 = rng.standard_normal(n)
    z2 = target_r * z1 + math.sqrt(1.0 - target_r**2) * rng.standard_normal(n)
    mq = 0.5 * (mq_range[0] + mq_range[1]) + z1 * (mq_range[1] - mq_range[0]) / 6.0
    vq = 0.5 * (vq_range[0] + vq_range[1]) + z2 * (vq_range[1] - vq_range[0]) / 6.0
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
    Positive levels clear mq_norm/vq_norm: re-normalization over the
    noisy population is the caller's responsibility. A raw range, or a
    noisy score, that overflows a float is DataError.
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
        replace(rec, mq_raw=float(mq_noisy[i]), vq_raw=float(vq_noisy[i]),
                mq_norm=None, vq_norm=None)
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
