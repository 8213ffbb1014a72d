"""Score normalization, quadrant counts, and population statistics."""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest
from scipy import stats as scipy_stats

from tqd.analysis import quadrant_report
from tqd.quality import (
    QualityRecord,
    inject_score_noise,
    normalize_scores,
    pearson_correlation,
    quadrants,
    read_manifest,
    synth_population,
    write_manifest,
)
from tqd.errors import DataError


def _records(pairs):
    return [
        QualityRecord(id=f"r{i}", mq_raw=float(m), vq_raw=float(v))
        for i, (m, v) in enumerate(pairs)
    ]


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _reference_normalized(records):
    """The min-max rule one record at a time, in Python floats, with
    min() and max() bounds and 0.5 for a constant metric."""
    columns = []
    for raw in ([r.mq_raw for r in records], [r.vq_raw for r in records]):
        lo, hi = min(raw), max(raw)
        columns.append([0.5 if hi == lo else (x - lo) / (hi - lo) for x in raw])
    return columns


class TestNormalizeScores:
    def test_minmax_endpoints_and_midpoint(self):
        mq, _ = normalize_scores(_records([(2, 0), (3, 0), (4, 0)]))
        assert mq.tolist() == [0.0, 0.5, 1.0]

    def test_degenerate_range_maps_to_half(self):
        mq, vq = normalize_scores(_records([(2.5, 1), (2.5, 2), (2.5, 3)]))
        assert mq.tolist() == [0.5, 0.5, 0.5]
        assert vq.tolist() == [0.0, 0.5, 1.0]

    def test_hand_computed_quarters(self):
        # (x - 1) / 4 for raw values {1, 2, 2, 5}
        mq, _ = normalize_scores(_records([(1, 0), (2, 0), (2, 0), (5, 0)]))
        assert mq.tolist() == [0.0, 0.25, 0.25, 1.0]

    def test_returns_two_float64_arrays_in_record_order(self):
        mq, vq = normalize_scores(_records([(3, 1), (1, 2), (2, 5)]))
        assert mq.dtype == vq.dtype == np.float64
        assert mq.shape == vq.shape == (3,)
        assert mq.tolist() == [1.0, 0.0, 0.5]
        assert vq.tolist() == [0.0, 0.25, 1.0]

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-8, 1.0, 3.7e5, 1e150, 1e300])
    def test_matches_per_record_reference(self, scale):
        # random populations around negative, zero and positive centres,
        # a constant metric and signed-zero ties, against the rule applied
        # one record at a time, compared as uint64
        rng = np.random.default_rng(int(-np.log10(scale) * 10) % 997)
        populations = [[(scale * m, scale * v) for m, v in rng.uniform(-1, 1, (n, 2))]
                       for n in (1, 2, 7, 300)]
        populations += [[(scale * m, -scale * 2.5) for m in rng.uniform(-3, -1, 50)],
                        [(-scale * 4.0, scale * v) for v in rng.normal(size=50)],
                        [(0.0, scale), (-0.0, -scale), (scale, 0.0), (-0.0, -0.0)],
                        [(-0.0, 1.0), (0.0, 2.0), (-0.0, 3.0)]]
        for pairs in populations:
            records = [QualityRecord(id=f"r{i}", mq_raw=m, vq_raw=v)
                       for i, (m, v) in enumerate(pairs)]
            ref_mq, ref_vq = _reference_normalized(records)
            mq, vq = normalize_scores(records)
            assert np.array_equal(_bits(mq), _bits(ref_mq))
            assert np.array_equal(_bits(vq), _bits(ref_vq))

    def test_empty_input_raises(self):
        with pytest.raises(DataError):
            normalize_scores([])

    def test_non_finite_score_raises_with_id(self):
        recs = _records([(1, 1), (math.nan, 2)])
        with pytest.raises(DataError, match="r1"):
            normalize_scores(recs)

    def test_inputs_not_mutated(self):
        recs = _records([(1, 1), (2, 2)])
        normalize_scores(recs)
        assert recs == _records([(1, 1), (2, 2)])

    def test_overflowing_range_raises_naming_the_metric(self):
        # max - min is inf; inf / inf would clamp every record to 0
        recs = _records([(1e308, 1), (-1e308, 2), (0, 3)])
        with pytest.raises(DataError, match="mq score range"):
            normalize_scores(recs)


class TestPartitionQuadrants:
    """Quadrant labels by quadrants, and the counts quadrant_report gives
    from them; the report also correlates the scores, so it needs 3
    non-constant records."""

    def test_one_record_per_quadrant(self):
        data = quadrant_report(
            _records([(3, 3), (3, 2), (2, 3), (2, 2)]), 2.5, 2.7).data
        assert data["counts"] == {"HMHV": 1, "HMLV": 1, "LMHV": 1, "LMLV": 1}
        assert sum(data["counts"].values()) == 4

    def test_all_high_gives_full_hmhv_fraction(self):
        data = quadrant_report(_records([(5, 5), (4, 4), (3, 6)]), 2.5, 2.7).data
        assert data["fractions"]["HMHV"] == 1.0

    def test_exact_threshold_counts_as_low(self):
        labels, mq_thr, vq_thr = quadrants(_records([(2.5, 2.7)]), 2.5, 2.7)
        assert labels.tolist() == ["LMLV"]
        assert (mq_thr, vq_thr) == (2.5, 2.7)

    def test_labels_follow_record_order(self):
        labels, *_ = quadrants(_records([(2, 2), (3, 2), (2, 3), (3, 3)]), 2.5, 2.7)
        assert labels.tolist() == ["LMLV", "HMLV", "LMHV", "HMHV"]

    def test_none_threshold_is_that_scores_median(self):
        # one threshold given, the other the median; the median record
        # ties it and counts as low
        recs = _records([(1, 10), (2, 30), (3, 20), (4, 40), (5, 50)])
        labels, mq_thr, vq_thr = quadrants(recs, mq_threshold=2.5)
        assert (mq_thr, vq_thr) == (2.5, 30.0)
        assert labels.tolist() == ["LMLV", "LMLV", "HMLV", "HMHV", "HMHV"]

    def test_nan_threshold_counts_every_score_as_low(self):
        labels, *_ = quadrants(_records([(1, 1), (9, 9)]), math.nan, math.nan)
        assert labels.tolist() == ["LMLV", "LMLV"]

    def test_no_records_raises(self):
        with pytest.raises(DataError, match="empty after filtering"):
            quadrants([])

    def test_empty_input_raises(self):
        with pytest.raises(DataError):
            quadrant_report([], 0.5, 0.5)

    def test_hmhv_fraction_matches_bivariate_normal_oracle(self):
        # independent oracle: direct bivariate-normal quadrant Monte Carlo
        target_r = -0.22
        rng = np.random.default_rng(555)
        z1 = rng.standard_normal(200_000)
        z2 = target_r * z1 + math.sqrt(1 - target_r**2) * rng.standard_normal(200_000)
        oracle = np.mean((z1 > np.median(z1)) & (z2 > np.median(z2)))

        recs = synth_population(100_000, target_r, seed=7)
        mq_med = float(np.median([r.mq_raw for r in recs]))
        vq_med = float(np.median([r.vq_raw for r in recs]))
        data = quadrant_report(recs, mq_med, vq_med).data
        assert abs(data["fractions"]["HMHV"] - oracle) < 0.02


class TestPearsonCorrelation:
    def test_perfect_anticorrelation(self):
        stats = pearson_correlation(_records([(0, 0), (1, -1), (2, -2)]))
        assert stats.pearson_r == pytest.approx(-1.0)

    def test_perfect_correlation(self):
        stats = pearson_correlation(_records([(0, 0), (1, 1), (2, 2)]))
        assert stats.pearson_r == pytest.approx(1.0)

    def test_matches_covariance_formula_oracle(self):
        rng = np.random.default_rng(123)
        mq = rng.uniform(1, 5, size=20)
        vq = rng.uniform(1, 5, size=20)
        stats = pearson_correlation(_records(zip(mq, vq)))
        # independent oracle: covariance formula evaluated directly
        mc, vc = mq - mq.mean(), vq - vq.mean()
        expected = float((mc * vc).sum() / math.sqrt((mc**2).sum() * (vc**2).sum()))
        assert stats.pearson_r == pytest.approx(expected, abs=1e-6)

    def test_fewer_than_three_records_raises(self):
        with pytest.raises(DataError):
            pearson_correlation(_records([(1, 2), (3, 4)]))

    def test_constant_sequence_raises(self):
        with pytest.raises(DataError):
            pearson_correlation(_records([(1, 1), (1, 2), (1, 3)]))

    @pytest.mark.parametrize("n", [3, 4, 40, 300, 5000])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_matches_scipy_pearsonr(self, n, scale):
        # synth_population's draws at r = -0.22, mapped into the raw ranges
        # (-scale, 3 scale) and (scale, 2 scale)
        rng = np.random.default_rng(n)
        z1 = rng.standard_normal(n)
        z2 = -0.22 * z1 + math.sqrt(1.0 - 0.22**2) * rng.standard_normal(n)
        mq = 0.5 * (-scale + 3 * scale) + z1 * (3 * scale + scale) / 6.0
        vq = 0.5 * (scale + 2 * scale) + z2 * (2 * scale - scale) / 6.0
        recs = _records(zip(mq, vq))
        stats = pearson_correlation(recs)
        ref = scipy_stats.pearsonr(mq, vq)
        assert stats.pearson_r == pytest.approx(float(ref.statistic), rel=1e-15, abs=0)
        assert stats.p_value == pytest.approx(float(ref.pvalue), rel=1e-12, abs=0)


class TestSynthPopulation:
    def test_zero_correlation_target(self):
        recs = synth_population(100_000, 0.0, seed=1)
        assert abs(pearson_correlation(recs).pearson_r) < 0.02

    def test_negative_correlation_target(self):
        recs = synth_population(100_000, -0.22, seed=2)
        assert -0.24 <= pearson_correlation(recs).pearson_r <= -0.20

    def test_two_records_construct_without_stats(self):
        recs = synth_population(2, 0.5, seed=3)
        assert len(recs) == 2
        assert recs[0].id != recs[1].id

    def test_ranges_center_scores(self):
        recs = synth_population(50_000, 0.0, seed=4)
        mq = np.array([r.mq_raw for r in recs])
        assert abs(mq.mean() - 2.5) < 0.02
        # range/6 sigma puts the +-3 sigma band at the range edges
        assert abs(mq.std() - 0.5) < 0.01

    def test_deterministic_for_seed(self):
        assert synth_population(10, -0.3, seed=5) == synth_population(10, -0.3, seed=5)

    def test_invalid_target_raises(self):
        with pytest.raises(DataError):
            synth_population(10, 1.0, seed=0)

    def test_empty_population_raises(self):
        with pytest.raises(DataError):
            synth_population(0, 0.0, seed=0)


class TestInjectScoreNoise:
    def test_zero_level_is_identity(self):
        recs = _records([(1, 1), (2, 3)])
        noisy = inject_score_noise(recs, 0.0, seed=9)
        assert noisy == recs

    def test_noise_std_tracks_score_range(self):
        # mq range fixed at exactly 2.0 so level 0.1 means std 0.2
        rng = np.random.default_rng(11)
        mq = np.concatenate([[1.0, 3.0], rng.uniform(1, 3, size=99_998)])
        recs = _records([(m, 5.0 * m) for m in mq])
        noisy = inject_score_noise(recs, 0.1, seed=12)
        delta = np.array([n.mq_raw - r.mq_raw for n, r in zip(noisy, recs)])
        assert 0.195 <= delta.std() <= 0.205

    def test_noise_std_scales_linearly_with_level(self):
        rng = np.random.default_rng(13)
        recs = _records(rng.uniform(1, 3, size=(100_000, 2)))
        d1 = np.array([n.mq_raw - r.mq_raw for n, r in zip(
            inject_score_noise(recs, 0.1, seed=14), recs)])
        d2 = np.array([n.mq_raw - r.mq_raw for n, r in zip(
            inject_score_noise(recs, 0.2, seed=14), recs)])
        assert d2.std() / d1.std() == pytest.approx(2.0, rel=0.03)

    def test_positive_level_changes_only_raw_scores(self):
        recs = [QualityRecord(id=f"r{i}", mq_raw=m, vq_raw=v, payload_ref=f"p{i}")
                for i, (m, v) in enumerate([(1.0, 1.0), (2.0, 3.0)])]
        noisy = inject_score_noise(recs, 0.5, seed=15)
        assert [(r.id, r.payload_ref) for r in noisy] == [("r0", "p0"), ("r1", "p1")]
        assert all(n.mq_raw != r.mq_raw and n.vq_raw != r.vq_raw
                   for n, r in zip(noisy, recs))

    def test_negative_level_raises(self):
        with pytest.raises(DataError):
            inject_score_noise(_records([(1, 1)]), -0.1, seed=0)

    @pytest.mark.filterwarnings("error")
    def test_overflow_is_data_error_without_warnings(self):
        # max - min overflows: the same error normalize_scores raises
        with pytest.raises(DataError, match="mq score range -1e\\+308 to 1e\\+308 overflows"):
            inject_score_noise(_records([(1e308, 1), (-1e308, 2), (0, 3)]), 0.1, seed=0)
        # a finite range whose noise is not
        with pytest.raises(DataError, match="vq scores at noise level 10000000000.0 overflow"):
            inject_score_noise(_records([(1, 1e300), (2, 0)]), 1e10, seed=0)


class TestManifestIO:
    def test_round_trip_is_bit_exact(self, tmp_path):
        recs = [
            QualityRecord("a", 1.0 / 3.0, 0.1, payload_ref="synth:speed=2,noise=0.1,seed=4"),
            QualityRecord("b", 2.720000000000001, 3.3),
        ]
        path = tmp_path / "scores.jsonl"
        write_manifest(recs, path)
        back = read_manifest(path)
        assert [(r.id, r.mq_raw, r.vq_raw, r.payload_ref) for r in back] == [
            (r.id, r.mq_raw, r.vq_raw, r.payload_ref) for r in recs]

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"id": "a", "mq": 1, "vq": 2}\nnot json\n')
        with pytest.raises(DataError, match="line 2"):
            read_manifest(path)

    def test_non_utf8_manifest_raises(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_bytes(b'{"id": "a\xff", "mq": 1, "vq": 2}\n')
        with pytest.raises(DataError, match="not UTF-8"):
            read_manifest(path)

    def test_non_utf8_byte_past_the_first_read_chunk_names_the_manifest(self, tmp_path):
        # the file is decoded 8 KiB at a time as its lines are read, so the
        # bad byte is met after hundreds of good records have been parsed
        path = tmp_path / "scores.jsonl"
        good = b"".join(b'{"id": "r%d", "mq": 1, "vq": 2}\n' % i for i in range(1000))
        assert len(good) > 8192
        path.write_bytes(good + b'{"id": "a\xff", "mq": 1, "vq": 2}\n')
        with pytest.raises(DataError, match=f"^manifest {re.escape(str(path))} is not UTF-8"):
            read_manifest(path)

    def test_missing_key_names_line_number(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"id": "a", "mq": 1}\n')
        with pytest.raises(DataError, match="line 1"):
            read_manifest(path)

    def test_non_finite_score_names_record_id(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"id": "bad-rec", "mq": NaN, "vq": 2}\n')
        with pytest.raises(DataError, match="bad-rec"):
            read_manifest(path)

    def test_empty_manifest_raises(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text("\n")
        with pytest.raises(DataError, match="empty"):
            read_manifest(path)

    def test_missing_file_propagates_oserror(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_manifest(tmp_path / "absent.jsonl")

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('\n{"id": "a", "mq": 1, "vq": 2}\n\n')
        assert len(read_manifest(path)) == 1


def test_record_is_frozen():
    rec = QualityRecord("a", 1.0, 2.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.mq_raw = 3.0


def test_record_holds_a_manifest_row():
    assert [f.name for f in dataclasses.fields(QualityRecord)] == \
        ["id", "mq_raw", "vq_raw", "payload_ref"]
