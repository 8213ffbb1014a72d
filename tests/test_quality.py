"""Score normalization, quadrant partitioning, and population statistics."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from tqd.quality import (
    NormalizationConstants,
    QualityRecord,
    inject_score_noise,
    normalize_scores,
    partition_quadrants,
    pearson_correlation,
    read_manifest,
    synth_population,
    write_manifest,
)
from tqd.errors import DataError


def _records(pairs, prefix="r"):
    return [
        QualityRecord(id=f"{prefix}{i}", mq_raw=float(m), vq_raw=float(v))
        for i, (m, v) in enumerate(pairs)
    ]


class TestNormalizeScores:
    def test_minmax_endpoints_and_midpoint(self):
        recs, _ = normalize_scores(_records([(2, 0), (3, 0), (4, 0)]))
        assert [r.mq_norm for r in recs] == [0.0, 0.5, 1.0]

    def test_degenerate_range_maps_to_half(self):
        recs, _ = normalize_scores(_records([(2.5, 1), (2.5, 2), (2.5, 3)]))
        assert all(r.mq_norm == 0.5 for r in recs)

    def test_hand_computed_quarters(self):
        # (x - 1) / 4 for raw values {1, 2, 2, 5}
        recs, _ = normalize_scores(_records([(1, 0), (2, 0), (2, 0), (5, 0)]))
        assert [r.mq_norm for r in recs] == [0.0, 0.25, 0.25, 1.0]

    def test_constants_reapply_to_held_out_with_clipping(self):
        _, consts = normalize_scores(_records([(1, 1), (5, 3)]))
        held_out = consts.apply(_records([(0, 2), (9, 9)], prefix="h"))
        assert held_out[0].mq_norm == 0.0
        assert held_out[1].mq_norm == 1.0
        assert held_out[0].vq_norm == 0.5

    def test_constants_json_round_trip(self):
        _, consts = normalize_scores(_records([(1, 1.5), (5, 3)]))
        assert NormalizationConstants(**json.loads(consts.to_json())) == consts

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
        assert recs[0].mq_norm is None

    def test_overflowing_range_raises_naming_the_metric(self):
        # max - min is inf; inf / inf would clamp every record to 0
        recs = _records([(1e308, 1), (-1e308, 2), (0, 3)])
        with pytest.raises(DataError, match="mq score range"):
            normalize_scores(recs)


class TestPartitionQuadrants:
    def test_one_record_per_quadrant(self):
        part = partition_quadrants(
            _records([(3, 3), (3, 2), (2, 3), (2, 2)]), 2.5, 2.7)
        assert part.counts == {"HMHV": 1, "HMLV": 1, "LMHV": 1, "LMLV": 1}
        assert sum(part.counts.values()) == 4

    def test_all_high_gives_full_hmhv_fraction(self):
        part = partition_quadrants(_records([(5, 5), (4, 4)]), 2.5, 2.7)
        assert part.fractions["HMHV"] == 1.0

    def test_exact_threshold_counts_as_low(self):
        part = partition_quadrants(_records([(2.5, 2.7)]), 2.5, 2.7)
        assert part.counts["LMLV"] == 1

    def test_empty_input_raises(self):
        with pytest.raises(DataError):
            partition_quadrants([], 0.5, 0.5)

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
        part = partition_quadrants(recs, mq_med, vq_med)
        assert abs(part.fractions["HMHV"] - oracle) < 0.02


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
        recs = synth_population(n, -0.22, seed=n, mq_range=(-scale, 3 * scale),
                                vq_range=(scale, 2 * scale))
        mq = np.array([r.mq_raw for r in recs])
        vq = np.array([r.vq_raw for r in recs])
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
        recs = synth_population(50_000, 0.0, seed=4, mq_range=(1.0, 4.0))
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
        recs, _ = normalize_scores(_records([(1, 1), (2, 3)]))
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

    def test_positive_level_clears_normalization(self):
        recs, _ = normalize_scores(_records([(1, 1), (2, 3)]))
        noisy = inject_score_noise(recs, 0.5, seed=15)
        assert all(not r.is_normalized for r in noisy)

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
