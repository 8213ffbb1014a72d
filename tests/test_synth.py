"""Toy video generation, degradations, and serialization."""

from __future__ import annotations

import numpy as np
import pytest

from tqd.synth import (
    DEGRADATION_KINDS,
    MAX_BLUR_RADIUS,
    DegradationSpec,
    ToyVideo,
    degrade,
    generate_moving_shape,
    read_video,
    resolve_payload,
    write_video,
)
from tqd.errors import DataError


def _circular_centroid_x(frame: np.ndarray) -> float:
    # columns live on a circle (horizontal wrap), so use the angular mean
    width = frame.shape[1]
    mass = (frame - frame.min()).sum(axis=0)
    theta = 2.0 * np.pi * (np.arange(width) + 0.5) / width
    angle = np.arctan2((mass * np.sin(theta)).sum(), (mass * np.cos(theta)).sum())
    return float(angle / (2.0 * np.pi) * width) % width


def _wrap_aware_displacements(video: ToyVideo) -> list[float]:
    width = video.frames.shape[2]
    cents = [_circular_centroid_x(f) for f in video.frames]
    deltas = []
    for a, b in zip(cents, cents[1:]):
        d = b - a
        d -= width * round(d / width)
        deltas.append(d)
    return deltas


class TestGenerateMovingShape:
    def test_static_video_has_identical_frames(self):
        video = generate_moving_shape(0.0, 0.0, seed=1)
        assert all((f == video.frames[0]).all() for f in video.frames[1:])

    def test_centroid_tracks_motion_speed(self):
        video = generate_moving_shape(2.0, 0.0, seed=2, frames=8)
        deltas = _wrap_aware_displacements(video)
        assert deltas == pytest.approx([2.0] * 7, abs=1e-9)
        assert sum(deltas) == pytest.approx(14.0, abs=1e-9)

    def test_negative_speed_moves_left(self):
        video = generate_moving_shape(-2.0, 0.0, seed=2, frames=4)
        assert _wrap_aware_displacements(video) == pytest.approx([-2.0] * 3, abs=1e-9)

    def test_noise_free_video_is_two_level(self):
        video = generate_moving_shape(2.0, 0.0, seed=3)
        assert set(np.unique(video.frames)) == {0.1, 0.9}

    def test_fractional_position_renders_partial_coverage(self):
        video = generate_moving_shape(0.0, 0.0, seed=4, start_x=2.5)
        assert len(np.unique(video.frames)) > 2

    def test_texture_noise_perturbs_and_clips(self):
        video = generate_moving_shape(2.0, 0.3, seed=5)
        clean = generate_moving_shape(2.0, 0.0, seed=5)
        assert not np.array_equal(video.frames, clean.frames)
        assert video.frames.min() >= 0.0 and video.frames.max() <= 1.0

    def test_deterministic_for_seed(self):
        a = generate_moving_shape(1.5, 0.1, seed=7)
        b = generate_moving_shape(1.5, 0.1, seed=7)
        assert np.array_equal(a.frames, b.frames)

    def test_noise_free_clip_ignores_seed(self):
        a = generate_moving_shape(1.5, 0.0, seed=7, start_x=1.25)
        b = generate_moving_shape(1.5, 0.0, seed=8, start_x=1.25)
        assert np.array_equal(a.frames, b.frames)

    def test_texture_noise_is_one_normal_draw_from_the_seed(self):
        video = generate_moving_shape(1.5, 0.2, seed=7, start_x=1.25)
        clean = generate_moving_shape(1.5, 0.0, seed=7, start_x=1.25).frames
        noise = np.random.default_rng(7).normal(0.0, 0.2, size=clean.shape)
        assert np.array_equal(video.frames, np.clip(clean + noise, 0.0, 1.0))

    def test_shape_and_flat_layout(self):
        video = generate_moving_shape(1.0, 0.0, seed=8, frames=4, height=6, width=5)
        assert video.frames.shape == (4, 6, 5)
        assert video.flat().shape == (120,)

    def test_non_finite_speed_raises(self):
        with pytest.raises(DataError):
            generate_moving_shape(float("nan"), 0.0, seed=0)

    def test_negative_texture_noise_raises(self):
        with pytest.raises(DataError):
            generate_moving_shape(1.0, -0.1, seed=0)

    @pytest.mark.parametrize("noise", [0.0, 0.1])
    def test_negative_seed_raises(self, noise):
        with pytest.raises(DataError, match="seed"):
            generate_moving_shape(1.0, noise, seed=-1)

    @pytest.mark.parametrize("dims", [{"frames": 0}, {"height": 0}, {"width": -1}])
    def test_non_positive_dimensions_raise(self, dims):
        with pytest.raises(DataError, match="dimensions must be positive"):
            generate_moving_shape(1.0, 0.0, seed=0, **dims)


class TestDegrade:
    def test_unknown_kind_rejected_at_spec_construction(self):
        with pytest.raises(DataError):
            DegradationSpec("sepia", 1.0)
        # so is a strength no degradation can apply
        with pytest.raises(DataError, match="finite"):
            DegradationSpec("blur", float("nan"))
        # and a seed no generator accepts
        with pytest.raises(DataError, match="seed"):
            DegradationSpec("noise", 0.1, seed=-3)

    def test_blur_radius_is_capped_after_rounding(self):
        DegradationSpec("blur", MAX_BLUR_RADIUS + 0.4)
        with pytest.raises(DataError, match=f"blur radius must be <= {MAX_BLUR_RADIUS}"):
            DegradationSpec("blur", MAX_BLUR_RADIUS + 0.6)
        with pytest.raises(DataError, match="blur radius"):
            DegradationSpec("blur", 1e300)

    def test_zero_strength_is_identity_for_every_kind(self):
        video = generate_moving_shape(2.0, 0.1, seed=9)
        for kind in DEGRADATION_KINDS:
            out = degrade(video, DegradationSpec(kind, 0.0))
            assert np.array_equal(out.frames, video.frames), kind

    def test_blur_smooths_and_preserves_frame_means(self):
        video = generate_moving_shape(2.0, 0.0, seed=10)
        out = degrade(video, DegradationSpec("blur", 2.0))
        assert out.frames.std() < video.frames.std()
        for before, after in zip(video.frames, out.frames):
            assert after.mean() == pytest.approx(before.mean(), abs=1e-12)

    def test_compression_mid_rise_quantizer(self):
        video = generate_moving_shape(2.0, 0.0, seed=11)
        out = degrade(video, DegradationSpec("compression", 2.0))
        assert set(np.unique(out.frames)) == {0.25, 0.75}

    def test_compression_below_two_levels_raises(self):
        video = generate_moving_shape(2.0, 0.0, seed=12)
        with pytest.raises(DataError):
            degrade(video, DegradationSpec("compression", 1.0))

    def test_noise_is_seeded_and_clipped(self):
        video = generate_moving_shape(2.0, 0.0, seed=13)
        a = degrade(video, DegradationSpec("noise", 0.5, seed=1))
        b = degrade(video, DegradationSpec("noise", 0.5, seed=1))
        c = degrade(video, DegradationSpec("noise", 0.5, seed=2))
        assert np.array_equal(a.frames, b.frames)
        assert not np.array_equal(a.frames, c.frames)
        assert a.frames.min() >= 0.0 and a.frames.max() <= 1.0

    def test_negative_noise_raises(self):
        video = generate_moving_shape(2.0, 0.0, seed=14)
        with pytest.raises(DataError):
            degrade(video, DegradationSpec("noise", -0.1))

    def test_shuffle_permutes_frames_keeping_their_pixels(self):
        video = generate_moving_shape(2.0, 0.0, seed=15, frames=8)
        out = degrade(video, DegradationSpec("shuffle", 1.0, seed=3))
        assert not np.array_equal(out.frames, video.frames)
        key = lambda frames: sorted(f.tobytes() for f in frames)
        assert key(out.frames) == key(video.frames)

    def test_full_shuffle_always_reorders(self):
        video = generate_moving_shape(2.0, 0.0, seed=16, frames=2)
        for seed in range(20):
            out = degrade(video, DegradationSpec("shuffle", 1.0, seed=seed))
            assert not np.array_equal(out.frames, video.frames)

    def test_shuffle_single_frame_is_identity(self):
        video = generate_moving_shape(2.0, 0.0, seed=17, frames=1)
        out = degrade(video, DegradationSpec("shuffle", 1.0))
        assert np.array_equal(out.frames, video.frames)

    def test_shuffle_static_video_leaves_pixels_unchanged(self):
        video = generate_moving_shape(0.0, 0.0, seed=18, frames=8)
        out = degrade(video, DegradationSpec("shuffle", 1.0))
        assert np.array_equal(out.frames, video.frames)

    def test_shuffle_fraction_above_one_raises(self):
        video = generate_moving_shape(2.0, 0.0, seed=19)
        with pytest.raises(DataError):
            degrade(video, DegradationSpec("shuffle", 1.5))

    def test_degrade_leaves_input_frames_untouched(self):
        video = generate_moving_shape(2.0, 0.1, seed=20)
        before = video.frames.copy()
        for spec in [DegradationSpec("blur", 1.0), DegradationSpec("compression", 4.0),
                     DegradationSpec("noise", 0.1, seed=4), DegradationSpec("shuffle", 1.0)]:
            out = degrade(video, spec)
            assert np.array_equal(video.frames, before)
            assert out.frames is not video.frames


class TestVideoIO:
    def test_round_trip_preserves_float32_pixels(self, tmp_path):
        video = generate_moving_shape(2.0, 0.1, seed=22)
        path = tmp_path / "clip.tvid"
        write_video(video, path)
        back = read_video(path)
        assert np.array_equal(back.frames, video.frames.astype(np.float32))

    def test_json_file_next_to_a_video_is_ignored(self, tmp_path):
        video = generate_moving_shape(2.0, 0.0, seed=23)
        path = tmp_path / "clip.tvid"
        write_video(video, path)
        assert [p.name for p in tmp_path.iterdir()] == ["clip.tvid"]
        (tmp_path / "clip.tvid.json").write_text("{not json")
        assert np.array_equal(read_video(path).frames, video.frames.astype(np.float32))

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "clip.tvid"
        path.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(DataError, match="not a toy-video"):
            read_video(path)

    def test_truncated_file_raises(self, tmp_path):
        video = generate_moving_shape(2.0, 0.0, seed=24)
        path = tmp_path / "clip.tvid"
        write_video(video, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError, match="truncated"):
            read_video(path)


class TestResolvePayload:
    def test_synth_reference_renders_parameters(self):
        video = resolve_payload("synth:speed=2.0,noise=0.05,seed=7,frames=4,height=8,width=8")
        direct = generate_moving_shape(2.0, 0.05, seed=7, frames=4, height=8, width=8)
        assert np.array_equal(video.frames, direct.frames)

    def test_synth_reference_defaults(self):
        assert resolve_payload("synth:speed=1.0").frames.shape == (8, 16, 16)

    @pytest.mark.parametrize("ref", [
        "synth:speed", "synth:sped=2", "synth:frames=inf", "synth:frames=nan",
        "synth:seed=1.5", "synth:width=-inf"])
    def test_malformed_synth_reference_raises(self, ref):
        with pytest.raises(DataError, match="synth payload"):
            resolve_payload(ref)

    def test_file_reference_resolves_against_base_dir(self, tmp_path):
        video = generate_moving_shape(2.0, 0.0, seed=25)
        write_video(video, tmp_path / "clip.tvid")
        back = resolve_payload("clip.tvid", base_dir=tmp_path)
        assert np.array_equal(back.frames, video.frames.astype(np.float32))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DataError, match="payload file not found"):
            resolve_payload("absent.tvid", base_dir=tmp_path)
