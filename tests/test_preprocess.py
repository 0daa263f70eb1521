import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcpad.dataset import AttackType, ChannelId, MultiChannelSample, SampleMeta
from mcpad.preprocess import (
    AlignTargets,
    GeometryError,
    Landmarks,
    MadParams,
    SampleError,
    estimate_similarity,
    landmarks_path,
    load_landmarks,
    mad_fit,
    mad_normalize,
    preprocess_sample,
    to_gray,
    warp,
)

from oracles import bilinear_sample

TARGETS = AlignTargets.for_size(128)


def shifted(targets, dx, dy):
    return Landmarks(
        (targets.left_eye[0] + dx, targets.left_eye[1] + dy),
        (targets.right_eye[0] + dx, targets.right_eye[1] + dy),
        (targets.mouth[0] + dx, targets.mouth[1] + dy),
    )


class TestSimilarity:
    def test_identity(self):
        src = shifted(TARGETS, 0, 0)
        matrix, residual = estimate_similarity(src, TARGETS)
        assert np.allclose(matrix, [[1, 0, 0], [0, 1, 0]], atol=1e-9)
        assert residual < 1e-9

    def test_pure_shift(self):
        matrix, residual = estimate_similarity(shifted(TARGETS, 10, 5), TARGETS)
        assert np.allclose(matrix, [[1, 0, -10], [0, 1, -5]], atol=1e-9)
        assert residual < 1e-9

    def test_scale_about_origin(self):
        src = Landmarks(
            tuple(2 * np.array(TARGETS.left_eye)),
            tuple(2 * np.array(TARGETS.right_eye)),
            tuple(2 * np.array(TARGETS.mouth)),
        )
        matrix, residual = estimate_similarity(src, TARGETS)
        assert np.isclose(matrix[0, 0], 0.5, atol=1e-9)
        assert np.isclose(matrix[1, 0], 0.0, atol=1e-9)
        assert residual < 1e-9

    def test_degenerate_spread(self):
        src = Landmarks((0.0, 0.0), (1e-30, 0.0), (0.0, 0.0))
        with pytest.raises(GeometryError):
            estimate_similarity(src, TARGETS)

    def test_coincident_eyes_rejected(self):
        with pytest.raises(ValueError):
            Landmarks((1.0, 1.0), (1.0, 1.0), (2.0, 2.0))

    @given(
        angle=st.floats(-1.0, 1.0),
        scale=st.floats(0.5, 2.0),
        tx=st.floats(-20, 20),
        ty=st.floats(-20, 20),
    )
    def test_exact_similarity_recovered(self, angle, scale, tx, ty):
        rot = scale * np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        pts = TARGETS.points() @ rot.T + [tx, ty]
        src = Landmarks(tuple(pts[0]), tuple(pts[1]), tuple(pts[2]))
        _, residual = estimate_similarity(src, TARGETS)
        assert residual < 1e-8


class TestWarp:
    def test_identity_transform(self, rng):
        img = rng.integers(0, 256, (16, 16)).astype(np.uint8)
        out = warp(img, np.array([[1.0, 0, 0], [0, 1.0, 0]]), 16)
        assert np.array_equal(out, img)

    def test_constant_inside_bounds(self):
        img = np.full((20, 20), 55, dtype=np.uint8)
        matrix = np.array([[1.0, 0, -2.0], [0, 1.0, -3.0]])
        out = warp(img, matrix, 10)
        assert np.all(out == 55)

    def test_bilinear_half_pixel(self):
        img = np.array([[0, 255], [0, 255]], dtype=np.uint8)
        assert bilinear_sample(img, 0.5, 0.0) == pytest.approx(127.5)

    def test_out_of_bounds_reads_zero(self):
        img = np.full((4, 4), 200, dtype=np.uint8)
        out = warp(img, np.array([[1.0, 0, 100.0], [0, 1.0, 100.0]]), 4)
        assert np.all(out == 0)

    def test_color_frame(self, rng):
        img = rng.integers(0, 256, (8, 8, 3)).astype(np.uint8)
        out = warp(img, np.array([[1.0, 0, 0], [0, 1.0, 0]]), 8)
        assert np.array_equal(out, img)


class TestGray:
    def test_extremes(self):
        assert to_gray(np.array([[[255, 255, 255]]], dtype=np.uint8))[0, 0] == 255
        assert to_gray(np.array([[[0, 0, 0]]], dtype=np.uint8))[0, 0] == 0

    def test_pure_red(self):
        assert to_gray(np.array([[[255, 0, 0]]], dtype=np.uint8))[0, 0] == 76


class TestMad:
    def test_fit_simple(self):
        params = mad_fit(np.array([10, 20, 30]))
        assert params.median == 20 and params.mad == 10

    def test_constant(self):
        assert mad_fit(np.full((4, 4), 9)).mad == 0

    def test_skewed(self):
        params = mad_fit(np.array([0, 0, 0, 100]))
        assert params.median == 0 and params.mad == 0

    def test_normalize_values(self):
        params = MadParams(median=20, mad=10, span=4.0)
        out = mad_normalize(np.array([10.0, 20.0, 30.0]), params)
        assert out.tolist() == [96, 128, 160]

    def test_mad_zero_maps_to_128(self):
        out = mad_normalize(np.full((3, 3), 77, dtype=np.uint16), MadParams(77, 0))
        assert np.all(out == 128)

    @given(
        a_num=st.integers(1, 64),
        b=st.integers(-500, 500),
        data=st.data(),
    )
    def test_affine_refit_byte_invariance(self, a_num, b, data):
        # dyadic positive scales keep the refit arithmetic exact
        a = a_num / 16.0
        values = data.draw(
            st.lists(st.integers(0, 4095), min_size=4, max_size=40).map(np.array)
        )
        base = values.astype(np.float64)
        params = mad_fit(base)
        mapped = a * base + b
        params2 = mad_fit(mapped)
        assert np.array_equal(mad_normalize(base, params), mad_normalize(mapped, params2))


def _raw_sample(rng, frames=4, size=32):
    meta = SampleMeta("raw0", 0, "bonafide", AttackType.NONE, 1)
    channels = {
        ChannelId.COLOR: rng.integers(0, 256, (frames, size, size, 3)).astype(np.uint8),
        ChannelId.DEPTH: rng.integers(0, 65535, (frames, size, size)).astype(np.uint16),
        ChannelId.INFRARED: rng.integers(0, 256, (frames, size, size)).astype(np.uint8),
        ChannelId.THERMAL: rng.integers(0, 65535, (frames, size, size)).astype(np.uint16),
    }
    return MultiChannelSample(meta, channels)


def _center_landmarks(size, count):
    targets = AlignTargets.for_size(size)
    return {i: Landmarks(targets.left_eye, targets.right_eye, targets.mouth) for i in range(count)}


class TestPreprocessSample:
    def test_structure(self, rng):
        raw = _raw_sample(rng, frames=5, size=32)
        targets = AlignTargets.for_size(32)
        out, dropped = preprocess_sample(raw, _center_landmarks(32, 5), targets)
        assert dropped == 0
        assert set(out.channels) == {ChannelId.GRAY, ChannelId.DEPTH, ChannelId.INFRARED, ChannelId.THERMAL}
        for stack in out.channels.values():
            assert stack.shape == (5, 32, 32) and stack.dtype == np.uint8

    def test_identity_landmarks_give_center_gray(self, rng):
        raw = _raw_sample(rng, frames=1, size=32)
        targets = AlignTargets.for_size(32)
        out, _ = preprocess_sample(raw, _center_landmarks(32, 1), targets)
        expected = to_gray(raw.channels[ChannelId.COLOR][0])
        assert np.max(np.abs(out.channels[ChannelId.GRAY][0].astype(int) - expected.astype(int))) <= 1

    def test_constant_16bit_depth_goes_to_128(self, rng):
        raw = _raw_sample(rng, frames=1, size=32)
        raw.channels[ChannelId.DEPTH][:] = 4242
        targets = AlignTargets.for_size(32)
        out, _ = preprocess_sample(raw, _center_landmarks(32, 1), targets)
        assert np.all(out.channels[ChannelId.DEPTH] == 128)

    def test_missing_landmarks_dropped_and_counted(self, rng):
        raw = _raw_sample(rng, frames=4, size=32)
        landmarks = _center_landmarks(32, 2)  # frames 2,3 unannotated
        out, dropped = preprocess_sample(raw, landmarks, AlignTargets.for_size(32))
        assert dropped == 2 and out.frame_count(ChannelId.GRAY) == 2

    def test_all_frames_dropped(self, rng):
        raw = _raw_sample(rng, frames=2, size=32)
        with pytest.raises(SampleError):
            preprocess_sample(raw, {}, AlignTargets.for_size(32))

    def test_frame_sampling_carries_through(self, rng):
        raw = _raw_sample(rng, frames=10, size=32)
        out, _ = preprocess_sample(
            raw, _center_landmarks(32, 10), AlignTargets.for_size(32), frame_indices=[0, 3, 7]
        )
        for stack in out.channels.values():
            assert stack.shape[0] == 3


class TestLandmarkFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "a.landmarks"
        path.write_text(
            "0,1.500,2.000,3.000,2.000,2.250,4.000\n"
            "2,1.000,2.000,3.500,2.500,2.000,4.500\n"
        )
        loaded = load_landmarks(path)
        assert set(loaded) == {0, 2}
        assert loaded[0].left_eye == (1.5, 2.0)
        assert loaded[2] == Landmarks((1.0, 2.0), (3.5, 2.5), (2.0, 4.5))

    def test_path_convention(self):
        assert landmarks_path("/x/sample_01.mcpd").name == "sample_01.landmarks"
