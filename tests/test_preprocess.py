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
    align_color,
    estimate_similarity,
    landmarks_path,
    load_landmarks,
    mad_fit,
    mad_normalize,
    preprocess_sample,
    to_gray,
    warp,
)

from oracles import (
    bilinear_sample,
    mad_fit_frame,
    mad_normalize_frame,
    preprocess_sample_frames,
    warp_frame,
)

TARGETS = AlignTargets.for_size(128)


def shifted(targets, dx, dy):
    return Landmarks(
        (targets.left_eye[0] + dx, targets.left_eye[1] + dy),
        (targets.right_eye[0] + dx, targets.right_eye[1] + dy),
        (targets.mouth[0] + dx, targets.mouth[1] + dy),
    )


def residual(matrix, src, dst):
    """RMS distance between the source landmarks mapped through ``matrix``
    and the targets."""
    mapped = src.points() @ matrix[:, :2].T + matrix[:, 2]
    return float(np.sqrt(np.mean(np.sum((mapped - dst.points()) ** 2, axis=1))))


class TestSimilarity:
    def test_identity(self):
        src = shifted(TARGETS, 0, 0)
        matrix = estimate_similarity(src, TARGETS)
        assert np.allclose(matrix, [[1, 0, 0], [0, 1, 0]], atol=1e-9)
        assert residual(matrix, src, TARGETS) < 1e-9

    def test_pure_shift(self):
        src = shifted(TARGETS, 10, 5)
        matrix = estimate_similarity(src, TARGETS)
        assert np.allclose(matrix, [[1, 0, -10], [0, 1, -5]], atol=1e-9)
        assert residual(matrix, src, TARGETS) < 1e-9

    def test_scale_about_origin(self):
        src = Landmarks(
            tuple(2 * np.array(TARGETS.left_eye)),
            tuple(2 * np.array(TARGETS.right_eye)),
            tuple(2 * np.array(TARGETS.mouth)),
        )
        matrix = estimate_similarity(src, TARGETS)
        assert np.isclose(matrix[0, 0], 0.5, atol=1e-9)
        assert np.isclose(matrix[1, 0], 0.0, atol=1e-9)
        assert residual(matrix, src, TARGETS) < 1e-9

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
        assert residual(estimate_similarity(src, TARGETS), src, TARGETS) < 1e-8


def warp_one(frame, matrix, out_size):
    """``warp`` of a one-frame stack, without the stack axis."""
    return warp(frame[None], np.asarray(matrix)[None], out_size)[0]


class TestWarp:
    def test_identity_transform(self, rng):
        img = rng.integers(0, 256, (16, 16, 1)).astype(np.uint8)
        out = warp_one(img, [[1.0, 0, 0], [0, 1.0, 0]], 16)
        assert np.array_equal(out, img)

    def test_constant_inside_bounds(self):
        img = np.full((20, 20, 1), 55, dtype=np.uint8)
        matrix = np.array([[1.0, 0, -2.0], [0, 1.0, -3.0]])
        out = warp_one(img, matrix, 10)
        assert np.all(out == 55)

    def test_bilinear_half_pixel(self):
        img = np.array([[0, 255], [0, 255]], dtype=np.uint8)
        assert bilinear_sample(img, 0.5, 0.0) == pytest.approx(127.5)

    def test_out_of_bounds_reads_zero(self):
        img = np.full((4, 4, 1), 200, dtype=np.uint8)
        out = warp_one(img, [[1.0, 0, 100.0], [0, 1.0, 100.0]], 4)
        assert np.all(out == 0)

    def test_color_frame(self, rng):
        img = rng.integers(0, 256, (8, 8, 3)).astype(np.uint8)
        out = warp_one(img, [[1.0, 0, 0], [0, 1.0, 0]], 8)
        assert np.array_equal(out, img)


def _similarity(angle, scale, tx, ty):
    c, s = scale * np.cos(angle), scale * np.sin(angle)
    return np.array([[c, -s, tx], [s, c, ty]])


def _frames(data, dtype, count, h, w, planes):
    top = np.iinfo(dtype).max
    shape = (count, h, w) if planes is None else (count, h, w, planes)
    return data.draw(st.integers(0, 2**32 - 1).map(
        lambda seed: np.random.default_rng(seed).integers(0, top, shape, endpoint=True).astype(dtype)))


def _per_frame(frames, transforms, out_size):
    return np.stack([warp_frame(f, t, out_size) for f, t in zip(frames, transforms)])


def _assert_same(got, want):
    assert got.dtype == want.dtype and np.array_equal(got, want)


class TestStackedWarp:
    """``warp`` over a stack equals the one-frame oracle, frame by frame."""

    @given(
        dtype=st.sampled_from([np.uint8, np.uint16]),
        count=st.sampled_from([1, 2, 5]),
        h=st.integers(4, 20),
        w=st.integers(4, 20),
        planes=st.sampled_from([1, 3, 4]),
        out_size=st.integers(3, 17),
        data=st.data(),
    )
    def test_rotation_and_scale(self, dtype, count, h, w, planes, out_size, data):
        # scales up to 3 and shifts up to 25 px send part of the crop out of bounds
        param = st.tuples(st.floats(-3.2, 3.2), st.floats(0.3, 3.0),
                          st.floats(-25, 25), st.floats(-25, 25))
        transforms = np.stack([_similarity(*data.draw(param)) for _ in range(count)])
        frames = _frames(data, dtype, count, h, w, planes)
        _assert_same(warp(frames, transforms, out_size), _per_frame(frames, transforms, out_size))

    @given(
        dtype=st.sampled_from([np.uint8, np.uint16]),
        count=st.sampled_from([1, 2, 5]),
        size=st.integers(4, 12),
        data=st.data(),
    )
    def test_integer_coordinates_and_edge_taps(self, dtype, count, size, data):
        # quarter turns and whole or half-pixel shifts land every sample on a
        # pixel or midway between two, some on the last row or column or just
        # past it; the halves make ties for the rounding
        shift = st.integers(-2 * size, 2 * size).map(lambda v: v / 2)
        quarter = st.tuples(st.integers(0, 3), shift, shift)
        transforms = np.stack([
            _similarity(k * np.pi / 2, 1.0, tx, ty).round(12)
            for k, tx, ty in (data.draw(quarter) for _ in range(count))
        ])
        frames = _frames(data, dtype, count, size, size, data.draw(st.sampled_from([1, 4])))
        _assert_same(warp(frames, transforms, size), _per_frame(frames, transforms, size))

    def test_float_frames_stay_float(self, rng):
        frames = rng.normal(size=(2, 8, 8, 1))
        transforms = np.stack([_similarity(0.2, 1.1, 0.5, -0.5)] * 2)
        _assert_same(warp(frames, transforms, 7), _per_frame(frames, transforms, 7))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_transform_rejected(self, bad):
        matrix = _similarity(0.0, 1.0, 0.0, 0.0)
        matrix[1, 2] = bad
        with pytest.raises(GeometryError):
            warp(np.zeros((2, 8, 8, 1), np.uint8), np.stack([_similarity(0, 1, 0, 0), matrix]), 8)

    @pytest.mark.parametrize("linear", [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 2.0], [2.0, 4.0]]])
    def test_singular_transform_rejected(self, linear):
        matrix = np.hstack([np.array(linear), np.zeros((2, 1))])
        with pytest.raises(GeometryError):
            warp(np.zeros((1, 8, 8, 1), np.uint8), matrix[None], 8)

    def test_one_transform_per_frame(self):
        with pytest.raises(ValueError):
            warp(np.zeros((3, 8, 8, 1), np.uint8), np.stack([_similarity(0, 1, 0, 0)] * 2), 8)


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


class TestStackedMad:
    @given(
        dtype=st.sampled_from([np.uint8, np.uint16]),
        count=st.sampled_from([1, 2, 5]),
        size=st.integers(1, 9),
        data=st.data(),
    )
    def test_matches_frame_oracle(self, dtype, count, size, data):
        frames = _frames(data, dtype, count, size, size, None)
        for i in data.draw(st.lists(st.integers(0, count - 1), max_size=count)):
            frames[i] = frames[i, 0, 0]  # a constant (zero-MAD) frame
        span = data.draw(st.sampled_from([1.0, 2.5, 4.0]))
        params = mad_fit(frames, span)
        want = [mad_fit_frame(f, span) for f in frames]
        assert np.array_equal(params.median, [p.median for p in want])
        assert np.array_equal(params.mad, [p.mad for p in want])
        _assert_same(mad_normalize(frames, params),
                     np.stack([mad_normalize_frame(f, p) for f, p in zip(frames, want)]))

    def test_nested_stacks_fit_per_frame(self, rng):
        stack = rng.integers(0, 4096, (3, 2, 6, 6)).astype(np.uint16)
        params = mad_fit(stack)
        assert params.median.shape == (3, 2)
        assert params.mad[1, 0] == mad_fit_frame(stack[1, 0]).mad

    @pytest.mark.parametrize("median, mad", [(np.nan, np.nan), (1.0, np.inf), (-np.inf, 1.0)])
    def test_non_finite_params_rejected(self, median, mad):
        with pytest.raises(ValueError):
            MadParams(median, mad)

    def test_frame_with_nan_rejected(self):
        frames = np.ones((2, 4, 4))
        frames[1, 2, 3] = np.nan
        with pytest.raises(ValueError):
            mad_fit(frames)


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


class TestStackedSample:
    """``preprocess_sample`` and ``align_color`` equal the per-frame loops."""

    @given(
        count=st.integers(1, 5),
        size=st.integers(10, 24),
        out_size=st.integers(8, 15),
        channels=st.sets(st.sampled_from([ChannelId.DEPTH, ChannelId.INFRARED, ChannelId.THERMAL])),
        data=st.data(),
    )
    def test_matches_frame_oracle(self, count, size, out_size, channels, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        raw = _raw_sample(rng, frames=count, size=size)
        for ch in set(raw.channels) - {ChannelId.COLOR} - channels:
            del raw.channels[ch]
        for ch in sorted(channels, key=lambda c: c.label):
            if data.draw(st.booleans()):
                raw.channels[ch][0] = raw.channels[ch][0, 0, 0]  # constant frame: zero MAD
        targets = AlignTargets.for_size(out_size)
        landmarks = {}
        for i in data.draw(st.sets(st.integers(0, count - 1), min_size=1)):
            matrix = _similarity(rng.uniform(-0.6, 0.6), size / out_size * rng.uniform(0.7, 1.4),
                                 rng.uniform(-3, 3), rng.uniform(-3, 3))
            pts = targets.points() @ matrix[:, :2].T + matrix[:, 2]
            landmarks[i] = Landmarks(tuple(pts[0]), tuple(pts[1]), tuple(pts[2]))
        indices = data.draw(st.one_of(st.none(), st.lists(st.integers(0, count - 1), min_size=1)))
        if indices is not None and not set(indices) & set(landmarks):
            indices.append(min(landmarks))
        span = data.draw(st.sampled_from([2.0, 4.0]))

        got, dropped = preprocess_sample(raw, landmarks, targets, span, indices)
        want, want_dropped = preprocess_sample_frames(raw, landmarks, targets, span, indices)
        assert dropped == want_dropped
        assert got == want

        stack, dropped = align_color(raw, landmarks, targets, indices)
        kept = [i for i in (indices if indices is not None else range(count)) if i in landmarks]
        transforms = [estimate_similarity(landmarks[i], targets) for i in kept]
        _assert_same(stack, _per_frame(raw.channels[ChannelId.COLOR][kept], transforms, out_size))
        assert dropped == want_dropped

    def test_channels_of_different_size_rejected(self, rng):
        raw = _raw_sample(rng, frames=2, size=32)
        raw.channels[ChannelId.DEPTH] = raw.channels[ChannelId.DEPTH][:, :16, :16].copy()
        with pytest.raises(SampleError):
            preprocess_sample(raw, _center_landmarks(32, 2), AlignTargets.for_size(32))
