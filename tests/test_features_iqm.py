import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcpad.features.iqm import (
    IQM_NAMES,
    PSNR_CAP,
    gaussian_kernel,
    iqm_features,
    smooth,
)

from oracles import iqm_frame


def as_rgb(gray):
    return np.repeat(np.asarray(gray, dtype=np.uint8)[:, :, None], 3, axis=2)


def index(name):
    return IQM_NAMES.index(name)


class TestReference:
    def test_kernel_normalized(self):
        k = gaussian_kernel()
        assert k.shape == (5, 5) and np.isclose(k.sum(), 1.0)

    def test_smooth_constant(self):
        img = np.full((6, 6), 41.0)
        assert np.allclose(smooth(img), img)

    def test_smooth_matches_hand_convolution(self):
        img = np.array([[0, 255], [0, 255]], dtype=np.float64)
        k = gaussian_kernel()
        padded = np.pad(img, 2, mode="symmetric")
        expected = np.zeros((2, 2))
        for y in range(2):
            for x in range(2):
                expected[y, x] = sum(
                    k[i, j] * padded[y + i, x + j] for i in range(5) for j in range(5)
                )
        assert np.allclose(smooth(img), expected, atol=1e-12)


class TestMeasures:
    def test_vector_length_and_order(self, rng):
        frame = rng.integers(0, 256, (16, 16, 3)).astype(np.uint8)
        assert iqm_features(frame).shape == (len(IQM_NAMES),)

    def test_constant_image(self):
        feats = iqm_features(as_rgb(np.full((8, 8), 120)))
        named = dict(zip(IQM_NAMES, feats))
        assert named["mse"] == pytest.approx(0.0, abs=1e-20)
        assert named["psnr"] == PSNR_CAP
        assert named["avg_diff"] == pytest.approx(0.0, abs=1e-12)
        assert named["structural_content"] == pytest.approx(1.0)
        assert named["ncc"] == pytest.approx(1.0)
        assert named["mean_angle_similarity"] == pytest.approx(1.0)

    def test_mse_against_hand_convolution(self):
        gray = np.array([[0, 255], [0, 255]])
        feats = iqm_features(as_rgb(gray))
        k = gaussian_kernel()
        padded = np.pad(gray.astype(np.float64), 2, mode="symmetric")
        ref = np.zeros((2, 2))
        for y in range(2):
            for x in range(2):
                ref[y, x] = sum(k[i, j] * padded[y + i, x + j] for i in range(5) for j in range(5))
        expected = np.mean((gray - ref) ** 2)
        assert feats[index("mse")] == pytest.approx(expected, abs=1e-6)

    def test_measure_subset_selection(self, rng):
        frame = rng.integers(0, 256, (12, 12, 3)).astype(np.uint8)
        subset = ("mse", "psnr", "hist_chi_square")
        feats = iqm_features(frame, measures=subset)
        full = iqm_features(frame)
        assert feats.shape == (3,)
        assert feats[0] == full[index("mse")]

    def test_unknown_measure_rejected(self, rng):
        frame = rng.integers(0, 256, (8, 8, 3)).astype(np.uint8)
        with pytest.raises(ValueError):
            iqm_features(frame, measures=("nope",))

    def test_non_rgb_rejected(self):
        with pytest.raises(ValueError):
            iqm_features(np.zeros((8, 8), dtype=np.uint8))

    @given(data=st.data())
    def test_always_finite(self, data):
        side = data.draw(st.integers(4, 12))
        values = data.draw(
            st.lists(st.integers(0, 255), min_size=side * side, max_size=side * side)
        )
        frame = as_rgb(np.array(values).reshape(side, side))
        feats = iqm_features(frame)
        assert np.isfinite(feats).all()

    def test_black_image_finite(self):
        feats = iqm_features(as_rgb(np.zeros((8, 8))))
        assert np.isfinite(feats).all()


class TestStackMatchesFrameOracle:
    """A stack gives, bit for bit, the vectors its frames get on their own
    from the one-frame oracle."""

    @staticmethod
    def frames(seed, count, h, w, kinds):
        rng = np.random.default_rng(seed)
        stack = rng.integers(0, 256, (count, h, w, 3)).astype(np.uint8)
        for i, kind in enumerate(kinds[:count]):
            if kind == "black":
                stack[i] = 0
            elif kind == "constant":
                stack[i] = rng.integers(1, 256)
        return stack

    @given(data=st.data())
    def test_stack_equals_per_frame(self, data):
        count = data.draw(st.sampled_from([1, 2, 5]))
        h, w = data.draw(st.integers(2, 14)), data.draw(st.integers(2, 14))
        kinds = data.draw(st.lists(st.sampled_from(["random", "black", "constant"]),
                                   min_size=count, max_size=count))
        measures = data.draw(st.none() | st.permutations(IQM_NAMES).flatmap(
            lambda names: st.integers(1, len(names)).map(lambda n: tuple(names[:n]))))
        stack = self.frames(data.draw(st.integers(0, 2**32 - 1)), count, h, w, kinds)
        expected = np.stack([iqm_frame(frame, measures) for frame in stack])
        assert np.array_equal(iqm_features(stack, measures), expected)

    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_odd_size_with_degenerate_frames(self, count):
        # black and constant frames hit the PSNR cap, the NCC/NAE/LMSE/HLFI
        # zero-denominator branches and a Harris peak <= 0
        stack = self.frames(count, count, 9, 13, ["black", "constant", "random"])
        expected = np.stack([iqm_frame(frame) for frame in stack])
        assert np.array_equal(iqm_features(stack), expected)

    def test_degenerate_frames_take_the_guarded_branches(self):
        stack = self.frames(0, 2, 9, 13, ["black", "constant"])
        black, constant = (dict(zip(IQM_NAMES, row)) for row in iqm_features(stack))
        assert black["psnr"] == PSNR_CAP and constant["psnr"] == PSNR_CAP
        assert black["ncc"] == 1.0 and black["structural_content"] == 1.0
        assert black["nae"] == 0.0 and black["hlfi"] == 0.0
        assert black["laplacian_mse"] == 0.0 and constant["laplacian_mse"] == 0.0
        assert constant["total_corner_diff"] == 0.0

    def test_single_frame_without_leading_axis(self):
        frame = self.frames(3, 1, 9, 13, ["random"])[0]
        assert iqm_features(frame).shape == (len(IQM_NAMES),)
        assert np.array_equal(iqm_features(frame), iqm_frame(frame))

    def test_subset_in_non_canonical_order(self):
        stack = self.frames(4, 2, 11, 9, ["random", "black"])
        subset = ("hlfi", "total_corner_diff", "mse", "psnr", "hist_chi_square")
        expected = np.stack([iqm_frame(frame, subset) for frame in stack])
        assert np.array_equal(iqm_features(stack, subset), expected)

    def test_batch_axes_kept(self):
        stack = self.frames(5, 6, 8, 8, ["random"] * 6).reshape(2, 3, 8, 8, 3)
        flat = iqm_features(stack.reshape(6, 8, 8, 3))
        assert np.array_equal(iqm_features(stack), flat.reshape(2, 3, len(IQM_NAMES)))
