import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcpad.features.lbp import BINS, UNIFORM_TABLE, lbp_code_map, lbp_histogram

from oracles import lbp_code, lbp_code_map_frame, lbp_histogram_frame


def transitions(code, p):
    bits = [(code >> k) & 1 for k in range(p)]
    return sum(bits[k] != bits[(k + 1) % p] for k in range(p))


class TestLbpCode:
    def test_constant_image_all_bits(self):
        img = np.full((7, 7), 3.0)
        assert lbp_code(img, 3, 3) == 255

    def test_hand_ring(self):
        # ring (E,NE,N,NW,W,SW,S,SE) = (6,4,4,4,4,4,4,6), center 5:
        # only E and the bilinear SE sample (5.5) reach the center -> bits {0,7}
        img = np.array([[4, 4, 4], [4, 5, 6], [4, 4, 6]], dtype=np.float64)
        assert lbp_code(img, 1, 1) == 129

    def test_border_rejected(self):
        img = np.zeros((5, 5))
        with pytest.raises(ValueError):
            lbp_code(img, 0, 2)

    @given(data=st.data())
    def test_affine_map_invariance_bilinear(self, data):
        # Bilinear interpolation commutes with positive affine maps, so the
        # interpolating P=8 configuration is exactly invariant under a*v+b
        # (dyadic a keeps float arithmetic exact).
        values = data.draw(
            st.lists(st.integers(0, 255), min_size=49, max_size=49).map(
                lambda v: np.array(v, dtype=np.float64).reshape(7, 7)
            )
        )
        a = data.draw(st.integers(1, 64)) / 16.0
        b = data.draw(st.integers(-512, 512)) / 2.0
        assert np.array_equal(lbp_code_map(values), lbp_code_map(a * values + b))

    def test_code_map_matches_pixelwise(self, rng):
        img = rng.integers(0, 256, (9, 9)).astype(np.float64)
        codes = lbp_code_map(img)
        for y in range(1, 8):
            for x in range(1, 8):
                assert codes[y - 1, x - 1] == lbp_code(img, x, y)


class TestUniform:
    def test_counts(self):
        assert BINS == 59
        assert UNIFORM_TABLE.shape == (256,) and not UNIFORM_TABLE.flags.writeable

    def test_table_semantics(self):
        uniform = [code for code in range(256) if transitions(code, 8) <= 2]
        for code in range(256):
            if code in uniform:
                assert UNIFORM_TABLE[code] == uniform.index(code)
            else:
                assert UNIFORM_TABLE[code] == 58


class TestHistogram:
    def test_length_531(self, rng):
        img = rng.integers(0, 256, (128, 128)).astype(np.float64)
        assert lbp_histogram(img).shape == (531,)

    def test_blocks_normalized(self, rng):
        img = rng.integers(0, 256, (64, 64)).astype(np.float64)
        hist = lbp_histogram(img)
        assert np.allclose(hist.reshape(9, 59).sum(axis=1), 1.0, atol=1e-9)

    def test_constant_image_mass_on_code_255(self):
        img = np.full((32, 32), 8.0)
        hist = lbp_histogram(img)
        bin_255 = int(UNIFORM_TABLE[255])
        blocks = hist.reshape(9, 59)
        assert np.allclose(blocks[:, bin_255], 1.0)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            lbp_histogram(np.zeros((3, 3)))


class TestStackMatchesFrameOracle:
    """Stacks give, bit for bit, the code maps and histograms their frames
    get on their own from the one-frame oracle."""

    def test_stack_equals_per_frame(self, rng):
        # 20x27 frames leave 18x25 code maps, which the 3x3 grid does not divide
        stack = rng.integers(0, 256, (3, 20, 27)).astype(np.float64)
        stack[1] = 7.0
        codes = np.stack([lbp_code_map_frame(frame) for frame in stack])
        hists = np.stack([lbp_histogram_frame(frame) for frame in stack])
        assert np.array_equal(lbp_code_map(stack), codes)
        assert np.array_equal(lbp_histogram(stack), hists)

    def test_single_frame_and_batch_axes(self, rng):
        stack = rng.integers(0, 256, (2, 3, 17, 19)).astype(np.float64)
        expected = np.stack([lbp_histogram_frame(f) for f in stack.reshape(6, 17, 19)])
        assert np.array_equal(lbp_histogram(stack), expected.reshape(2, 3, -1))
        assert np.array_equal(lbp_histogram(stack[0, 0]), expected[0])

    def test_too_small_rejected_for_stacks(self):
        with pytest.raises(ValueError, match="radius"):
            lbp_histogram(np.zeros((2, 2, 9)))
        with pytest.raises(ValueError, match="grid"):
            lbp_histogram(np.zeros((2, 4, 9)))
