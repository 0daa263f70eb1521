import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcpad.features.lbp import (
    LbpConfig,
    lbp_code_map,
    lbp_histogram,
    uniform_bin_count,
    uniform_table,
)

from oracles import lbp_code


def transitions(code, p):
    bits = [(code >> k) & 1 for k in range(p)]
    return sum(bits[k] != bits[(k + 1) % p] for k in range(p))


class TestLbpCode:
    def test_constant_image_all_bits(self):
        img = np.full((7, 7), 3.0)
        assert lbp_code(img, 3, 3, LbpConfig()) == 255

    def test_hand_ring(self):
        # ring (E,NE,N,NW,W,SW,S,SE) = (6,4,4,4,4,4,4,6), center 5:
        # only E and the bilinear SE sample (5.5) reach the center -> bits {0,7}
        img = np.array([[4, 4, 4], [4, 5, 6], [4, 4, 6]], dtype=np.float64)
        assert lbp_code(img, 1, 1, LbpConfig()) == 129

    def test_border_rejected(self):
        img = np.zeros((5, 5))
        with pytest.raises(ValueError):
            lbp_code(img, 0, 2, LbpConfig())

    @given(data=st.data())
    def test_monotone_lookup_invariance_integer_offsets(self, data):
        # P=4 samples land on pixel centers, so codes depend only on value
        # order: invariant under ANY strictly increasing lookup table.
        values = data.draw(
            st.lists(st.integers(0, 255), min_size=49, max_size=49).map(
                lambda v: np.array(v, dtype=np.float64).reshape(7, 7)
            )
        )
        jumps = data.draw(st.lists(st.integers(1, 3), min_size=256, max_size=256))
        table = np.cumsum(jumps).astype(np.float64)
        mapped = table[values.astype(np.int64)]
        cfg = LbpConfig(p=4)
        assert np.array_equal(lbp_code_map(values, cfg), lbp_code_map(mapped, cfg))

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
        cfg = LbpConfig(p=8)
        assert np.array_equal(lbp_code_map(values, cfg), lbp_code_map(a * values + b, cfg))

    def test_code_map_matches_pixelwise(self, rng):
        img = rng.integers(0, 256, (9, 9)).astype(np.float64)
        cfg = LbpConfig()
        codes = lbp_code_map(img, cfg)
        for y in range(1, 8):
            for x in range(1, 8):
                assert codes[y - 1, x - 1] == lbp_code(img, x, y, cfg)


class TestUniform:
    def test_counts(self):
        assert uniform_bin_count(8) == 58
        assert uniform_bin_count(4) == 14

    def test_table_semantics(self):
        table = uniform_table(8)
        for code in range(256):
            if transitions(code, 8) <= 2:
                assert table[code] < 58
            else:
                assert table[code] == 58


class TestHistogram:
    def test_length_531(self, rng):
        img = rng.integers(0, 256, (128, 128)).astype(np.float64)
        assert lbp_histogram(img, LbpConfig()).shape == (531,)

    def test_blocks_normalized(self, rng):
        img = rng.integers(0, 256, (64, 64)).astype(np.float64)
        hist = lbp_histogram(img, LbpConfig())
        assert np.allclose(hist.reshape(9, 59).sum(axis=1), 1.0, atol=1e-9)

    def test_constant_image_mass_on_code_255(self):
        img = np.full((32, 32), 8.0)
        hist = lbp_histogram(img, LbpConfig())
        bin_255 = int(uniform_table(8)[255])
        blocks = hist.reshape(9, 59)
        assert np.allclose(blocks[:, bin_255], 1.0)

    def test_non_uniform_length(self, rng):
        img = rng.integers(0, 256, (32, 32)).astype(np.float64)
        hist = lbp_histogram(img, LbpConfig(uniform=False, grid=(2, 2)))
        assert hist.shape == (4 * 256,)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            lbp_histogram(np.zeros((3, 3)), LbpConfig(grid=(3, 3)))

    def test_p16_radius2(self, rng):
        img = rng.integers(0, 256, (40, 40)).astype(np.float64)
        hist = lbp_histogram(img, LbpConfig(p=16, r=2.0, grid=(2, 2)))
        assert hist.shape == (4 * (uniform_bin_count(16) + 1),)
        assert np.isfinite(hist).all()


class TestConfig:
    def test_invalid_p(self):
        with pytest.raises(ValueError):
            LbpConfig(p=5)

    def test_invalid_r(self):
        with pytest.raises(ValueError):
            LbpConfig(r=0.5)
