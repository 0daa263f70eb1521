import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcpad.features.haralick import GlcmConfig, glcm, haralick13, quantize, rdwt_haralick_features
from mcpad.features.wavelet import rdwt_haar


class TestRdwt:
    def test_constant_image(self):
        ll, lh, hl, hh = rdwt_haar(np.full((6, 6), 3.0))
        assert np.allclose(ll, 6.0)
        assert np.allclose(lh, 0.0) and np.allclose(hl, 0.0) and np.allclose(hh, 0.0)

    def test_zero_image(self):
        for band in rdwt_haar(np.zeros((4, 4))):
            assert np.allclose(band, 0.0)

    def test_subbands_keep_resolution(self, rng):
        img = rng.normal(size=(5, 9))
        for band in rdwt_haar(img):
            assert band.shape == (5, 9)

    def test_too_small(self):
        with pytest.raises(ValueError):
            rdwt_haar(np.zeros((1, 4)))

    @given(data=st.data())
    def test_energy_redundancy_factor_4(self, data):
        values = data.draw(st.lists(st.integers(-100, 100), min_size=64, max_size=64))
        img = np.array(values, dtype=np.float64).reshape(8, 8)
        energy_in = float(np.sum(img**2))
        energy_out = sum(float(np.sum(band**2)) for band in rdwt_haar(img))
        assert energy_out == pytest.approx(4.0 * energy_in, rel=1e-6, abs=1e-9)


class TestGlcm:
    def test_two_pixel_pairs(self):
        cfg = GlcmConfig(levels=2, offsets=((0, 1),), symmetric=True)
        matrix = glcm(np.array([[0, 1], [0, 1]]), cfg, value_range=(0, 1))
        assert np.allclose(matrix, [[0, 0.5], [0.5, 0]])

    def test_constant_region_mass_at_origin(self):
        matrix = glcm(np.full((4, 4), 9.0), GlcmConfig())
        assert matrix[0, 0] == pytest.approx(1.0)

    def test_symmetry_and_normalization(self, rng):
        region = rng.normal(size=(9, 9))
        matrix = glcm(region, GlcmConfig())
        assert np.allclose(matrix, matrix.T)
        assert matrix.sum() == pytest.approx(1.0, abs=1e-12)

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            glcm(np.zeros((0, 2)), GlcmConfig())

    def test_quantize_range(self):
        q = quantize(np.array([0.0, 0.5, 1.0]), 8, (0.0, 1.0))
        assert q.tolist() == [0, 4, 7]

    def test_levels_validation(self):
        with pytest.raises(ValueError):
            GlcmConfig(levels=1)


class TestHaralick:
    def test_uniform_matrix(self):
        stats = haralick13(np.full((8, 8), 1 / 64))
        assert stats[0] == pytest.approx(1 / 64)  # energy
        assert stats[8] == pytest.approx(6.0)  # entropy log2(64)

    def test_diagonal_contrast_zero(self):
        stats = haralick13(np.eye(8) / 8)
        assert stats[1] == pytest.approx(0.0)

    def test_single_cell(self):
        matrix = np.zeros((8, 8))
        matrix[0, 0] = 1.0
        stats = haralick13(matrix)
        assert stats[0] == pytest.approx(1.0)  # energy
        assert stats[1] == pytest.approx(0.0)  # contrast
        assert stats[2] == 0.0  # correlation with degenerate marginals
        assert stats[8] == pytest.approx(0.0)  # entropy

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            haralick13(np.full((4, 4), 1.0))

    @given(data=st.data())
    def test_finite_on_random_glcms(self, data):
        values = data.draw(st.lists(st.integers(0, 50), min_size=16, max_size=16))
        counts = np.array(values, dtype=np.float64).reshape(4, 4) + 1e-9
        stats = haralick13(counts / counts.sum())
        assert np.isfinite(stats).all()


class TestRdwtHaralick:
    def test_length_832(self, rng):
        frame = rng.integers(0, 256, (128, 128)).astype(np.float64)
        assert rdwt_haralick_features(frame).shape == (4 * 16 * 13,)

    def test_constant_frame_detail_cells(self):
        vec = rdwt_haralick_features(np.full((64, 64), 7.0)).reshape(4, 16, 13)
        for band in range(1, 4):  # LH, HL, HH are all zero -> single-bin GLCMs
            assert np.allclose(vec[band, :, 0], 1.0)  # energy
            assert np.allclose(vec[band, :, 1], 0.0)  # contrast
            assert np.allclose(vec[band, :, 8], 0.0)  # entropy

    def test_deterministic(self, rng):
        frame = rng.integers(0, 256, (64, 64)).astype(np.float64)
        assert np.array_equal(rdwt_haralick_features(frame), rdwt_haralick_features(frame))

    def test_too_small(self):
        with pytest.raises(ValueError):
            rdwt_haralick_features(np.zeros((7, 7)))

    def test_finite_fuzz(self, rng):
        for _ in range(5):
            frame = rng.integers(0, 256, (32, 32)).astype(np.float64)
            assert np.isfinite(rdwt_haralick_features(frame)).all()


# --------------------------------------------------------------------------
# oracle: the per-cell path (one quantize/glcm/haralick13 call per grid cell
# of one 2-D frame), kept as the reference for the batched code
# --------------------------------------------------------------------------

_REF_EPS = 1e-12


def _reference_rdwt_haar(image):
    def low(x, axis):
        return (x + np.roll(x, -1, axis=axis)) / np.sqrt(2.0)

    def high(x, axis):
        return (x - np.roll(x, -1, axis=axis)) / np.sqrt(2.0)

    img = np.asarray(image, dtype=np.float64)
    lo, hi = low(img, 0), high(img, 0)
    return low(lo, 1), high(lo, 1), low(hi, 1), high(hi, 1)


def _reference_quantize(region, levels, value_range=None):
    region = np.asarray(region, dtype=np.float64)
    lo, hi = value_range if value_range is not None else (region.min(), region.max())
    if hi <= lo:
        return np.zeros(region.shape, dtype=np.int64)
    q = np.floor((region - lo) / (hi - lo) * levels)
    return np.clip(q, 0, levels - 1).astype(np.int64)


def _reference_glcm(region, cfg, value_range=None):
    region = np.asarray(region, dtype=np.float64)
    if region.size == 0:
        raise ValueError("empty region")
    q = _reference_quantize(region, cfg.levels, value_range)
    h, w = q.shape
    levels = cfg.levels
    counts = np.zeros(levels * levels, dtype=np.float64)
    for dy, dx in cfg.offsets:
        y0, y1 = max(0, -dy), min(h, h - dy)
        x0, x1 = max(0, -dx), min(w, w - dx)
        if y0 >= y1 or x0 >= x1:
            continue
        a = q[y0:y1, x0:x1].ravel()
        b = q[y0 + dy : y1 + dy, x0 + dx : x1 + dx].ravel()
        counts += np.bincount(a * levels + b, minlength=levels * levels)
    matrix = counts.reshape(levels, levels)
    if cfg.symmetric:
        matrix = matrix + matrix.T
    total = matrix.sum()
    if total <= 0:
        raise ValueError("region too small for the configured offsets")
    return matrix / total


def _reference_log2_masked(p):
    out = np.zeros_like(p)
    mask = p > 0
    out[mask] = np.log2(p[mask])
    return out


def _reference_haralick13(matrix):
    p = np.asarray(matrix, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("GLCM must be square")
    if abs(p.sum() - 1.0) > 1e-6:
        raise ValueError("GLCM must be normalized to sum 1")
    n = p.shape[0]
    idx = np.arange(n, dtype=np.float64)
    i = idx[:, None]
    j = idx[None, :]
    px = p.sum(axis=1)
    py = p.sum(axis=0)
    mu_x = float(np.sum(idx * px))
    mu_y = float(np.sum(idx * py))
    var_x = float(np.sum((idx - mu_x) ** 2 * px))
    var_y = float(np.sum((idx - mu_y) ** 2 * py))
    sum_idx = (i + j).astype(np.int64)
    diff_idx = np.abs(i - j).astype(np.int64)
    p_sum = np.bincount(sum_idx.ravel(), weights=p.ravel(), minlength=2 * n - 1)
    p_diff = np.bincount(diff_idx.ravel(), weights=p.ravel(), minlength=n)
    ks = np.arange(2 * n - 1, dtype=np.float64)
    kd = np.arange(n, dtype=np.float64)
    energy = float(np.sum(p**2))
    contrast = float(np.sum(kd**2 * p_diff))
    if var_x <= _REF_EPS or var_y <= _REF_EPS:
        correlation = 0.0
    else:
        correlation = float((np.sum(i * j * p) - mu_x * mu_y) / np.sqrt(var_x * var_y))
    variance = float(np.sum((i - mu_x) ** 2 * p))
    idm = float(np.sum(p / (1.0 + (i - j) ** 2)))
    sum_avg = float(np.sum(ks * p_sum))
    sum_var = float(np.sum((ks - sum_avg) ** 2 * p_sum))
    sum_entropy = float(-np.sum(p_sum * _reference_log2_masked(p_sum)))
    entropy = float(-np.sum(p * _reference_log2_masked(p)))
    diff_avg = float(np.sum(kd * p_diff))
    diff_var = float(np.sum((kd - diff_avg) ** 2 * p_diff))
    diff_entropy = float(-np.sum(p_diff * _reference_log2_masked(p_diff)))
    hx = float(-np.sum(px * _reference_log2_masked(px)))
    hy = float(-np.sum(py * _reference_log2_masked(py)))
    pxy = px[:, None] * py[None, :]
    hxy1 = float(-np.sum(p * _reference_log2_masked(pxy)))
    hxy2 = float(-np.sum(pxy * _reference_log2_masked(pxy)))
    denom = max(hx, hy)
    imc1 = 0.0 if denom <= _REF_EPS else (entropy - hxy1) / denom
    imc2 = float(np.sqrt(max(0.0, 1.0 - np.exp(-2.0 * (hxy2 - entropy)))))
    return np.array(
        [energy, contrast, correlation, variance, idm, sum_avg, sum_var,
         sum_entropy, entropy, diff_var, diff_entropy, imc1, imc2],
        dtype=np.float64,
    )


def _reference_rdwt_haralick_features(gray, cfg=None, grid=(4, 4)):
    gray = np.asarray(gray, dtype=np.float64)
    if gray.ndim != 2 or gray.shape[0] < 2 * grid[0] or gray.shape[1] < 2 * grid[1]:
        raise ValueError("frame too small for the grid")
    cfg = cfg or GlcmConfig()
    parts = []
    for band in _reference_rdwt_haar(gray):
        value_range = (float(band.min()), float(band.max()))
        rows, cols = grid
        bh, bw = band.shape[0] // rows, band.shape[1] // cols
        for by in range(rows):
            for bx in range(cols):
                cell = band[by * bh : (by + 1) * bh, bx * bw : (bx + 1) * bw]
                parts.append(_reference_haralick13(_reference_glcm(cell, cfg, value_range)))
    return np.concatenate(parts)


def _assert_matches_reference(stack, cfg=None, grid=(4, 4)):
    batched = rdwt_haralick_features(stack, cfg, grid)
    reference = np.stack([_reference_rdwt_haralick_features(frame, cfg, grid) for frame in stack])
    assert batched.shape == reference.shape
    np.testing.assert_allclose(batched, reference, rtol=1e-12, atol=1e-12)


_OFFSETS = ((0, 1), (1, 0), (1, 1), (1, -1))


class TestBatchedAgainstReference:
    @given(data=st.data())
    def test_random_stacks(self, data):
        frames = data.draw(st.integers(1, 3))
        height = data.draw(st.integers(8, 20))
        width = data.draw(st.integers(8, 20))
        cfg = GlcmConfig(
            levels=data.draw(st.sampled_from((2, 3, 8, 16))),
            offsets=tuple(data.draw(st.lists(st.sampled_from(_OFFSETS), min_size=1, max_size=4,
                                             unique=True))),
            symmetric=data.draw(st.booleans()),
        )
        seed = data.draw(st.integers(0, 2**31 - 1))
        rng = np.random.default_rng(seed)
        if data.draw(st.booleans()):
            stack = rng.integers(0, data.draw(st.integers(1, 256)), (frames, height, width))
        else:
            stack = rng.normal(size=(frames, height, width))
        _assert_matches_reference(stack.astype(np.float64), cfg)

    @given(data=st.data())
    def test_random_glcm_and_haralick_batches(self, data):
        cells = data.draw(st.integers(1, 6))
        h, w = data.draw(st.integers(2, 9)), data.draw(st.integers(2, 9))
        cfg = GlcmConfig(levels=data.draw(st.sampled_from((2, 5, 8))),
                         symmetric=data.draw(st.booleans()))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        regions = rng.integers(0, 6, (cells, h, w)).astype(np.float64)
        matrices = glcm(regions, cfg)
        assert matrices.shape == (cells, cfg.levels, cfg.levels)
        for region, matrix in zip(regions, matrices):
            np.testing.assert_allclose(matrix, _reference_glcm(region, cfg), rtol=1e-12, atol=1e-12)
        stats = haralick13(matrices)
        assert stats.shape == (cells, 13)
        for matrix, row in zip(matrices, stats):
            np.testing.assert_allclose(row, _reference_haralick13(matrix), rtol=1e-12, atol=1e-12)

    def test_constant_frame(self):
        _assert_matches_reference(np.full((2, 64, 64), 7.0))

    def test_one_constant_cell_in_textured_frame(self, rng):
        stack = rng.integers(0, 256, (2, 64, 64)).astype(np.float64)
        stack[:, 16:32, 32:48] = 100.0
        _assert_matches_reference(stack)

    def test_grid_does_not_divide_frame(self, rng):
        _assert_matches_reference(rng.integers(0, 256, (2, 66, 70)).astype(np.float64))

    @pytest.mark.parametrize("levels", [2, 16])
    def test_levels(self, rng, levels):
        _assert_matches_reference(rng.normal(size=(2, 32, 32)), GlcmConfig(levels=levels))

    def test_single_offset(self, rng):
        _assert_matches_reference(rng.normal(size=(2, 32, 32)), GlcmConfig(offsets=((1, -1),)))

    def test_asymmetric(self, rng):
        _assert_matches_reference(rng.normal(size=(2, 32, 32)), GlcmConfig(symmetric=False))

    def test_single_frame_stack(self, rng):
        frame = rng.integers(0, 256, (64, 64)).astype(np.float64)
        _assert_matches_reference(frame[None])
        assert np.array_equal(rdwt_haralick_features(frame[None])[0], rdwt_haralick_features(frame))

    def test_rdwt_haar_stack_matches_per_frame(self, rng):
        stack = rng.normal(size=(3, 9, 7))
        for batched, *per_frame in zip(rdwt_haar(stack), *(_reference_rdwt_haar(f) for f in stack)):
            assert np.array_equal(batched, np.stack(per_frame))

    def test_quantize_per_band_ranges(self):
        region = np.array([[[0.0, 1.0, 2.0]], [[5.0, 5.0, 5.0]]])
        lo = np.array([0.0, 5.0])[:, None, None]
        hi = np.array([2.0, 5.0])[:, None, None]
        assert quantize(region, 4, (lo, hi)).tolist() == [[[0, 2, 3]], [[0, 0, 0]]]

    def test_cells_too_small_for_offsets_rejected(self):
        # 8x8 frames on a 4x4 grid give 2x2 cells; a 2-row offset pairs nothing
        with pytest.raises(ValueError, match="too small for the configured offsets"):
            rdwt_haralick_features(np.zeros((3, 8, 8)), GlcmConfig(offsets=((2, 0),)))
        with pytest.raises(ValueError, match="too small for the configured offsets"):
            glcm(np.zeros((4, 1, 1)), GlcmConfig())

    def test_one_unnormalized_matrix_rejected(self):
        batch = np.full((5, 4, 4), 1 / 16)
        batch[3] *= 2.0
        with pytest.raises(ValueError, match="normalized"):
            haralick13(batch)

    def test_non_square_batch_rejected(self):
        with pytest.raises(ValueError, match="square"):
            haralick13(np.full((2, 4, 3), 1 / 12))

    def test_stack_too_small_for_grid_rejected(self):
        with pytest.raises(ValueError, match="frame too small for the grid"):
            rdwt_haralick_features(np.zeros((2, 7, 64)))
