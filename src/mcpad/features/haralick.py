"""Gray-level co-occurrence matrices, the 13 classical Haralick statistics,
and the grid-blocked RDWT+Haralick descriptor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .wavelet import rdwt_haar

_EPS = 1e-12


@dataclass(frozen=True)
class GlcmConfig:
    levels: int = 8
    offsets: tuple[tuple[int, int], ...] = ((0, 1), (1, 0), (1, 1), (1, -1))
    symmetric: bool = True

    def __post_init__(self):
        if self.levels < 2:
            raise ValueError("levels must be >= 2")
        if not self.offsets:
            raise ValueError("offsets must be nonempty")


def quantize(region: np.ndarray, levels: int, value_range: tuple[float, float] | None = None) -> np.ndarray:
    """Uniform quantization to ``levels`` bins over ``value_range`` (defaults
    to the region's own min-max); a degenerate range maps everything to 0."""
    region = np.asarray(region, dtype=np.float64)
    lo, hi = value_range if value_range is not None else (region.min(), region.max())
    if hi <= lo:
        return np.zeros(region.shape, dtype=np.int64)
    q = np.floor((region - lo) / (hi - lo) * levels)
    return np.clip(q, 0, levels - 1).astype(np.int64)


def glcm(
    region: np.ndarray,
    cfg: GlcmConfig,
    value_range: tuple[float, float] | None = None,
) -> np.ndarray:
    """Normalized co-occurrence matrix, counts pooled over all offsets
    ((dy, dx) displacements) before normalization."""
    region = np.asarray(region, dtype=np.float64)
    if region.size == 0:
        raise ValueError("empty region")
    q = quantize(region, cfg.levels, value_range)
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


def _log2_masked(p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p)
    mask = p > 0
    out[mask] = np.log2(p[mask])
    return out


def haralick13(matrix: np.ndarray) -> np.ndarray:
    """The 13 classical co-occurrence statistics (log base 2, 0*log0 := 0,
    correlation := 0 for degenerate marginals)."""
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

    # p_{x+y}(k), k = 0..2n-2 and p_{x-y}(k), k = 0..n-1
    sum_idx = (i + j).astype(np.int64)
    diff_idx = np.abs(i - j).astype(np.int64)
    p_sum = np.bincount(sum_idx.ravel(), weights=p.ravel(), minlength=2 * n - 1)
    p_diff = np.bincount(diff_idx.ravel(), weights=p.ravel(), minlength=n)
    ks = np.arange(2 * n - 1, dtype=np.float64)
    kd = np.arange(n, dtype=np.float64)

    energy = float(np.sum(p**2))
    contrast = float(np.sum(kd**2 * p_diff))
    if var_x <= _EPS or var_y <= _EPS:
        correlation = 0.0
    else:
        correlation = float((np.sum(i * j * p) - mu_x * mu_y) / np.sqrt(var_x * var_y))
    variance = float(np.sum((i - mu_x) ** 2 * p))
    idm = float(np.sum(p / (1.0 + (i - j) ** 2)))
    sum_avg = float(np.sum(ks * p_sum))
    sum_var = float(np.sum((ks - sum_avg) ** 2 * p_sum))
    sum_entropy = float(-np.sum(p_sum * _log2_masked(p_sum)))
    entropy = float(-np.sum(p * _log2_masked(p)))
    diff_avg = float(np.sum(kd * p_diff))
    diff_var = float(np.sum((kd - diff_avg) ** 2 * p_diff))
    diff_entropy = float(-np.sum(p_diff * _log2_masked(p_diff)))

    hx = float(-np.sum(px * _log2_masked(px)))
    hy = float(-np.sum(py * _log2_masked(py)))
    pxy = px[:, None] * py[None, :]
    hxy1 = float(-np.sum(p * _log2_masked(pxy)))
    hxy2 = float(-np.sum(pxy * _log2_masked(pxy)))
    denom = max(hx, hy)
    imc1 = 0.0 if denom <= _EPS else (entropy - hxy1) / denom
    imc2 = float(np.sqrt(max(0.0, 1.0 - np.exp(-2.0 * (hxy2 - entropy)))))

    return np.array(
        [energy, contrast, correlation, variance, idm, sum_avg, sum_var,
         sum_entropy, entropy, diff_var, diff_entropy, imc1, imc2],
        dtype=np.float64,
    )


def rdwt_haralick_features(
    gray: np.ndarray,
    cfg: GlcmConfig | None = None,
    grid: tuple[int, int] = (4, 4),
) -> np.ndarray:
    """Haralick statistics of every subband x grid cell, concatenated:
    4 subbands x (grid cells, row-major) x 13 statistics. Each subband is
    quantized over its own min-max range."""
    gray = np.asarray(gray, dtype=np.float64)
    if gray.ndim != 2 or gray.shape[0] < 2 * grid[0] or gray.shape[1] < 2 * grid[1]:
        raise ValueError("frame too small for the grid")
    cfg = cfg or GlcmConfig()
    parts = []
    for band in rdwt_haar(gray):
        value_range = (float(band.min()), float(band.max()))
        rows, cols = grid
        bh, bw = band.shape[0] // rows, band.shape[1] // cols
        for by in range(rows):
            for bx in range(cols):
                cell = band[by * bh : (by + 1) * bh, bx * bw : (bx + 1) * bw]
                parts.append(haralick13(glcm(cell, cfg, value_range)))
    return np.concatenate(parts)
