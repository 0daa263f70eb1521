"""Gray-level co-occurrence matrices, the 13 classical Haralick statistics,
and the grid-blocked RDWT+Haralick descriptor.

Every function works on stacks: the leading axes are batch axes and a single
region, matrix or frame is the stack with no batch axes.

- ``quantize``: any shape, ranges broadcasting against it.
- ``glcm``: regions ``(..., h, w)`` -> matrices ``(..., L, L)``.
- ``haralick13``: matrices ``(..., L, L)`` -> statistics ``(..., 13)``.
- ``rdwt_haralick_features``: frames ``(..., H, W)`` -> ``(..., 832)`` on
  the default 4x4 grid.

The co-occurrence counts of every region of a stack come from one
``np.bincount`` per offset, and each statistic is one reduction over the last
axis of a contiguous array, so every matrix is summed in the same order as
when it is processed on its own.
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


def quantize(region: np.ndarray, levels: int, value_range=None) -> np.ndarray:
    """Uniform quantization to ``levels`` bins over ``value_range = (lo, hi)``
    (defaults to the whole input's min-max). ``lo`` and ``hi`` may be arrays
    that broadcast against ``region``, one range per band or region; where
    ``hi <= lo`` the range is degenerate and everything maps to 0."""
    region = np.asarray(region, dtype=np.float64)
    lo, hi = value_range if value_range is not None else (region.min(), region.max())
    span = np.asarray(hi, dtype=np.float64) - np.asarray(lo, dtype=np.float64)
    valid = span > 0
    q = region - lo
    q /= np.where(valid, span, 1.0)
    q *= levels
    np.floor(q, out=q)
    np.clip(q, 0, levels - 1, out=q)
    q *= valid
    return q.astype(np.int64)


def glcm(region: np.ndarray, cfg: GlcmConfig, value_range=None) -> np.ndarray:
    """Normalized co-occurrence matrices of regions ``(..., h, w)``, returned
    as ``(..., L, L)``; counts are pooled over all offsets ((dy, dx)
    displacements) before normalization. ``value_range = (lo, hi)`` may
    broadcast against ``region``; it defaults to each region's own min-max."""
    region = np.asarray(region, dtype=np.float64)
    if region.ndim < 2 or region.shape[-2] == 0 or region.shape[-1] == 0:
        raise ValueError("empty region")
    if value_range is None:
        value_range = (region.min(axis=(-2, -1), keepdims=True),
                       region.max(axis=(-2, -1), keepdims=True))
    levels = cfg.levels
    *batch, h, w = region.shape
    q = quantize(region, levels, value_range).reshape(-1, h, w)
    cells = q.shape[0]
    # code of the pair (a, b) in cell c: c*L^2 + a*L + b
    first = q * levels
    first += (np.arange(cells) * levels * levels)[:, None, None]
    counts = np.zeros(cells * levels * levels, dtype=np.int64)
    for dy, dx in cfg.offsets:
        y0, y1 = max(0, -dy), min(h, h - dy)
        x0, x1 = max(0, -dx), min(w, w - dx)
        if y0 >= y1 or x0 >= x1:
            continue
        pair = first[:, y0:y1, x0:x1] + q[:, y0 + dy : y1 + dy, x0 + dx : x1 + dx]
        counts += np.bincount(pair.ravel(), minlength=counts.size)
    matrix = counts.reshape(*batch, levels, levels)
    if cfg.symmetric:
        matrix = matrix + np.swapaxes(matrix, -1, -2)
    total = matrix.sum(axis=(-2, -1), keepdims=True)
    if np.any(total <= 0):
        raise ValueError("region too small for the configured offsets")
    return matrix / total


def _log2_masked(p: np.ndarray) -> np.ndarray:
    return np.log2(p, out=np.zeros_like(p), where=p > 0)


def _rowsum(x: np.ndarray) -> np.ndarray:
    """Sum each matrix or vector of a ``(K, ...)`` stack as one contiguous
    run, the order ``np.sum`` uses on that matrix alone."""
    return np.ascontiguousarray(x).reshape(x.shape[0], -1).sum(axis=1)


def _binned(p: np.ndarray, index: np.ndarray, bins: int) -> np.ndarray:
    """Per-matrix ``bincount(index, weights=p)`` for ``(K, n, n)`` matrices:
    one bincount over ``k*bins + index``, adding each matrix's entries in
    row-major order."""
    k = p.shape[0]
    codes = (np.arange(k)[:, None, None] * bins + index).ravel()
    return np.bincount(codes, weights=p.ravel(), minlength=k * bins).reshape(k, bins)


def haralick13(matrix: np.ndarray) -> np.ndarray:
    """The 13 classical co-occurrence statistics of matrices ``(..., L, L)``,
    returned as ``(..., 13)`` (log base 2, 0*log0 := 0, correlation := 0 and
    IMC1 := 0 for degenerate marginals). Each matrix must be normalized."""
    p = np.asarray(matrix, dtype=np.float64)
    if p.ndim < 2 or p.shape[-1] != p.shape[-2]:
        raise ValueError("GLCM must be square")
    n = p.shape[-1]
    batch = p.shape[:-2]
    p = np.ascontiguousarray(p).reshape(-1, n, n)
    if np.any(np.abs(_rowsum(p) - 1.0) > 1e-6):
        raise ValueError("GLCM must be normalized to sum 1")
    idx = np.arange(n, dtype=np.float64)
    i = idx[:, None]
    j = idx[None, :]

    px = p.sum(axis=2)
    py = p.sum(axis=1)
    mu_x = _rowsum(idx * px)
    mu_y = _rowsum(idx * py)
    var_x = _rowsum((idx - mu_x[:, None]) ** 2 * px)
    var_y = _rowsum((idx - mu_y[:, None]) ** 2 * py)

    # p_{x+y}(k), k = 0..2n-2 and p_{x-y}(k), k = 0..n-1
    p_sum = _binned(p, (i + j).astype(np.int64), 2 * n - 1)
    p_diff = _binned(p, np.abs(i - j).astype(np.int64), n)
    ks = np.arange(2 * n - 1, dtype=np.float64)
    kd = np.arange(n, dtype=np.float64)

    energy = _rowsum(p**2)
    contrast = _rowsum(kd**2 * p_diff)
    degenerate = (var_x <= _EPS) | (var_y <= _EPS)
    spread = np.sqrt(np.where(degenerate, 1.0, var_x * var_y))
    correlation = np.where(degenerate, 0.0, (_rowsum(i * j * p) - mu_x * mu_y) / spread)
    variance = _rowsum((i - mu_x[:, None, None]) ** 2 * p)
    idm = _rowsum(p / (1.0 + (i - j) ** 2))
    sum_avg = _rowsum(ks * p_sum)
    sum_var = _rowsum((ks - sum_avg[:, None]) ** 2 * p_sum)
    sum_entropy = -_rowsum(p_sum * _log2_masked(p_sum))
    entropy = -_rowsum(p * _log2_masked(p))
    diff_avg = _rowsum(kd * p_diff)
    diff_var = _rowsum((kd - diff_avg[:, None]) ** 2 * p_diff)
    diff_entropy = -_rowsum(p_diff * _log2_masked(p_diff))

    hx = -_rowsum(px * _log2_masked(px))
    hy = -_rowsum(py * _log2_masked(py))
    pxy = px[:, :, None] * py[:, None, :]
    hxy1 = -_rowsum(p * _log2_masked(pxy))
    hxy2 = -_rowsum(pxy * _log2_masked(pxy))
    denom = np.maximum(hx, hy)
    flat = denom <= _EPS
    imc1 = np.where(flat, 0.0, (entropy - hxy1) / np.where(flat, 1.0, denom))
    imc2 = np.sqrt(np.maximum(0.0, 1.0 - np.exp(-2.0 * (hxy2 - entropy))))

    stats = np.stack(
        [energy, contrast, correlation, variance, idm, sum_avg, sum_var,
         sum_entropy, entropy, diff_var, diff_entropy, imc1, imc2],
        axis=-1,
    )
    return stats.reshape(*batch, 13)


def rdwt_haralick_features(
    gray: np.ndarray,
    cfg: GlcmConfig | None = None,
    grid: tuple[int, int] = (4, 4),
) -> np.ndarray:
    """Haralick statistics of every subband x grid cell of frames
    ``(..., H, W)``, concatenated per frame into ``(..., 4 * cells * 13)``:
    4 subbands x (grid cells, row-major) x 13 statistics. Each subband of
    each frame is quantized over its own min-max range; rows and columns
    past the last whole cell are ignored."""
    gray = np.asarray(gray, dtype=np.float64)
    rows, cols = grid
    if gray.ndim < 2 or gray.shape[-2] < 2 * rows or gray.shape[-1] < 2 * cols:
        raise ValueError("frame too small for the grid")
    cfg = cfg or GlcmConfig()
    *batch, height, width = gray.shape
    bh, bw = height // rows, width // cols
    bands = np.stack(rdwt_haar(gray), axis=-3)
    lo = bands.min(axis=(-2, -1))[..., None, None, None]
    hi = bands.max(axis=(-2, -1))[..., None, None, None]
    cells = (
        bands[..., : rows * bh, : cols * bw]
        .reshape(*batch, 4, rows, bh, cols, bw)
        .swapaxes(-3, -2)
        .reshape(*batch, 4, rows * cols, bh, bw)
    )
    stats = haralick13(glcm(cells, cfg, (lo, hi)))
    return stats.reshape(*batch, 4 * rows * cols * 13)
