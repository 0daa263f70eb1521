"""Local binary patterns with bilinear-sampled circular neighborhoods and
spatially enhanced (grid-blocked) uniform histograms.

``lbp_code_map`` and ``lbp_histogram`` work on stacks: frames ``(..., H, W)``
give code maps ``(..., H-2m, W-2m)`` and histograms ``(..., blocks * bins)``,
and a single frame is the stack with no batch axes. The block histograms of
every frame of a stack come from one ``np.bincount``, and each block is
normalized by the sum of its own contiguous row of bins, the order
``np.sum`` uses on that block alone, so each frame's histogram is
bit-identical to the one it gets on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class LbpConfig:
    p: int = 8
    r: float = 1.0
    uniform: bool = True
    grid: tuple[int, int] = (3, 3)

    def __post_init__(self):
        if self.p not in (4, 8, 16):
            raise ValueError("P must be one of 4, 8, 16")
        if self.r < 1.0:
            raise ValueError("R must be >= 1")
        if self.grid[0] < 1 or self.grid[1] < 1:
            raise ValueError("grid must be positive")

    @property
    def bins(self) -> int:
        return uniform_bin_count(self.p) + 1 if self.uniform else 2**self.p


def _snap(value: float) -> float:
    rounded = round(value)
    return float(rounded) if abs(value - rounded) < 1e-9 else value


@lru_cache(maxsize=None)
def neighbor_offsets(p: int, r: float) -> tuple[tuple[float, float], ...]:
    """(dx, dy) for neighbor k at angle 2*pi*k/P, k=0 east, counterclockwise
    (y axis points down, so dy = -r*sin)."""
    offsets = []
    for k in range(p):
        angle = 2.0 * math.pi * k / p
        offsets.append((_snap(r * math.cos(angle)), _snap(-r * math.sin(angle))))
    return tuple(offsets)


def _transitions(code: int, p: int) -> int:
    bits = [(code >> k) & 1 for k in range(p)]
    return sum(bits[k] != bits[(k + 1) % p] for k in range(p))


@lru_cache(maxsize=None)
def uniform_bin_count(p: int) -> int:
    return sum(1 for code in range(2**p) if _transitions(code, p) <= 2)


@lru_cache(maxsize=None)
def uniform_table(p: int) -> np.ndarray:
    """Map code -> histogram bin: uniform codes in ascending order get
    0..U-1, everything else collapses into the trailing bin U."""
    u = uniform_bin_count(p)
    table = np.full(2**p, u, dtype=np.int64)
    next_bin = 0
    for code in range(2**p):
        if _transitions(code, p) <= 2:
            table[code] = next_bin
            next_bin += 1
    return table


def lbp_code_map(image: np.ndarray, cfg: LbpConfig) -> np.ndarray:
    """Vectorized code image over all pixels at least ceil(R) from the
    border of frames ``(..., H, W)``; shape ``(..., H-2m, W-2m)``."""
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape[-2:]
    m = math.ceil(cfg.r)
    if h <= 2 * m or w <= 2 * m:
        raise ValueError("image too small for the configured radius")
    ch, cw = h - 2 * m, w - 2 * m
    center = img[..., m : m + ch, m : m + cw]
    codes = np.zeros(center.shape, dtype=np.int64)
    for k, (dx, dy) in enumerate(neighbor_offsets(cfg.p, cfg.r)):
        x0, y0 = math.floor(dx), math.floor(dy)
        fx, fy = dx - x0, dy - y0
        y, x = m + y0, m + x0
        val = (1 - fx) * (1 - fy) * img[..., y : y + ch, x : x + cw]
        if fx:
            val = val + fx * (1 - fy) * img[..., y : y + ch, x + 1 : x + 1 + cw]
        if fy:
            val = val + (1 - fx) * fy * img[..., y + 1 : y + 1 + ch, x : x + cw]
        if fx and fy:
            val = val + fx * fy * img[..., y + 1 : y + 1 + ch, x + 1 : x + 1 + cw]
        codes |= (val >= center).astype(np.int64) << k
    return codes


def lbp_histogram(image: np.ndarray, cfg: LbpConfig) -> np.ndarray:
    """Concatenated per-block L1-normalized code histograms of frames
    ``(..., H, W)``, returned as ``(..., blocks * bins)`` (blocks row-major
    over the code map, block sizes floored)."""
    codes = lbp_code_map(image, cfg)
    *batch, height, width = codes.shape
    rows, cols = cfg.grid
    bh, bw = height // rows, width // cols
    if bh < 1 or bw < 1:
        raise ValueError("image too small for the configured grid")
    if cfg.uniform:
        codes = uniform_table(cfg.p)[codes]
    bins = cfg.bins
    blocks = (
        codes[..., : rows * bh, : cols * bw]
        .reshape(-1, rows, bh, cols, bw)
        .swapaxes(-3, -2)
        .reshape(-1, rows * cols, bh * bw)
    )
    # one bincount over (block of the whole stack) * bins + bin
    cells = blocks.shape[0] * blocks.shape[1]
    keyed = blocks + (np.arange(cells) * bins).reshape(blocks.shape[:2] + (1,))
    hist = np.bincount(keyed.ravel(), minlength=cells * bins).reshape(-1, bins).astype(np.float64)
    hist /= hist.sum(axis=-1, keepdims=True)
    return hist.reshape(*batch, rows * cols * bins)
