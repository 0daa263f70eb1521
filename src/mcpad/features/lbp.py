"""Local binary patterns: the uniform LBP of Ojala et al. (IEEE TPAMI 2002)
at P = 8 neighbours on a circle of radius R = 1, bilinear-sampled, with its
u2 histogram (58 uniform codes plus one bin for the rest, 59 bins) on a 3x3
grid of blocks, 531 values per frame. The neighbour offsets and the
256 -> 59 code-to-bin table are computed once at import, read-only.

``lbp_code_map`` and ``lbp_histogram`` work on stacks: frames ``(..., H, W)``
give code maps ``(..., H-2, W-2)`` and histograms ``(..., 531)``, and a
single frame is the stack with no batch axes. The block histograms of every
frame of a stack come from one ``np.bincount``, and each block is normalized
by the sum of its own contiguous row of bins, the order ``np.sum`` uses on
that block alone, so each frame's histogram is bit-identical to the one it
gets on its own.
"""

from __future__ import annotations

import math

import numpy as np

P = 8
R = 1
GRID = (3, 3)


def _snap(value: float) -> float:
    rounded = round(value)
    return float(rounded) if abs(value - rounded) < 1e-9 else value


#: (dx, dy) of neighbour k at angle 2*pi*k/P, k=0 east, counterclockwise
#: (y axis points down, so dy = -R*sin).
NEIGHBOR_OFFSETS = tuple(
    (_snap(R * math.cos(2.0 * math.pi * k / P)), _snap(-R * math.sin(2.0 * math.pi * k / P)))
    for k in range(P)
)


def _transitions(code: int) -> int:
    """0/1 changes around the P-bit ring of ``code``."""
    return bin(code ^ (code >> 1 | (code & 1) << (P - 1))).count("1")


_UNIFORM_CODES = [code for code in range(2**P) if _transitions(code) <= 2]
#: Histogram bins: one per uniform code, plus a trailing bin for the rest.
BINS = len(_UNIFORM_CODES) + 1
#: Code -> histogram bin: the uniform codes in ascending order get 0..57,
#: every other code the trailing bin 58.
UNIFORM_TABLE = np.full(2**P, BINS - 1, dtype=np.int64)
UNIFORM_TABLE[_UNIFORM_CODES] = np.arange(BINS - 1)
UNIFORM_TABLE.flags.writeable = False


def lbp_code_map(image: np.ndarray) -> np.ndarray:
    """Vectorized code image over all pixels at least R from the border of
    frames ``(..., H, W)``; shape ``(..., H-2, W-2)``."""
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape[-2:]
    if h <= 2 * R or w <= 2 * R:
        raise ValueError("image too small for the LBP radius")
    ch, cw = h - 2 * R, w - 2 * R
    center = img[..., R : R + ch, R : R + cw]
    codes = np.zeros(center.shape, dtype=np.int64)
    for k, (dx, dy) in enumerate(NEIGHBOR_OFFSETS):
        x0, y0 = math.floor(dx), math.floor(dy)
        fx, fy = dx - x0, dy - y0
        y, x = R + y0, R + x0
        val = (1 - fx) * (1 - fy) * img[..., y : y + ch, x : x + cw]
        if fx:
            val = val + fx * (1 - fy) * img[..., y : y + ch, x + 1 : x + 1 + cw]
        if fy:
            val = val + (1 - fx) * fy * img[..., y + 1 : y + 1 + ch, x : x + cw]
        if fx and fy:
            val = val + fx * fy * img[..., y + 1 : y + 1 + ch, x + 1 : x + 1 + cw]
        codes |= (val >= center).astype(np.int64) << k
    return codes


def lbp_histogram(image: np.ndarray) -> np.ndarray:
    """Concatenated per-block L1-normalized u2 histograms of frames
    ``(..., H, W)``, returned as ``(..., 9 * 59)`` (blocks row-major over
    the code map, block sizes floored)."""
    codes = lbp_code_map(image)
    *batch, height, width = codes.shape
    rows, cols = GRID
    bh, bw = height // rows, width // cols
    if bh < 1 or bw < 1:
        raise ValueError("image too small for the LBP grid")
    blocks = (
        UNIFORM_TABLE[codes[..., : rows * bh, : cols * bw]]
        .reshape(-1, rows, bh, cols, bw)
        .swapaxes(-3, -2)
        .reshape(-1, rows * cols, bh * bw)
    )
    # one bincount over (block of the whole stack) * bins + bin
    cells = blocks.shape[0] * blocks.shape[1]
    keyed = blocks + (np.arange(cells) * BINS).reshape(blocks.shape[:2] + (1,))
    hist = np.bincount(keyed.ravel(), minlength=cells * BINS).reshape(-1, BINS).astype(np.float64)
    hist /= hist.sum(axis=-1, keepdims=True)
    return hist.reshape(*batch, rows * cols * BINS)
