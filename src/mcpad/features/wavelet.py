"""One-level undecimated (redundant) Haar transform with unit-norm filters
and periodic boundary; all four subbands keep the input resolution.

The transform acts on the last two axes, so a stack of frames ``(..., H, W)``
is transformed in one call; a single frame is the stack with no batch axes.
"""

from __future__ import annotations

import numpy as np

_SQRT2 = np.sqrt(2.0)


def _lowpass(x: np.ndarray, axis: int) -> np.ndarray:
    return (x + np.roll(x, -1, axis=axis)) / _SQRT2


def _highpass(x: np.ndarray, axis: int) -> np.ndarray:
    return (x - np.roll(x, -1, axis=axis)) / _SQRT2


def rdwt_haar(image: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Return (LL, LH, HL, HH) of ``(..., H, W)`` frames, each ``(..., H, W)``;
    first letter is the vertical (row-axis) filter, second the horizontal.
    Energy over the four subbands is 4x the input energy."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim < 2 or img.shape[-2] < 2 or img.shape[-1] < 2:
        raise ValueError("image must be at least 2x2")
    lo = _lowpass(img, axis=-2)
    hi = _highpass(img, axis=-2)
    ll = _lowpass(lo, axis=-1)
    lh = _highpass(lo, axis=-1)
    hl = _lowpass(hi, axis=-1)
    hh = _highpass(hi, axis=-1)
    return ll, lh, hl, hh
