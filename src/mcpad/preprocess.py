"""Raw-to-aligned preprocessing: similarity transform from three landmarks,
bilinear warping, grayscale conversion, and per-frame MAD normalization of
non-color channels to 8 bit.

Landmark sidecar format: one text line per annotated frame,
``frame_idx,lx,ly,rx,ry,mx,my`` (color-frame pixel coordinates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .dataset import ChannelId, MultiChannelSample


class GeometryError(ValueError):
    """Degenerate landmark geometry (no similarity transform exists)."""


class SampleError(ValueError):
    """A sample cannot be preprocessed (e.g. every frame was dropped)."""


@dataclass(frozen=True)
class Landmarks:
    left_eye: tuple[float, float]
    right_eye: tuple[float, float]
    mouth: tuple[float, float]

    def __post_init__(self):
        coords = [*self.left_eye, *self.right_eye, *self.mouth]
        if not all(math.isfinite(c) for c in coords):
            raise ValueError("landmark coordinates must be finite")
        if self.left_eye == self.right_eye:
            raise ValueError("eye centers must be distinct")

    def points(self) -> np.ndarray:
        return np.array([self.left_eye, self.right_eye, self.mouth], dtype=np.float64)


# Canonical target coordinates for a 128x128 crop; scaled for other sizes.
_TARGETS_128 = ((44.0, 50.0), (84.0, 50.0), (64.0, 96.0))


@dataclass(frozen=True)
class AlignTargets:
    left_eye: tuple[float, float]
    right_eye: tuple[float, float]
    mouth: tuple[float, float]
    out_size: int

    def __post_init__(self):
        if self.out_size < 8:
            raise ValueError("out_size too small")
        for x, y in (self.left_eye, self.right_eye, self.mouth):
            if not (0 <= x < self.out_size and 0 <= y < self.out_size):
                raise ValueError("targets must lie inside the output rectangle")

    @classmethod
    def for_size(cls, out_size: int) -> "AlignTargets":
        s = out_size / 128.0
        le, re, mo = ((x * s, y * s) for x, y in _TARGETS_128)
        return cls(tuple(le), tuple(re), tuple(mo), out_size)

    def points(self) -> np.ndarray:
        return np.array([self.left_eye, self.right_eye, self.mouth], dtype=np.float64)


@dataclass(frozen=True)
class MadParams:
    median: float
    mad: float
    span: float = 4.0

    def __post_init__(self):
        if self.mad < 0:
            raise ValueError("mad must be >= 0")
        if self.span <= 0:
            raise ValueError("span must be positive")


def estimate_similarity(src: Landmarks, dst: AlignTargets) -> tuple[np.ndarray, float]:
    """Least-squares similarity (scale+rotation+translation) mapping the
    source landmarks onto the targets. Returns (2x3 matrix, RMS residual)."""
    p = src.points()
    q = dst.points()
    # Model: u = a*x - b*y + tx ; v = b*x + a*y + ty, unknowns (a, b, tx, ty).
    rows = []
    rhs = []
    for (x, y), (u, v) in zip(p, q):
        rows.append([x, -y, 1.0, 0.0])
        rows.append([y, x, 0.0, 1.0])
        rhs.extend([u, v])
    a_mat = np.array(rows, dtype=np.float64)
    b_vec = np.array(rhs, dtype=np.float64)
    singular = np.linalg.svd(a_mat, compute_uv=False)
    if singular[-1] <= 1e-9 * max(1.0, singular[0]):
        raise GeometryError("source landmarks have (near-)zero spread")
    theta, *_ = np.linalg.lstsq(a_mat, b_vec, rcond=None)
    a, b, tx, ty = theta
    matrix = np.array([[a, -b, tx], [b, a, ty]], dtype=np.float64)
    mapped = p @ matrix[:, :2].T + matrix[:, 2]
    residual = float(np.sqrt(np.mean(np.sum((mapped - q) ** 2, axis=1))))
    return matrix, residual


def warp(frame: np.ndarray, transform: np.ndarray, out_size: int) -> np.ndarray:
    """Resample ``frame`` through the inverse of a 2x3 source->target
    transform; bilinear, out-of-bounds reads 0. Integer inputs are rounded
    back to their dtype."""
    transform = np.asarray(transform, dtype=np.float64)
    if transform.shape != (2, 3):
        raise ValueError("transform must be 2x3")
    lin = transform[:, :2]
    shift = transform[:, 2]
    inv = np.linalg.inv(lin)

    img = np.asarray(frame)
    squeeze = img.ndim == 2
    planes = img[:, :, None] if squeeze else img
    h, w = planes.shape[:2]

    xs, ys = np.meshgrid(np.arange(out_size, dtype=np.float64),
                         np.arange(out_size, dtype=np.float64))
    src = np.stack([xs.ravel(), ys.ravel()]) - shift[:, None]
    src = inv @ src
    sx, sy = src[0], src[1]

    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    fx = sx - x0
    fy = sy - y0

    out = np.zeros((out_size * out_size, planes.shape[2]), dtype=np.float64)
    data = planes.reshape(h * w, -1).astype(np.float64)
    for dy, wy in ((0, 1 - fy), (1, fy)):
        for dx, wx in ((0, 1 - fx), (1, fx)):
            xi = x0 + dx
            yi = y0 + dy
            valid = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
            idx = np.where(valid, yi * w + xi, 0)
            out += (wx * wy * valid)[:, None] * data[idx]

    out = out.reshape(out_size, out_size, planes.shape[2])
    if squeeze:
        out = out[:, :, 0]
    if np.issubdtype(img.dtype, np.integer):
        info = np.iinfo(img.dtype)
        return np.clip(np.rint(out), info.min, info.max).astype(img.dtype)
    return out


def to_gray(rgb: np.ndarray) -> np.ndarray:
    """ITU-R BT.601 luma: round(0.299 R + 0.587 G + 0.114 B)."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[-1] != 3:
        raise ValueError("expected an (H,W,3) frame")
    val = rgb[..., 0] * 0.299 + rgb[..., 1] * 0.587 + rgb[..., 2] * 0.114
    return np.floor(val + 0.5).astype(np.uint8)


def mad_fit(frame: np.ndarray, span: float = 4.0) -> MadParams:
    """Median and median-absolute-deviation over all pixels."""
    values = np.asarray(frame, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("empty frame")
    median = float(np.median(values))
    mad = float(np.median(np.abs(values - median)))
    return MadParams(median=median, mad=mad, span=span)


def mad_normalize(frame: np.ndarray, params: MadParams) -> np.ndarray:
    """Map intensities to 8 bit: 128 + (128/span)*(v-median)/MAD, rounded and
    clamped; a zero MAD maps the whole frame to 128."""
    frame = np.asarray(frame, dtype=np.float64)
    if params.mad <= 0.0:
        return np.full(frame.shape, 128, dtype=np.uint8)
    scaled = 128.0 + (128.0 / params.span) * ((frame - params.median) / params.mad)
    # Snap to a 1e-9 grid so that mathematically identical inputs (e.g. after
    # an exact affine rescale + refit) round identically.
    scaled = np.round(scaled, 9)
    return np.clip(np.floor(scaled + 0.5), 0, 255).astype(np.uint8)


# --------------------------------------------------------------------------
# landmark sidecars
# --------------------------------------------------------------------------

def landmarks_path(container_path: str | Path) -> Path:
    return Path(container_path).with_suffix(".landmarks")


def load_landmarks(path: str | Path) -> dict[int, Landmarks]:
    """Landmarks by frame index; a malformed line or a repeated frame index
    raises ``ValueError`` naming the file and line."""
    table: dict[int, Landmarks] = {}
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            parts = line.split(",")
            if len(parts) != 7:
                raise ValueError(f"expected 7 fields, found {len(parts)}")
            idx = int(parts[0])
            if idx in table:
                raise ValueError(f"duplicate frame index {idx}")
            lx, ly, rx, ry, mx, my = (float(v) for v in parts[1:])
            table[idx] = Landmarks((lx, ly), (rx, ry), (mx, my))
        except ValueError as exc:
            raise ValueError(f"{path}: line {number}: {exc}") from None
    return table


# --------------------------------------------------------------------------
# whole-sample preprocessing
# --------------------------------------------------------------------------

_NONCOLOR = (ChannelId.DEPTH, ChannelId.INFRARED, ChannelId.THERMAL)


def _kept_frames(
    raw: MultiChannelSample,
    landmarks: Mapping[int, Landmarks],
    frame_indices: Sequence[int] | None,
) -> tuple[list[int], int]:
    counts = {raw.channels[ch].shape[0] for ch in raw.channels}
    if len(counts) != 1:
        raise SampleError("channels must be temporally aligned (equal frame counts)")
    total = counts.pop()
    indices = list(frame_indices) if frame_indices is not None else list(range(total))
    if any(i < 0 or i >= total for i in indices):
        raise ValueError("frame index out of range")
    kept = [i for i in indices if i in landmarks]
    return kept, len(indices) - len(kept)


def preprocess_sample(
    raw: MultiChannelSample,
    landmarks: Mapping[int, Landmarks],
    targets: AlignTargets,
    mad_span: float = 4.0,
    frame_indices: Sequence[int] | None = None,
) -> tuple[MultiChannelSample, int]:
    """Align, convert, and normalize a raw sample.

    Returns (preprocessed sample, number of frames dropped for missing
    landmarks). The output carries gray plus every non-color channel present
    in the input, all ``out_size`` square uint8.
    """
    if ChannelId.COLOR not in raw.channels:
        raise SampleError("raw sample must carry the color channel")
    kept, dropped = _kept_frames(raw, landmarks, frame_indices)
    if not kept:
        raise SampleError("all frames dropped (no landmarks)")

    size = targets.out_size
    gray_frames = []
    extra: dict[ChannelId, list[np.ndarray]] = {ch: [] for ch in _NONCOLOR if ch in raw.channels}
    for i in kept:
        matrix, _ = estimate_similarity(landmarks[i], targets)
        gray_frames.append(warp(to_gray(raw.channels[ChannelId.COLOR][i]), matrix, size))
        for ch, acc in extra.items():
            warped = warp(raw.channels[ch][i], matrix, size)
            acc.append(mad_normalize(warped, mad_fit(warped, mad_span)))

    channels = {ChannelId.GRAY: np.stack(gray_frames)}
    for ch, acc in extra.items():
        channels[ch] = np.stack(acc)
    return MultiChannelSample(meta=raw.meta, channels=channels), dropped


def align_color(
    raw: MultiChannelSample,
    landmarks: Mapping[int, Landmarks],
    targets: AlignTargets,
    frame_indices: Sequence[int] | None = None,
) -> tuple[np.ndarray, int]:
    """Aligned RGB stack for the color-channel baseline (no photometric
    normalization). Returns ((F,S,S,3) uint8, dropped count)."""
    if ChannelId.COLOR not in raw.channels:
        raise SampleError("raw sample must carry the color channel")
    kept, dropped = _kept_frames(raw, landmarks, frame_indices)
    if not kept:
        raise SampleError("all frames dropped (no landmarks)")
    size = targets.out_size
    frames = []
    for i in kept:
        matrix, _ = estimate_similarity(landmarks[i], targets)
        frames.append(warp(raw.channels[ChannelId.COLOR][i], matrix, size))
    return np.stack(frames), dropped
