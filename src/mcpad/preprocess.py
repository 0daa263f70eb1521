"""Raw-to-aligned preprocessing: similarity transform from three landmarks,
bilinear warping, grayscale conversion, and per-frame MAD normalization of
non-color channels to 8 bit.

Everything works on frame stacks. A sample's channels share one transform
per frame (estimated from the color landmarks), so ``warp`` builds each
frame's sampling grid (inverse map, tap indices and bilinear weights) once
and gathers gray, depth, infrared and thermal through it together;
``mad_fit`` and ``mad_normalize`` take a median and MAD per frame of a stack.

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
    """Median and MAD of one frame (floats) or of each frame of a stack
    (arrays of the stack's leading shape)."""

    median: float | np.ndarray
    mad: float | np.ndarray
    span: float = 4.0

    def __post_init__(self):
        if not (np.isfinite(self.median).all() and np.isfinite(self.mad).all()):
            raise ValueError("median and mad must be finite")
        if np.any(np.asarray(self.mad) < 0):
            raise ValueError("mad must be >= 0")
        if self.span <= 0:
            raise ValueError("span must be positive")


def estimate_similarity(src: Landmarks, dst: AlignTargets) -> np.ndarray:
    """Least-squares similarity (scale+rotation+translation) mapping the
    source landmarks onto the targets, as a 2x3 matrix."""
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
    return np.array([[a, -b, tx], [b, a, ty]], dtype=np.float64)


def warp(frames: np.ndarray, transforms: np.ndarray, out_size: int) -> np.ndarray:
    """Resample frames ``(F, H, W, C)`` through the inverses of their 2x3
    source->target ``transforms`` ``(F, 2, 3)``. Bilinear, and out-of-bounds
    taps read 0. Each frame's sampling grid is built once and gathers all of
    its planes. Integer inputs are rounded back to their dtype. A non-finite
    or singular transform raises ``GeometryError``."""
    transforms = np.asarray(transforms, dtype=np.float64)
    img = np.asarray(frames)
    if transforms.ndim != 3 or transforms.shape[1:] != (2, 3):
        raise ValueError("transforms must be (F, 2, 3)")
    if img.ndim != 4 or img.shape[0] != transforms.shape[0]:
        raise ValueError("frames must be (F, H, W, C) with one transform per frame")
    if not np.isfinite(transforms).all():
        raise GeometryError("transform must be finite")
    try:
        inv = np.linalg.inv(transforms[:, :, :2])
    except np.linalg.LinAlgError:
        raise GeometryError("transform is singular") from None
    if not np.isfinite(inv).all():
        raise GeometryError("transform is singular")

    count, h, w, depth = img.shape
    info = np.iinfo(img.dtype) if np.issubdtype(img.dtype, np.integer) else None
    out = np.empty((count, out_size, out_size, depth), dtype=np.float64 if info is None else img.dtype)
    xs, ys = np.meshgrid(np.arange(out_size, dtype=np.float64),
                         np.arange(out_size, dtype=np.float64))
    grid = np.stack([xs.ravel(), ys.ravel()])
    acc = np.empty((depth, out_size * out_size), dtype=np.float64)
    term = np.empty_like(acc)
    for frame, matrix, lin_inv, dest in zip(img, transforms, inv, out):
        # One sampling grid per frame. A pixel's planes are one row, so each
        # tap is one ``take`` of every plane; integer values enter the
        # float64 sums exactly, as gathered.
        src = lin_inv @ (grid - matrix[:, 2:])
        sx, sy = src[0], src[1]
        x0 = np.floor(sx).astype(np.int64)
        y0 = np.floor(sy).astype(np.int64)
        fx = sx - x0
        fy = sy - y0
        data = frame.reshape(h * w, depth)
        acc[:] = 0.0
        for dy, wy in ((0, 1 - fy), (1, fy)):
            yi = y0 + dy
            vy = (yi >= 0) & (yi < h)
            for dx, wx in ((0, 1 - fx), (1, fx)):
                xi = x0 + dx
                valid = (xi >= 0) & (xi < w) & vy
                idx = np.where(valid, yi * w + xi, 0)
                np.multiply(wx * wy * valid, np.take(data, idx, axis=0).T, out=term)
                acc += term
        if info is not None:
            np.clip(np.rint(acc, out=acc), info.min, info.max, out=acc)
        dest[...] = acc.T.reshape(out_size, out_size, depth)
    return out


def to_gray(rgb: np.ndarray) -> np.ndarray:
    """ITU-R BT.601 luma of frames ``(..., H, W, 3)``:
    round(0.299 R + 0.587 G + 0.114 B)."""
    rgb = np.asarray(rgb)
    if rgb.ndim < 3 or rgb.shape[-1] != 3:
        raise ValueError("expected (..., H, W, 3) frames")
    val = rgb[..., 0] * 0.299 + rgb[..., 1] * 0.587 + rgb[..., 2] * 0.114
    return np.floor(val + 0.5).astype(np.uint8)


def _pixels(frames: np.ndarray) -> np.ndarray:
    """Frames ``(..., H, W)`` as rows ``(..., H*W)``; an array of fewer than
    two dimensions is one frame."""
    return frames.reshape(frames.shape[:-2] + (-1,))


def _sorted_median(rows: np.ndarray) -> np.ndarray:
    """Median of each ascending row, as ``np.median`` takes it: the middle
    value, or the mean (sum, then halved) of the two middle values."""
    mid = rows.shape[-1] // 2
    if rows.shape[-1] % 2:
        return rows[..., mid].copy()
    return (rows[..., mid - 1] + rows[..., mid]) / 2


def mad_fit(frames: np.ndarray, span: float = 4.0) -> MadParams:
    """Median and median-absolute-deviation over the pixels of each frame
    of a stack ``(..., H, W)``. Both medians come from sorted rows, which is
    faster than ``np.median``'s partitions at frame sizes and gives its
    values."""
    values = np.sort(_pixels(np.asarray(frames, dtype=np.float64)), axis=-1)
    if values.shape[-1] == 0:
        raise ValueError("empty frame")
    if np.isnan(values[..., -1]).any():  # a sort puts NaN last
        raise ValueError("frame values must not be NaN")
    median = _sorted_median(values)
    mad = _sorted_median(np.sort(np.abs(values - median[..., None]), axis=-1))
    return MadParams(median=median, mad=mad, span=span)


def mad_normalize(frames: np.ndarray, params: MadParams) -> np.ndarray:
    """Map each frame's intensities to 8 bit: 128 + (128/span)*(v-median)/MAD,
    rounded and clamped; a frame with zero MAD maps to 128 throughout."""
    frames = np.asarray(frames, dtype=np.float64)
    values = _pixels(frames)
    median = np.asarray(params.median)[..., None]
    mad = np.asarray(params.mad)[..., None]
    flat = mad <= 0.0
    scaled = 128.0 + (128.0 / params.span) * ((values - median) / np.where(flat, 1.0, mad))
    # Snap to a 1e-9 grid so that mathematically identical inputs (e.g. after
    # an exact affine rescale + refit) round identically.
    scaled = np.round(scaled, 9)
    out = np.clip(np.floor(scaled + 0.5), 0, 255).astype(np.uint8)
    out[np.broadcast_to(flat, out.shape)] = 128
    return out.reshape(frames.shape)


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
    stacks = raw.channels.values()
    counts = {stack.shape[0] for stack in stacks}
    if len(counts) != 1:
        raise SampleError("channels must be temporally aligned (equal frame counts)")
    if len({stack.shape[1:3] for stack in stacks}) != 1:
        raise SampleError("channels must be registered to the color frame (equal frame sizes)")
    total = counts.pop()
    indices = list(frame_indices) if frame_indices is not None else list(range(total))
    if any(i < 0 or i >= total for i in indices):
        raise ValueError("frame index out of range")
    kept = [i for i in indices if i in landmarks]
    if not kept:
        raise SampleError("all frames dropped (no landmarks)")
    return kept, len(indices) - len(kept)


def _transforms(landmarks: Mapping[int, Landmarks], kept: list[int], targets: AlignTargets) -> np.ndarray:
    return np.stack([estimate_similarity(landmarks[i], targets) for i in kept])


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
    in the input, all ``out_size`` square uint8. Gray and the non-color
    channels are warped in one call; the non-color ones are then
    MAD-normalized frame by frame.
    """
    if ChannelId.COLOR not in raw.channels:
        raise SampleError("raw sample must carry the color channel")
    kept, dropped = _kept_frames(raw, landmarks, frame_indices)
    extra = [ch for ch in _NONCOLOR if ch in raw.channels]
    planes = np.stack(
        [to_gray(raw.channels[ChannelId.COLOR][kept]), *(raw.channels[ch][kept] for ch in extra)],
        axis=-1,
    )
    warped = np.moveaxis(warp(planes, _transforms(landmarks, kept, targets), targets.out_size), -1, 0)
    # The bilinear weights of a pixel sum to 1, so warped gray stays within
    # 0..255 in a uint16 pack and casts back exactly.
    channels = {ChannelId.GRAY: warped[0].astype(np.uint8)}
    for ch, stack in zip(extra, warped[1:]):
        channels[ch] = mad_normalize(stack, mad_fit(stack, mad_span))
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
    stack = raw.channels[ChannelId.COLOR][kept]
    return warp(stack, _transforms(landmarks, kept, targets), targets.out_size), dropped
