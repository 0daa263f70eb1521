"""Micro-benchmarks of preprocessing over whole samples, and of one stacked
``warp`` beside the one-frame oracle looped over the same planes.

    PYTHONPATH=src python -m pytest benches/test_bench_preprocess.py --benchmark-only

``testpaths`` in pyproject.toml names only ``tests/``, so the tier-1 run does
not collect this directory. Samples are the benchmark's and the default
configuration's: 80 px raw frames (color, 16-bit depth, 8-bit infrared,
16-bit thermal) aligned to 64 px, 2 frames (one sample at the benchmark's
scale) and 20 frames (one sample at the default scale). The landmarks put
the face off center, turned and scaled, so part of the crop samples outside
the raw frame.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from mcpad.dataset import AttackType, ChannelId, MultiChannelSample, SampleMeta
from mcpad.preprocess import (
    AlignTargets,
    Landmarks,
    align_color,
    estimate_similarity,
    preprocess_sample,
    to_gray,
    warp,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import preprocess_sample_frames, warp_frame  # noqa: E402

FRAMES = [2, 20]
RAW = 80
TARGETS = AlignTargets.for_size(64)


@pytest.fixture(scope="module", params=FRAMES, ids=lambda n: f"{n}x{RAW}to64")
def sample(request):
    count = request.param
    rng = np.random.default_rng(0)
    raw = MultiChannelSample(
        SampleMeta("bench", 0, "bonafide", AttackType.NONE, 1),
        {
            ChannelId.COLOR: rng.integers(0, 256, (count, RAW, RAW, 3)).astype(np.uint8),
            ChannelId.DEPTH: rng.integers(0, 65536, (count, RAW, RAW)).astype(np.uint16),
            ChannelId.INFRARED: rng.integers(0, 256, (count, RAW, RAW)).astype(np.uint8),
            ChannelId.THERMAL: rng.integers(0, 65536, (count, RAW, RAW)).astype(np.uint16),
        },
    )
    landmarks = {}
    for i in range(count):
        angle, scale = rng.uniform(-0.3, 0.3), rng.uniform(1.0, 1.4)
        rot = scale * np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        pts = TARGETS.points() @ rot.T + rng.uniform(-6, 6, 2)
        landmarks[i] = Landmarks(tuple(pts[0]), tuple(pts[1]), tuple(pts[2]))
    return raw, landmarks


def _planes(raw, landmarks):
    """The (F, H, W, 4) uint16 pack that preprocess_sample warps, and its transforms."""
    color = raw.channels[ChannelId.COLOR]
    planes = np.stack([to_gray(color)] + [raw.channels[ch] for ch in
                      (ChannelId.DEPTH, ChannelId.INFRARED, ChannelId.THERMAL)], axis=-1)
    transforms = np.stack([estimate_similarity(landmarks[i], TARGETS) for i in range(len(color))])
    return planes, transforms


def test_preprocess_sample(benchmark, sample):
    raw, landmarks = sample
    out, dropped = benchmark(preprocess_sample, raw, landmarks, TARGETS)
    assert dropped == 0 and out.frame_count(ChannelId.GRAY) == raw.frame_count(ChannelId.COLOR)


def test_preprocess_sample_frame_oracle(benchmark, sample):
    raw, landmarks = sample
    out, _ = benchmark(preprocess_sample_frames, raw, landmarks, TARGETS)
    assert out == preprocess_sample(raw, landmarks, TARGETS)[0]


def test_align_color(benchmark, sample):
    raw, landmarks = sample
    stack, _ = benchmark(align_color, raw, landmarks, TARGETS)
    assert stack.shape == (raw.frame_count(ChannelId.COLOR), 64, 64, 3)


def test_warp_stack(benchmark, sample):
    planes, transforms = _planes(*sample)
    out = benchmark(warp, planes, transforms, 64)
    assert out.shape == (len(planes), 64, 64, 4)


def test_warp_frame_oracle_loop(benchmark, sample):
    """Four one-plane warps per frame, as preprocessing ran them before the
    planes shared one sampling grid."""
    planes, transforms = _planes(*sample)
    out = benchmark(lambda: np.stack([
        np.stack([warp_frame(frame[..., k], t, 64) for k in range(4)], axis=-1)
        for frame, t in zip(planes, transforms)
    ]))
    assert np.array_equal(out, warp(planes, transforms, 64))
