"""Micro-benchmarks of the stacked IQM and LBP extractors, each beside the
one-frame oracle looped over the same stack, for the ratio.

    PYTHONPATH=src python -m pytest benches --benchmark-only

``testpaths`` in pyproject.toml names only ``tests/``, so the tier-1 run does
not collect this directory. Stacks are 64x64 frames, the aligned size of the
default configuration: 2 frames (one sample at the benchmark's scale) and 20
frames (one sample at the default scale).
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from mcpad.features.iqm import iqm_features
from mcpad.features.lbp import LbpConfig, lbp_histogram

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import iqm_frame, lbp_histogram_frame  # noqa: E402

FRAMES = [2, 20]


@pytest.fixture(scope="module", params=FRAMES, ids=lambda n: f"{n}x64x64")
def rgb(request):
    return np.random.default_rng(0).integers(0, 256, (request.param, 64, 64, 3)).astype(np.uint8)


@pytest.fixture(scope="module", params=FRAMES, ids=lambda n: f"{n}x64x64")
def gray(request):
    return np.random.default_rng(1).integers(0, 256, (request.param, 64, 64)).astype(np.uint8)


def test_iqm_features_stack(benchmark, rgb):
    features = benchmark(iqm_features, rgb)
    assert features.shape == (rgb.shape[0], 18)


def test_iqm_frame_oracle_loop(benchmark, rgb):
    features = benchmark(lambda: np.stack([iqm_frame(frame) for frame in rgb]))
    assert np.array_equal(features, iqm_features(rgb))


def test_lbp_histogram_stack(benchmark, gray):
    hist = benchmark(lbp_histogram, gray, LbpConfig())
    assert hist.shape == (gray.shape[0], 531)


def test_lbp_frame_oracle_loop(benchmark, gray):
    cfg = LbpConfig()
    hist = benchmark(lambda: np.stack([lbp_histogram_frame(frame, cfg) for frame in gray]))
    assert np.array_equal(hist, lbp_histogram(gray, cfg))
