"""Per-operator micro-benchmarks of the batched RDWT-Haralick extractor.

    PYTHONPATH=src python -m pytest benches --benchmark-only

``testpaths`` in pyproject.toml names only ``tests/``, so the tier-1 run does
not collect this directory. Inputs match the default configuration: a stack
of 20 frames of 64x64 pixels (one sample's channel), and the 1280 GLCMs of
such a stack (20 frames x 4 subbands x 16 grid cells) at 8 gray levels.
"""

import numpy as np
import pytest

from mcpad.features.haralick import glcm, haralick13, rdwt_haralick_features


@pytest.fixture(scope="module")
def stack():
    return np.random.default_rng(0).integers(0, 256, (20, 64, 64)).astype(np.float64)


def test_rdwt_haralick_features_20x64x64(benchmark, stack):
    features = benchmark(rdwt_haralick_features, stack)
    assert features.shape == (20, 832)


def test_haralick13_1280x8x8(benchmark):
    regions = np.random.default_rng(1).integers(0, 256, (1280, 16, 16)).astype(np.float64)
    value_range = regions.min(axis=(1, 2), keepdims=True), regions.max(axis=(1, 2), keepdims=True)
    matrices = glcm(regions, value_range)
    assert matrices.shape == (1280, 8, 8)
    stats = benchmark(haralick13, matrices)
    assert stats.shape == (1280, 13)
