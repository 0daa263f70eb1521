"""Micro-benchmarks of the stacked IQM and LBP extractors, each beside the
one-frame oracle looped over the same stack, for the ratio, and of a whole
``cmd_extract rdwt-haralick`` on a small roster.

    PYTHONPATH=src python -m pytest benches --benchmark-only

``testpaths`` in pyproject.toml names only ``tests/``, so the tier-1 run does
not collect this directory. Stacks are 64x64 frames, the aligned size of the
default configuration: 2 frames (one sample at the benchmark's scale) and 20
frames (one sample at the default scale).

A function called in a tight loop reuses the memory it freed on the last
call, so those loops cannot show the allocator returning freed temporaries
to the OS between samples. The ``cmd_extract`` case runs the stage on six
samples of two 64 px frames after one warm-up run, as a pipeline process
runs its second chain, and records in ``extra_info`` the minor page faults
(``ru_minflt``) of every run, the last run's apart; with
``--benchmark-disable`` the stage runs once and that run is the last.
"""

import resource
import sys
from pathlib import Path

import numpy as np
import pytest

from mcpad.config import load_config
from mcpad.features.iqm import iqm_features
from mcpad.features.lbp import lbp_histogram
from mcpad.pipeline import cmd_extract, cmd_preprocess, cmd_synth

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
    hist = benchmark(lbp_histogram, gray)
    assert hist.shape == (gray.shape[0], 531)


def test_lbp_frame_oracle_loop(benchmark, gray):
    hist = benchmark(lambda: np.stack([lbp_histogram_frame(frame) for frame in gray]))
    assert np.array_equal(hist, lbp_histogram(gray))


@pytest.fixture(scope="module")
def roster(tmp_path_factory):
    root = tmp_path_factory.mktemp("roster")
    cfg = load_config(None, [
        "synth.bonafide_clients=3", "synth.attack_instruments={print: 3}", "synth.frames_per_sample=2",
        f"paths.data_root={root / 'data'}", f"paths.out_root={root / 'out'}",
    ], env={})
    cmd_synth(cfg)
    cmd_preprocess(cfg)
    return cfg


def test_extract_rdwt_haralick(benchmark, roster):
    faults = []

    def run():
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        cmd_extract(roster, "rdwt-haralick")
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)

    benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=1)
    benchmark.extra_info["minflt_per_run"] = faults[:]
    benchmark.extra_info["minflt_last_run"] = faults[-1]
