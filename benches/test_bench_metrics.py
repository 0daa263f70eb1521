"""Micro-benchmarks of the score-table metrics on a 100k-row table.

    PYTHONPATH=src python -m pytest benches --benchmark-only

``testpaths`` in pyproject.toml names only ``tests/``, so the tier-1 run does
not collect this directory. The table has 100k frames over 1000 samples, with
every attack type present and scores rounded to 1e-4 so that thresholds tie.
"""

import numpy as np
import pytest

from mcpad.evaluation import ATTACK_TYPES, Scores, compute_metrics, load_scores, roc, save_scores

ROWS = 100_000


@pytest.fixture(scope="module")
def scores():
    rng = np.random.default_rng(0)
    sample = rng.integers(0, 1000, ROWS)
    return Scores(
        [f"s{i:04d}" for i in sample],
        rng.integers(0, 20, ROWS),
        np.round(rng.random(ROWS), 4),
        rng.integers(0, len(ATTACK_TYPES), ROWS),
    )


def test_load_scores_100k(benchmark, scores, tmp_path):
    path = tmp_path / "scores.csv"
    save_scores(scores, path)
    loaded = benchmark(load_scores, path)
    assert loaded.score.size == ROWS


def test_compute_metrics_100k(benchmark, scores):
    metrics = benchmark(compute_metrics, scores, 0.5)
    assert sum(metrics.counts[k] for k in ("bonafide", "attack")) == ROWS


def test_roc_100k(benchmark, scores):
    thresholds, _, _ = benchmark(roc, scores)
    assert thresholds.size == np.unique(scores.score).size + 2
