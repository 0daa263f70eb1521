import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcpad.classical import (
    POP_ALL,
    POP_BONAFIDE_ONLY,
    FitError,
    LrModel,
    ScoreNormalizer,
    Standardizer,
    SvmModel,
    fuse_mean,
    load_model,
    lr_score,
    lr_train,
    save_model,
    score_normalize_apply,
    score_normalize_fit,
    standardize_fit,
    svm_score,
    svm_train,
)

from oracles import lr_training_losses


def blobs(rng, n=60, separation=6.0):
    a = rng.normal([0.0, 0.0], 1.0, (n, 2))
    b = rng.normal([separation, separation], 1.0, (n, 2))
    x = np.vstack([a, b])
    y = np.array([0] * n + [1] * n)
    return x, y


class TestStandardizer:
    def test_hand_computed(self):
        std = standardize_fit(np.array([[0.0], [2.0]]), np.array([1, 1]), POP_BONAFIDE_ONLY)
        assert std.mean[0] == 1.0 and std.std[0] == 1.0  # population std

    def test_floor_applied(self):
        std = standardize_fit(np.array([[5.0], [5.0]]), np.array([1, 1]), POP_ALL)
        assert std.std[0] == 1e-8

    def test_bonafide_only_ignores_attacks(self, rng):
        x = rng.normal(size=(20, 3))
        y = np.array([1] * 10 + [0] * 10)
        base = standardize_fit(x[:10], np.ones(10, dtype=int), POP_BONAFIDE_ONLY)
        full = standardize_fit(x, y, POP_BONAFIDE_ONLY)
        assert np.allclose(base.mean, full.mean) and np.allclose(base.std, full.std)

    def test_empty_population(self):
        with pytest.raises(FitError):
            standardize_fit(np.zeros((3, 2)), np.zeros(3, dtype=int), POP_BONAFIDE_ONLY)

    def test_degenerate_scale_option(self):
        x = np.array([[1.0, 0.0], [1.0, 5.0]])
        std = standardize_fit(x, np.array([1, 1]), POP_ALL, degenerate_scale=1.0)
        assert std.std[0] == 1.0 and std.std[1] == pytest.approx(2.5)

    def test_dimension_mismatch(self):
        std = Standardizer(np.zeros(2), np.ones(2), POP_ALL)
        with pytest.raises(ValueError):
            std.apply(np.zeros((3, 4)))


class TestLogisticRegression:
    def test_zero_weights_score_half(self, rng):
        x, y = blobs(rng)
        std = standardize_fit(x, y, POP_ALL)
        model = LrModel(np.zeros(2), 0.0, std, 0.1)
        assert np.array_equal(lr_score(model, x), np.full(len(x), 0.5))

    def test_separable_blobs_reach_full_accuracy(self, rng):
        x, y = blobs(rng)
        proj = x @ np.ones(2)
        assert proj[y == 0].max() < proj[y == 1].min()  # verifiably separable
        model = lr_train(x, y, l2=0.01, epochs=800, lr=0.05)
        decisions = (np.asarray(lr_score(model, x)) >= 0.5).astype(int)
        assert (decisions == y).mean() == 1.0

    def test_regularization_shrinks_weights_and_scores(self, rng):
        x, y = blobs(rng, n=30)
        spreads = []
        norms = []
        for l2 in (0.01, 1.0, 100.0):
            # step size small enough that even the stiff l2=100 term is stable
            model = lr_train(x, y, l2=l2, epochs=2000, lr=0.004)
            scores = np.asarray(lr_score(model, x))
            spreads.append(np.abs(scores - 0.5).mean())
            norms.append(np.linalg.norm(model.weights))
        assert norms[0] > norms[1] > norms[2]
        assert spreads[0] > spreads[1] > spreads[2]

    def test_single_class_rejected(self, rng):
        x = rng.normal(size=(10, 2))
        with pytest.raises(FitError):
            lr_train(x, np.ones(10, dtype=int))

    def test_loss_non_increasing_at_default_rate(self, rng):
        x, y = blobs(rng, n=40, separation=2.0)
        losses = lr_training_losses(x, y, epochs=200)
        assert np.all(np.diff(losses) <= 1e-12)

    def test_score_monotone_in_logit(self, rng):
        x, y = blobs(rng)
        model = lr_train(x, y, epochs=100)
        along = np.outer(np.linspace(-3, 3, 7), model.weights)
        scores = np.asarray(lr_score(model, along * model.standardizer.std + model.standardizer.mean))
        assert np.all(np.diff(scores) > 0)


class TestSvm:
    def test_symmetric_boundary_at_zero(self):
        x = np.array([[-1.0], [1.0]])
        y = np.array([0, 1])
        model = svm_train(x, y, c=100.0, epochs=500, lr=0.1)
        boundary_std = -model.bias / model.weights[0]
        boundary = boundary_std * model.standardizer.std[0] + model.standardizer.mean[0]
        assert abs(boundary) <= 0.1

    def test_raw_margin(self):
        std = Standardizer(np.zeros(2), np.ones(2), POP_ALL)
        model = SvmModel(np.array([1.0, 0.0]), 0.0, 1.0, std)
        assert svm_score(model, np.array([[2.0, 0.0], [-1.0, 5.0]])).tolist() == [2.0, -1.0]

    def test_label_swap_flips_boundary(self, rng):
        x, y = blobs(rng, n=40)
        m1 = svm_train(x, y, c=10.0)
        m2 = svm_train(x, 1 - y, c=10.0)
        cos = np.dot(m1.weights, m2.weights) / (
            np.linalg.norm(m1.weights) * np.linalg.norm(m2.weights)
        )
        assert cos == pytest.approx(-1.0, abs=0.05)

    def test_single_class_rejected(self, rng):
        with pytest.raises(FitError):
            svm_train(rng.normal(size=(6, 2)), np.zeros(6, dtype=int))

    def test_separates_blobs(self, rng):
        x, y = blobs(rng, n=50)
        model = svm_train(x, y)
        decisions = (np.asarray(svm_score(model, x)) >= 0).astype(int)
        assert (decisions == y).mean() == 1.0


class TestScoreNormalizer:
    def test_midpoint(self):
        norm = score_normalize_fit([0.0, 10.0])
        assert score_normalize_apply(norm, np.array([5.0])).tolist() == [0.5]

    def test_clamped(self):
        norm = score_normalize_fit([0.0, 10.0])
        assert score_normalize_apply(norm, np.array([20.0, -3.0])).tolist() == [1.0, 0.0]

    def test_degenerate_rejected(self):
        with pytest.raises(FitError):
            score_normalize_fit([3.0, 3.0, 3.0])

    @given(st.lists(st.floats(-100, 100), min_size=3, max_size=30, unique=True))
    def test_order_preserved(self, scores):
        norm = score_normalize_fit(scores)
        ranked = np.argsort(scores)
        normalized = score_normalize_apply(norm, np.array(scores))
        assert np.array_equal(np.argsort(normalized[ranked], kind="stable"), np.arange(len(scores)))


class TestFusion:
    def test_mean(self):
        assert fuse_mean([[0.2, 0.4, 0.6, 0.8], [0.0, 0.0, 1.0, 1.0]]) == pytest.approx([0.5, 0.5])

    def test_single_channel_identity(self):
        assert fuse_mean([[0.77], [0.1]]) == pytest.approx([0.77, 0.1])

    def test_equal_scores_fixed_point(self):
        assert fuse_mean([[0.3, 0.3, 0.3]]) == pytest.approx([0.3])

    def test_empty_rejected(self):
        for empty in (np.empty((0, 4)), np.empty((3, 0))):
            with pytest.raises(ValueError):
                fuse_mean(empty)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            fuse_mean([[0.5, 1.5]])

    def test_one_dimensional_rejected(self):
        with pytest.raises(ValueError, match=r"\(N, C\)"):
            fuse_mean([0.2, 0.4])

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=8))
    def test_permutation_invariant_and_bounded(self, scores):
        (fused,) = fuse_mean([scores])
        assert min(scores) - 1e-12 <= fused <= max(scores) + 1e-12
        assert fuse_mean([list(reversed(scores))]) == pytest.approx([fused])


class TestSerialization:
    def test_lr_round_trip(self, rng, tmp_path):
        x, y = blobs(rng, n=20)
        model = lr_train(x, y, epochs=50)
        save_model(model, tmp_path / "m.mclm")
        loaded = load_model(tmp_path / "m.mclm")
        assert isinstance(loaded, LrModel)
        assert np.array_equal(model.weights, loaded.weights)
        assert model.bias == loaded.bias and model.l2 == loaded.l2
        assert model.standardizer.population == loaded.standardizer.population
        assert np.array_equal(np.asarray(lr_score(model, x)), np.asarray(lr_score(loaded, x)))

    def test_svm_round_trip(self, rng, tmp_path):
        x, y = blobs(rng, n=20)
        model = svm_train(x, y, epochs=50)
        save_model(model, tmp_path / "m.mclm")
        loaded = load_model(tmp_path / "m.mclm")
        assert isinstance(loaded, SvmModel)
        assert np.array_equal(model.weights, loaded.weights) and model.c == loaded.c

    def test_normalizer_round_trip(self, tmp_path):
        norm = ScoreNormalizer(lo=-2.5, hi=7.5)
        save_model(norm, tmp_path / "n.mclm")
        assert load_model(tmp_path / "n.mclm") == norm

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad.mclm").write_bytes(b"XXXX" + bytes(16))
        with pytest.raises(ValueError):
            load_model(tmp_path / "bad.mclm")


class TestDecisionInvariance:
    def test_feature_rescaling_keeps_decisions(self, rng):
        x, y = blobs(rng, n=40)
        scale = np.array([3.5, 0.25])
        m1 = lr_train(x, y, epochs=200)
        m2 = lr_train(x * scale, y, epochs=200)
        d1 = (np.asarray(lr_score(m1, x)) >= 0.5)
        d2 = (np.asarray(lr_score(m2, x * scale)) >= 0.5)
        assert np.array_equal(d1, d2)
