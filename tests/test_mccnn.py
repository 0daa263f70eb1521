import json
import os
import re
import struct
import weakref

import numpy as np
import pytest

import mcpad.autodiff as ad
from mcpad.classical import FitError
from mcpad.dataset import AttackType, ChannelId, SynthConfig, synth_generate, read_sample
from mcpad.evaluation import threshold_from_bonafide
from mcpad.mccnn import (
    GROUPS,
    McCnnConfig,
    TrainData,
    _embed_frozen,
    batch_class_weights,
    branch_forward,
    build_model,
    flip_decision,
    forward,
    frames_to_input,
    init_backbone,
    load_model,
    predict,
    pretrain_reference,
    save_model,
    train,
)

from oracles import at_blas_threads, block_bytes, grad_check

GRAY = ChannelId.GRAY
DEPTH = ChannelId.DEPTH


def mini_config(**kw):
    base = dict(
        channels=(GRAY, DEPTH),
        input_size=16,
        embedding_dim=8,
        base_width=4,
        adapt=frozenset({"C1", "B1"}),
        epochs=2,
        batch_size=8,
        seed=0,
    )
    base.update(kw)
    return McCnnConfig(**base)


def separable_frames(rng, n, size, signal=True):
    """Gray frames where class 1 has a centered bright square."""
    x = rng.normal(0, 0.2, (n, size, size)).astype(np.float32)
    y = rng.integers(0, 2, n)
    if signal:
        q = size // 4
        for i in range(n):
            if y[i] == 1:
                x[i, q : 3 * q, q : 3 * q] += 1.0
    return x, y


class TestConfig:
    def test_head_input_dimension(self):
        cfg = McCnnConfig()
        assert cfg.head_input == 4 * 64

    def test_every_channel_subset_builds(self, rng):
        subsets = [
            (GRAY, DEPTH, ChannelId.INFRARED, ChannelId.THERMAL),
            (GRAY, DEPTH, ChannelId.INFRARED),
            (GRAY,), (DEPTH,), (ChannelId.INFRARED,), (ChannelId.THERMAL,),
        ]
        for channels in subsets:
            cfg = mini_config(channels=channels)
            model = build_model(cfg)
            frames = {ch: rng.normal(size=(2, 16, 16)) for ch in channels}
            p = forward(model, frames).data
            assert p.shape == (2,) and np.all((p > 0) & (p < 1))
            assert model.params["head.fc1_w"].data.shape == (10, len(channels) * cfg.embedding_dim)

    def test_color_rejected(self):
        with pytest.raises(ValueError):
            mini_config(channels=(ChannelId.COLOR,))

    def test_ffc_cannot_be_adapted(self):
        with pytest.raises(ValueError):
            mini_config(adapt=frozenset({"FFC"}))


class TestForward:
    def test_embedding_length(self, rng):
        cfg = mini_config()
        model = build_model(cfg)
        for ch in cfg.channels:
            emb = branch_forward(model, ch, rng.normal(size=(3, 16, 16)))
            assert emb.data.shape == (3, cfg.embedding_dim)

    def test_unadapted_branches_share_function(self, rng):
        cfg = mini_config(adapt=frozenset())
        model = build_model(cfg)
        frame = rng.normal(size=(2, 16, 16))
        gray = branch_forward(model, GRAY, frame).data
        depth = branch_forward(model, DEPTH, frame).data
        assert np.array_equal(gray, depth)

    def test_adapted_branches_diverge_after_training(self, rng):
        cfg = mini_config(adapt=frozenset({"C1"}), epochs=3)
        x, y = separable_frames(np.random.default_rng(0), 32, 16)
        data = TrainData(
            train_x={GRAY: x, DEPTH: x}, train_y=y,
            dev_x={GRAY: x[:8], DEPTH: x[:8]}, dev_y=y[:8],
        )
        result = train(data, cfg)
        frame = rng.normal(size=(1, 16, 16))
        gray = branch_forward(result.model, GRAY, frame).data
        depth = branch_forward(result.model, DEPTH, frame).data
        assert not np.array_equal(gray, depth)

    def test_frozen_forward_keeps_no_graph(self, rng, monkeypatch):
        model = build_model(mini_config())
        activations = []
        mfm = ad.mfm

        def recording_mfm(x):
            out = mfm(x)
            activations.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(ad, "mfm", recording_mfm)
        frames = rng.normal(size=(2, 16, 16))
        gray = branch_forward(model, GRAY, frames)  # shared, frozen blocks
        assert gray._parents == () and not gray.requires_grad
        assert len(activations) == 4
        assert all(ref() is None for ref in activations[:3])  # C1, B1, G1
        assert activations[3]() is gray.data
        depth = branch_forward(model, DEPTH, frames)  # trainable DSU copies
        assert depth._parents and depth.requires_grad
        assert all(ref() is not None for ref in activations[4:])

    def test_missing_channel_rejected(self, rng):
        model = build_model(mini_config())
        for run in (forward, predict):
            with pytest.raises(ValueError, match="missing channels"):
                run(model, {GRAY: rng.normal(size=(1, 16, 16))})

    def test_probability_range(self, rng):
        model = build_model(mini_config())
        frames = {ch: rng.normal(size=(5, 16, 16)) for ch in model.config.channels}
        p = forward(model, frames).data
        assert p.ndim == 1 and p.shape == (5,)
        assert np.all((p > 0) & (p < 1))


class TestPredict:
    """Scoring runs through a frozen view of the model: the same arrays, no
    graph, and the same numbers as the graph-building forward pass."""

    def _model_and_frames(self, rng, dtype=np.float32):
        cfg = mini_config(channels=(GRAY, DEPTH, ChannelId.INFRARED))
        model = build_model(cfg, dtype=dtype)
        frames = {ch: rng.normal(size=(5, 16, 16)).astype(dtype) for ch in cfg.channels}
        return model, frames

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_forward_bit_for_bit(self, rng, dtype):
        model, frames = self._model_and_frames(rng, dtype)
        assert model.trainable() and model.block(DEPTH, "C1")["conv_w"].requires_grad
        assert np.array_equal(predict(model, frames), forward(model, frames).data)

    def test_builds_no_graph(self, rng, monkeypatch):
        model, frames = self._model_and_frames(rng)
        outputs = []
        for name in ("conv2d", "linear", "mfm"):
            op = getattr(ad, name)

            def recording(*args, _op=op, **kwargs):
                out = _op(*args, **kwargs)
                outputs.append(out)
                return out

            monkeypatch.setattr(ad, name, recording)
        predict(model, frames)
        # 3 channels x (3 conv + 4 MFM + 1 EMB linear) + 2 head linears
        assert len(outputs) == 3 * 8 + 2
        assert all(out._backward is None and out._parents == () for out in outputs)

    def test_precomputed_embeddings(self, rng):
        model, frames = self._model_and_frames(rng)
        gray = _embed_frozen(model, GRAY, frames[GRAY])
        assert np.array_equal(predict(model, frames, {GRAY: gray}), predict(model, frames))

    def test_frozen_view_shares_arrays(self, rng):
        model, _ = self._model_and_frames(rng)
        view = model.frozen()
        assert view.config == model.config and set(view.params) == set(model.params)
        for name, tensor in view.params.items():
            assert np.shares_memory(tensor.data, model.params[name].data), name
        assert view.trainable() == []


class TestWeightsAndLoss:
    def test_imbalanced_batch(self):
        w_bona, w_att = batch_class_weights(np.array([1] * 8 + [0] * 24))
        assert w_bona == pytest.approx(2.0) and w_att == pytest.approx(2 / 3)

    def test_balanced_batch(self):
        assert batch_class_weights(np.array([1, 0, 1, 0])) == (1.0, 1.0)

    def test_absent_class(self):
        w_bona, w_att = batch_class_weights(np.zeros(32, dtype=int))
        assert w_bona == 1.0 and w_att == pytest.approx(0.5)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            batch_class_weights(np.array([]))


class TestGradCheck:
    def test_mini_model_under_tolerance(self, rng):
        cfg = mini_config(input_size=8, embedding_dim=4, base_width=2)
        model = build_model(cfg, dtype=np.float64)
        frames = {ch: rng.normal(size=(2, 8, 8)) for ch in cfg.channels}
        assert grad_check(model, frames, np.array([1, 0])) < 1e-3

    def test_zero_input_batch_defined(self):
        cfg = mini_config(input_size=8, embedding_dim=4, base_width=2, adapt=frozenset())
        model = build_model(cfg, dtype=np.float64)
        frames = {ch: np.zeros((2, 8, 8)) for ch in cfg.channels}
        err = grad_check(model, frames, np.array([1, 0]))
        assert np.isfinite(err)


class TestTraining:
    def test_frozen_blocks_byte_identical(self):
        cfg = mini_config(epochs=2, adapt=frozenset({"C1"}))
        rng = np.random.default_rng(3)
        x, y = separable_frames(rng, 24, 16)
        backbone = init_backbone(cfg)
        before = block_bytes(build_model(cfg, backbone))
        data = TrainData(
            train_x={GRAY: x, DEPTH: x}, train_y=y,
            dev_x={GRAY: x[:8], DEPTH: x[:8]}, dev_y=y[:8],
        )
        result = train(data, cfg, backbone)
        after = block_bytes(result.model)
        for name in before:
            if name.startswith("shared."):
                assert after[name] == before[name], name
        assert after["dsu.depth.C1.conv_w"] != before["dsu.depth.C1.conv_w"]
        assert after["head.fc1_w"] != before["head.fc1_w"]

    def test_empty_adapt_trains_head_only(self):
        cfg = mini_config(epochs=1, adapt=frozenset())
        rng = np.random.default_rng(4)
        x, y = separable_frames(rng, 16, 16)
        backbone = init_backbone(cfg)
        before = block_bytes(build_model(cfg, backbone))
        result = train(
            TrainData({GRAY: x, DEPTH: x}, y, {GRAY: x[:4], DEPTH: x[:4]}, y[:4]), cfg, backbone
        )
        after = block_bytes(result.model)
        changed = {name for name in before if after[name] != before[name]}
        assert changed and all(name.startswith("head.") for name in changed)

    def test_single_class_rejected(self, rng):
        cfg = mini_config()
        x = rng.normal(size=(8, 16, 16)).astype(np.float32)
        with pytest.raises(FitError):
            train(TrainData({GRAY: x, DEPTH: x}, np.ones(8, dtype=int),
                            {GRAY: x, DEPTH: x}, np.ones(8, dtype=int)), cfg)

    def test_deterministic_scores(self):
        cfg = mini_config(epochs=2)
        rng = np.random.default_rng(5)
        x, y = separable_frames(rng, 24, 16)
        data = TrainData({GRAY: x, DEPTH: x}, y, {GRAY: x[:8], DEPTH: x[:8]}, y[:8])
        r1 = train(data, cfg)
        r2 = train(data, cfg)
        s1 = predict(r1.model, {GRAY: x, DEPTH: x})
        s2 = predict(r2.model, {GRAY: x, DEPTH: x})
        assert np.array_equal(s1, s2)
        assert block_bytes(r1.model) == block_bytes(r2.model)

    def test_flip_coin_is_per_sample(self, monkeypatch):
        calls = []
        import mcpad.mccnn as mod

        original = mod.flip_decision

        def tracing(seed, epoch, sample_index, prob):
            calls.append((epoch, sample_index))
            return original(seed, epoch, sample_index, prob)

        monkeypatch.setattr(mod, "flip_decision", tracing)
        cfg = mini_config(epochs=1, channels=(GRAY, DEPTH, ChannelId.INFRARED))
        rng = np.random.default_rng(6)
        x, y = separable_frames(rng, 12, 16)
        frames = {ch: x for ch in cfg.channels}
        train(TrainData(frames, y, {ch: x[:4] for ch in cfg.channels}, y[:4]), cfg)
        # one coin per (epoch, sample): no duplicates regardless of channel count
        assert len(calls) == len(set(calls)) == 12

    def test_flip_decision_deterministic(self):
        assert flip_decision(7, 3, 11, 0.5) == flip_decision(7, 3, 11, 0.5)
        assert flip_decision(7, 0, 0, 0.0) is False
        assert flip_decision(7, 0, 0, 1.0) is True


@pytest.mark.skipif(ad._blas_thread_setter() is None or len(os.sched_getaffinity(0)) < 2,
                    reason="needs numpy's bundled OpenBLAS and two CPUs")
class TestBlasThreads:
    def test_training_and_scores_do_not_depend_on_blas_threads(self):
        """At 32 px and base width 16, OpenBLAS splits the C1 and B1 GEMMs
        between threads."""
        cfg = mini_config(input_size=32, base_width=16, embedding_dim=16, epochs=1)
        x, y = separable_frames(np.random.default_rng(8), 16, 32)
        depth = np.ascontiguousarray(x[:, ::-1])
        data = TrainData({GRAY: x, DEPTH: depth}, y, {GRAY: x[:8], DEPTH: depth[:8]}, y[:8])

        def run():
            result = train(data, cfg)
            scores = predict(result.model, {GRAY: x, DEPTH: depth})
            return block_bytes(result.model), result.history, result.best_epoch, scores.tobytes()

        assert at_blas_threads(1, run) == at_blas_threads(len(os.sched_getaffinity(0)), run)


class TestEpochSelection:
    def test_best_epoch_is_first_dev_acer_minimum(self):
        # Labels carry no signal, so dev ACER moves between epochs
        # (43.75, 37.5, then 31.25 four times).
        rng = np.random.default_rng(11)
        x, y = separable_frames(rng, 32, 16, signal=False)
        xd, yd = separable_frames(rng, 16, 16, signal=False)
        cfg = mini_config(seed=1, learning_rate=3e-3, epochs=6)
        result = train(TrainData({GRAY: x, DEPTH: x}, y, {GRAY: xd, DEPTH: xd}, yd), cfg)
        acers = [record["dev_acer"] for record in result.history]
        assert len(set(acers)) > 1 and acers.count(min(acers)) > 1
        assert all(0.0 <= a <= 100.0 for a in acers) and max(acers) > 1.0  # percent
        assert result.best_epoch == int(np.argmin(acers))
        assert result.best_dev_acer == min(acers)
        # the returned weights are the selected epoch's
        scores = predict(result.model, {GRAY: xd, DEPTH: xd})
        tau = threshold_from_bonafide(scores[yd == 1], cfg.bpcer_target)
        assert tau == result.history[result.best_epoch]["dev_tau"]


class TestDevScores:
    """``train`` returns the dev scores of the model it returns, equal to
    scoring dev again with ``predict``."""

    def _data(self, n_dev):
        rng = np.random.default_rng(21)
        x, y = separable_frames(rng, 24, 16)
        xd, yd = separable_frames(rng, n_dev, 16)
        return TrainData({GRAY: x, DEPTH: x}, y, {GRAY: xd, DEPTH: xd}, yd)

    # 200 dev frames: embedding chunks of 128 and scoring batches of 64 split
    # the split at different rows
    @pytest.mark.parametrize("adapt", [frozenset({"C1", "B1"}), frozenset()])
    def test_equal_predict_over_dev(self, adapt):
        data = self._data(200)
        cfg = mini_config(adapt=adapt, epochs=2)
        result = train(data, cfg)
        assert result.model.dtype == np.float32 and result.best_epoch >= 0
        assert result.dev_scores.dtype == np.float64
        assert np.array_equal(result.dev_scores, predict(result.model, data.dev_x))

    def test_no_selected_epoch_scores_final_weights(self, monkeypatch):
        import mcpad.mccnn as mod

        monkeypatch.setattr(mod, "error_rates", lambda scores, bona, tau: (float("nan"),) * 2)
        data = self._data(20)
        result = train(data, mini_config(epochs=2))
        assert result.best_epoch == -1
        assert np.array_equal(result.dev_scores, predict(result.model, data.dev_x))


class TestPretraining:
    def test_backbone_shapes(self):
        cfg = mini_config()
        rng = np.random.default_rng(7)
        x, y = separable_frames(rng, 24, 16)
        backbone, losses = pretrain_reference(x, y, cfg, epochs=2)
        reference = init_backbone(cfg)
        assert set(backbone) == set(GROUPS)
        for group in GROUPS:
            for name, arr in backbone[group].items():
                assert arr.shape == reference[group][name].shape
        assert len(losses) == 2

    def test_loss_halves_on_separable_set(self):
        cfg = mini_config(input_size=16)
        rng = np.random.default_rng(8)
        x, y = separable_frames(rng, 48, 16)
        _, losses = pretrain_reference(x, y, cfg, epochs=25)
        assert losses[-1] <= 0.5 * losses[0]

    def test_same_seed_byte_identical(self):
        cfg = mini_config()
        rng = np.random.default_rng(9)
        x, y = separable_frames(rng, 16, 16)
        b1, _ = pretrain_reference(x, y, cfg, epochs=1)
        b2, _ = pretrain_reference(x, y, cfg, epochs=1)
        for group in GROUPS:
            for name in b1[group]:
                assert np.array_equal(b1[group][name], b2[group][name])

    def test_single_class_rejected(self, rng):
        with pytest.raises(FitError):
            pretrain_reference(rng.normal(size=(8, 16, 16)), np.ones(8, dtype=int), mini_config())


class TestSerialization:
    def test_round_trip(self, tmp_path, rng):
        cfg = mini_config()
        model = build_model(cfg)
        save_model(model, tmp_path / "m.mcnn")
        loaded = load_model(tmp_path / "m.mcnn")
        assert loaded.config == cfg
        frames = {ch: rng.normal(size=(2, 16, 16)).astype(np.float32) for ch in cfg.channels}
        assert np.allclose(forward(model, frames).data, forward(loaded, frames).data, atol=1e-6)
        assert block_bytes(model) == block_bytes(loaded)

    def test_reload_predicts_bit_exact(self, tmp_path):
        cfg = mini_config()
        rng = np.random.default_rng(5)
        x, y = separable_frames(rng, 24, 16)
        frames = {GRAY: x, DEPTH: x}
        result = train(TrainData(frames, y, {GRAY: x[:8], DEPTH: x[:8]}, y[:8]), cfg)
        save_model(result.model, tmp_path / "m.mcnn")
        loaded = load_model(tmp_path / "m.mcnn")
        assert np.array_equal(predict(loaded, frames), predict(result.model, frames))

    def test_incomplete_config_echo_rejected(self, tmp_path):
        save_model(build_model(mini_config()), tmp_path / "m.mcnn")
        blob = (tmp_path / "m.mcnn").read_bytes()
        (length,) = struct.unpack_from("<I", blob, 5)
        echo = json.loads(blob[9 : 9 + length])
        del echo["seed"]
        cut = json.dumps(echo).encode()
        (tmp_path / "cut.mcnn").write_bytes(blob[:5] + struct.pack("<I", len(cut)) + cut + blob[9 + length :])
        with pytest.raises(ValueError):
            load_model(tmp_path / "cut.mcnn")

    @pytest.mark.parametrize("change, block", [("missing", "dsu.depth.B1.conv_b"), ("extra", "head.fc3_w")])
    def test_block_set_mismatch_rejected(self, tmp_path, change, block):
        model = build_model(mini_config())
        if change == "missing":
            del model.params[block]
        else:
            model.params[block] = ad.parameter(np.zeros(2, dtype=np.float32))
        save_model(model, tmp_path / "m.mcnn")
        with pytest.raises(ValueError, match=re.escape(f"{change} ['{block}']")):
            load_model(tmp_path / "m.mcnn")

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad.mcnn").write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(ValueError):
            load_model(tmp_path / "bad.mcnn")


class TestFramesToInput:
    def test_range(self):
        frames = np.array([[[0, 127, 255]]], dtype=np.uint8)
        out = frames_to_input(frames)
        assert out.dtype == np.float32
        assert out.min() >= -1.0 and out.max() <= 1.0


class TestEndToEndSynthetic:
    def test_learns_depth_signal(self):
        cfg = SynthConfig(
            bonafide_clients=4,
            attack_instruments={AttackType.PRINT: 4},
            frames_per_sample=6,
            image_size=20,
            signal_channels=frozenset({DEPTH}),
            seed=21,
        )
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            manifest = synth_generate(cfg, tmp)
            from mcpad.preprocess import AlignTargets, landmarks_path, load_landmarks, preprocess_sample

            targets = AlignTargets.for_size(16)
            frames, labels = [], []
            for entry in manifest:
                raw = read_sample(entry.path, meta=entry.meta)
                processed, _ = preprocess_sample(raw, load_landmarks(landmarks_path(entry.path)), targets)
                frames.append(frames_to_input(processed.channels[DEPTH]))
                labels.extend([1 if entry.meta.is_bonafide else 0] * processed.frame_count(DEPTH))
        x = np.concatenate(frames)
        y = np.array(labels)
        net = mini_config(channels=(DEPTH,), input_size=16, epochs=6, seed=2)
        result = train(TrainData({DEPTH: x}, y, {DEPTH: x}, y), net)
        scores = predict(result.model, {DEPTH: x})
        assert scores[y == 1].min() > scores[y == 0].max()
