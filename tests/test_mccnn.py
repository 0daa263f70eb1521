import json
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

from oracles import block_bytes, grad_check

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
            assert model.head["fc1_w"].data.shape == (10, len(channels) * cfg.embedding_dim)

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
        with pytest.raises(ValueError):
            forward(model, {GRAY: rng.normal(size=(1, 16, 16))})

    def test_probability_range(self, rng):
        model = build_model(mini_config())
        frames = {ch: rng.normal(size=(5, 16, 16)) for ch in model.config.channels}
        p = forward(model, frames).data
        assert p.ndim == 1 and p.shape == (5,)
        assert np.all((p > 0) & (p < 1))


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
