import json
import os
import re
import struct
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mcpad.autodiff as ad
import mcpad.mccnn as mccnn
from mcpad.autodiff import Tensor
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
    trunk_block_samples,
)

from oracles import (
    at_blas_threads,
    block_bytes,
    branch_forward_whole_batch,
    conv2d_im2col,
    grad_check,
    mse_loss,
    predict_float,
    pretrain_reference_float,
    train_float,
)

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


def eight_bit(x):
    """The uint8 frames whose ``frames_to_input`` is nearest ``x``."""
    return np.clip(np.rint(x * mccnn.INPUT_SCALE + mccnn.INPUT_SHIFT), 0, 255).astype(np.uint8)


def separable_frames(rng, n, size, signal=True):
    """8-bit gray frames where class 1 has a centered bright square."""
    x = rng.normal(0, 0.2, (n, size, size)).astype(np.float32)
    y = rng.integers(0, 2, n)
    if signal:
        q = size // 4
        for i in range(n):
            if y[i] == 1:
                x[i, q : 3 * q, q : 3 * q] += 1.0
    return eight_bit(x), y


def mapped(frames):
    return {ch: frames_to_input(stack) for ch, stack in frames.items()}


def fresh_model(cfg, dtype=np.float32):
    """A model built from ``cfg``'s seeded backbone."""
    return build_model(cfg, init_backbone(cfg), dtype)


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
            model = fresh_model(cfg)
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
        model = fresh_model(cfg)
        for ch in cfg.channels:
            emb = branch_forward(model, ch, rng.normal(size=(3, 16, 16)))
            assert emb.data.shape == (3, cfg.embedding_dim)

    def test_unadapted_branches_share_function(self, rng):
        cfg = mini_config(adapt=frozenset())
        model = fresh_model(cfg)
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
        result = train(data, cfg, fresh_model(cfg))
        frame = rng.normal(size=(1, 16, 16))
        gray = branch_forward(result.model, GRAY, frame).data
        depth = branch_forward(result.model, DEPTH, frame).data
        assert not np.array_equal(gray, depth)

    def test_frozen_forward_keeps_no_graph(self, rng, monkeypatch):
        model = fresh_model(mini_config())
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
        assert all(ref() is None for ref in activations[4:7])  # the graph keeps masks, not outputs
        assert activations[7]() is depth.data

    def test_missing_channel_rejected(self, rng):
        model = fresh_model(mini_config())
        for run in (forward, predict):
            with pytest.raises(ValueError, match="missing channels"):
                run(model, {GRAY: rng.normal(size=(1, 16, 16))})

    def test_probability_range(self, rng):
        model = fresh_model(mini_config())
        frames = {ch: rng.normal(size=(5, 16, 16)) for ch in model.config.channels}
        p = forward(model, frames).data
        assert p.ndim == 1 and p.shape == (5,)
        assert np.all((p > 0) & (p < 1))


def _trunk_model(kind: str, dtype, seed: int):
    """A mini model whose DEPTH branch adapts the groups ``kind`` names
    ("C1B1", "none", "all"), or, for "pretrain", the all-trainable gray
    proxy that ``pretrain_reference`` trains."""
    if kind == "pretrain":
        cfg = mini_config(channels=(GRAY,), adapt=frozenset(), seed=seed)
        model = fresh_model(cfg, dtype=dtype)
        for key, tensor in model.params.items():
            if key.startswith("shared."):
                model.params[key] = ad.parameter(tensor.data)
        return model
    adapt = {"C1B1": {"C1", "B1"}, "none": set(), "all": set(GROUPS)}[kind]
    return fresh_model(mini_config(adapt=frozenset(adapt), seed=seed), dtype=dtype)


class TestTrunkBlocks:
    """``branch_forward`` runs the C1 -> B1 -> G1 trunk over blocks of whole
    samples and joins the pooled G1 blocks; its embedding and every
    trainable gradient equal the whole-batch trunk's byte for byte."""

    @given(dtype=st.sampled_from([np.float32, np.float64]), n=st.integers(1, 9),
           block=st.sampled_from([1, 2, 3, 4]), kind=st.sampled_from(["C1B1", "none", "all", "pretrain"]),
           seed=st.integers(0, 2**16))
    def test_matches_whole_batch(self, dtype, n, block, kind, seed):
        """Blocks of 1, 2, 3 or 4 samples over 1-9 frames: one block, several,
        and a ragged last block."""
        rng = np.random.default_rng(seed)
        frames = rng.uniform(-1, 1, (n, 16, 16)).astype(dtype)
        cfg = _trunk_model(kind, dtype, seed).config
        sample_bytes = 2 * cfg.base_width * cfg.input_size**2 * np.dtype(dtype).itemsize
        targets = rng.normal(size=(n, cfg.embedding_dim))
        convs = []

        def counting_conv2d(*args, _conv2d=ad.conv2d, **kwargs):
            convs.append(args[0].shape[0])
            return _conv2d(*args, **kwargs)

        def run(branch):
            model = _trunk_model(kind, dtype, seed)
            embeddings = []
            for channel in cfg.channels:
                emb = branch(model, channel, frames)
                embeddings.append(emb.data.tobytes())
                if emb.requires_grad:
                    mse_loss(emb, targets).backward()
            grads = {key: None if t.grad is None else (t.grad.dtype, t.grad.tobytes())
                     for key, t in model.params.items()}
            return embeddings, grads, model

        with mock.patch.object(mccnn, "TRUNK_BLOCK_BYTES", block * sample_bytes), \
                mock.patch.object(ad, "conv2d", counting_conv2d):
            assert trunk_block_samples(cfg, dtype) == block
            embeddings, grads, model = run(branch_forward)
        blocks = [min(block, n - lo) for lo in range(0, n, block)]
        assert convs == [size for _ in cfg.channels for size in blocks for _ in range(3)]
        ref_embeddings, ref_grads, _ = run(branch_forward_whole_batch)
        assert embeddings == ref_embeddings
        assert grads == ref_grads
        trainable = {key for key, _ in model.trainable() if not key.startswith("head.")}
        assert trainable == {key for key, g in grads.items() if g is not None}

    @pytest.mark.parametrize("shape", [(1, 32, 5, 64, 2), (16, 32, 3, 32, 1), (16, 48, 3, 16, 1)],
                             ids=["C1", "B1", "G1"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conv_blocks_add_whole_batch_sums(self, rng, shape, dtype):
        """At the default network's conv shapes (input channels, filters,
        kernel, size, padding), conv2d run over blocks of two samples adds
        into its leaves the bytes of numpy's whole-batch weight and bias
        sums, which the trunk took before it ran in blocks."""
        c, f, k, size, padding = shape
        weight = rng.normal(size=(f, c, k, k)).astype(dtype)
        bias = rng.normal(size=f).astype(dtype)
        for n in (1, 2, 3, 9, 33):
            x = rng.normal(size=(n, c, size, size)).astype(dtype)
            grad = rng.normal(size=(n, f, size, size)).astype(dtype)
            leaves = Tensor(weight, requires_grad=True), Tensor(bias, requires_grad=True)
            for lo in range(0, n, 2):
                ad.conv2d(Tensor(x[lo : lo + 2]), *leaves, padding=padding)._backward(grad[lo : lo + 2])
            ref = Tensor(weight, requires_grad=True), Tensor(bias, requires_grad=True)
            conv2d_im2col(Tensor(x), *ref, padding=padding)._backward(grad)
            for t, r in zip(leaves, ref):
                assert t.grad.tobytes() == r.grad.tobytes()

    @pytest.mark.parametrize("frames", [np.zeros((0, 16, 16)), np.float32(0.0), np.zeros((1, 1, 16, 16))],
                             ids=["empty", "0-d", "4-d"])
    def test_bad_batch_rejected(self, frames):
        with pytest.raises(ValueError, match="nonempty batch"):
            branch_forward(fresh_model(mini_config()), GRAY, frames)

    def test_default_block_size(self):
        assert trunk_block_samples(McCnnConfig(), np.float32) == 2
        assert trunk_block_samples(McCnnConfig(), np.float64) == 1

    def test_dsu_branch_memory_at_batch_32(self):
        """Forward and backward of one DSU branch at the default
        configuration, batch 32: the traced peak stays under the bytes of
        the whole batch's C1 conv output, so no batch-sized trunk array is
        ever alive."""
        cfg = McCnnConfig()
        model = fresh_model(cfg)
        frames = np.random.default_rng(0).uniform(-1, 1, (32, 64, 64)).astype(np.float32)
        targets = np.zeros((32, cfg.embedding_dim), dtype=np.float32)
        branch_forward(model, DEPTH, frames[:2])  # first-call set-up outside the trace
        c1_output = 32 * 2 * cfg.base_width * 64 * 64 * 4
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            mse_loss(branch_forward(model, DEPTH, frames), targets).backward()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert model.params["dsu.depth.C1.conv_w"].grad is not None
        assert peak < c1_output

    def test_dsu_branch_graph_bytes_at_batch_32(self):
        """The bytes that one DSU branch's forward leaves in the graph at the
        default configuration, batch 32, stay under what the shapes call for:
        the float32 C1 and B1 conv inputs (their weights train), one bit per
        MFM output, two bits of pooling tap per pooled value, and 4 KiB per
        graph node. One byte per MFM output (2.4 MB more) or per pooled value
        (0.53 MB more) exceeds it."""
        cfg = McCnnConfig()
        n, s, b, e = 32, cfg.input_size, cfg.base_width, cfg.embedding_dim
        model = fresh_model(cfg)
        frames = np.random.default_rng(0).integers(0, 256, (n, s, s), dtype=np.uint8)
        branch_forward(model, DEPTH, frames_to_input(frames[:2]))  # first-call set-up outside the trace
        mfm_outputs = [n * b * s * s, n * b * (s // 2) ** 2, n * (3 * b // 2) * (s // 4) ** 2, n * e]
        pooled = [n * b * (s // 2) ** 2, n * b * (s // 4) ** 2, n * (3 * b // 2) * (s // 8) ** 2]
        conv_inputs = 4 * (n * s * s + pooled[0])
        blocks = -(-n // trunk_block_samples(cfg, np.float32))
        nodes = 9 * blocks + 4  # conv, MFM and pool per group and block; concat, flatten, EMB, MFM
        taps = sum(-(-m // 4) for m in pooled)  # two bits per pooled value
        bound = conv_inputs + sum(-(-m // 8) for m in mfm_outputs) + taps + 4096 * nodes
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            emb = branch_forward(model, DEPTH, frames_to_input(frames))
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert emb.requires_grad
        assert kept < bound


class TestPredict:
    """Scoring runs through a frozen view of the model: the same arrays, no
    graph, and the same numbers as the graph-building forward pass."""

    def _model_and_frames(self, rng, dtype=np.float32):
        cfg = mini_config(channels=(GRAY, DEPTH, ChannelId.INFRARED))
        model = fresh_model(cfg, dtype=dtype)
        frames = {ch: rng.integers(0, 256, size=(5, 16, 16), dtype=np.uint8) for ch in cfg.channels}
        return model, frames

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_forward_bit_for_bit(self, rng, dtype):
        model, frames = self._model_and_frames(rng, dtype)
        assert model.trainable() and model.block(DEPTH, "C1")["conv_w"].requires_grad
        assert np.array_equal(predict(model, frames), forward(model, mapped(frames)).data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_forward_over_several_trunk_blocks(self, rng, dtype, monkeypatch):
        model, frames = self._model_and_frames(rng, dtype)
        monkeypatch.setattr(mccnn, "TRUNK_BLOCK_BYTES", 2 * 8 * 16 * 16 * np.dtype(dtype).itemsize)
        assert trunk_block_samples(model.config, dtype) == 2  # 5 frames in 3 blocks
        assert np.array_equal(predict(model, frames), forward(model, mapped(frames)).data)

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


class TestEightBitFrames:
    """Training and scoring take the uint8 frames that ``preprocess`` writes
    and map each batch to network input; they equal the float path that
    mapped whole splits up front (``oracles.train_float``) byte for byte."""

    @pytest.mark.parametrize("call", ["TrainData", "train", "predict", "pretrain_reference"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint16])
    def test_other_dtypes_rejected(self, call, dtype):
        cfg = mini_config()
        x, y = separable_frames(np.random.default_rng(2), 8, 16)
        other = x.astype(dtype)
        with pytest.raises(ValueError, match="frames must be uint8"):
            if call == "TrainData":
                TrainData({GRAY: x, DEPTH: x}, y, {GRAY: x, DEPTH: other}, y)
            elif call == "train":
                train(TrainData({GRAY: x, DEPTH: other}, y, {GRAY: x, DEPTH: x}, y), cfg, fresh_model(cfg))
            elif call == "predict":
                predict(fresh_model(cfg), {GRAY: x, DEPTH: other})
            else:
                pretrain_reference(other, y, cfg)

    # Small chunks so that embedding, scoring and flipping run over ragged
    # chunks of the 24 train and 30 dev frames.
    @pytest.mark.parametrize("adapt", [frozenset({"C1", "B1"}), frozenset()])
    def test_train_and_predict_equal_float_oracle(self, monkeypatch, adapt):
        monkeypatch.setattr(mccnn, "EMBED_CHUNK", 7)
        monkeypatch.setattr(mccnn, "PREDICT_BATCH", 9)
        rng = np.random.default_rng(31)
        x, y = separable_frames(rng, 24, 16)
        xd, yd = separable_frames(rng, 30, 16)
        depth, depth_dev = np.ascontiguousarray(x[:, ::-1]), np.ascontiguousarray(xd[:, ::-1])
        cfg = mini_config(adapt=adapt, epochs=3)
        backbone = init_backbone(cfg)
        train_x, dev_x = {GRAY: x, DEPTH: depth}, {GRAY: xd, DEPTH: depth_dev}
        result = train(TrainData(train_x, y, dev_x, yd), cfg, build_model(cfg, backbone))
        ref = train_float(mapped(train_x), y, mapped(dev_x), yd, cfg, backbone)
        assert block_bytes(result.model) == block_bytes(ref.model)
        assert result.history == ref.history
        assert (result.best_epoch, result.best_dev_acer) == (ref.best_epoch, ref.best_dev_acer)
        assert result.dev_scores.tobytes() == ref.dev_scores.tobytes()
        assert predict(result.model, dev_x).tobytes() == predict_float(ref.model, mapped(dev_x)).tobytes()

    def test_pretrain_equals_float_oracle(self):
        cfg = mini_config(pretrain_epochs=2)
        x, y = separable_frames(np.random.default_rng(32), 20, 16)
        backbone, losses = pretrain_reference(x, y, cfg)
        ref_backbone, ref_losses = pretrain_reference_float(frames_to_input(x), y, cfg)
        assert losses == ref_losses
        for group in GROUPS:
            for name, arr in backbone[group].items():
                assert arr.tobytes() == ref_backbone[group][name].tobytes(), (group, name)


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
        model = fresh_model(cfg, dtype=np.float64)
        frames = {ch: rng.normal(size=(2, 8, 8)) for ch in cfg.channels}
        assert grad_check(model, frames, np.array([1, 0])) < 1e-3

    def test_zero_input_batch_defined(self):
        cfg = mini_config(input_size=8, embedding_dim=4, base_width=2, adapt=frozenset())
        model = fresh_model(cfg, dtype=np.float64)
        frames = {ch: np.zeros((2, 8, 8)) for ch in cfg.channels}
        err = grad_check(model, frames, np.array([1, 0]))
        assert np.isfinite(err)


class TestTraining:
    def test_frozen_blocks_byte_identical(self):
        cfg = mini_config(epochs=2, adapt=frozenset({"C1"}))
        rng = np.random.default_rng(3)
        x, y = separable_frames(rng, 24, 16)
        model = fresh_model(cfg)
        before = block_bytes(model)
        data = TrainData(
            train_x={GRAY: x, DEPTH: x}, train_y=y,
            dev_x={GRAY: x[:8], DEPTH: x[:8]}, dev_y=y[:8],
        )
        result = train(data, cfg, model)
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
        model = fresh_model(cfg)
        before = block_bytes(model)
        result = train(
            TrainData({GRAY: x, DEPTH: x}, y, {GRAY: x[:4], DEPTH: x[:4]}, y[:4]), cfg, model
        )
        after = block_bytes(result.model)
        changed = {name for name in before if after[name] != before[name]}
        assert changed and all(name.startswith("head.") for name in changed)

    def test_single_class_rejected(self, rng):
        cfg = mini_config()
        x = rng.integers(0, 256, size=(8, 16, 16), dtype=np.uint8)
        with pytest.raises(FitError):
            train(TrainData({GRAY: x, DEPTH: x}, np.ones(8, dtype=int),
                            {GRAY: x, DEPTH: x}, np.ones(8, dtype=int)), cfg, fresh_model(cfg))

    def test_deterministic_scores(self):
        cfg = mini_config(epochs=2)
        rng = np.random.default_rng(5)
        x, y = separable_frames(rng, 24, 16)
        data = TrainData({GRAY: x, DEPTH: x}, y, {GRAY: x[:8], DEPTH: x[:8]}, y[:8])
        r1 = train(data, cfg, fresh_model(cfg))
        r2 = train(data, cfg, fresh_model(cfg))
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
        train(TrainData(frames, y, {ch: x[:4] for ch in cfg.channels}, y[:4]), cfg, fresh_model(cfg))
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
            result = train(data, cfg, fresh_model(cfg))
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
        result = train(TrainData({GRAY: x, DEPTH: x}, y, {GRAY: xd, DEPTH: xd}, yd), cfg, fresh_model(cfg))
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
        result = train(data, cfg, fresh_model(cfg))
        assert result.model.dtype == np.float32 and result.best_epoch >= 0
        assert result.dev_scores.dtype == np.float64
        assert np.array_equal(result.dev_scores, predict(result.model, data.dev_x))


class TestTrainLoss:
    def test_unweighted_mean_of_batch_losses(self):
        """``train_loss`` averages the batch losses with equal weight, and a
        one-class batch's weighted BCE is half its plain BCE. At learning
        rate 0 every probability stays 1/2: the batch of four (both classes)
        loses log 2 and the one-sample last batch log 2 / 2, so the epoch
        reads 0.75 log 2 (a frame-weighted mean would read 0.9 log 2)."""
        cfg = mini_config(batch_size=4, learning_rate=0.0, flip_prob=0.0)
        labels = np.array([1, 1, 0, 0, 0])
        weight, bias = ad.parameter(np.zeros((1, 1))), ad.parameter(np.zeros(1))

        def batch_prob(idx, flips):
            logits = ad.linear(Tensor(np.zeros((len(idx), 1))), weight, bias)
            return ad.reshape(ad.sigmoid(logits), (-1,))

        epochs = list(mccnn._adam_epochs([weight, bias], labels, cfg, 0, 3, batch_prob))
        assert [epoch for epoch, _ in epochs] == [0, 1, 2]
        for _, loss in epochs:
            assert loss == pytest.approx(0.75 * np.log(2.0), rel=1e-12)


class TestPretraining:
    def test_backbone_shapes(self):
        cfg = mini_config(pretrain_epochs=2)
        rng = np.random.default_rng(7)
        x, y = separable_frames(rng, 24, 16)
        backbone, losses = pretrain_reference(x, y, cfg)
        reference = init_backbone(cfg)
        assert set(backbone) == set(GROUPS)
        for group in GROUPS:
            for name, arr in backbone[group].items():
                assert arr.shape == reference[group][name].shape
        assert len(losses) == 2

    def test_loss_halves_on_separable_set(self):
        cfg = mini_config(input_size=16, pretrain_epochs=25)
        rng = np.random.default_rng(8)
        x, y = separable_frames(rng, 48, 16)
        _, losses = pretrain_reference(x, y, cfg)
        assert losses[-1] <= 0.5 * losses[0]

    def test_same_seed_byte_identical(self):
        cfg = mini_config(pretrain_epochs=1)
        rng = np.random.default_rng(9)
        x, y = separable_frames(rng, 16, 16)
        b1, _ = pretrain_reference(x, y, cfg)
        b2, _ = pretrain_reference(x, y, cfg)
        for group in GROUPS:
            for name in b1[group]:
                assert np.array_equal(b1[group][name], b2[group][name])

    def test_single_class_rejected(self, rng):
        with pytest.raises(FitError):
            pretrain_reference(rng.integers(0, 256, size=(8, 16, 16), dtype=np.uint8), np.ones(8, dtype=int),
                               mini_config())


class TestSerialization:
    def test_round_trip(self, tmp_path, rng):
        cfg = mini_config()
        model = fresh_model(cfg)
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
        result = train(TrainData(frames, y, {GRAY: x[:8], DEPTH: x[:8]}, y[:8]), cfg, fresh_model(cfg))
        save_model(result.model, tmp_path / "m.mcnn")
        loaded = load_model(tmp_path / "m.mcnn")
        assert np.array_equal(predict(loaded, frames), predict(result.model, frames))

    def test_incomplete_config_echo_rejected(self, tmp_path):
        save_model(fresh_model(mini_config()), tmp_path / "m.mcnn")
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
        model = fresh_model(mini_config())
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
        )
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            manifest = synth_generate(cfg, 21, tmp)
            from mcpad.preprocess import AlignTargets, landmarks_path, load_landmarks, preprocess_sample

            targets = AlignTargets.for_size(16)
            frames, labels = [], []
            for entry in manifest:
                raw = read_sample(entry.path, meta=entry.meta)
                processed, _ = preprocess_sample(raw, load_landmarks(landmarks_path(entry.path)), targets)
                frames.append(processed.channels[DEPTH])
                labels.extend([int(entry.meta.attack_type is AttackType.NONE)] * processed.frame_count(DEPTH))
        x = np.concatenate(frames)
        y = np.array(labels)
        net = mini_config(channels=(DEPTH,), input_size=16, epochs=6, seed=2)
        result = train(TrainData({DEPTH: x}, y, {DEPTH: x}, y), net, fresh_model(net))
        scores = predict(result.model, {DEPTH: x})
        assert scores[y == 1].min() > scores[y == 0].max()
