import ctypes
import multiprocessing
import os
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mcpad.autodiff as ad
from mcpad.autodiff import Tensor
from mcpad.dataset import ChannelId
from mcpad.mccnn import McCnnConfig, branch_forward, build_model, forward

from oracles import at_blas_threads, check_gradients, conv2d_im2col, mse_loss


def _reference_maxpool2d(x: np.ndarray):
    """Window copy, argmax and take_along_axis: (output, backward(grad) -> dx)."""
    n, c, h, w = x.shape
    h2, w2 = h // 2, w // 2
    win = (
        x[:, :, : 2 * h2, : 2 * w2]
        .reshape(n, c, h2, 2, w2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, h2, w2, 4)
    )
    idx = np.argmax(win, axis=-1)
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]

    def backward(grad):
        dwin = np.zeros_like(win)
        np.put_along_axis(dwin, idx[..., None], grad[..., None], axis=-1)
        dx = np.zeros_like(x)
        dx[:, :, : 2 * h2, : 2 * w2] = (
            dwin.reshape(n, c, h2, w2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, 2 * h2, 2 * w2)
        )
        return dx

    return out, backward


def _reference_mfm(x: np.ndarray):
    """``np.where`` over the channel halves: (output, backward(grad) -> dx)."""
    k = x.shape[1] // 2
    first, second = x[:, :k], x[:, k:]
    take_first = first >= second
    out = np.where(take_first, first, second)

    def backward(grad):
        dx = np.zeros_like(x)
        dx[:, :k] = grad * take_first
        dx[:, k:] = grad * ~take_first
        return dx

    return out, backward


def _small_ints(lo: int, hi: int):
    return st.integers(lo, hi).map(float)


@st.composite
def _tie_heavy_stacks(draw, channel_step: int = 1):
    """(N, C, H, W) float32 or float64 stacks of a few integer values, odd
    and even H and W."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = (draw(st.integers(1, 3)), channel_step * draw(st.integers(1, 3)),
             draw(st.integers(2, 9)), draw(st.integers(2, 9)))
    return draw(arrays(dtype, shape, elements=_small_ints(-2, 2)))


class TestMfm:
    def test_elementwise_max(self):
        x = Tensor(np.array([[1.0, -2.0, 0.0, 3.0]]).reshape(1, 4, 1, 1))
        out = ad.mfm(x)
        assert out.data.reshape(-1).tolist() == [1.0, 3.0]

    def test_tie_routes_to_first_half(self):
        x = ad.parameter(np.array([[2.0, 5.0, 2.0, 5.0]]).reshape(1, 4, 1, 1))
        loss = mse_loss(ad.flatten(ad.mfm(x)), np.zeros((1, 2)))
        loss.backward()
        grads = x.grad.reshape(-1)
        assert grads[0] != 0 and grads[1] != 0
        assert grads[2] == 0 and grads[3] == 0

    def test_gradient_mass_lands_once(self, rng):
        x = ad.parameter(rng.normal(size=(2, 4, 3, 3)))
        out = ad.mfm(x)
        out.backward()  # seeds ones: per output element, one unit of gradient
        first, second = x.grad[:, :2], x.grad[:, 2:]
        assert np.all(first + second == 1.0)
        assert np.all((first == 0) | (second == 0))

    def test_odd_channels_rejected(self):
        with pytest.raises(ValueError):
            ad.mfm(Tensor(np.zeros((1, 3, 2, 2))))

    def test_finite_difference(self, rng):
        x = ad.parameter(rng.normal(size=(2, 4, 3, 3)))
        target = rng.normal(size=(2, 18))
        err = check_gradients(lambda: mse_loss(ad.flatten(ad.mfm(x)), target), [x])
        assert err < 1e-5


class TestKernelsMatchReference:
    """Pooling and MFM against the window-copy and ``np.where`` kernels:
    equal forward values, byte-equal gradients (ties are the common case)."""

    @given(data=st.data())
    def test_maxpool2d(self, data):
        x = data.draw(_tie_heavy_stacks())
        ref_out, ref_backward = _reference_maxpool2d(x)
        t = ad.parameter(x)
        out = ad.maxpool2d(t)
        assert out.data.dtype == x.dtype
        assert np.array_equal(out.data, ref_out)
        grad = data.draw(arrays(x.dtype, ref_out.shape, elements=_small_ints(-3, 3)))
        out._backward(grad)
        expected = ref_backward(grad)
        assert t.grad.dtype == expected.dtype
        assert t.grad.tobytes() == expected.tobytes()

    @given(data=st.data())
    def test_mfm(self, data):
        x = data.draw(_tie_heavy_stacks(channel_step=2))
        ref_out, ref_backward = _reference_mfm(x)
        t = ad.parameter(x)
        out = ad.mfm(t)
        assert out.data.dtype == x.dtype
        assert np.array_equal(out.data, ref_out)
        grad = data.draw(arrays(x.dtype, ref_out.shape, elements=_small_ints(-3, 3)))
        out._backward(grad)
        expected = ref_backward(grad)
        assert t.grad.dtype == expected.dtype
        assert t.grad.tobytes() == expected.tobytes()

    def test_maxpool2d_nan_window_routes_to_last_tap(self):
        x = np.array([[[[np.nan, 5.0, 1.0, 1.0], [2.0, 3.0, 1.0, 1.0]]]])
        t = ad.parameter(x)
        out = ad.maxpool2d(t)
        out._backward(np.array([[[[7.0, 9.0]]]]))
        assert np.isnan(out.data[0, 0, 0, 0]) and out.data[0, 0, 0, 1] == 1.0
        assert np.array_equal(t.grad, [[[[0.0, 0.0, 9.0, 0.0], [0.0, 7.0, 0.0, 0.0]]]])

    def test_mfm_on_embeddings(self, rng):
        x = rng.integers(-2, 3, size=(5, 8)).astype(np.float32)
        ref_out, ref_backward = _reference_mfm(x)
        t = ad.parameter(x)
        out = ad.mfm(t)
        grad = rng.normal(size=ref_out.shape).astype(np.float32)
        out._backward(grad)
        assert np.array_equal(out.data, ref_out)
        assert t.grad.tobytes() == ref_backward(grad).tobytes()

    @pytest.mark.parametrize("shape", [(1, 2, 3, 3), (3, 6, 5, 7), (5, 6)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mfm_packed_mask_with_ragged_last_byte(self, rng, shape, dtype):
        """MFM keeps its mask bit-packed; at 9, 315 and 15 output elements
        the last byte is partly filled, and the gradient still equals the
        bool-mask oracle's byte for byte."""
        x = rng.integers(-2, 3, size=shape).astype(dtype)  # ties are common
        ref_out, ref_backward = _reference_mfm(x)
        assert ref_out.size % 8 != 0
        t = ad.parameter(x)
        out = ad.mfm(t)
        grad = rng.normal(size=ref_out.shape).astype(dtype)
        out._backward(grad)
        assert np.array_equal(out.data, ref_out)
        assert t.grad.tobytes() == ref_backward(grad).tobytes()


@st.composite
def _conv_cases(draw):
    """Random-valued conv inputs: (x, weight, bias, padding) as arrays,
    with odd and even H/W and every kernel size up to 5x5."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    padding = draw(st.integers(0, 2))
    kh, kw = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    h = max(1, kh - 2 * padding) + draw(st.integers(0, 6))
    w = max(1, kw - 2 * padding) + draw(st.integers(0, 6))
    n, c, f = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, c, h, w)).astype(dtype)
    weight = rng.normal(size=(f, c, kh, kw)).astype(dtype)
    bias = rng.normal(size=f).astype(dtype)
    return x, weight, bias, padding


class TestConvMatchesIm2col:
    """conv2d against the kernel that keeps its columns and folds a column
    gradient back: byte-equal output and gradients. Random values, so a
    changed summation order would show. (Blocks of whole samples are
    covered through the MC-CNN trunk in ``test_mccnn.TestTrunkBlocks``.)"""

    @given(case=_conv_cases(), x_grad=st.booleans(), w_grad=st.booleans(), seed=st.integers(0, 99))
    def test_output_and_gradients(self, case, x_grad, w_grad, seed):
        """conv2d adds its weight and bias gradients into the leaves sample
        by sample where numpy's batch sum does the same, and the oracle
        takes numpy's sums, single-filter and one-weight convs included."""
        x, weight, bias, padding = case

        def run(op):
            leaves = (Tensor(x.copy(), requires_grad=x_grad), Tensor(weight.copy(), requires_grad=w_grad),
                      Tensor(bias.copy(), requires_grad=w_grad))
            out = op(*leaves, padding=padding)
            if out._backward is not None:
                grad = np.random.default_rng(seed).normal(size=out.shape).astype(x.dtype)
                out._backward(grad)
            return out, leaves

        out, leaves = run(ad.conv2d)
        ref_out, ref_leaves = run(conv2d_im2col)
        assert out.data.dtype == x.dtype
        assert out.data.tobytes() == ref_out.data.tobytes()
        assert (out._backward is None) == (not (x_grad or w_grad))
        for t, ref in zip(leaves, ref_leaves):
            assert (t.grad is None) == (ref.grad is None) == (not t.requires_grad)
            if t.grad is not None:
                assert t.grad.dtype == ref.grad.dtype
                assert t.grad.tobytes() == ref.grad.tobytes()


    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_single_filter_batch_sums(self, rng, kernel, dtype):
        """One filter over one channel at 40 samples: a one-value bias
        gradient, and with a 1x1 kernel a one-value weight gradient, which
        numpy sums in one pairwise pass over the batch. A sum in sample
        order rounds differently in most of the eight draws."""
        for _ in range(8):
            x = rng.normal(size=(40, 1, 5, 5)).astype(dtype)
            weight = rng.normal(size=(1, 1, kernel, kernel)).astype(dtype)
            grad = rng.normal(size=(40, 1, 5, 5)).astype(dtype)
            grads = []
            for op in (ad.conv2d, conv2d_im2col):
                leaves = Tensor(weight, requires_grad=True), Tensor(np.zeros(1, dtype=dtype), requires_grad=True)
                op(Tensor(x), *leaves, padding=kernel // 2)._backward(grad)
                grads.append([t.grad.tobytes() for t in leaves])
            assert grads[0] == grads[1]


class TestConv:
    def test_identity_kernel(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 5, 5)))
        w = Tensor(np.ones((1, 1, 1, 1)))
        b = Tensor(np.zeros(1))
        assert np.allclose(ad.conv2d(x, w, b).data, x.data)

    def test_ones_kernel_constant_interior(self):
        x = Tensor(np.full((1, 1, 6, 6), 3.0))
        w = Tensor(np.ones((1, 1, 3, 3)))
        b = Tensor(np.zeros(1))
        out = ad.conv2d(x, w, b)
        assert np.allclose(out.data, 27.0)  # 9 * 3 everywhere in the valid region

    def test_channel_mismatch(self, rng):
        with pytest.raises(ValueError):
            ad.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))), Tensor(np.zeros(1)))

    def test_finite_difference_all_inputs(self, rng):
        x = ad.parameter(rng.normal(size=(2, 2, 5, 5)))
        w = ad.parameter(rng.normal(size=(3, 2, 3, 3)) * 0.5)
        b = ad.parameter(rng.normal(size=3))
        target = rng.normal(size=(2, 3 * 25))

        def loss():
            return mse_loss(ad.flatten(ad.conv2d(x, w, b, padding=1)), target)

        assert check_gradients(loss, [x, w, b]) < 1e-6


class TestPoolLinearSigmoid:
    def test_maxpool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = ad.maxpool2d(x)
        assert out.data.reshape(-1).tolist() == [5.0, 7.0, 13.0, 15.0]

    def test_maxpool_tie_first(self):
        x = ad.parameter(np.full((1, 1, 2, 2), 7.0))
        loss = mse_loss(ad.flatten(ad.maxpool2d(x)), np.zeros((1, 1)))
        loss.backward()
        grads = x.grad.reshape(-1)
        assert grads[0] != 0 and np.all(grads[1:] == 0)

    def test_maxpool_finite_difference(self, rng):
        x = ad.parameter(rng.normal(size=(2, 2, 6, 6)))
        target = rng.normal(size=(2, 2 * 9))
        err = check_gradients(lambda: mse_loss(ad.flatten(ad.maxpool2d(x)), target), [x])
        assert err < 1e-5

    def test_reshape_finite_difference(self, rng):
        # a one-unit sigmoid head (N, 1) read out as (N,) scores
        w = ad.parameter(rng.normal(size=(1, 4)))
        b = ad.parameter(rng.normal(size=1))
        x = ad.parameter(rng.normal(size=(6, 4)))
        target = rng.uniform(0.2, 0.8, size=6)

        def scores():
            return ad.reshape(ad.sigmoid(ad.linear(x, w, b)), (-1,))

        assert scores().data.shape == (6,)
        assert check_gradients(lambda: mse_loss(scores(), target), [x, w, b]) < 1e-5
        assert ad.flatten(Tensor(np.zeros((2, 3, 4, 5)))).data.shape == (2, 60)

    def test_linear_finite_difference_exact(self, rng):
        w = ad.parameter(rng.normal(size=(3, 5)))
        b = ad.parameter(rng.normal(size=3))
        x = Tensor(rng.normal(size=(4, 5)))
        target = rng.normal(size=(4, 3))
        err = check_gradients(lambda: mse_loss(ad.linear(x, w, b), target), [w, b])
        assert err < 1e-7  # quadratic objective: central differences are exact

    def test_sigmoid_range_and_clamp(self):
        x = Tensor(np.array([[-100.0, 0.0, 100.0]]))
        out = ad.sigmoid(x).data
        # inputs are clamped to +-40 first, so extremes equal sigmoid(+-40)
        assert out[0, 0] == 1 / (1 + np.exp(40.0)) > 0
        assert out[0, 1] == 0.5
        assert out[0, 2] == 1 / (1 + np.exp(-40.0))
        # and the gradient beyond the clamp is exactly zero
        xp = ad.parameter(np.array([[100.0]]))
        loss = mse_loss(ad.sigmoid(xp), np.zeros((1, 1)))
        loss.backward()
        assert xp.grad[0, 0] == 0.0

    def test_sigmoid_finite_difference(self, rng):
        w = ad.parameter(rng.normal(size=(2, 3)))
        b = ad.parameter(np.zeros(2))
        x = Tensor(rng.normal(size=(4, 3)))
        target = rng.uniform(0.2, 0.8, size=(4, 2))
        err = check_gradients(lambda: mse_loss(ad.sigmoid(ad.linear(x, w, b)), target), [w, b])
        assert err < 1e-6

    def test_concat_split_gradients(self, rng):
        a = ad.parameter(rng.normal(size=(2, 3)))
        b = ad.parameter(rng.normal(size=(2, 4)))
        target = rng.normal(size=(2, 7))
        err = check_gradients(lambda: mse_loss(ad.concat([a, b], axis=1), target), [a, b])
        assert err < 1e-7


class TestLosses:
    def test_bce_values(self):
        p = Tensor(np.array([0.5]))
        loss = ad.weighted_bce(p, np.array([0.0]), 1.0, 1.0)
        assert float(loss.data) == pytest.approx(np.log(2.0))
        near_one = Tensor(np.array([1.0 - 1e-9]))
        assert float(ad.weighted_bce(near_one, np.array([1.0])).data) == pytest.approx(0.0, abs=1e-6)

    def test_unit_weights_match_plain_bce(self, rng):
        probs = rng.uniform(0.05, 0.95, size=8)
        y = rng.integers(0, 2, size=8).astype(float)
        ours = float(ad.weighted_bce(Tensor(probs), y, 1.0, 1.0).data)
        plain = -np.mean(y * np.log(probs) + (1 - y) * np.log(1 - probs))
        assert ours == pytest.approx(plain)

    def test_bce_clamps_extremes(self):
        p = Tensor(np.array([0.0, 1.0]))
        loss = ad.weighted_bce(p, np.array([1.0, 0.0]))
        assert np.isfinite(float(loss.data))

    def test_bce_finite_difference(self, rng):
        w = ad.parameter(rng.normal(size=(1, 4)) * 0.3)
        b = ad.parameter(np.zeros(1))
        x = Tensor(rng.normal(size=(6, 4)))
        y = rng.integers(0, 2, size=6).astype(float)

        def loss():
            p = ad.flatten(ad.sigmoid(ad.linear(x, w, b)))
            return ad.weighted_bce(p, y, 1.7, 0.6)

        assert check_gradients(loss, [w, b]) < 1e-6


class TestEngine:
    def test_float32_graphs_stay_float32(self, rng):
        x = Tensor(rng.normal(size=(2, 1, 4, 4)).astype(np.float32))
        w = ad.parameter(rng.normal(size=(2, 1, 3, 3)).astype(np.float32))
        b = ad.parameter(np.zeros(2, dtype=np.float32))
        out = ad.maxpool2d(ad.mfm(ad.conv2d(x, w, b, padding=1)))
        assert out.data.dtype == np.float32
        loss = mse_loss(ad.flatten(out), np.zeros((2, 4), dtype=np.float32))
        loss.backward()
        assert w.grad.dtype == np.float32

    def test_grad_accumulates_across_uses(self, rng):
        x = ad.parameter(np.array([[1.0, 2.0]]))
        out = ad.concat([x, x], axis=1)
        loss = mse_loss(out, np.zeros((1, 4)))
        loss.backward()
        expected = 2.0 * np.array([[1.0, 2.0], [1.0, 2.0]]).reshape(1, 4) / 4
        assert np.allclose(x.grad, expected[:, :2] + expected[:, 2:])

    def test_no_graph_without_gradient(self, rng):
        x = Tensor(rng.normal(size=(2, 1, 6, 6)))
        w = Tensor(rng.normal(size=(4, 1, 3, 3)))
        b = Tensor(np.zeros(4))
        out = ad.flatten(ad.maxpool2d(ad.mfm(ad.conv2d(x, w, b, padding=1))))
        assert out._parents == () and out._backward is None and not out.requires_grad

    def test_zero_input_gradients_defined(self):
        w = ad.parameter(np.zeros((1, 3)))
        b = ad.parameter(np.zeros(1))
        x = Tensor(np.zeros((2, 3)))
        p = ad.flatten(ad.sigmoid(ad.linear(x, w, b)))
        loss = ad.weighted_bce(p, np.array([1.0, 0.0]))
        loss.backward()
        assert np.isfinite(w.grad).all() and np.isfinite(b.grad).all()


class TestRetention:
    """A training graph holds gradient nodes and only the arrays each
    backward reads: the inputs of conv2d and linear whose weight trains,
    the masks of mfm, maxpool2d and sigmoid, and the leaf gradients. No
    activation outlives the op that read it."""

    def test_trainable_branch_frees_conv_and_mfm_outputs(self, rng, monkeypatch):
        cfg = McCnnConfig(channels=(ChannelId.GRAY, ChannelId.DEPTH), input_size=16, embedding_dim=8,
                          base_width=4, adapt=frozenset({"C1", "B1", "G1"}), batch_size=4, seed=0)
        model = build_model(cfg)
        outputs = {"conv2d": [], "mfm": []}

        def recording(name):
            op = getattr(ad, name)

            def run(*args, **kwargs):
                out = op(*args, **kwargs)
                outputs[name].append(weakref.ref(out.data))
                return out

            return run

        for name in outputs:
            monkeypatch.setattr(ad, name, recording(name))
        emb = branch_forward(model, ChannelId.DEPTH, rng.uniform(-1, 1, (4, 16, 16)).astype(np.float32))
        assert emb.requires_grad
        assert len(outputs["conv2d"]) == 3 and len(outputs["mfm"]) == 4  # C1, B1, G1 (+ EMB)
        assert all(ref() is None for ref in outputs["conv2d"] + outputs["mfm"][:3])
        assert outputs["mfm"][3]() is emb.data

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", ["mfm", "maxpool2d"])
    def test_mask_ops_keep_under_a_quarter_of_their_input(self, rng, op, dtype):
        source = rng.normal(size=(4, 8, 32, 32)).astype(dtype)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = getattr(ad, op)(Tensor(source.copy(), requires_grad=True))
            backward = out._backward
            del out  # input and output go; what the backward closure reads stays
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert backward is not None
        assert kept < source.nbytes / 4

    def test_conv2d_keeps_no_columns(self, rng):
        x = Tensor(rng.normal(size=(4, 3, 16, 16)).astype(np.float32))
        w = ad.parameter(rng.normal(size=(8, 3, 3, 3)).astype(np.float32))
        b = ad.parameter(np.zeros(8, dtype=np.float32))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = ad.conv2d(x, w, b, padding=1)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        columns = 4 * (3 * 3 * 3) * (16 * 16) * 4  # the (N, C*kh*kw, oh*ow) float32 array
        assert out._backward is not None
        assert kept < out.data.nbytes + columns / 2

    def test_backward_leaves_gradients_on_leaves_only(self, rng):
        cfg = McCnnConfig(channels=(ChannelId.GRAY, ChannelId.DEPTH), input_size=16, embedding_dim=8,
                          base_width=4, adapt=frozenset({"C1", "B1"}), batch_size=4, seed=0)
        model = build_model(cfg)
        frames = {ch: rng.uniform(-1, 1, (4, 16, 16)).astype(np.float32) for ch in cfg.channels}
        loss = ad.weighted_bce(forward(model, frames), np.array([1, 0, 1, 0]))
        loss.backward()
        nodes, stack = {}, [loss]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node._parents)
        inner = [t for t in nodes.values() if t._backward is not None]
        assert len(inner) > 10
        assert all(t.grad is None for t in inner)
        trainable = [t for _, t in model.trainable()]
        assert trainable and all(t.grad is not None for t in trainable)

    def test_second_backward_adds_one_pass(self, rng):
        x = ad.parameter(rng.normal(size=(5, 3)))
        w1, b1 = ad.parameter(rng.normal(size=(4, 3))), ad.parameter(rng.normal(size=4))
        w2, b2 = ad.parameter(rng.normal(size=(1, 4))), ad.parameter(rng.normal(size=1))
        leaves = (x, w1, b1, w2, b2)
        h = ad.sigmoid(ad.linear(x, w1, b1))
        loss = ad.weighted_bce(ad.flatten(ad.sigmoid(ad.linear(h, w2, b2))), np.array([1, 0, 1, 1, 0]))
        loss.backward()
        once = [t.grad.copy() for t in leaves]
        for t in leaves:
            t.zero_grad()
        loss.backward()
        loss.backward()
        for t, g in zip(leaves, once):
            assert np.array_equal(t.grad, 2.0 * g)


def _blas_threads() -> int:
    return ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_num_threads64_()


def _conv2d_matches(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, expected: bytes) -> None:
    """Forked-child target: exit code 0 when conv2d gives ``expected``."""
    out = ad.conv2d(Tensor(x), Tensor(weight), Tensor(bias), padding=1)
    if out.data.tobytes() != expected:
        raise SystemExit(1)


@pytest.mark.skipif(ad._blas_thread_setter() is None, reason="numpy does not bundle OpenBLAS")
class TestBlasThreads:
    def test_first_conv2d_sets_one_thread(self):
        ad._blas_thread_setter()(2)
        ad._use_one_blas_thread.cache_clear()
        x = Tensor(np.ones((2, 1, 8, 8), dtype=np.float32))
        w = Tensor(np.ones((2, 1, 3, 3), dtype=np.float32))
        ad.conv2d(x, w, Tensor(np.zeros(2, dtype=np.float32)))
        assert _blas_threads() == 1

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one CPU: one BLAS thread either way")
    def test_outputs_do_not_depend_on_thread_count(self):
        """The default config's C1 and B1 convs and the embedding layer, at
        sizes where OpenBLAS splits each GEMM between threads."""
        rng = np.random.default_rng(5)
        cases = [((4, 1, 64, 64), (32, 1, 5, 5), 2), ((4, 16, 32, 32), (32, 16, 3, 3), 1)]

        def run():
            results = []
            for x_shape, w_shape, padding in cases:
                x = ad.parameter(rng.normal(size=x_shape).astype(np.float32))
                w = ad.parameter((rng.normal(size=w_shape) * 0.1).astype(np.float32))
                b = ad.parameter(rng.normal(size=w_shape[0]).astype(np.float32))
                out = ad.conv2d(x, w, b, padding=padding)
                out._backward(rng.normal(size=out.shape).astype(np.float32))
                results += [out.data, x.grad, w.grad, b.grad]
            x = ad.parameter(rng.normal(size=(32, 3072)).astype(np.float32))
            w = ad.parameter(rng.normal(size=(64, 3072)).astype(np.float32))
            out = ad.linear(x, w, ad.parameter(np.zeros(64, dtype=np.float32)))
            out._backward(rng.normal(size=out.shape).astype(np.float32))
            return [a.tobytes() for a in results + [out.data, x.grad, w.grad]]

        threads = len(os.sched_getaffinity(0))
        state = rng.bit_generator.state
        many = at_blas_threads(threads, run)
        rng.bit_generator.state = state
        assert at_blas_threads(1, run) == many

    def test_forked_child_runs_conv2d(self, rng):
        x = rng.normal(size=(8, 2, 12, 12)).astype(np.float32)
        w = rng.normal(size=(4, 2, 3, 3)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        expected = ad.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=1).data.tobytes()
        child = multiprocessing.get_context("fork").Process(target=_conv2d_matches, args=(x, w, b, expected))
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0
