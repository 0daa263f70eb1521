import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mcpad.autodiff as ad
from mcpad.autodiff import Tensor

from oracles import check_gradients, mse_loss


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

    def test_mfm_on_embeddings(self, rng):
        x = rng.integers(-2, 3, size=(5, 8)).astype(np.float32)
        ref_out, ref_backward = _reference_mfm(x)
        t = ad.parameter(x)
        out = ad.mfm(t)
        grad = rng.normal(size=ref_out.shape).astype(np.float32)
        out._backward(grad)
        assert np.array_equal(out.data, ref_out)
        assert t.grad.tobytes() == ref_backward(grad).tobytes()


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

    def test_stride_two_shape(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        b = Tensor(np.zeros(4))
        assert ad.conv2d(x, w, b, stride=2, padding=1).data.shape == (2, 4, 4, 4)

    def test_channel_mismatch(self, rng):
        with pytest.raises(ValueError):
            ad.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))), Tensor(np.zeros(1)))

    def test_finite_difference_all_inputs(self, rng):
        x = ad.parameter(rng.normal(size=(2, 2, 5, 5)))
        w = ad.parameter(rng.normal(size=(3, 2, 3, 3)) * 0.5)
        b = ad.parameter(rng.normal(size=3))
        target = rng.normal(size=(2, 3 * 9))

        def loss():
            return mse_loss(ad.flatten(ad.conv2d(x, w, b, stride=2, padding=1)), target)

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
