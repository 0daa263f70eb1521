"""Per-op micro-benchmarks of the MC-CNN's autodiff kernels, plus one
training step.

    PYTHONPATH=src python -m pytest benches/test_bench_mccnn_ops.py --benchmark-only

``testpaths`` in pyproject.toml names only ``tests/``, so the tier-1 run does
not collect this directory. Shapes are the default configuration's at batch
32 (64 px input, base width 16): each group C1/B1/G1 runs conv, MFM and 2x2
max pooling. Gradients flow as in DSU training with the adapt set {C1, B1}:
the C1 input needs none, G1's weights are shared and frozen.

The training step is one forward, weighted BCE and backward of the
4-channel network (gray through the frozen shared blocks, the others through
trainable DSU copies). Its ``extra_info`` records the minor page faults of
each step (``ru_minflt``), which count the fresh memory the step touches.
"""

import resource

import numpy as np
import pytest

import mcpad.autodiff as ad
from mcpad.autodiff import Tensor
from mcpad.mccnn import McCnnConfig, build_model, forward

BATCH = 32
# group: (input shape, weight shape, padding, input needs grad, weight needs grad)
GROUPS = {
    "C1": ((BATCH, 1, 64, 64), (32, 1, 5, 5), 2, False, True),
    "B1": ((BATCH, 16, 32, 32), (32, 16, 3, 3), 1, True, True),
    "G1": ((BATCH, 16, 16, 16), (48, 16, 3, 3), 1, True, False),
}


def _array(shape, seed):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)


def _conv(group):
    x_shape, w_shape, padding, x_grad, w_grad = GROUPS[group]
    x = Tensor(_array(x_shape, 0), requires_grad=x_grad)
    weight = Tensor(_array(w_shape, 1) * 0.1, requires_grad=w_grad)
    bias = Tensor(np.zeros(w_shape[0], dtype=np.float32), requires_grad=w_grad)
    return x, weight, bias, padding


def _run_backward(benchmark, out, leaves):
    """Time ``out``'s backward closure alone, clearing the leaf gradients
    before each call so every call adopts fresh gradient buffers."""
    grad = _array(out.shape, 2)

    def step():
        for leaf in leaves:
            leaf.zero_grad()
        out._backward(grad)

    benchmark(step)


@pytest.mark.parametrize("group", list(GROUPS))
def test_conv2d_fwd(benchmark, group):
    x, weight, bias, padding = _conv(group)
    out = benchmark(ad.conv2d, x, weight, bias, padding=padding)
    assert out.shape[0] == BATCH


@pytest.mark.parametrize("group", list(GROUPS))
def test_conv2d_bwd(benchmark, group):
    x, weight, bias, padding = _conv(group)
    _run_backward(benchmark, ad.conv2d(x, weight, bias, padding=padding), (x, weight, bias))


def _conv_out(group):
    x, weight, bias, padding = _conv(group)
    return Tensor(ad.conv2d(x, weight, bias, padding=padding).data, requires_grad=True)


@pytest.mark.parametrize("group", list(GROUPS))
def test_mfm_fwd(benchmark, group):
    x = _conv_out(group)
    out = benchmark(ad.mfm, x)
    assert out.shape[1] == x.shape[1] // 2


@pytest.mark.parametrize("group", list(GROUPS))
def test_mfm_bwd(benchmark, group):
    x = _conv_out(group)
    _run_backward(benchmark, ad.mfm(x), (x,))


def _pool_in(group):
    return Tensor(ad.mfm(_conv_out(group)).data, requires_grad=True)


@pytest.mark.parametrize("group", list(GROUPS))
def test_maxpool2d_fwd(benchmark, group):
    x = _pool_in(group)
    out = benchmark(ad.maxpool2d, x)
    assert out.shape[2:] == (x.shape[2] // 2, x.shape[3] // 2)


@pytest.mark.parametrize("group", list(GROUPS))
def test_maxpool2d_bwd(benchmark, group):
    x = _pool_in(group)
    _run_backward(benchmark, ad.maxpool2d(x), (x,))


def test_training_step_4ch(benchmark):
    cfg = McCnnConfig()
    model = build_model(cfg)
    rng = np.random.default_rng(3)
    frames = {ch: rng.uniform(-1, 1, (BATCH, cfg.input_size, cfg.input_size)).astype(np.float32)
              for ch in cfg.channels}
    labels = np.arange(BATCH) % 2
    params = [t for _, t in model.trainable()]
    faults = []

    def step():
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for p in params:
            p.zero_grad()
        ad.weighted_bce(forward(model, frames), labels).backward()
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)

    benchmark.pedantic(step, rounds=6, iterations=1, warmup_rounds=1)
    benchmark.extra_info["minflt_per_step"] = faults
    benchmark.extra_info["minflt_median"] = float(np.median(faults))
    assert all(p.grad is not None for p in params)
