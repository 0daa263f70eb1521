"""Per-op micro-benchmarks of the MC-CNN's autodiff kernels, plus one
training step.

    PYTHONPATH=src python -m pytest benches/test_bench_mccnn_ops.py --benchmark-only

``testpaths`` in pyproject.toml names only ``tests/``, so the tier-1 run does
not collect this directory. Shapes are the default configuration's at batch
32 (64 px input, base width 16): each group C1/B1/G1 runs conv, MFM and 2x2
max pooling. Gradients flow as in DSU training with the adapt set {C1, B1}:
the C1 input needs none, G1's weights are shared and frozen. The EMB cases
run the shared, frozen embedding layer (1536 -> 128), whose input needs a
gradient.

conv2d's backward rebuilds the im2col columns whenever the weight trains,
so ``test_conv2d_bwd`` for C1 and B1 includes that second im2col.

The first conv2d sets numpy's OpenBLAS to one thread for the rest of the
process, so every case here runs BLAS on one thread, the linear ones
included, except ``test_training_step_4ch_all_blas_threads``: the same
step with one BLAS thread per CPU, as before that setting, for a
comparison within one session.

The per-op cases run each op once over the whole batch of 32. The network
does not: ``mccnn.branch_forward`` runs the C1 -> B1 -> G1 trunk over blocks
of whole samples (2 at this configuration), so their sum over-states the
trunk's cost. ``test_dsu_branch_trunk`` runs the trunk as the network does:
one DSU branch (depth, adapt set {C1, B1}) forward through
``branch_forward`` and backward from its embedding, batch 32.

The training step, the DSU branch and the predict case take 8-bit frames,
as the pipeline does: each step maps its uint8 batch through
``frames_to_input`` before the network reads it, and ``predict`` maps each
batch of rows itself. The training step is one forward, weighted BCE and
backward of the 4-channel network (gray through the frozen shared blocks,
the others through trainable DSU copies). Each step drops its graph before
the next forward runs, as training does. The ``extra_info`` of the step and of the DSU branch
records the wall and process CPU time (``time.process_time``, every thread)
of each timed step, the minor page faults of each (``ru_minflt``), which
count the fresh memory the step touches, and, from three more steps run
after the timed ones (tracing slows every allocation), the ``tracemalloc``
peak (MB) and the bytes (MB) that the forward leaves in the graph: traced
memory after the forward less that before it.

The predict case scores 30 frames of each of the 4 channels through the
default model's frozen view, as per-epoch dev scoring and the pipeline's
dev/eval scoring do; its ``extra_info`` records the median wall and CPU
time and minor page faults of a call and, from three more calls, the
``tracemalloc`` peak.
"""

import os
import resource
import time
import tracemalloc

import numpy as np
import pytest

import mcpad.autodiff as ad
from mcpad.autodiff import Tensor
from mcpad.dataset import ChannelId
from mcpad.mccnn import McCnnConfig, branch_forward, build_model, forward, frames_to_input, predict

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


def _emb():
    x = Tensor(_array((BATCH, 1536), 0), requires_grad=True)
    weight = Tensor(_array((128, 1536), 1) * 0.03)
    return x, weight, Tensor(np.zeros(128, dtype=np.float32))


def test_linear_emb_fwd(benchmark):
    ad._use_one_blas_thread()  # as after the convs that precede it in the network
    out = benchmark(ad.linear, *_emb())
    assert out.shape == (BATCH, 128)


def test_linear_emb_bwd(benchmark):
    ad._use_one_blas_thread()
    x, weight, bias = _emb()
    _run_backward(benchmark, ad.linear(x, weight, bias), (x,))


def _frames_8bit(cfg, n, seed):
    rng = np.random.default_rng(seed)
    return {ch: rng.integers(0, 256, (n, cfg.input_size, cfg.input_size), dtype=np.uint8) for ch in cfg.channels}


def _default_model_and_frames(seed):
    cfg = McCnnConfig()
    return build_model(cfg), _frames_8bit(cfg, BATCH, seed)


def _forward_backward_steps(benchmark, run_forward, params):
    """Time ``run_forward()`` and the backward sweep from the tensor it
    returns, recording per step what the module docstring lists."""
    faults, wall, cpu, graph = [], [], [], []

    def step():
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for p in params:
            p.zero_grad()
        traced0 = tracemalloc.get_traced_memory()[0]
        out = run_forward()
        graph.append((tracemalloc.get_traced_memory()[0] - traced0) / 1e6)
        out.backward()
        wall.append((time.perf_counter() - wall0) * 1e3)
        cpu.append((time.process_time() - cpu0) * 1e3)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)

    benchmark.pedantic(step, rounds=6, iterations=1, warmup_rounds=1)
    benchmark.extra_info["wall_ms_per_step"] = wall[:]
    benchmark.extra_info["cpu_ms_per_step"] = cpu[:]
    benchmark.extra_info["cpu_ms_median"] = float(np.median(cpu))
    timed_faults = faults[:]
    peaks = []
    graph.clear()  # untraced steps read 0
    tracemalloc.start()
    try:
        for _ in range(3):
            tracemalloc.reset_peak()
            step()
            peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
    finally:
        tracemalloc.stop()
    benchmark.extra_info["minflt_per_step"] = timed_faults
    benchmark.extra_info["minflt_median"] = float(np.median(timed_faults))
    benchmark.extra_info["tracemalloc_peak_mb_per_step"] = peaks
    benchmark.extra_info["tracemalloc_peak_mb_median"] = float(np.median(peaks))
    benchmark.extra_info["graph_mb_per_step"] = graph[:]
    benchmark.extra_info["graph_mb_median"] = float(np.median(graph))
    assert all(p.grad is not None for p in params)


def _training_step(benchmark):
    model, frames = _default_model_and_frames(3)
    labels = np.arange(BATCH) % 2
    params = [t for _, t in model.trainable()]

    def run_forward():
        return ad.weighted_bce(forward(model, {ch: frames_to_input(f) for ch, f in frames.items()}), labels)

    _forward_backward_steps(benchmark, run_forward, params)


def test_dsu_branch_trunk(benchmark):
    model, frames = _default_model_and_frames(3)
    depth = ChannelId.DEPTH
    params = [t for key, t in model.trainable() if key.startswith("dsu.depth.")]
    _forward_backward_steps(benchmark, lambda: branch_forward(model, depth, frames_to_input(frames[depth])), params)


def test_training_step_4ch(benchmark):
    _training_step(benchmark)


@pytest.mark.skipif(ad._blas_thread_setter() is None, reason="numpy does not bundle OpenBLAS")
def test_training_step_4ch_all_blas_threads(benchmark):
    ad._use_one_blas_thread()  # already done, so the step's convs leave the count below alone
    setter = ad._blas_thread_setter()
    setter(len(os.sched_getaffinity(0)))
    try:
        _training_step(benchmark)
    finally:
        setter(1)


def test_predict_4ch(benchmark):
    cfg = McCnnConfig()
    model = build_model(cfg)
    frames = _frames_8bit(cfg, 30, 4)
    wall, cpu, faults = [], [], []

    def call():
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        wall0, cpu0 = time.perf_counter(), time.process_time()
        scores = predict(model, frames)
        wall.append((time.perf_counter() - wall0) * 1e3)
        cpu.append((time.process_time() - cpu0) * 1e3)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        return scores

    scores = benchmark(call)
    benchmark.extra_info["wall_ms_median"] = float(np.median(wall))
    benchmark.extra_info["cpu_ms_median"] = float(np.median(cpu))
    benchmark.extra_info["minflt_median"] = float(np.median(faults))
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(3):
            tracemalloc.reset_peak()
            call()
            peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
    finally:
        tracemalloc.stop()
    benchmark.extra_info["tracemalloc_peak_mb_median"] = float(np.median(peaks))
    assert scores.shape == (30,) and np.all((scores > 0) & (scores < 1))
