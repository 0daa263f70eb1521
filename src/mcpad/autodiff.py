"""Minimal fixed-op reverse-mode differentiation core (numpy).

Tensors hold float32 or float64 arrays: training runs float32, finite-
difference checks float64, and every op keeps its input's precision.

Ops: conv2d (zero padding, stride 1 or 2), 2x2/stride-2 max pooling, linear,
sigmoid (input clamped to [-40, 40]), channel concatenation, max-feature-map,
reshape/flatten, and a weighted BCE loss.

Tie rules: MFM routes the gradient to the first half when the halves are
equal; max pooling routes it to the first tap, in window scan order, that
equals the window maximum. Forward values come from ``np.maximum``, so a
(-0.0, +0.0) tie yields its second operand and a NaN operand yields NaN; a
pooling window whose maximum is NaN routes its gradient to its last tap.

No graph where no gradient flows: an op whose inputs all have
``requires_grad`` false returns a bare tensor with no parents and no
backward closure, so a frozen forward pass frees each intermediate as soon
as the next op has read it. Otherwise the closure keeps only what its
backward reads:
  conv2d    nothing beyond its input (the im2col columns are rebuilt for
            the weight gradient; the column gradient is folded back a
            block of samples at a time);
  maxpool2d nothing beyond its input and output (hit masks are rebuilt);
  mfm       nothing beyond its input (the comparison is recomputed);
  sigmoid   its output and the inside-the-clamp mask;
  weighted_bce  the clamped probabilities, targets and clamp mask.
Because backward rereads its inputs, an op's input must not be changed in
place between the forward call and the backward sweep.
``Tensor.accumulate`` adopts the first gradient it receives instead of
copying it, so every backward hands over an array that it owns.
``Tensor.backward`` drops each intermediate gradient once its closure has
run: afterwards only leaves (tensors without a backward closure) hold a
``.grad``, and a second sweep over the same graph adds exactly one more
pass to them.

BLAS threads: the first conv2d sets numpy's bundled OpenBLAS to one thread
for the rest of the process, overriding ``OPENBLAS_NUM_THREADS``, and every
later matmul in the process (the linear layers included) runs on that one
thread. conv2d makes one small GEMM per sample; OpenBLAS threads split each
of those again and spin between calls, which nearly doubled the CPU time of
MC-CNN training for little wall time. OpenBLAS computes each output element
in one thread, so no output byte depends on the thread count. Without that
library (another BLAS, or a numpy build that does not bundle it) the BLAS
thread count is left alone.
"""

from __future__ import annotations

import ctypes
import functools
from typing import Sequence

import numpy as np

SIGMOID_CLAMP = 40.0
PROB_EPS = 1e-7


class Tensor:
    """Value + gradient buffer; float64 by default, float32 arrays are kept
    as-is (training runs single precision, gradient checks double)."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents: tuple = (), _backward=None):
        data = np.asarray(data)
        if data.dtype not in (np.float32, np.float64):
            data = data.astype(np.float64)
        self.data = data
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    def accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad``. The first gradient is adopted without a copy (cast
        only if its dtype differs): callers pass an array nothing else
        holds."""
        if self.grad is None:
            self.grad = np.asarray(grad, dtype=self.data.dtype)
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Reverse-mode sweep seeded with ones (call on the scalar loss);
        leaves accumulate, intermediate gradients are dropped once used."""
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None  # every consumer has run: only leaves keep a gradient


def parameter(data) -> Tensor:
    return Tensor(np.array(data), requires_grad=True)


def _wrap(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=tuple(parents), _backward=backward)
    return Tensor(data)


# --------------------------------------------------------------------------
# layers
# --------------------------------------------------------------------------

#: Bytes of column gradient that conv2d's backward folds back at a time: a
#: block of whole samples, so each sample's product is the same matmul
#: that one whole-batch column gradient would make.
_FOLD_BYTES = 1 << 20


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int, oh: int, ow: int) -> np.ndarray:
    """(N, C*kh*kw, oh*ow) columns of ``x`` zero-padded by ``padding``."""
    n, c, h, w = x.shape
    if padding:
        xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        xp[:, :, padding : padding + h, padding : padding + w] = x
    else:
        xp = x
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
    return cols.reshape(n, c * kh * kw, oh * ow)


@functools.cache
def _blas_thread_setter():
    """``openblas_set_num_threads`` of numpy's bundled OpenBLAS, or None."""
    try:
        setter = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    setter.argtypes = (ctypes.c_int,)
    setter.restype = None
    return setter


@functools.cache
def _use_one_blas_thread() -> None:
    """Run BLAS on one thread from now on (see the module docstring)."""
    setter = _blas_thread_setter()
    if setter is not None:
        setter(1)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation: x (N,C,H,W), weight (F,C,kh,kw), bias (F,).

    Backward rebuilds the columns from ``x`` for the weight gradient and
    folds the column gradient back into the input gradient a few samples at
    a time, so the graph keeps nothing beyond ``x`` and the output."""
    if stride not in (1, 2):
        raise ValueError("stride must be 1 or 2")
    n, c, h, w = x.data.shape
    f, wc, kh, kw = weight.data.shape
    if wc != c:
        raise ValueError(f"conv2d channel mismatch: input {c}, weight {wc}")
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise ValueError("conv2d output would be empty")

    _use_one_blas_thread()
    out = np.matmul(weight.data.reshape(f, c * kh * kw)[None], _im2col(x.data, kh, kw, stride, padding, oh, ow))
    out += bias.data[None, :, None]

    def backward(grad):
        g = grad.reshape(n, f, oh * ow)
        if weight.requires_grad:
            dw = np.matmul(g, _im2col(x.data, kh, kw, stride, padding, oh, ow).transpose(0, 2, 1))
            weight.accumulate(dw.sum(axis=0).reshape(weight.data.shape))
        if bias.requires_grad:
            bias.accumulate(g.sum(axis=(0, 2)))
        if x.requires_grad:
            w2t = weight.data.reshape(f, c * kh * kw).T
            dxp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.data.dtype)
            step = max(1, _FOLD_BYTES // (c * kh * kw * oh * ow * x.data.itemsize))
            for lo in range(0, n, step):
                dcols = np.matmul(w2t, g[lo : lo + step]).reshape(-1, c, kh, kw, oh, ow)
                block = dxp[lo : lo + step]
                for i in range(kh):
                    for j in range(kw):
                        block[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += dcols[:, :, i, j]
            dx = dxp[:, :, padding : padding + h, padding : padding + w] if padding else dxp
            x.accumulate(dx)

    return _wrap(out.reshape(n, f, oh, ow), (x, weight, bias), backward)


#: The taps of a 2x2 pooling window, in scan order.
_POOL_TAPS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _select_into(dst: np.ndarray, src: np.ndarray, mask: np.ndarray) -> None:
    """``dst = src`` where ``mask``, +0.0 elsewhere, as an AND of the float
    bit patterns with an all-ones/all-zeros integer mask (``np.copyto``
    with ``where=`` is several times slower into strided views)."""
    bits = np.dtype(f"i{src.dtype.itemsize}")
    np.bitwise_and(src.view(bits), np.negative(mask, dtype=bits), out=dst.view(bits))


def maxpool2d(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; odd trailing rows/cols are dropped.
    Gradient goes to the first maximum in window scan order."""
    h2, w2 = x.data.shape[2] // 2, x.data.shape[3] // 2
    if h2 < 1 or w2 < 1:
        raise ValueError("maxpool2d input too small")

    def tap(arr: np.ndarray, i: int, j: int) -> np.ndarray:
        return arr[:, :, i : 2 * h2 : 2, j : 2 * w2 : 2]

    out = np.maximum(tap(x.data, 0, 0), tap(x.data, 0, 1))
    np.maximum(out, tap(x.data, 1, 0), out=out)
    np.maximum(out, tap(x.data, 1, 1), out=out)

    def backward(grad):
        if x.requires_grad:
            dx = np.zeros_like(x.data)
            taken = None
            for i, j in _POOL_TAPS[:-1]:
                hit = tap(x.data, i, j) == out
                if taken is None:
                    taken = hit
                else:
                    np.greater(hit, taken, out=hit)  # equal here and at no earlier tap
                    taken |= hit
                _select_into(tap(dx, i, j), grad, hit)
            _select_into(tap(dx, *_POOL_TAPS[-1]), grad, ~taken)
            x.accumulate(dx)

    return _wrap(out, (x,), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x (N,D) @ weight.T (M,D) + bias (M,)."""
    if x.data.shape[1] != weight.data.shape[1]:
        raise ValueError(f"linear shape mismatch: {x.data.shape} vs {weight.data.shape}")
    out = x.data @ weight.data.T + bias.data

    def backward(grad):
        if weight.requires_grad:
            weight.accumulate(grad.T @ x.data)
        if bias.requires_grad:
            bias.accumulate(grad.sum(axis=0))
        if x.requires_grad:
            x.accumulate(grad @ weight.data)

    return _wrap(out, (x, weight, bias), backward)


def sigmoid(x: Tensor) -> Tensor:
    clamped = np.clip(x.data, -SIGMOID_CLAMP, SIGMOID_CLAMP)
    out = 1.0 / (1.0 + np.exp(-clamped))
    inside = (x.data > -SIGMOID_CLAMP) & (x.data < SIGMOID_CLAMP)

    def backward(grad):
        if x.requires_grad:
            x.accumulate(grad * out * (1.0 - out) * inside)

    return _wrap(out, (x,), backward)


def mfm(x: Tensor) -> Tensor:
    """Max-feature-map over paired channel halves (axis 1): out[c] =
    max(x[c], x[c+k]); ties route the gradient to the first half."""
    channels = x.data.shape[1]
    if channels % 2 != 0:
        raise ValueError("MFM needs an even channel count")
    k = channels // 2
    out = np.maximum(x.data[:, :k], x.data[:, k:])

    def backward(grad):
        if x.requires_grad:
            take_first = x.data[:, :k] >= x.data[:, k:]
            dx = np.empty_like(x.data)
            np.multiply(grad, take_first, out=dx[:, :k])
            np.multiply(grad, ~take_first, out=dx[:, k:])
            x.accumulate(dx)

    return _wrap(out, (x,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    bounds = np.cumsum([0] + sizes)

    def backward(grad):
        for t, lo, hi in zip(tensors, bounds[:-1], bounds[1:]):
            if t.requires_grad:
                t.accumulate(np.take(grad, range(lo, hi), axis=axis))

    return _wrap(out, tuple(tensors), backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    """View of ``x`` with ``shape`` (one entry may be -1); the gradient is
    reshaped back to the shape of ``x``."""
    out = x.data.reshape(shape)

    def backward(grad):
        if x.requires_grad:
            x.accumulate(grad.reshape(x.data.shape).copy())  # a view would share this op's gradient

    return _wrap(out, (x,), backward)


def flatten(x: Tensor) -> Tensor:
    """(N, ...) -> (N, -1)."""
    return reshape(x, (x.data.shape[0], -1))


# --------------------------------------------------------------------------
# losses
# --------------------------------------------------------------------------

def weighted_bce(p: Tensor, targets: np.ndarray, w_bonafide: float = 1.0, w_attack: float = 1.0) -> Tensor:
    """Mean of -(w_b*y*log p + w_a*(1-y)*log(1-p)) with p clamped to
    [1e-7, 1-1e-7]; unit weights reduce to plain BCE."""
    y = np.asarray(targets, dtype=p.data.dtype).reshape(p.data.shape)
    pc = np.clip(p.data, PROB_EPS, 1.0 - PROB_EPS)
    inside = (p.data > PROB_EPS) & (p.data < 1.0 - PROB_EPS)
    n = y.size
    loss = -np.sum(w_bonafide * y * np.log(pc) + w_attack * (1.0 - y) * np.log(1.0 - pc)) / n

    def backward(grad):
        if p.requires_grad:
            dp = -(w_bonafide * y / pc - w_attack * (1.0 - y) / (1.0 - pc)) / n
            p.accumulate(grad * dp * inside)

    return _wrap(np.asarray(loss), (p,), backward)
