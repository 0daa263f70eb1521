"""Minimal fixed-op reverse-mode differentiation core (numpy).

Tensors hold float32 or float64 arrays: training runs float32, finite-
difference checks float64, and every op keeps its input's precision.

Ops: conv2d (zero padding), 2x2/stride-2 max pooling, linear, sigmoid
(input clamped to [-40, 40]), channel concatenation, max-feature-map,
reshape/flatten, and a weighted BCE loss.

Tie rules: MFM routes the gradient to the first half when the halves are
equal; max pooling routes it to the first tap, in window scan order, that
equals the window maximum. Forward values come from ``np.maximum``, so a
(-0.0, +0.0) tie yields its second operand and a NaN operand yields NaN; a
pooling window whose maximum is NaN routes its gradient to its last tap.

No graph where no gradient flows: an op whose inputs all have
``requires_grad`` false returns a bare tensor with no parents and no
backward closure, so a frozen forward pass frees each intermediate as soon
as the next op has read it.

The graph is made of nodes, not tensors. A tensor that needs a gradient
owns a node: its gradient buffer, the nodes of the parents that need one,
and its backward closure. Nothing in the graph refers to a tensor's
``data``, so a training forward frees each activation that no backward
reads as soon as the next op has read it. Each closure keeps only the
arrays its backward reads, taken in forward:
  conv2d    its input when the weight needs a gradient (the im2col columns
            are rebuilt from it), and its weight;
  linear    its input when the weight needs a gradient, and its weight;
  maxpool2d the first tap, in window scan order, that equals each window's
            maximum (uint8; a NaN window takes its last tap);
  mfm       the ``first >= second`` mask of the channel halves, bit-packed
            (``np.packbits``, one bit per output element);
  sigmoid   its output and the inside-the-clamp mask;
  weighted_bce  the clamped probabilities, targets and clamp mask.
An array a closure keeps must not be changed in place between the forward
call and the backward sweep.
``accumulate`` adopts the first gradient it receives instead of copying
it, so every backward hands over an array that it owns.
``Tensor.backward`` drops each intermediate gradient once its closure has
run: afterwards only leaves (tensors without a backward closure) hold a
``.grad``, and a second sweep over the same graph adds exactly one more
pass to them.

Gradient order: conv2d's weight and bias gradients have the bytes of
numpy's sums over the batch. Where a sum has two or more values (every
weight gradient but a lone 1x1 one-channel filter's, every bias gradient
with two or more filters) numpy adds the samples in order, and conv2d adds
each sample's part into the leaf one sample at a time. The sweep runs the
graph under an op's first parent before the graph under its second, when
the two share only leaves. So a batch split into blocks of whole samples,
run through the same ops (convs with two or more filters) and joined by
``concat`` in sample order, gives its leaves the same gradient bytes as the
whole batch in one call; a sum of per-block sums would not. conv2d's
backward folds the whole column gradient back in one pass, so a caller
that wants its temporaries small passes it a small block (as
``mccnn.branch_forward`` does).

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


class _Node:
    """Gradient buffer, parent nodes and backward closure of a tensor that
    needs a gradient. It holds no reference to the tensor's data."""

    __slots__ = ("grad", "dtype", "_parents", "_backward")

    def __init__(self, dtype, parents: tuple = (), backward=None):
        self.grad: np.ndarray | None = None
        self.dtype = dtype
        self._parents = parents
        self._backward = backward

    def accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad``. The first gradient is adopted without a copy (cast
        only if its dtype differs): callers pass an array nothing else
        holds."""
        if self.grad is None:
            self.grad = np.asarray(grad, dtype=self.dtype)
        else:
            self.grad += grad


class Tensor:
    """Value plus, when it needs a gradient, a graph node; float64 by
    default, float32 arrays are kept as-is (training runs single
    precision, gradient checks double)."""

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        if data.dtype not in (np.float32, np.float64):
            data = data.astype(np.float64)
        self.data = data
        self._node = _Node(data.dtype) if requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._node is None else self._node.grad

    @property
    def _parents(self) -> tuple:
        """The parent nodes that need a gradient."""
        return () if self._node is None else self._node._parents

    @property
    def _backward(self):
        return None if self._node is None else self._node._backward

    @_backward.setter
    def _backward(self, backward) -> None:
        self._node._backward = backward

    def accumulate(self, grad: np.ndarray) -> None:
        self._node.accumulate(grad)

    def zero_grad(self) -> None:
        if self._node is not None:
            self._node.grad = None

    def backward(self) -> None:
        """Reverse-mode sweep seeded with ones (call on the scalar loss);
        leaves accumulate, intermediate gradients are dropped once used. A
        tensor that needs no gradient has no graph to sweep."""
        root = self._node
        if root is None:
            return
        topo: list[_Node] = []
        seen: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(root, False)]
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
        root.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None  # every consumer has run: only leaves keep a gradient


def parameter(data) -> Tensor:
    return Tensor(np.array(data), requires_grad=True)


def _wrap(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    """``data`` in a tensor whose node runs ``backward``, when one of
    ``parents`` needs a gradient. ``backward`` should capture arrays and
    nodes, not tensors, so that the graph keeps no tensor's data."""
    out = Tensor(data)
    nodes = tuple(p._node for p in parents if p._node is not None)
    if nodes:
        out._node = _Node(out.data.dtype, nodes, backward)
    return out


# --------------------------------------------------------------------------
# layers
# --------------------------------------------------------------------------

def _im2col(x: np.ndarray, kh: int, kw: int, padding: int, oh: int, ow: int) -> np.ndarray:
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
            cols[:, :, i, j] = xp[:, :, i : i + oh, j : j + ow]
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


def _add_batch_sum(node: _Node, parts: np.ndarray, shape: tuple[int, ...]) -> None:
    """Add ``parts.sum(axis=(0, 2))``, reshaped to ``shape``, to ``node``
    with the bytes of numpy's sum; ``parts`` is (samples, values, terms).
    With two or more values numpy adds each sample's term sums into the
    total in sample order, and so does this, one sample at a time into the
    node: a batch split into blocks of whole samples then gives the node
    the whole batch's bytes. One value numpy sums in one pairwise pass over
    all samples' terms, which only a whole-batch call reproduces."""
    if parts.shape[1] == 1:
        node.accumulate(parts.sum(axis=(0, 2)).reshape(shape))
        return
    for part in parts:
        node.accumulate(part.sum(axis=1).reshape(shape))


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, padding: int = 0) -> Tensor:
    """Stride-1 cross-correlation: x (N,C,H,W), weight (F,C,kh,kw), bias (F,).

    Backward rebuilds the columns from the input for the weight gradient,
    adds the weight and bias gradients into the leaves sample by sample
    (``_add_batch_sum``), and folds the whole column gradient back into the
    input gradient; the graph keeps the input only when the weight needs a
    gradient."""
    n, c, h, w = x.data.shape
    f, wc, kh, kw = weight.data.shape
    if wc != c:
        raise ValueError(f"conv2d channel mismatch: input {c}, weight {wc}")
    oh = h + 2 * padding - kh + 1
    ow = w + 2 * padding - kw + 1
    if oh < 1 or ow < 1:
        raise ValueError("conv2d output would be empty")

    _use_one_blas_thread()
    out = np.matmul(weight.data.reshape(f, c * kh * kw)[None], _im2col(x.data, kh, kw, padding, oh, ow))
    out += bias.data[None, :, None]
    xn, wn, bn = x._node, weight._node, bias._node
    xd = x.data if wn is not None else None
    wd, dtype = weight.data, x.data.dtype

    def backward(grad):
        g = grad.reshape(n, f, oh * ow)
        if wn is not None:
            dw = np.matmul(g, _im2col(xd, kh, kw, padding, oh, ow).transpose(0, 2, 1))
            _add_batch_sum(wn, dw.reshape(n, -1, 1), wd.shape)
        if bn is not None:
            _add_batch_sum(bn, g, (f,))
        if xn is not None:
            dcols = np.matmul(wd.reshape(f, c * kh * kw).T, g).reshape(n, c, kh, kw, oh, ow)
            dxp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=dtype)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, :, i : i + oh, j : j + ow] += dcols[:, :, i, j]
            dx = dxp[:, :, padding : padding + h, padding : padding + w] if padding else dxp
            xn.accumulate(dx)

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
    xn = x._node
    if xn is None:
        return Tensor(out)
    # first hit = 3 - (how many of the first three taps are at or after
    # it); a NaN window equals no tap and takes the last
    seen = tap(x.data, 0, 0) == out
    first = seen.astype(np.uint8)
    for i, j in _POOL_TAPS[1:-1]:
        seen |= tap(x.data, i, j) == out
        first += seen
    np.subtract(len(_POOL_TAPS) - 1, first, out=first)
    shape, dtype = x.data.shape, x.data.dtype

    def backward(grad):
        dx = np.zeros(shape, dtype=dtype)
        for t, (i, j) in enumerate(_POOL_TAPS):
            _select_into(tap(dx, i, j), grad, first == t)
        xn.accumulate(dx)

    return _wrap(out, (x,), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x (N,D) @ weight.T (M,D) + bias (M,)."""
    if x.data.shape[1] != weight.data.shape[1]:
        raise ValueError(f"linear shape mismatch: {x.data.shape} vs {weight.data.shape}")
    out = x.data @ weight.data.T + bias.data
    xn, wn, bn = x._node, weight._node, bias._node
    xd = x.data if wn is not None else None
    wd = weight.data

    def backward(grad):
        if wn is not None:
            wn.accumulate(grad.T @ xd)
        if bn is not None:
            bn.accumulate(grad.sum(axis=0))
        if xn is not None:
            xn.accumulate(grad @ wd)

    return _wrap(out, (x, weight, bias), backward)


def sigmoid(x: Tensor) -> Tensor:
    clamped = np.clip(x.data, -SIGMOID_CLAMP, SIGMOID_CLAMP)
    out = 1.0 / (1.0 + np.exp(-clamped))
    xn = x._node
    if xn is None:
        return Tensor(out)
    inside = (x.data > -SIGMOID_CLAMP) & (x.data < SIGMOID_CLAMP)

    def backward(grad):
        xn.accumulate(grad * out * (1.0 - out) * inside)

    return _wrap(out, (x,), backward)


def mfm(x: Tensor) -> Tensor:
    """Max-feature-map over paired channel halves (axis 1): out[c] =
    max(x[c], x[c+k]); ties route the gradient to the first half."""
    channels = x.data.shape[1]
    if channels % 2 != 0:
        raise ValueError("MFM needs an even channel count")
    k = channels // 2
    out = np.maximum(x.data[:, :k], x.data[:, k:])
    xn = x._node
    if xn is None:
        return Tensor(out)
    packed = np.packbits(x.data[:, :k] >= x.data[:, k:])
    shape, half, dtype = x.data.shape, out.shape, x.data.dtype

    def backward(grad):
        take_first = np.unpackbits(packed, count=grad.size).view(bool).reshape(half)
        dx = np.empty(shape, dtype=dtype)
        np.multiply(grad, take_first, out=dx[:, :k])
        np.multiply(grad, ~take_first, out=dx[:, k:])
        xn.accumulate(dx)

    return _wrap(out, (x,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    bounds = np.cumsum([0] + sizes)
    nodes = [t._node for t in tensors]

    def backward(grad):
        for node, lo, hi in zip(nodes, bounds[:-1], bounds[1:]):
            if node is not None:
                node.accumulate(np.take(grad, range(lo, hi), axis=axis))

    return _wrap(out, tuple(tensors), backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    """View of ``x`` with ``shape`` (one entry may be -1); the gradient is
    reshaped back to the shape of ``x``."""
    out = x.data.reshape(shape)
    xn, x_shape = x._node, x.data.shape

    def backward(grad):
        xn.accumulate(grad.reshape(x_shape).copy())  # a view would share this op's gradient

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
    pn = p._node

    def backward(grad):
        dp = -(w_bonafide * y / pc - w_attack * (1.0 - y) / (1.0 - pc)) / n
        pn.accumulate(grad * dp * inside)

    return _wrap(np.asarray(loss), (p,), backward)
