"""Reference code the tests check the package against; nothing in ``src/``
calls it.

``mse_loss`` and ``check_gradients`` give the autodiff ops a quadratic
objective and central finite differences; ``grad_check`` runs them through
the whole MC-CNN, and ``block_bytes`` serializes a model's parameter blocks
for byte comparisons. ``bilinear_sample`` and ``lbp_code`` are the per-pixel
forms of ``warp``'s and ``lbp_code_map``'s sampling, and
``lr_training_losses`` evaluates the objective along ``lr_train``'s own
descent.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

import numpy as np

import mcpad.autodiff as ad
from mcpad.autodiff import Tensor
from mcpad.classical import LrConfig, Standardizer, _lr_descent, _lr_inputs, _sigmoid
from mcpad.dataset import ChannelId
from mcpad.features.lbp import LbpConfig, neighbor_offsets
from mcpad.mccnn import McCnnModel, batch_class_weights, forward


def mse_loss(pred: Tensor, targets: np.ndarray) -> Tensor:
    t = np.asarray(targets, dtype=pred.data.dtype).reshape(pred.data.shape)
    diff = pred.data - t
    loss = np.mean(diff**2)

    def backward(grad):
        if pred.requires_grad:
            pred.accumulate(grad * 2.0 * diff / diff.size)

    return ad._wrap(np.asarray(loss), (pred,), backward)


def check_gradients(
    loss_fn: Callable[[], Tensor],
    params: Sequence[Tensor],
    eps: float = 1e-4,
) -> float:
    """Max relative error |analytic - numeric| / max(1, |a|, |n|) over every
    element of ``params``, numeric gradients by central differences.
    ``loss_fn`` must rebuild the graph on each call."""
    loss = loss_fn()
    for p in params:
        p.zero_grad()
    loss.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.ravel()
        gflat = ga.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            up = float(loss_fn().data)
            flat[i] = keep - eps
            down = float(loss_fn().data)
            flat[i] = keep
            numeric = (up - down) / (2.0 * eps)
            err = abs(gflat[i] - numeric) / max(1.0, abs(gflat[i]), abs(numeric))
            worst = max(worst, err)
    return worst


def grad_check(
    model: McCnnModel,
    frames: Mapping[ChannelId, np.ndarray],
    labels: np.ndarray,
    eps: float = 1e-4,
) -> float:
    """Central finite differences vs analytic gradients through forward +
    weighted BCE, over every trainable parameter."""
    w_bona, w_att = batch_class_weights(labels)

    def loss_fn():
        return ad.weighted_bce(forward(model, frames), labels, w_bona, w_att)

    return check_gradients(loss_fn, [t for _, t in model.trainable()], eps=eps)


def block_bytes(model: McCnnModel) -> dict[str, bytes]:
    """Serialized (float32) bytes of every named parameter block."""
    return {name: np.asarray(t.data, dtype="<f4").tobytes() for name, t in model.params.items()}


def bilinear_sample(frame: np.ndarray, x: float, y: float) -> float:
    """Bilinear value at (x, y) with out-of-bounds taps reading as 0."""
    img = np.asarray(frame, dtype=np.float64)
    h, w = img.shape[:2]
    x0, y0 = int(np.floor(x)), int(np.floor(y))
    fx, fy = x - x0, y - y0
    total = 0.0
    for dy, wy in ((0, 1 - fy), (1, fy)):
        for dx, wx in ((0, 1 - fx), (1, fx)):
            xi, yi = x0 + dx, y0 + dy
            if 0 <= xi < w and 0 <= yi < h:
                total += wx * wy * img[yi, xi]
    return total


def lbp_code(image: np.ndarray, x: int, y: int, cfg: LbpConfig) -> int:
    """LBP code at pixel (x=column, y=row); bit k set iff the bilinear
    neighbor sample at angle 2*pi*k/P is >= the center value."""
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape
    margin = math.ceil(cfg.r)
    if not (margin <= x < w - margin and margin <= y < h - margin):
        raise ValueError("pixel closer than R to the border")
    center = img[y, x]
    code = 0
    for k, (dx, dy) in enumerate(neighbor_offsets(cfg.p, cfg.r)):
        sx, sy = x + dx, y + dy
        x0, y0 = int(math.floor(sx)), int(math.floor(sy))
        fx, fy = sx - x0, sy - y0
        val = (1 - fx) * (1 - fy) * img[y0, x0]
        if fx:
            val += fx * (1 - fy) * img[y0, x0 + 1]
        if fy:
            val += (1 - fx) * fy * img[y0 + 1, x0]
        if fx and fy:
            val += fx * fy * img[y0 + 1, x0 + 1]
        if val >= center:
            code |= 1 << k
    return code


def lr_loss(model_w: np.ndarray, model_b: float, xs: np.ndarray, y: np.ndarray, l2: float) -> float:
    """Objective value on pre-standardized features (for monotonicity checks)."""
    p = np.clip(_sigmoid(xs @ model_w + model_b), 1e-12, 1 - 1e-12)
    bce = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
    return float(bce + l2 * np.sum(model_w**2))


def lr_training_losses(
    features: np.ndarray,
    labels: np.ndarray,
    l2: float = LrConfig.l2,
    epochs: int = LrConfig.epochs,
    lr: float = LrConfig.learning_rate,
    standardizer: Standardizer | None = None,
) -> np.ndarray:
    """Objective at init and after each epoch of ``lr_train``'s descent."""
    xs, y, _ = _lr_inputs(features, labels, standardizer)
    return np.array([lr_loss(w, b, xs, y, l2) for w, b in _lr_descent(xs, y, l2, epochs, lr)])
