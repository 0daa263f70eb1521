"""Reference code the tests check the package against; nothing in ``src/``
calls it.

``mse_loss`` and ``check_gradients`` give the autodiff ops a quadratic
objective and central finite differences; ``grad_check`` runs them through
the whole MC-CNN, and ``block_bytes`` serializes a model's parameter blocks
for byte comparisons.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

import mcpad.autodiff as ad
from mcpad.autodiff import Tensor
from mcpad.dataset import ChannelId
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
    return {name: np.asarray(arr, dtype="<f4").tobytes() for name, arr in model.named_blocks().items()}
