"""Per-layer tracing for the benchmark, installed from outside the package.

``traced(tracer, ...)`` replaces the public functions of each mcpad layer with
wrappers that open a span around the call, and puts the originals back when
it exits. Functions that ``mcpad.pipeline`` imports by name are patched on
``mcpad.pipeline``; functions that a module looks up in its own globals
(``glcm``, ``haralick13``, ``rdwt_haar``, ``warp``, ``mad_fit``) are patched on
that module. Autodiff ops are timed forward around the call and backward by
wrapping the ``_backward`` closure of the tensor they return.

A span's self time is its duration minus the time its child spans cover.
Spans stay in memory; ``Tracer.write`` saves them once, at the end of a run.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    """Nested spans with self time, plus named counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float, float]] = []
        self.counters: dict[str, float] = {}
        self._open: list[list] = []
        self._next_id = 0

    def enter(self, name: str) -> None:
        parent = self._open[-1][0] if self._open else -1
        self._open.append([self._next_id, parent, name, perf_counter(), 0.0])
        self._next_id += 1

    def exit(self) -> None:
        """Close the innermost span."""
        end = perf_counter()
        span_id, parent, name, start, child = self._open.pop()
        duration = end - start
        if self._open:
            self._open[-1][4] += duration
        self.spans.append((span_id, parent, name, start, end, duration - child))

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``self_s``, inclusive ``s`` and ``calls``."""
        out: dict[str, dict[str, float]] = {}
        for _, _, name, start, end, self_s in self.spans:
            entry = out.setdefault(name, {"self_s": 0.0, "s": 0.0, "calls": 0})
            entry["self_s"] += self_s
            entry["s"] += end - start
            entry["calls"] += 1
        return out

    def write(self, path: str | Path) -> None:
        """Save every span as one JSON line, in the order the spans opened."""
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, self_s in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end, "self_s": self_s}) + "\n")


def _span(tracer: Tracer, name: str, fn, after=None):
    """Wrap ``fn`` in a span; ``after(result, args, kwargs)`` may record
    counters from the call."""

    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(result, args, kwargs)
        return result

    return wrapper


def _timed_backward(tracer: Tracer, name: str, out, on_backward=None):
    """Time the backward closure of the tensor an op returned."""
    inner = out._backward
    if inner is None:
        return out

    def backward(grad):
        tracer.enter(name)
        try:
            inner(grad)
        finally:
            tracer.exit()
        if on_backward is not None:
            on_backward()

    out._backward = backward
    return out


def _op(tracer: Tracer, name_of, fn, on_forward=None):
    """Wrap an autodiff op: span ``<name>.fwd`` around the call and
    ``<name>.bwd`` around its backward closure, ``name_of(args)`` giving the
    name. ``on_forward(args, out)`` may return a callback run after backward."""

    def wrapper(*args, **kwargs):
        name = name_of(args)
        tracer.enter(f"{name}.fwd")
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.exit()
        on_backward = on_forward(args, out) if on_forward is not None else None
        return _timed_backward(tracer, f"{name}.bwd", out, on_backward)

    return wrapper


@contextmanager
def traced(tracer: Tracer, base_width: int, embedding_dim: int):
    """Patch every traced mcpad function for the duration of the block.

    ``base_width`` and ``embedding_dim`` are the MC-CNN's, used to attribute
    conv2d calls to C1/B1/G1 by weight shape and linear calls to EMB (output
    width ``2 * embedding_dim``) or FFC (any other width).
    """
    from mcpad import autodiff, classical, mccnn, pipeline, preprocess
    from mcpad.features import haralick

    patches: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, replacement) -> None:
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def timed(owner, attr: str, name: str, after=None) -> None:
        patch(owner, attr, _span(tracer, name, getattr(owner, attr), after))

    def file_mb(name: str, path_arg: int):
        def after(result, args, kwargs):
            path = args[path_arg] if len(args) > path_arg else kwargs["path"]
            tracer.count(f"{name}.mb", os.path.getsize(path) / 1e6)
        return after

    def preprocess_counts(result, args, kwargs):
        sample, dropped = result
        kept = next(iter(sample.channels.values())).shape[0]
        tracer.count("preprocess.frames_kept", kept)
        tracer.count("preprocess.frames_dropped", dropped)

    def train_counts(result, args, kwargs):
        data, cfg = args[0], args[1]
        tracer.count("mccnn.train.frames", data.train_y.size * cfg.epochs)

    timed(pipeline, "read_sample", "dataset.read_sample", file_mb("dataset.read_sample", 0))
    timed(pipeline, "write_sample", "dataset.write_sample", file_mb("dataset.write_sample", 1))
    timed(pipeline, "preprocess_sample", "preprocess.preprocess_sample", preprocess_counts)
    timed(pipeline, "align_color", "preprocess.align_color")
    timed(preprocess, "warp", "preprocess.warp")
    timed(preprocess, "mad_fit", "preprocess.mad_fit")
    for attr in ("lbp_histogram", "iqm_features", "rdwt_haralick_features",
                 "read_feature_table", "write_feature_table"):
        timed(pipeline, attr, f"features.{attr}")
    for attr in ("rdwt_haar", "glcm", "haralick13"):
        timed(haralick, attr, f"features.{attr}")
    timed(classical, "lr_train", "classical.lr_train")
    timed(classical, "svm_train", "classical.svm_train")
    timed(mccnn, "pretrain_reference", "mccnn.pretrain_reference")
    timed(mccnn, "train", "mccnn.train", train_counts)
    timed(mccnn, "predict", "mccnn.predict")
    timed(mccnn, "save_model", "mccnn.save_model")
    for attr in ("build_report", "roc", "save_scores", "load_scores"):
        timed(pipeline, attr, f"evaluation.{attr}")

    # weight shape -> layer group, as the MC-CNN lays out its convolutions
    b = base_width
    groups = {(2 * b, 1, 5, 5): "C1", (2 * b, b, 3, 3): "B1", (3 * b, b, 3, 3): "G1"}

    def conv_flops(args, out):
        x, weight = args[0], args[1]
        f, c, kh, kw = weight.data.shape
        n, _, oh, ow = out.data.shape
        gflop = 2.0 * n * f * c * kh * kw * oh * ow / 1e9
        tracer.count("autodiff.conv2d.gflop", gflop)
        grads = int(weight.requires_grad) + int(x.requires_grad)
        return lambda: tracer.count("autodiff.conv2d.gflop", grads * gflop)

    patch(autodiff, "conv2d", _op(
        tracer, lambda a: f"autodiff.conv2d.{groups[tuple(a[1].data.shape)]}",
        autodiff.conv2d, on_forward=conv_flops))
    patch(autodiff, "maxpool2d", _op(tracer, lambda a: "autodiff.maxpool2d", autodiff.maxpool2d))
    patch(autodiff, "mfm", _op(tracer, lambda a: "autodiff.mfm", autodiff.mfm))
    emb_width = 2 * embedding_dim
    patch(autodiff, "linear", _op(
        tracer, lambda a: "autodiff.linear." + ("EMB" if a[1].data.shape[0] == emb_width else "FFC"),
        autodiff.linear))
    patch(autodiff, "sigmoid", _op(tracer, lambda a: "autodiff.sigmoid", autodiff.sigmoid))
    patch(autodiff, "weighted_bce", _op(tracer, lambda a: "autodiff.weighted_bce",
                                        autodiff.weighted_bce))
    patch(autodiff.Tensor, "backward",
          _span(tracer, "autodiff.Tensor.backward", autodiff.Tensor.backward))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
