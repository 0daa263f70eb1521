"""Baseline classifiers and score fusion: logistic regression and a linear
SVM trained by deterministic full-batch (sub)gradient descent from zero
initialization, min-max score normalization, and mean fusion.

Labels are encoded 1 = bonafide, 0 = attack throughout; higher scores mean
more bonafide.

Each classifier standardizes its features with the per-dimension mean and
population std of its fit population: the bonafide training rows for
logistic regression, all training rows for the SVM. A dimension whose std
there is at most 1e-7 (constant over that population) is scaled by 1;
histogram features carry bins the population never touches, and dividing
those by a tiny std would turn them into train-set lookups.

Model blobs: magic "MCLM", version u8, kind u8 (1=LR 2=SVM 3=normalizer),
u32 dimension, parameters as little-endian float64.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .files import ByteReader, FormatError, atomic_write

MODEL_MAGIC = b"MCLM"
MODEL_VERSION = 1

POP_BONAFIDE_ONLY = "bonafide_only"
POP_ALL = "all"


@dataclass(frozen=True)
class LrConfig:
    """Logistic-regression hyperparameters."""

    l2: float = 0.1
    epochs: int = 800
    learning_rate: float = 0.005


@dataclass(frozen=True)
class SvmConfig:
    """Linear-SVM hyperparameters."""

    c: float = 1.0
    epochs: int = 500
    learning_rate: float = 0.1


class FitError(ValueError):
    """Training preconditions not met (empty population, one class, ...)."""


@dataclass(frozen=True)
class Standardizer:
    mean: np.ndarray
    std: np.ndarray
    population: str

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.mean.shape[0]:
            raise ValueError(f"dimension mismatch: {x.shape[-1]} != {self.mean.shape[0]}")
        return (x - self.mean) / self.std


def standardize_fit(features: np.ndarray, labels: np.ndarray, population: str) -> Standardizer:
    """Per-dimension mean and population std over the selected fit
    population; a dimension with std <= 1e-7 is scaled by 1."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if population == POP_BONAFIDE_ONLY:
        rows = features[labels == 1]
    elif population == POP_ALL:
        rows = features
    else:
        raise ValueError(f"unknown population tag {population!r}")
    if rows.shape[0] < 2:
        raise FitError("standardizer needs at least 2 rows in the fit population")
    std = rows.std(axis=0)
    std = np.where(std <= 1e-7, 1.0, std)
    return Standardizer(mean=rows.mean(axis=0), std=std, population=population)


def _standardized(
    features: np.ndarray, labels: np.ndarray, population: str
) -> tuple[np.ndarray, np.ndarray, Standardizer]:
    """(standardized features, float labels, standardizer fit on
    ``population``); both classes must be present."""
    y = np.asarray(labels, dtype=np.float64)
    if not ((y == 1).any() and (y == 0).any()):
        raise FitError("training needs both classes")
    standardizer = standardize_fit(features, labels, population)
    return standardizer.apply(features), y, standardizer


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -40.0, 40.0)))


@dataclass
class LrModel:
    weights: np.ndarray
    bias: float
    standardizer: Standardizer
    l2: float

    def __post_init__(self):
        if self.weights.shape[0] != self.standardizer.mean.shape[0]:
            raise ValueError("weight dimension must match the standardizer")


def _lr_descent(
    xs: np.ndarray, y: np.ndarray, l2: float, epochs: int, lr: float
) -> Iterator[tuple[np.ndarray, float]]:
    """Full-batch gradient descent on mean BCE + l2*||w||^2 from zero init.
    Yields (w, b) at init and after every epoch; ``w`` is updated in place."""
    n, d = xs.shape
    w = np.zeros(d)
    b = 0.0
    yield w, b
    for _ in range(epochs):
        err = _sigmoid(xs @ w + b) - y
        w -= lr * (xs.T @ err / n + 2.0 * l2 * w)
        b -= lr * float(err.mean())
        yield w, b


def lr_train(features: np.ndarray, labels: np.ndarray, cfg: LrConfig = LrConfig()) -> LrModel:
    """Logistic regression by :func:`_lr_descent` on features standardized
    over the bonafide rows."""
    xs, y, standardizer = _standardized(features, labels, POP_BONAFIDE_ONLY)
    for w, b in _lr_descent(xs, y, cfg.l2, cfg.epochs, cfg.learning_rate):
        pass
    return LrModel(weights=w, bias=b, standardizer=standardizer, l2=cfg.l2)


def lr_score(model: LrModel, x: np.ndarray) -> np.ndarray:
    """Probability of bonafide per row: sigmoid(w . standardize(x) + b)."""
    return _sigmoid(model.standardizer.apply(x) @ model.weights + model.bias)


@dataclass
class SvmModel:
    weights: np.ndarray
    bias: float
    c: float
    standardizer: Standardizer

    def __post_init__(self):
        if self.weights.shape[0] != self.standardizer.mean.shape[0]:
            raise ValueError("weight dimension must match the standardizer")


def svm_train(features: np.ndarray, labels: np.ndarray, cfg: SvmConfig = SvmConfig()) -> SvmModel:
    """Sub-gradient descent on (1/2)||w||^2 + C * mean hinge from zero init
    with a 1/sqrt(t+1) step decay, on features standardized over all rows;
    bonafide -> +1, attack -> -1."""
    xs, y01, standardizer = _standardized(features, labels, POP_ALL)
    y = 2.0 * y01 - 1.0
    n, d = xs.shape
    w = np.zeros(d)
    b = 0.0
    for t in range(cfg.epochs):
        eta = cfg.learning_rate / np.sqrt(t + 1.0)
        margins = y * (xs @ w + b)
        viol = margins < 1.0
        grad_w = w - cfg.c * (xs[viol].T @ y[viol]) / n
        grad_b = -cfg.c * float(y[viol].sum()) / n
        w -= eta * grad_w
        b -= eta * grad_b
    return SvmModel(weights=w, bias=b, c=cfg.c, standardizer=standardizer)


def svm_score(model: SvmModel, x: np.ndarray) -> np.ndarray:
    """Raw signed margin per row, w . standardize(x) + b (positive =
    bonafide)."""
    return model.standardizer.apply(x) @ model.weights + model.bias


@dataclass(frozen=True)
class ScoreNormalizer:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError("max must exceed min")


def score_normalize_fit(scores: Sequence[float]) -> ScoreNormalizer:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size < 2 or scores.max() <= scores.min():
        raise FitError("need at least 2 distinct scores to fit a normalizer")
    return ScoreNormalizer(lo=float(scores.min()), hi=float(scores.max()))


def score_normalize_apply(norm: ScoreNormalizer, scores: np.ndarray) -> np.ndarray:
    return np.clip((np.asarray(scores, dtype=np.float64) - norm.lo) / (norm.hi - norm.lo), 0.0, 1.0)


def fuse_mean(scores: np.ndarray) -> np.ndarray:
    """Arithmetic mean of per-algorithm normalized scores ``(N, C)``: one
    fused score per row."""
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("expected (N, C) scores")
    if arr.size == 0:
        raise ValueError("cannot fuse an empty score table")
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise ValueError("fusion inputs must lie in [0, 1]")
    return arr.mean(axis=-1)


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

_KIND_LR = 1
_KIND_SVM = 2
_KIND_NORM = 3

_POP_CODES = {POP_BONAFIDE_ONLY: 0.0, POP_ALL: 1.0}
_POPS = {code: pop for pop, code in _POP_CODES.items()}


def save_model(model: LrModel | SvmModel | ScoreNormalizer, path: str | Path) -> None:
    if isinstance(model, (LrModel, SvmModel)):
        kind, hyper = (_KIND_LR, model.l2) if isinstance(model, LrModel) else (_KIND_SVM, model.c)
        dim = model.weights.shape[0]
        std = model.standardizer
        params = [model.weights, [model.bias, hyper, _POP_CODES[std.population]], std.mean, std.std]
    elif isinstance(model, ScoreNormalizer):
        kind = _KIND_NORM
        dim = 0
        params = [[model.lo, model.hi]]
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    header = MODEL_MAGIC + struct.pack("<BBI", MODEL_VERSION, kind, dim)
    atomic_write(path, [header, *(np.ascontiguousarray(p, dtype="<f8") for p in params)])


def load_model(path: str | Path) -> LrModel | SvmModel | ScoreNormalizer:
    reader = ByteReader(Path(path).read_bytes())
    reader.magic(MODEL_MAGIC, "model")
    version, kind, dim = reader.take("<BBI", "header")
    if version != MODEL_VERSION:
        raise FormatError(f"unknown model version {version}", offset=4)
    if kind not in (_KIND_LR, _KIND_SVM, _KIND_NORM):
        raise FormatError(f"unknown model kind {kind}", offset=5)
    count = 2 if kind == _KIND_NORM else 3 * dim + 3
    params = reader.array("<f8", count, "parameters").astype(np.float64)
    reader.end()
    if kind == _KIND_NORM:
        return ScoreNormalizer(lo=params[0], hi=params[1])
    w = params[:dim]
    bias, hyper, pop_code = params[dim : dim + 3]
    if pop_code not in _POPS:
        raise FormatError(f"unknown standardizer population code {pop_code}", offset=10 + 8 * (dim + 2))
    mean = params[dim + 3 : 2 * dim + 3]
    std = params[2 * dim + 3 : 3 * dim + 3]
    std_obj = Standardizer(mean=mean, std=std, population=_POPS[pop_code])
    if kind == _KIND_LR:
        return LrModel(weights=w, bias=float(bias), standardizer=std_obj, l2=float(hyper))
    return SvmModel(weights=w, bias=float(bias), c=float(hyper), standardizer=std_obj)
