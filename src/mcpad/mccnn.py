"""Desk-scale multi-channel CNN: per-channel branches with max-feature-map
activations, concatenated embeddings into a 10+1 sigmoidal head, and
domain-specific-unit (DSU) adaptation over named layer groups with a frozen
shared backbone.

Layer groups (base width b, default 16):
    C1:  conv 5x5, 1 -> 2b, pad 2, MFM -> b, 2x2 max pool
    B1:  conv 3x3, b -> 2b, pad 1, MFM -> b, pool
    G1:  conv 3x3, b -> 3b, pad 1, MFM -> 3b/2, pool
    EMB: flatten -> linear -> 2E, MFM -> E
    FFC: linear |channels|*E -> 10 -> sigmoid -> linear -> 1 -> sigmoid

The gray branch always uses the shared (frozen) backbone; channels in the
adapt set get their own trainable copies of those groups; FFC always trains.

``branch_forward`` runs the C1 -> B1 -> G1 trunk over blocks of whole
samples, as many as fit their C1 conv output in the fixed budget
``TRUNK_BLOCK_BYTES`` (2 at the default 64 px), so each op's temporaries
stay in a core's L2 cache instead of streaming batch-sized arrays through
memory; the pooled G1 blocks are then joined. The trunk's ops work sample
by sample and conv2d adds its weight and bias gradients into the leaves one
sample at a time, so the block size changes no output byte. EMB and the
head do not run in blocks: they run over every row of the batch, and
``PREDICT_BATCH`` and ``EMBED_CHUNK`` keep their row counts, because the
row count of a matmul can change its output bytes.
Frames stay 8-bit (uint8, as ``preprocess`` writes them) until they enter
the network: ``TrainData`` (and so ``train``), ``pretrain_reference`` and
``predict`` take uint8 stacks and raise ``ValueError`` on any other dtype.
Each training batch, ``PREDICT_BATCH`` of scored rows or ``EMBED_CHUNK`` of
embedded rows goes through ``frames_to_input`` just before
``branch_forward``, which, like ``forward``, takes the mapped floats. The
mapping is elementwise, so where it runs changes no output byte, and a split
held as uint8 takes a quarter of its float32 bytes.
``McCnnModel.params`` is keyed by the model file's block names
(``shared.C1.conv_w``, ``dsu.depth.C1.conv_w``, ``head.fc1_w``), so saving,
loading and the trainable list walk one dict. Scoring (``predict``, also the
per-epoch dev scores) runs through a frozen view of the same arrays and
builds no autodiff graph. ``build_model`` copies a backbone's blocks into a
new model, and ``train`` trains the model it is given in place, so a caller
that saves the initial model and then trains it (as ``pipeline`` does)
holds one copy of the parameters while training runs.

Model files: magic "MCNN", version u8, u32 config-JSON length, JSON config
echo, u32 block count, then per block u16 name length + name, u8 ndim,
u32 dims..., float32 data (little-endian, names sorted).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field, replace as dataclass_replace
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .classical import FitError
from .codec import build, plain
from .dataset import ChannelId
from .evaluation import error_rates, threshold_from_bonafide
from .files import ByteReader, FormatError, atomic_write

MODEL_MAGIC = b"MCNN"
MODEL_VERSION = 1

GROUPS = ("C1", "B1", "G1", "EMB")

INPUT_SCALE = 128.0
INPUT_SHIFT = 127.5

# Rows per forward pass when scoring (PREDICT_BATCH) and when precomputing
# frozen-branch embeddings (EMBED_CHUNK). Each sets the row count of the EMB
# and FFC matmuls, so changing one can change the output bytes.
PREDICT_BATCH = 64
EMBED_CHUNK = 128

# Bytes of C1 conv output per block of the trunk (see the module docstring):
# 2 samples at the default 64 px, float32 and base width 16.
TRUNK_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class McCnnConfig:
    channels: tuple[ChannelId, ...] = (
        ChannelId.GRAY, ChannelId.DEPTH, ChannelId.INFRARED, ChannelId.THERMAL,
    )
    input_size: int = 64
    embedding_dim: int = 64
    adapt: frozenset[str] = frozenset({"C1", "B1"})
    epochs: int = 25
    batch_size: int = 32
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    flip_prob: float = 0.5
    seed: int = 0
    base_width: int = 16
    bpcer_target: float = 0.01
    pretrain_epochs: int = 10

    def __post_init__(self):
        if not self.channels:
            raise ValueError("channels must be nonempty")
        if ChannelId.COLOR in self.channels:
            raise ValueError("the network consumes preprocessed channels (no color)")
        if len(set(self.channels)) != len(self.channels):
            raise ValueError("duplicate channels")
        if not set(self.adapt) <= set(GROUPS):
            raise ValueError(f"adapt set must be a subset of {GROUPS} (FFC always trains)")
        if self.input_size % 8 != 0 or self.input_size < 8:
            raise ValueError("input size must be a positive multiple of 8")
        if self.base_width % 2 != 0 or self.base_width < 2:
            raise ValueError("base width must be even and >= 2")
        if self.embedding_dim < 1 or self.epochs < 1 or self.batch_size < 1:
            raise ValueError("embedding dim, epochs, and batch size must be positive")
        if self.pretrain_epochs < 1:
            raise ValueError("pretrain epochs must be positive")
        if not 0.0 <= self.flip_prob <= 1.0:
            raise ValueError("flip probability must be in [0, 1]")

    @property
    def emb_input(self) -> int:
        return (3 * self.base_width // 2) * (self.input_size // 8) ** 2

    @property
    def head_input(self) -> int:
        return len(self.channels) * self.embedding_dim


def frames_to_input(stack: np.ndarray) -> np.ndarray:
    """Map 8-bit frames to roughly [-1, 1] float32 network input."""
    out = np.subtract(stack, INPUT_SHIFT, dtype=np.float32)
    out /= INPUT_SCALE
    return out


def _require_8bit(frames: Mapping[ChannelId, np.ndarray]) -> None:
    for channel, stack in frames.items():
        dtype = np.asarray(stack).dtype
        if dtype != np.uint8:
            raise ValueError(f"{channel.label} frames must be uint8, got {dtype}")


# --------------------------------------------------------------------------
# parameters
# --------------------------------------------------------------------------

def _group_shapes(cfg: McCnnConfig) -> dict[str, dict[str, tuple[int, ...]]]:
    b = cfg.base_width
    return {
        "C1": {"conv_w": (2 * b, 1, 5, 5), "conv_b": (2 * b,)},
        "B1": {"conv_w": (2 * b, b, 3, 3), "conv_b": (2 * b,)},
        "G1": {"conv_w": (3 * b, b, 3, 3), "conv_b": (3 * b,)},
        "EMB": {"lin_w": (2 * cfg.embedding_dim, cfg.emb_input), "lin_b": (2 * cfg.embedding_dim,)},
    }


def _he_init(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    if len(shape) == 1:
        return np.zeros(shape)
    fan_in = int(np.prod(shape[1:]))
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def init_backbone(cfg: McCnnConfig) -> dict[str, dict[str, np.ndarray]]:
    """Fresh backbone parameter blocks (deterministic from ``cfg.seed``)."""
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 97)))
    return {
        group: {name: _he_init(rng, shape) for name, shape in shapes.items()}
        for group, shapes in _group_shapes(cfg).items()
    }


# The head starts near zero (still symmetry-broken): at the paper's small
# learning rate the adapted weights move a fixed O(epochs*lr) distance, so a
# small init keeps the learned class signal from being swamped by random
# projections of identity-specific embedding variation.
_HEAD_INIT_SCALE = 0.05


def _head_shapes(cfg: McCnnConfig) -> dict[str, tuple[int, ...]]:
    return {"fc1_w": (10, cfg.head_input), "fc1_b": (10,), "fc2_w": (1, 10), "fc2_b": (1,)}


def _init_head(cfg: McCnnConfig) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 101)))
    return {name: _HEAD_INIT_SCALE * _he_init(rng, shape) for name, shape in _head_shapes(cfg).items()}


def _block_shapes(cfg: McCnnConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every parameter block of a model, keyed by its ``.mcnn``
    block name, in the order ``build_model`` lays the blocks out."""
    groups = _group_shapes(cfg)
    shapes = {f"shared.{group}.{name}": shape for group in GROUPS for name, shape in groups[group].items()}
    for channel in cfg.channels:
        if channel is not ChannelId.GRAY:
            for group in sorted(cfg.adapt):
                for name, shape in groups[group].items():
                    shapes[f"dsu.{channel.label}.{group}.{name}"] = shape
    shapes.update({f"head.{name}": shape for name, shape in _head_shapes(cfg).items()})
    return shapes


@dataclass
class McCnnModel:
    """Parameters keyed by their ``.mcnn`` block names: ``shared.<group>.<name>``
    (frozen backbone), ``dsu.<channel>.<group>.<name>`` (adapted copies) and
    ``head.<name>``."""

    config: McCnnConfig
    params: dict[str, Tensor]

    @property
    def dtype(self):
        return self.params["shared.C1.conv_w"].data.dtype

    def block(self, channel: ChannelId, group: str) -> dict[str, Tensor]:
        """DSU copy when the group is adapted for a non-gray channel, else
        the shared (frozen) block."""
        adapted = channel is not ChannelId.GRAY and group in self.config.adapt
        prefix = f"dsu.{channel.label}.{group}." if adapted else f"shared.{group}."
        return {key[len(prefix):]: t for key, t in self.params.items() if key.startswith(prefix)}

    def trainable(self) -> list[tuple[str, Tensor]]:
        return [(key, t) for key, t in sorted(self.params.items()) if t.requires_grad]

    def frozen(self) -> McCnnModel:
        """The same arrays in tensors that need no gradient: a forward pass
        through this view builds no graph."""
        return McCnnModel(self.config, {key: Tensor(t.data) for key, t in self.params.items()})


def build_model(
    cfg: McCnnConfig,
    backbone: Mapping[str, Mapping[str, np.ndarray]],
    dtype=np.float32,
) -> McCnnModel:
    """Assemble a model from backbone blocks (``init_backbone`` or
    ``pretrain_reference``): shared blocks are frozen copies of the
    backbone, adapted non-gray channels get trainable DSU copies, the head
    trains. Training runs float32; pass float64 for finite-difference
    checks."""
    for group, expected in _group_shapes(cfg).items():
        for name, shape in expected.items():
            got = np.asarray(backbone[group][name]).shape
            if got != shape:
                raise ValueError(f"backbone block {group}.{name}: shape {got}, expected {shape}")
    head = _init_head(cfg)
    params = {}
    for key in _block_shapes(cfg):
        kind, *group, name = key.split(".")
        value = np.array(head[name] if kind == "head" else backbone[group[-1]][name], dtype=dtype)
        params[key] = Tensor(value) if kind == "shared" else ad.parameter(value)
    return McCnnModel(config=cfg, params=params)


# --------------------------------------------------------------------------
# forward graph
# --------------------------------------------------------------------------

def trunk_block_samples(cfg: McCnnConfig, dtype) -> int:
    """Samples per block of the C1 -> B1 -> G1 trunk: as many as fit their
    C1 conv output, the trunk's largest array, in ``TRUNK_BLOCK_BYTES``."""
    sample_bytes = 2 * cfg.base_width * cfg.input_size**2 * np.dtype(dtype).itemsize
    return max(1, TRUNK_BLOCK_BYTES // sample_bytes)


def branch_forward(model: McCnnModel, channel: ChannelId, frames: np.ndarray) -> Tensor:
    """Embedding of shape (N, E) for one channel's frame batch (N,S,S).

    The trunk runs over blocks of whole samples (``trunk_block_samples``)
    and the pooled G1 blocks are joined in sample order; EMB runs once over
    all N rows."""
    cfg = model.config
    arr = np.asarray(frames, dtype=model.dtype)
    size = cfg.input_size
    if arr.ndim != 3 or arr.shape[1:] != (size, size) or not len(arr):
        raise ValueError(f"expected a nonempty batch of {size}x{size} frames, got {arr.shape}")
    c1, b1, g1 = (model.block(channel, group) for group in ("C1", "B1", "G1"))
    step = trunk_block_samples(cfg, model.dtype)
    pooled = []
    for lo in range(0, arr.shape[0], step):
        x = Tensor(arr[lo : lo + step, None])
        x = ad.maxpool2d(ad.mfm(ad.conv2d(x, c1["conv_w"], c1["conv_b"], padding=2)))
        x = ad.maxpool2d(ad.mfm(ad.conv2d(x, b1["conv_w"], b1["conv_b"], padding=1)))
        pooled.append(ad.maxpool2d(ad.mfm(ad.conv2d(x, g1["conv_w"], g1["conv_b"], padding=1))))
    x = ad.concat(pooled, axis=0)
    emb = model.block(channel, "EMB")
    return ad.mfm(ad.linear(ad.flatten(x), emb["lin_w"], emb["lin_b"]))


def _head(model: McCnnModel, embeddings: Sequence[Tensor]) -> Tensor:
    h = embeddings[0] if len(embeddings) == 1 else ad.concat(embeddings, axis=1)
    h = ad.sigmoid(ad.linear(h, model.params["head.fc1_w"], model.params["head.fc1_b"]))
    p = ad.sigmoid(ad.linear(h, model.params["head.fc2_w"], model.params["head.fc2_b"]))
    return ad.reshape(p, (-1,))


def _check_channels(model: McCnnModel, frames: Mapping[ChannelId, np.ndarray]) -> None:
    missing = [ch.label for ch in model.config.channels if ch not in frames]
    if missing:
        raise ValueError(f"missing channels: {missing}")


def forward(model: McCnnModel, frames: Mapping[ChannelId, np.ndarray]) -> Tensor:
    """Probability of bonafide, shape (N,)."""
    _check_channels(model, frames)
    return _head(model, [branch_forward(model, ch, frames[ch]) for ch in model.config.channels])


def predict(
    model: McCnnModel,
    frames: Mapping[ChannelId, np.ndarray],
    embeddings: Mapping[ChannelId, np.ndarray] | None = None,
) -> np.ndarray:
    """Probability of bonafide per uint8 frame, computed through
    ``model.frozen()`` so no op builds a graph. ``embeddings`` may hold
    precomputed (N, E) branch outputs for some channels; their frames are
    then not read."""
    _check_channels(model, frames)
    _require_8bit(frames)
    embeddings = embeddings or {}
    view = model.frozen()
    n = next(iter(frames.values())).shape[0]
    scores = np.empty(n, dtype=np.float64)
    for lo in range(0, n, PREDICT_BATCH):
        rows = slice(lo, lo + PREDICT_BATCH)
        parts = [
            Tensor(embeddings[ch][rows]) if ch in embeddings
            else branch_forward(view, ch, frames_to_input(frames[ch][rows]))
            for ch in model.config.channels
        ]
        scores[rows] = _head(view, parts).data
    return scores


# --------------------------------------------------------------------------
# training
# --------------------------------------------------------------------------

def batch_class_weights(labels: np.ndarray) -> tuple[float, float]:
    """Dynamic per-batch weights w_c = N/(2*N_c); an absent class gets 1."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("empty batch")
    n = labels.size
    n_bona = int((labels == 1).sum())
    n_att = n - n_bona
    w_bona = 1.0 if n_bona == 0 else n / (2.0 * n_bona)
    w_att = 1.0 if n_att == 0 else n / (2.0 * n_att)
    return w_bona, w_att


def flip_decision(seed: int, epoch: int, sample_index: int, prob: float) -> bool:
    """One horizontal-flip coin per sample per epoch, derived from
    (seed, epoch, sample index) so data-parallel loading cannot reorder it."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 733, epoch, sample_index)))
    return bool(rng.random() < prob)


@dataclass
class TrainData:
    """Train and dev splits: uint8 (N, S, S) frames per channel, labels."""

    train_x: dict[ChannelId, np.ndarray]
    train_y: np.ndarray
    dev_x: dict[ChannelId, np.ndarray]
    dev_y: np.ndarray

    def __post_init__(self):
        _require_8bit(self.train_x)
        _require_8bit(self.dev_x)


@dataclass
class TrainResult:
    model: McCnnModel
    history: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_dev_acer: float = float("nan")
    dev_scores: np.ndarray | None = None


def _flipped(stack: np.ndarray, idx: np.ndarray, flips: np.ndarray) -> np.ndarray:
    """Network input of the uint8 ``stack[idx]`` with the ``flips`` rows
    mirrored left-right."""
    frames = stack[idx]
    if flips.any():
        frames[flips] = frames[flips][..., ::-1]
    return frames_to_input(frames)


def _adam_epochs(
    params: list[Tensor],
    labels: np.ndarray,
    cfg: McCnnConfig,
    seed: int,
    epochs: int,
    batch_prob: Callable[[np.ndarray, np.ndarray], Tensor],
) -> Iterator[tuple[int, float]]:
    """Adam on the class-weighted BCE of ``batch_prob(idx, flips)`` over
    mini-batches of a per-epoch permutation seeded by (seed, epoch), with
    one flip coin per sample per epoch. Yields (epoch, train loss) after
    each epoch: the unweighted mean of its batch losses, so a short last
    batch counts as much as a full one, and a one-class batch's loss is half
    its plain BCE (``batch_class_weights`` gives its class the weight 1/2)."""
    b1, b2 = cfg.beta1, cfg.beta2
    m = [np.zeros_like(p.data) for p in params]
    v = [np.zeros_like(p.data) for p in params]
    t = 0
    n = labels.size
    for epoch in range(epochs):
        order = np.random.default_rng(np.random.SeedSequence((seed, 547, epoch))).permutation(n)
        total = 0.0
        batches = 0
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            flips = np.array(
                [flip_decision(seed, epoch, int(i), cfg.flip_prob) for i in idx], dtype=bool
            )
            y = labels[idx]
            w_bona, w_att = batch_class_weights(y)
            loss = ad.weighted_bce(batch_prob(idx, flips), y, w_bona, w_att)
            for p in params:
                p.zero_grad()
            loss.backward()
            t += 1
            for i, p in enumerate(params):
                g = p.grad if p.grad is not None else np.zeros_like(p.data)
                m[i] = b1 * m[i] + (1 - b1) * g
                v[i] = b2 * v[i] + (1 - b2) * g * g
                m_hat = m[i] / (1 - b1**t)
                v_hat = v[i] / (1 - b2**t)
                p.data -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
            total += float(loss.data)
            batches += 1
            del loss  # the graph goes before the next forward and the epoch's dev scoring
        yield epoch, total / max(batches, 1)


def _embed_frozen(model: McCnnModel, channel: ChannelId, frames: np.ndarray, flip: bool = False) -> np.ndarray:
    """(N, E) branch outputs of the uint8 ``frames``, each mirrored
    left-right when ``flip``, mapped and run ``EMBED_CHUNK`` rows at a time."""
    n = frames.shape[0]
    out = np.empty((n, model.config.embedding_dim), dtype=model.dtype)
    for lo in range(0, n, EMBED_CHUNK):
        chunk = frames[lo : lo + EMBED_CHUNK]
        out[lo : lo + EMBED_CHUNK] = branch_forward(
            model, channel, frames_to_input(chunk[..., ::-1] if flip else chunk)
        ).data
    return out


def train(data: TrainData, cfg: McCnnConfig, model: McCnnModel) -> TrainResult:
    """Train ``model``'s trainable blocks (the DSU copies of the adapt set
    and the head) in place with Adam and return it in the result; ``cfg``
    must be ``model.config`` (``ValueError`` otherwise). The best epoch is
    the first with the lowest dev ACER (percent) at the threshold set on dev
    bonafide scores for the BPCER target, and the model is left with that
    epoch's weights. A ``history`` record (a ``history.csv`` row) holds the epoch's
    ``train_loss`` as ``_adam_epochs`` defines it, ``dev_acer`` and
    ``dev_tau``. The result carries the selected epoch's dev scores.

    Branches with no trainable blocks (the gray reference, or every branch
    when the adapt set is empty) are frozen, so their embeddings are
    precomputed once per flip variant instead of per step.
    """
    if model.config != cfg:
        raise ValueError("the model was built for another configuration")
    if not ((data.train_y == 1).any() and (data.train_y == 0).any()):
        raise FitError("training split needs both classes")
    frozen = {ch for ch in cfg.channels if ch is ChannelId.GRAY or not cfg.adapt}
    emb_plain = {ch: _embed_frozen(model, ch, data.train_x[ch]) for ch in frozen}
    if cfg.flip_prob > 0.0:
        emb_flip = {ch: _embed_frozen(model, ch, data.train_x[ch], flip=True) for ch in frozen}
    else:
        emb_flip = emb_plain
    dev_emb = {ch: _embed_frozen(model, ch, data.dev_x[ch]) for ch in frozen}

    def batch_prob(idx: np.ndarray, flips: np.ndarray) -> Tensor:
        parts = []
        for ch in cfg.channels:
            if ch in frozen:
                arr = np.where(flips[:, None], emb_flip[ch][idx], emb_plain[ch][idx])
                parts.append(Tensor(arr))
            else:
                parts.append(branch_forward(model, ch, _flipped(data.train_x[ch], idx, flips)))
        return _head(model, parts)

    trainable = [t for _, t in model.trainable()]
    dev_bona = data.dev_y == 1
    result = TrainResult(model=model)
    best_snapshot = None
    best_acer = float("inf")
    for epoch, loss in _adam_epochs(trainable, data.train_y, cfg, cfg.seed, cfg.epochs, batch_prob):
        scores = predict(model, data.dev_x, dev_emb)
        dev_tau = threshold_from_bonafide(scores[dev_bona], cfg.bpcer_target)
        apcer, bpcer = error_rates(scores, dev_bona, dev_tau)
        dev_acer = (apcer + bpcer) / 2.0
        result.history.append(
            {"epoch": epoch, "train_loss": loss, "dev_acer": dev_acer, "dev_tau": dev_tau}
        )
        if dev_acer < best_acer:
            best_acer = dev_acer
            best_snapshot = [t.data.copy() for t in trainable]
            result.best_epoch = epoch
            result.dev_scores = scores
    for tensor, snap in zip(trainable, best_snapshot):
        tensor.data = snap
    result.best_dev_acer = best_acer
    return result


def pretrain_reference(
    gray_frames: np.ndarray,
    labels: np.ndarray,
    cfg: McCnnConfig,
) -> tuple[dict[str, dict[str, np.ndarray]], list[float]]:
    """Stage-1 surrogate for face-recognition pretraining: a gray-only
    single-branch network with a temporary 1-node head trained on the PAD
    labels (``gray_frames`` uint8) for ``cfg.pretrain_epochs``. Returns
    (backbone blocks, per-epoch mean loss)."""
    _require_8bit({ChannelId.GRAY: gray_frames})
    labels = np.asarray(labels)
    if not ((labels == 1).any() and (labels == 0).any()):
        raise FitError("pretraining needs both classes")
    backbone = init_backbone(cfg)
    pre_cfg = dataclass_replace(cfg, channels=(ChannelId.GRAY,), adapt=frozenset())
    proxy = McCnnModel(pre_cfg, {
        f"shared.{group}.{name}": ad.parameter(np.array(arr, dtype=np.float32))
        for group, block in backbone.items() for name, arr in block.items()
    })
    head_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 103)))
    head_w = ad.parameter(_he_init(head_rng, (1, pre_cfg.embedding_dim)).astype(np.float32))
    head_b = ad.parameter(np.zeros(1, dtype=np.float32))

    def batch_prob(idx: np.ndarray, flips: np.ndarray) -> Tensor:
        emb = branch_forward(proxy, ChannelId.GRAY, _flipped(gray_frames, idx, flips))
        return ad.reshape(ad.sigmoid(ad.linear(emb, head_w, head_b)), (-1,))

    params = [t for _, t in proxy.trainable()] + [head_w, head_b]
    epochs = _adam_epochs(params, labels, cfg, cfg.seed + 1, cfg.pretrain_epochs, batch_prob)
    losses = [loss for _, loss in epochs]
    return {group: {name: proxy.params[f"shared.{group}.{name}"].data for name in block}
            for group, block in backbone.items()}, losses


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def save_model(model: McCnnModel, path: str | Path) -> None:
    config_blob = json.dumps(plain(model.config), sort_keys=True).encode()
    parts = [MODEL_MAGIC, struct.pack("<BI", MODEL_VERSION, len(config_blob)), config_blob,
             struct.pack("<I", len(model.params))]
    for name, tensor in sorted(model.params.items()):
        arr = np.ascontiguousarray(tensor.data, dtype="<f4")
        encoded = name.encode()
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr)
    atomic_write(path, parts)


def load_model(path: str | Path) -> McCnnModel:
    reader = ByteReader(Path(path).read_bytes())
    reader.magic(MODEL_MAGIC, "model")
    version, config_len = reader.take("<BI", "header")
    if version != MODEL_VERSION:
        raise FormatError(f"unknown model version {version}", offset=4)
    echo = json.loads(reader.raw(config_len, "config echo").decode())
    cfg = build(McCnnConfig, echo, "model config")
    if plain(cfg) != echo:
        raise ValueError("model config echo is incomplete or not canonical")
    (n_blocks,) = reader.take("<I", "block count")
    blocks: dict[str, np.ndarray] = {}
    for _ in range(n_blocks):
        pos = reader.pos
        (name_len,) = reader.take("<H", "block name length")
        name = reader.raw(name_len, "block name").decode()
        if name in blocks:
            raise FormatError(f"repeated block name {name!r}", offset=pos)
        (ndim,) = reader.take("<B", "block rank")
        shape = reader.take(f"<{ndim}I", "block shape")
        count = math.prod(shape)
        blocks[name] = reader.array("<f4", count, "block data").reshape(shape).astype(np.float32)
    reader.end()

    shapes = _block_shapes(cfg)
    missing = set(shapes) - set(blocks)
    extra = set(blocks) - set(shapes)
    if missing or extra:
        raise ValueError(f"model blocks mismatch (missing {sorted(missing)}, extra {sorted(extra)})")
    params = {}
    for key, shape in shapes.items():
        if blocks[key].shape != shape:
            raise ValueError(f"model block {key}: shape {blocks[key].shape}, expected {shape}")
        params[key] = Tensor(blocks[key], requires_grad=not key.startswith("shared."))
    return McCnnModel(config=cfg, params=params)
