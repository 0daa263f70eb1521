"""Reference code the tests check the package against; nothing in ``src/``
calls it.

``mse_loss`` and ``check_gradients`` give the autodiff ops a quadratic
objective and central finite differences; ``grad_check`` runs them through
the whole MC-CNN, and ``block_bytes`` serializes a model's parameter blocks
for byte comparisons. ``conv2d_im2col`` is the convolution that keeps its
im2col columns in the graph, folds a column gradient back (col2im) and
takes numpy's sums over the batch for its weight and bias gradients;
``autodiff.conv2d`` must match its output and gradients byte for byte.
``branch_forward_whole_batch`` is ``mccnn.branch_forward`` with the
C1 -> B1 -> G1 trunk run over the whole batch in one pass through
``conv2d_im2col``; the blocked trunk must match its embedding and gradients
byte for byte. ``train_float``, ``predict_float`` and
``pretrain_reference_float`` are the MC-CNN's training and scoring as they
ran on float frames that ``frames_to_input`` mapped up front (a whole split
at a time); ``train``, ``predict`` and ``pretrain_reference``, which take
8-bit frames and map each batch, must match their model bytes, scores and
history byte for byte. ``bilinear_sample`` and ``lbp_code`` are the per-pixel forms
of ``warp``'s and ``lbp_code_map``'s sampling. ``warp_frame``, ``mad_fit_frame``,
``mad_normalize_frame`` and ``preprocess_sample_frames`` are the one-frame,
one-channel preprocessing that the stack forms of ``warp``, ``mad_fit``,
``mad_normalize`` and ``preprocess_sample`` must match byte for byte, and
``lr_training_losses`` evaluates the objective along ``lr_train``'s own
descent. ``iqm_frame`` (with its per-measure functions) and
``lbp_code_map_frame`` / ``lbp_histogram_frame`` are the one-frame
extractors that the stack forms of ``iqm_features``, ``lbp_code_map`` and
``lbp_histogram`` must match bit for bit. ``at_blas_threads`` runs a call
with numpy's OpenBLAS on more threads than the one autodiff sets.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Mapping, Sequence

import numpy as np

import mcpad.autodiff as ad
from mcpad.autodiff import Tensor
from mcpad.classical import POP_BONAFIDE_ONLY, LrConfig, _lr_descent, _sigmoid, _standardized
from mcpad.dataset import ChannelId, MultiChannelSample
from mcpad.features.iqm import (
    _EPS,
    _LOW_FREQ_RADIUS,
    EDGE_THRESHOLD,
    HARRIS_K,
    HARRIS_REL_THRESHOLD,
    PSNR_CAP,
    gaussian_kernel,
)
from mcpad.features.lbp import LbpConfig, neighbor_offsets, uniform_table
from mcpad import mccnn
from mcpad.evaluation import error_rates, threshold_from_bonafide
from mcpad.mccnn import (
    McCnnConfig,
    McCnnModel,
    TrainResult,
    batch_class_weights,
    branch_forward,
    build_model,
    forward,
    init_backbone,
)
from mcpad.preprocess import (
    _NONCOLOR,
    AlignTargets,
    Landmarks,
    MadParams,
    SampleError,
    _kept_frames,
    estimate_similarity,
    to_gray,
)


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


def at_blas_threads(count: int, fn: Callable[[], object]):
    """``fn()`` with numpy's OpenBLAS on ``count`` threads, then back on the
    one thread that conv2d leaves it on."""
    ad._use_one_blas_thread()  # already done, so a conv2d inside fn changes nothing
    setter = ad._blas_thread_setter()
    setter(count)
    try:
        return fn()
    finally:
        setter(1)


def block_bytes(model: McCnnModel) -> dict[str, bytes]:
    """Serialized (float32) bytes of every named parameter block."""
    return {name: np.asarray(t.data, dtype="<f4").tobytes() for name, t in model.params.items()}


def conv2d_im2col(x: Tensor, weight: Tensor, bias: Tensor, padding: int = 0) -> Tensor:
    """Stride-1 cross-correlation through one im2col matrix that the graph keeps for
    the weight gradient; the input gradient is one matmul into columns
    folded back tap by tap (col2im); the weight and bias gradients are
    numpy's sums over the whole batch."""
    n, c, h, w = x.data.shape
    f, wc, kh, kw = weight.data.shape
    if wc != c:
        raise ValueError(f"conv2d channel mismatch: input {c}, weight {wc}")
    oh = h + 2 * padding - kh + 1
    ow = w + 2 * padding - kw + 1
    if oh < 1 or ow < 1:
        raise ValueError("conv2d output would be empty")

    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else x.data
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.data.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + oh, j : j + ow]
    cols2 = cols.reshape(n, c * kh * kw, oh * ow)
    w2 = weight.data.reshape(f, c * kh * kw)
    out = np.matmul(w2[None], cols2)
    out += bias.data[None, :, None]
    if not weight.requires_grad:
        cols2 = None  # the weight gradient is the only reader of the columns
    padded_shape = xp.shape

    def backward(grad):
        g = grad.reshape(n, f, oh * ow)
        if weight.requires_grad:
            weight.accumulate(np.matmul(g, cols2.transpose(0, 2, 1)).sum(axis=0).reshape(weight.data.shape))
        if bias.requires_grad:
            bias.accumulate(g.sum(axis=(0, 2)))
        if x.requires_grad:
            dcols = np.matmul(w2.T[None], g).reshape(n, c, kh, kw, oh, ow)
            dxp = np.zeros(padded_shape, dtype=x.data.dtype)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, :, i : i + oh, j : j + ow] += dcols[:, :, i, j]
            dx = dxp[:, :, padding : padding + h, padding : padding + w] if padding else dxp
            x.accumulate(dx)

    return ad._wrap(out.reshape(n, f, oh, ow), (x, weight, bias), backward)


def branch_forward_whole_batch(model: McCnnModel, channel: ChannelId, frames: np.ndarray) -> Tensor:
    """One channel's (N, E) embedding with the C1 -> B1 -> G1 trunk run
    over all N frames at once (``conv2d_im2col``, ``ad.mfm``,
    ``ad.maxpool2d``), then EMB."""
    x = Tensor(np.asarray(frames, dtype=model.dtype)[:, None])
    for group, padding in (("C1", 2), ("B1", 1), ("G1", 1)):
        block = model.block(channel, group)
        x = ad.maxpool2d(ad.mfm(conv2d_im2col(x, block["conv_w"], block["conv_b"], padding=padding)))
    emb = model.block(channel, "EMB")
    return ad.mfm(ad.linear(ad.flatten(x), emb["lin_w"], emb["lin_b"]))


def _flipped_float(stack: np.ndarray, idx: np.ndarray, flips: np.ndarray) -> np.ndarray:
    frames = np.array(stack[idx])
    if flips.any():
        frames[flips] = frames[flips][..., ::-1]
    return frames


def _embed_float(model: McCnnModel, channel: ChannelId, frames: np.ndarray) -> np.ndarray:
    chunk = mccnn.EMBED_CHUNK
    out = np.empty((frames.shape[0], model.config.embedding_dim), dtype=model.dtype)
    for lo in range(0, frames.shape[0], chunk):
        out[lo : lo + chunk] = branch_forward(model, channel, frames[lo : lo + chunk]).data
    return out


def predict_float(
    model: McCnnModel,
    frames: Mapping[ChannelId, np.ndarray],
    embeddings: Mapping[ChannelId, np.ndarray] | None = None,
) -> np.ndarray:
    """``mccnn.predict`` over float frames, ``PREDICT_BATCH`` rows a pass."""
    embeddings = embeddings or {}
    view = model.frozen()
    n = next(iter(frames.values())).shape[0]
    scores = np.empty(n, dtype=np.float64)
    for lo in range(0, n, mccnn.PREDICT_BATCH):
        rows = slice(lo, lo + mccnn.PREDICT_BATCH)
        parts = [
            Tensor(embeddings[ch][rows]) if ch in embeddings else branch_forward(view, ch, frames[ch][rows])
            for ch in model.config.channels
        ]
        scores[rows] = mccnn._head(view, parts).data
    return scores


def train_float(
    train_x: Mapping[ChannelId, np.ndarray],
    train_y: np.ndarray,
    dev_x: Mapping[ChannelId, np.ndarray],
    dev_y: np.ndarray,
    cfg: McCnnConfig,
    backbone,
) -> TrainResult:
    """``mccnn.train`` over float frames: frozen branches embed the whole
    split and its mirrored copy, and each batch is a float copy with its
    flipped rows mirrored."""
    model = build_model(cfg, backbone)
    frozen = {ch for ch in cfg.channels if ch is ChannelId.GRAY or not cfg.adapt}
    emb_plain = {ch: _embed_float(model, ch, train_x[ch]) for ch in frozen}
    emb_flip = emb_plain
    if cfg.flip_prob > 0.0:
        emb_flip = {ch: _embed_float(model, ch, np.ascontiguousarray(train_x[ch][..., ::-1])) for ch in frozen}
    dev_emb = {ch: _embed_float(model, ch, dev_x[ch]) for ch in frozen}

    def batch_prob(idx, flips):
        parts = []
        for ch in cfg.channels:
            if ch in frozen:
                parts.append(Tensor(np.where(flips[:, None], emb_flip[ch][idx], emb_plain[ch][idx])))
            else:
                parts.append(branch_forward(model, ch, _flipped_float(train_x[ch], idx, flips)))
        return mccnn._head(model, parts)

    trainable = [t for _, t in model.trainable()]
    result = TrainResult(model=model)
    best_snapshot, best_acer = None, float("inf")
    for epoch, loss in mccnn._adam_epochs(trainable, train_y, cfg, cfg.seed, cfg.epochs, batch_prob):
        scores = predict_float(model, dev_x, dev_emb)
        dev_tau = threshold_from_bonafide(scores[dev_y == 1], cfg.bpcer_target)
        apcer, bpcer = error_rates(scores, dev_y == 1, dev_tau)
        dev_acer = (apcer + bpcer) / 2.0
        result.history.append({"epoch": epoch, "train_loss": loss, "dev_acer": dev_acer, "dev_tau": dev_tau})
        if dev_acer < best_acer:
            best_acer, result.best_epoch, result.dev_scores = dev_acer, epoch, scores
            best_snapshot = [t.data.copy() for t in trainable]
    if best_snapshot is not None:
        for tensor, snap in zip(trainable, best_snapshot):
            tensor.data = snap
    else:
        result.dev_scores = predict_float(model, dev_x, dev_emb)
    result.best_dev_acer = best_acer
    return result


def pretrain_reference_float(gray_frames: np.ndarray, labels: np.ndarray, cfg: McCnnConfig):
    """``mccnn.pretrain_reference`` over float gray frames."""
    backbone = init_backbone(cfg)
    pre_cfg = dataclasses.replace(cfg, channels=(ChannelId.GRAY,), adapt=frozenset())
    proxy = McCnnModel(pre_cfg, {
        f"shared.{group}.{name}": ad.parameter(np.array(arr, dtype=np.float32))
        for group, block in backbone.items() for name, arr in block.items()
    })
    head_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 103)))
    head_w = ad.parameter(mccnn._he_init(head_rng, (1, pre_cfg.embedding_dim)).astype(np.float32))
    head_b = ad.parameter(np.zeros(1, dtype=np.float32))

    def batch_prob(idx, flips):
        emb = branch_forward(proxy, ChannelId.GRAY, _flipped_float(gray_frames, idx, flips))
        return ad.reshape(ad.sigmoid(ad.linear(emb, head_w, head_b)), (-1,))

    params = [t for _, t in proxy.trainable()] + [head_w, head_b]
    losses = [loss for _, loss in mccnn._adam_epochs(params, labels, cfg, cfg.seed + 1, cfg.pretrain_epochs,
                                                    batch_prob)]
    return {group: {name: proxy.params[f"shared.{group}.{name}"].data for name in block}
            for group, block in backbone.items()}, losses


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


def warp_frame(frame: np.ndarray, transform: np.ndarray, out_size: int) -> np.ndarray:
    """Resample ``frame`` through the inverse of a 2x3 source->target
    transform; bilinear, out-of-bounds reads 0. Integer inputs are rounded
    back to their dtype."""
    transform = np.asarray(transform, dtype=np.float64)
    if transform.shape != (2, 3):
        raise ValueError("transform must be 2x3")
    lin = transform[:, :2]
    shift = transform[:, 2]
    inv = np.linalg.inv(lin)

    img = np.asarray(frame)
    squeeze = img.ndim == 2
    planes = img[:, :, None] if squeeze else img
    h, w = planes.shape[:2]

    xs, ys = np.meshgrid(np.arange(out_size, dtype=np.float64),
                         np.arange(out_size, dtype=np.float64))
    src = np.stack([xs.ravel(), ys.ravel()]) - shift[:, None]
    src = inv @ src
    sx, sy = src[0], src[1]

    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    fx = sx - x0
    fy = sy - y0

    out = np.zeros((out_size * out_size, planes.shape[2]), dtype=np.float64)
    data = planes.reshape(h * w, -1).astype(np.float64)
    for dy, wy in ((0, 1 - fy), (1, fy)):
        for dx, wx in ((0, 1 - fx), (1, fx)):
            xi = x0 + dx
            yi = y0 + dy
            valid = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
            idx = np.where(valid, yi * w + xi, 0)
            out += (wx * wy * valid)[:, None] * data[idx]

    out = out.reshape(out_size, out_size, planes.shape[2])
    if squeeze:
        out = out[:, :, 0]
    if np.issubdtype(img.dtype, np.integer):
        info = np.iinfo(img.dtype)
        return np.clip(np.rint(out), info.min, info.max).astype(img.dtype)
    return out


def mad_fit_frame(frame: np.ndarray, span: float = 4.0) -> MadParams:
    """Median and median-absolute-deviation over all pixels."""
    values = np.asarray(frame, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("empty frame")
    median = float(np.median(values))
    mad = float(np.median(np.abs(values - median)))
    return MadParams(median=median, mad=mad, span=span)


def mad_normalize_frame(frame: np.ndarray, params: MadParams) -> np.ndarray:
    """Map intensities to 8 bit: 128 + (128/span)*(v-median)/MAD, rounded and
    clamped; a zero MAD maps the whole frame to 128."""
    frame = np.asarray(frame, dtype=np.float64)
    if params.mad <= 0.0:
        return np.full(frame.shape, 128, dtype=np.uint8)
    scaled = 128.0 + (128.0 / params.span) * ((frame - params.median) / params.mad)
    scaled = np.round(scaled, 9)
    return np.clip(np.floor(scaled + 0.5), 0, 255).astype(np.uint8)


def preprocess_sample_frames(
    raw: MultiChannelSample,
    landmarks: Mapping[int, Landmarks],
    targets: AlignTargets,
    mad_span: float = 4.0,
    frame_indices: Sequence[int] | None = None,
) -> tuple[MultiChannelSample, int]:
    """``preprocess_sample`` one frame and one channel at a time."""
    if ChannelId.COLOR not in raw.channels:
        raise SampleError("raw sample must carry the color channel")
    kept, dropped = _kept_frames(raw, landmarks, frame_indices)
    if not kept:
        raise SampleError("all frames dropped (no landmarks)")

    size = targets.out_size
    gray_frames = []
    extra: dict[ChannelId, list[np.ndarray]] = {ch: [] for ch in _NONCOLOR if ch in raw.channels}
    for i in kept:
        matrix = estimate_similarity(landmarks[i], targets)
        gray_frames.append(warp_frame(to_gray(raw.channels[ChannelId.COLOR][i]), matrix, size))
        for ch, acc in extra.items():
            warped = warp_frame(raw.channels[ch][i], matrix, size)
            acc.append(mad_normalize_frame(warped, mad_fit_frame(warped, mad_span)))

    channels = {ChannelId.GRAY: np.stack(gray_frames)}
    for ch, acc in extra.items():
        channels[ch] = np.stack(acc)
    return MultiChannelSample(meta=raw.meta, channels=channels), dropped


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


def lr_training_losses(features: np.ndarray, labels: np.ndarray, cfg: LrConfig = LrConfig()) -> np.ndarray:
    """Objective at init and after each epoch of ``lr_train``'s descent."""
    xs, y, _ = _standardized(features, labels, POP_BONAFIDE_ONLY)
    descent = _lr_descent(xs, y, cfg.l2, cfg.epochs, cfg.learning_rate)
    return np.array([lr_loss(w, b, xs, y, cfg.l2) for w, b in descent])


# one-frame image-quality measures

def smooth(image: np.ndarray, kernel: np.ndarray | None = None) -> np.ndarray:
    """2-D correlation with mirrored (edge-inclusive) borders."""
    img = np.asarray(image, dtype=np.float64)
    k = gaussian_kernel() if kernel is None else kernel
    kh, kw = k.shape
    py, px = kh // 2, kw // 2
    padded = np.pad(img, ((py, py), (px, px)), mode="symmetric")
    out = np.zeros_like(img)
    for i in range(kh):
        for j in range(kw):
            out += k[i, j] * padded[i : i + img.shape[0], j : j + img.shape[1]]
    return out


def _gradients(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gy, gx = np.gradient(img)
    return gx, gy


def _laplacian(img: np.ndarray) -> np.ndarray:
    return (
        img[1:-1, 2:] + img[1:-1, :-2] + img[2:, 1:-1] + img[:-2, 1:-1] - 4.0 * img[1:-1, 1:-1]
    )


def _wrap_angle(d: np.ndarray) -> np.ndarray:
    return (d + np.pi) % (2.0 * np.pi) - np.pi


def _harris_corner_count(img: np.ndarray) -> int:
    gx, gy = _gradients(img)
    k = gaussian_kernel()
    ixx = smooth(gx * gx, k)
    iyy = smooth(gy * gy, k)
    ixy = smooth(gx * gy, k)
    resp = ixx * iyy - ixy**2 - HARRIS_K * (ixx + iyy) ** 2
    peak = resp.max()
    if peak <= 0:
        return 0
    # local maxima over a 3x3 neighborhood (edge-padded with -inf)
    padded = np.pad(resp, 1, mode="constant", constant_values=-np.inf)
    local_max = np.full(resp.shape, True)
    for dy in range(3):
        for dx in range(3):
            local_max &= resp >= padded[dy : dy + resp.shape[0], dx : dx + resp.shape[1]]
    return int(np.sum(local_max & (resp > HARRIS_REL_THRESHOLD * peak)))


def _hlfi(img: np.ndarray) -> float:
    mag = np.abs(np.fft.fft2(img))
    total = mag.sum()
    if total <= _EPS:
        return 0.0
    fy = np.fft.fftfreq(img.shape[0])[:, None]
    fx = np.fft.fftfreq(img.shape[1])[None, :]
    low = np.sqrt(fy**2 + fx**2) <= _LOW_FREQ_RADIUS
    low_sum = mag[low].sum()
    return float((low_sum - (total - low_sum)) / total)


def _mse(i, r):
    return float(np.mean((i - r) ** 2))


def _psnr(i, r):
    mse = _mse(i, r)
    if mse <= _EPS:
        return PSNR_CAP
    return float(min(PSNR_CAP, 10.0 * np.log10(255.0**2 / mse)))


def _snr(i, r):
    mse = _mse(i, r)
    if mse <= _EPS:
        return PSNR_CAP
    return float(min(PSNR_CAP, 10.0 * np.log10(max(np.mean(i**2), _EPS) / mse)))


def _structural_content(i, r):
    denom = float(np.sum(r**2))
    if denom <= _EPS:
        return 1.0
    return float(np.sum(i**2) / denom)


def _ncc(i, r):
    denom = float(np.sum(i**2))
    if denom <= _EPS:
        return 1.0
    return float(np.sum(i * r) / denom)


def _avg_diff(i, r):
    return float(np.mean(i - r))


def _max_diff(i, r):
    return float(np.max(np.abs(i - r)))


def _nae(i, r):
    denom = float(np.sum(np.abs(i)))
    if denom <= _EPS:
        return 0.0
    return float(np.sum(np.abs(i - r)) / denom)


def _lmse(i, r):
    li = _laplacian(i)
    lr = _laplacian(r)
    denom = float(np.sum(li**2))
    if denom <= _EPS:
        return 0.0
    return float(np.sum((li - lr) ** 2) / denom)


def _spectral_magnitude(i, r):
    return float(np.mean((np.abs(np.fft.fft2(i)) - np.abs(np.fft.fft2(r))) ** 2))


def _spectral_phase(i, r):
    d = _wrap_angle(np.angle(np.fft.fft2(i)) - np.angle(np.fft.fft2(r)))
    return float(np.mean(d**2))


def _gradient_magnitude_error(i, r):
    gi = np.hypot(*_gradients(i))
    gr = np.hypot(*_gradients(r))
    return float(np.mean((gi - gr) ** 2))


def _grad_angles(i, r):
    gxi, gyi = _gradients(i)
    gxr, gyr = _gradients(r)
    ni = np.hypot(gxi, gyi)
    nr = np.hypot(gxr, gyr)
    dot = gxi * gxr + gyi * gyr
    denom = ni * nr
    cos = np.where(denom > _EPS, dot / np.maximum(denom, _EPS), 1.0)
    alpha = np.arccos(np.clip(cos, -1.0, 1.0))
    dist = np.hypot(gxi - gxr, gyi - gyr)
    return alpha, dist


def _mean_angle_similarity(i, r):
    alpha, _ = _grad_angles(i, r)
    return float(1.0 - np.mean(2.0 * alpha / np.pi))


def _mean_angle_magnitude_similarity(i, r):
    alpha, dist = _grad_angles(i, r)
    chi = 1.0 - (1.0 - 2.0 * alpha / np.pi) * (1.0 - np.minimum(dist, 255.0) / 255.0)
    return float(1.0 - np.mean(chi))


def _total_edge_difference(i, r):
    ei = np.hypot(*_gradients(i)) >= EDGE_THRESHOLD
    er = np.hypot(*_gradients(r)) >= EDGE_THRESHOLD
    return float(np.mean(ei != er))


def _total_corner_difference(i, r):
    ni = _harris_corner_count(i)
    nr = _harris_corner_count(r)
    return float(abs(ni - nr) / max(1.0, ni, nr))


def _hist_chi_square(i, r):
    hi = np.bincount(np.clip(np.rint(i), 0, 255).astype(np.int64).ravel(), minlength=256)
    hr = np.bincount(np.clip(np.rint(r), 0, 255).astype(np.int64).ravel(), minlength=256)
    num = (hi - hr).astype(np.float64) ** 2
    den = (hi + hr).astype(np.float64)
    mask = den > 0
    return float(np.sum(num[mask] / den[mask]) / i.size)


def _hlfi_delta(i, r):
    return _hlfi(i) - _hlfi(r)


IQM_MEASURES: tuple[tuple[str, callable], ...] = (
    ("mse", _mse),
    ("psnr", _psnr),
    ("snr", _snr),
    ("structural_content", _structural_content),
    ("ncc", _ncc),
    ("avg_diff", _avg_diff),
    ("max_diff", _max_diff),
    ("nae", _nae),
    ("laplacian_mse", _lmse),
    ("spectral_magnitude", _spectral_magnitude),
    ("spectral_phase", _spectral_phase),
    ("gradient_magnitude", _gradient_magnitude_error),
    ("mean_angle_similarity", _mean_angle_similarity),
    ("mean_angle_magnitude", _mean_angle_magnitude_similarity),
    ("total_edge_diff", _total_edge_difference),
    ("total_corner_diff", _total_corner_difference),
    ("hist_chi_square", _hist_chi_square),
    ("hlfi", _hlfi_delta),
)

IQM_NAMES = tuple(name for name, _ in IQM_MEASURES)


def iqm_frame(rgb: np.ndarray, measures: tuple[str, ...] | None = None) -> np.ndarray:
    """Measure vector for one RGB frame (canonical measure order)."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[-1] != 3:
        raise ValueError("expected an (H,W,3) frame")
    selected = IQM_NAMES if measures is None else tuple(measures)
    unknown = set(selected) - set(IQM_NAMES)
    if unknown:
        raise ValueError(f"unknown IQM measures: {sorted(unknown)}")
    lum = to_gray(rgb).astype(np.float64)
    ref = smooth(lum)
    table = dict(IQM_MEASURES)
    return np.array([table[name](lum, ref) for name in selected], dtype=np.float64)


# one-frame local binary patterns

def lbp_code_map_frame(image: np.ndarray, cfg: LbpConfig) -> np.ndarray:
    """Vectorized code image over all pixels at least ceil(R) from the
    border; shape (H-2m, W-2m)."""
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape
    m = math.ceil(cfg.r)
    if h <= 2 * m or w <= 2 * m:
        raise ValueError("image too small for the configured radius")
    ch, cw = h - 2 * m, w - 2 * m
    center = img[m : m + ch, m : m + cw]
    codes = np.zeros((ch, cw), dtype=np.int64)
    for k, (dx, dy) in enumerate(neighbor_offsets(cfg.p, cfg.r)):
        x0, y0 = math.floor(dx), math.floor(dy)
        fx, fy = dx - x0, dy - y0
        base_y, base_x = m + y0, m + x0
        val = (1 - fx) * (1 - fy) * img[base_y : base_y + ch, base_x : base_x + cw]
        if fx:
            val = val + fx * (1 - fy) * img[base_y : base_y + ch, base_x + 1 : base_x + 1 + cw]
        if fy:
            val = val + (1 - fx) * fy * img[base_y + 1 : base_y + 1 + ch, base_x : base_x + cw]
        if fx and fy:
            val = val + fx * fy * img[base_y + 1 : base_y + 1 + ch, base_x + 1 : base_x + 1 + cw]
        codes |= (val >= center).astype(np.int64) << k
    return codes


def lbp_histogram_frame(image: np.ndarray, cfg: LbpConfig) -> np.ndarray:
    """Concatenated per-block L1-normalized code histograms (blocks row-major
    over the code map, block sizes floored)."""
    codes = lbp_code_map_frame(image, cfg)
    rows, cols = cfg.grid
    bh, bw = codes.shape[0] // rows, codes.shape[1] // cols
    if bh < 1 or bw < 1:
        raise ValueError("image too small for the configured grid")
    table = uniform_table(cfg.p) if cfg.uniform else None
    bins = cfg.bins
    parts = []
    for by in range(rows):
        for bx in range(cols):
            block = codes[by * bh : (by + 1) * bh, bx * bw : (bx + 1) * bw].ravel()
            binned = table[block] if table is not None else block
            hist = np.bincount(binned, minlength=bins).astype(np.float64)
            parts.append(hist / hist.sum())
    return np.concatenate(parts)
