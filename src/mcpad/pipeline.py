"""End-to-end pipeline stages behind the CLI: synth -> preprocess ->
extract -> train (baselines / MC-CNN) -> eval -> report. Every stage is a
pure function of (inputs on disk, configuration); reruns write identical
bytes.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import classical, mccnn
from .config import RunConfig, mccnn_config, write_lock
from .dataset import (
    RAW_CHANNELS,
    ChannelId,
    Manifest,
    load_manifest,
    read_sample,
    sample_frames,
    save_manifest,
    synth_generate,
    write_sample,
)
from .evaluation import (
    ATTACK_TYPES,
    SPLITS,
    ProtocolSpec,
    Scores,
    build_report,
    load_report,
    load_scores,
    make_protocol,
    roc,
    save_protocol,
    save_scores,
    write_report_json,
    write_roc_csv,
)
from .features import (
    iqm_features,
    lbp_histogram,
    rdwt_haralick_features,
    read_feature_table,
    write_feature_table,
)
from .files import write_csv, write_json
from .preprocess import AlignTargets, SampleError, align_color, landmarks_path, load_landmarks, preprocess_sample


class ValidationError(ValueError):
    """A required upstream artifact or argument is missing/invalid."""


EXTRACTORS = ("lbp", "iqm", "rdwt-haralick")
PIPELINES = ("iqm-lbp-lr", "rdwt-haralick-svm")

_PIPELINE_LAYOUT = {
    "iqm-lbp-lr": {
        "classifier": "lr",
        "channels": (
            (ChannelId.COLOR, "iqm"),
            (ChannelId.DEPTH, "lbp"),
            (ChannelId.INFRARED, "lbp"),
            (ChannelId.THERMAL, "lbp"),
        ),
    },
    "rdwt-haralick-svm": {
        "classifier": "svm",
        "channels": (
            (ChannelId.GRAY, "rdwt-haralick"),
            (ChannelId.DEPTH, "rdwt-haralick"),
            (ChannelId.INFRARED, "rdwt-haralick"),
            (ChannelId.THERMAL, "rdwt-haralick"),
        ),
    },
}


def _require(path: Path, kind: str) -> Path:
    if not path.exists():
        raise ValidationError(f"missing {kind}: {path}")
    return path


def data_root(cfg: RunConfig) -> Path:
    return Path(cfg.paths.data_root)


def out_root(cfg: RunConfig) -> Path:
    return Path(cfg.paths.out_root)


def proc_dir(cfg: RunConfig) -> Path:
    return out_root(cfg) / "proc"


def features_dir(cfg: RunConfig) -> Path:
    return out_root(cfg) / "features" / cfg.protocol.name


def feature_table_path(cfg: RunConfig, split: str, channel: ChannelId, extractor: str) -> Path:
    return features_dir(cfg) / f"{split}_{channel.label}_{extractor}.mcfv"


# --------------------------------------------------------------------------
# synth / preprocess
# --------------------------------------------------------------------------

def cmd_synth(cfg: RunConfig) -> Manifest:
    root = data_root(cfg)
    samples = root / "samples"
    manifest = synth_generate(cfg.synth, cfg.seed, samples)
    save_manifest(manifest, root / "manifest.csv")
    write_lock(root, cfg, "synth")
    return manifest


def cmd_preprocess(cfg: RunConfig) -> Manifest:
    raw_manifest = load_manifest(_require(data_root(cfg) / "manifest.csv", "raw manifest"))
    targets = AlignTargets.for_size(cfg.preprocess.out_size)
    out = proc_dir(cfg)
    samples_dir = out / "samples"
    samples_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for entry in raw_manifest:
        raw = _read_channels(entry.path, RAW_CHANNELS, entry.meta)
        landmarks = load_landmarks(_require(landmarks_path(entry.path), "landmarks file"))
        indices = sample_frames(raw.frame_count(ChannelId.COLOR), cfg.preprocess.frames)
        try:
            processed, _dropped = preprocess_sample(
                raw, landmarks, targets, mad_span=cfg.preprocess.mad_span, frame_indices=indices
            )
        except SampleError as exc:
            raise SampleError(f"sample {entry.sample_id}: {exc}") from None
        path = samples_dir / f"{entry.sample_id}.mcpd"
        write_sample(processed, path)
        entries.append(type(entry)(entry.sample_id, path.resolve(), entry.meta))
    manifest = Manifest(entries)
    save_manifest(manifest, out / "manifest.csv")
    write_lock(out, cfg, "preprocess")
    return manifest


# --------------------------------------------------------------------------
# protocols
# --------------------------------------------------------------------------

def build_protocol(cfg: RunConfig, manifest: Manifest) -> ProtocolSpec:
    spec = make_protocol(manifest, cfg.protocol.name, cfg.protocol.ratios, cfg.seed)
    proto_dir = out_root(cfg) / "protocols"
    proto_dir.mkdir(parents=True, exist_ok=True)
    save_protocol(spec, proto_dir / f"{spec.name}.json")
    return spec


def _proc_manifest(cfg: RunConfig) -> Manifest:
    return load_manifest(_require(proc_dir(cfg) / "manifest.csv", "preprocessed manifest"))


# --------------------------------------------------------------------------
# feature extraction
# --------------------------------------------------------------------------

# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_heap() -> None:
    """Let glibc keep the heap that extraction frees, for the rest of the
    process.

    The IQM and RDWT-Haralick extractors allocate and free numpy
    temporaries of up to a few MB for every sample. With glibc's defaults
    the allocator hands that memory back to the OS between samples, so the
    next sample faults it in again: on the bench config a steady-state
    ``extract iqm`` took 29-44k minor faults and ``extract rdwt-haralick``
    38-41k, and the kernel took 0.21-0.31 s of a classical chain's
    1.3-1.7 s CPU. Two settings stop that:

    - ``M_MMAP_THRESHOLD`` 32 MiB serves blocks below that size from the
      heap, not from an ``mmap`` of their own that ``free`` unmaps at once;
    - ``M_TRIM_THRESHOLD`` 128 MiB keeps up to that much free memory at the
      top of the heap instead of trimming it back to the OS.

    Setting either one stops glibc raising both thresholds itself as large
    blocks are freed, so each needs the other. On the bench chain the trim
    threshold alone, set at process start, left 2-4k faults per chain
    (RDWT-Haralick blocks above the frozen mmap threshold), the mmap
    threshold alone left 94k, and both together left 11-25.

    The settings are process-wide and last for the process, like the BLAS
    thread setting of ``autodiff``; ``--jobs`` workers, forked after this
    call, inherit them. No output byte depends on them. Where the C library
    has no ``mallopt`` (not glibc) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 128 << 20)


def _read_channels(path, channels, meta=None):
    """The sample at ``path``; a ValidationError names it and the first of
    ``channels`` that it lacks."""
    sample = read_sample(path, meta=meta)
    for ch in channels:
        if ch not in sample.channels:
            raise ValidationError(f"sample {path} has no {ch.label} channel")
    return sample


def _extract_one(args) -> tuple[list[int], dict[str, np.ndarray]]:
    """Per-sample feature worker on the raw sample (iqm) or the preprocessed
    one: returns (frame indices, {channel-label: (F, dim) features})."""
    cfg, extractor, path, channels = args
    out: dict[str, np.ndarray] = {}
    if extractor == "iqm":
        raw = read_sample(path)
        landmarks = load_landmarks(landmarks_path(path))
        frame_count = raw.frame_count(next(iter(raw.channels)))
        indices = sample_frames(frame_count, cfg.preprocess.frames)
        targets = AlignTargets.for_size(cfg.preprocess.out_size)
        stack, _ = align_color(raw, landmarks, targets, frame_indices=indices)
        out[ChannelId.COLOR.label] = iqm_features(stack)
        return list(range(stack.shape[0])), out

    sample = _read_channels(path, channels)
    frames = None
    for ch in channels:
        stack = sample.channels[ch]
        if extractor == "lbp":
            out[ch.label] = lbp_histogram(stack)
        else:
            out[ch.label] = rdwt_haralick_features(stack.astype(np.float64))
        frames = list(range(stack.shape[0]))
    return frames, out


def cmd_extract(cfg: RunConfig, extractor: str, jobs: int = 1) -> None:
    """Feature table and row sidecar of ``extractor`` for every split and
    every channel that reads it.

    Work and writes go split by split: the samples of one split run, in
    manifest order, through the serial loop or the stage's one worker pool,
    that split's table is written for every channel, and its rows are dropped
    before the next split starts. The stage holds one split's rows at a time.
    """
    if extractor not in EXTRACTORS:
        raise ValidationError(f"unknown extractor {extractor!r} (choose from {EXTRACTORS})")
    channels = tuple(ch for layout in _PIPELINE_LAYOUT.values()
                     for ch, ext in layout["channels"] if ext == extractor)
    proc_manifest = _proc_manifest(cfg)
    protocol = build_protocol(cfg, proc_manifest)
    _keep_freed_heap()
    raw_manifest = None
    if extractor == "iqm":
        raw_manifest = load_manifest(_require(data_root(cfg) / "manifest.csv", "raw manifest"))

    samples: dict[str, list[tuple[str, str]]] = {split: [] for split in SPLITS}
    for entry in proc_manifest:
        try:
            path = entry.path if raw_manifest is None else raw_manifest.by_id(entry.sample_id).path
        except KeyError:
            raise ValidationError(f"raw manifest lacks processed sample {entry.sample_id!r}") from None
        samples[protocol.split_of(entry.sample_id)].append((entry.sample_id, str(path)))

    out_dir = features_dir(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    workers = min(jobs, len(proc_manifest))  # a fork-started pool launches every worker at the first submit
    with contextlib.ExitStack() as stack:
        run = map
        if workers > 1:
            # imported here: a single-job process never loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            run = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        for split, split_samples in samples.items():
            if not split_samples:
                continue
            results = list(run(_extract_one, [(cfg, extractor, path, channels) for _, path in split_samples]))
            rows = [(sid, fidx) for (sid, _), (frames, _) in zip(split_samples, results) for fidx in frames]
            for ch in channels:
                table = np.concatenate([features.pop(ch.label) for _, features in results])
                write_feature_table(feature_table_path(cfg, split, ch, extractor), table, rows)
            del table  # not held while the next split runs
    write_lock(out_dir, cfg, f"extract:{extractor}")


# --------------------------------------------------------------------------
# baselines
# --------------------------------------------------------------------------

def _attack_codes(manifest: Manifest, rows: list[tuple[str, int]]) -> np.ndarray:
    """Attack code (index into ``ATTACK_TYPES``, 0 = bonafide) of each
    ``(sample_id, frame_idx)`` row."""
    code = {e.sample_id: ATTACK_TYPES.index(e.meta.attack_type) for e in manifest}
    try:
        return np.array([code[sid] for sid, _ in rows], dtype=np.int64)
    except KeyError as exc:
        raise ValidationError(f"sample {exc.args[0]!r} is not in the preprocessed manifest") from None


def cmd_train_baseline(cfg: RunConfig, pipeline: str) -> Path:
    if pipeline not in PIPELINES:
        raise ValidationError(f"unknown pipeline {pipeline!r} (choose from {PIPELINES})")
    layout = _PIPELINE_LAYOUT[pipeline]
    manifest = _proc_manifest(cfg)
    base_dir = out_root(cfg) / "baselines" / pipeline
    scores_dir = base_dir / "scores"
    models_dir = base_dir / "models"
    scores_dir.mkdir(parents=True, exist_ok=True)
    models_dir.mkdir(parents=True, exist_ok=True)

    if layout["classifier"] == "lr":
        train, score, section = classical.lr_train, classical.lr_score, cfg.classifiers.lr
    else:
        train, score, section = classical.svm_train, classical.svm_score, cfg.classifiers.svm
    columns: dict[str, list[np.ndarray]] = {"dev": [], "eval": []}
    row_order: dict[str, list[tuple[str, int]]] = {}
    attack: dict[str, np.ndarray] = {}
    normalizer_info = {}
    for channel, extractor in layout["channels"]:
        tables = {}
        for split in ("train", "dev", "eval"):
            path = _require(feature_table_path(cfg, split, channel, extractor), "feature table")
            tables[split], rows = read_feature_table(path)
            if split not in row_order:
                row_order[split], attack[split] = rows, _attack_codes(manifest, rows)
            elif rows != row_order[split]:
                raise ValidationError("feature tables disagree on row order across channels")
        model = train(tables["train"], (attack["train"] == 0).astype(np.int64), section)
        classical.save_model(model, models_dir / f"{channel.label}.mclm")
        raw_scores = {s: score(model, tables[s]) for s in tables}

        fit_scores = np.concatenate([raw_scores["train"], raw_scores["dev"]])
        normalizer = classical.score_normalize_fit(fit_scores)
        classical.save_model(normalizer, models_dir / f"{channel.label}.norm.mclm")
        normalizer_info[channel.label] = {"min": normalizer.lo, "max": normalizer.hi}

        for split in ("dev", "eval"):
            normalized = classical.score_normalize_apply(normalizer, raw_scores[split])
            table = Scores.from_rows(row_order[split], normalized, attack[split])
            save_scores(table, scores_dir / f"{channel.label}_{split}.csv")
            columns[split].append(normalized)

    for split in ("dev", "eval"):
        fused = classical.fuse_mean(np.stack(columns[split], axis=1))
        table = Scores.from_rows(row_order[split], fused, attack[split])
        save_scores(table, scores_dir / f"fused_{split}.csv")

    info = {
        "pipeline": pipeline,
        "classifier": layout["classifier"],
        "channels": [ch.label for ch, _ in layout["channels"]],
        "normalizers": normalizer_info,
        "normalizer_fit": "train+dev",
    }
    write_json(base_dir / "pipeline.json", info)
    write_lock(base_dir, cfg, f"train-baseline:{pipeline}")
    return base_dir


# --------------------------------------------------------------------------
# MC-CNN
# --------------------------------------------------------------------------

@dataclass
class _SplitArrays:
    frames: dict[ChannelId, np.ndarray]
    rows: list[tuple[str, int]]
    attack: np.ndarray

    @property
    def labels(self) -> np.ndarray:
        return (self.attack == 0).astype(np.int64)


def _split_arrays(
    cfg: RunConfig, manifest: Manifest, protocol: ProtocolSpec, channels, split: str
) -> _SplitArrays:
    """The 8-bit frames of ``channels`` for every sample of ``split``, in
    manifest order; ``mccnn`` maps them to network input batch by batch."""
    stacks: dict[ChannelId, list[np.ndarray]] = {ch: [] for ch in channels}
    rows = []
    for entry in manifest:
        if protocol.split_of(entry.sample_id) != split:
            continue
        sample = _read_channels(entry.path, channels, entry.meta)
        count = sample.frame_count(channels[0])
        for ch in channels:
            stacks[ch].append(sample.channels[ch])
        rows.extend((entry.sample_id, i) for i in range(count))
    return _SplitArrays(
        frames={ch: np.concatenate(stacks[ch]) for ch in channels},
        rows=rows,
        attack=_attack_codes(manifest, rows),
    )


def mccnn_run_label(net_cfg) -> str:
    """Self-describing output tag, e.g. ``GDIT_C1-B1`` or ``G_none``: channel
    initials plus the adapt set, so ablation runs share one output root."""
    channels = "".join(ch.label[0].upper() for ch in net_cfg.channels)
    adapt = "-".join(sorted(net_cfg.adapt)) if net_cfg.adapt else "none"
    return f"{channels}_{adapt}"


def mccnn_out_dir(cfg: RunConfig) -> Path:
    return out_root(cfg) / "mccnn" / mccnn_run_label(mccnn_config(cfg))


def cmd_train_mccnn(cfg: RunConfig) -> Path:
    if cfg.mccnn.input_size != cfg.preprocess.out_size:  # checked before any frame is read
        raise ValidationError(f"mccnn.input_size {cfg.mccnn.input_size} does not match "
                              f"preprocess.out_size {cfg.preprocess.out_size}")
    manifest = _proc_manifest(cfg)
    protocol = build_protocol(cfg, manifest)
    for split in SPLITS:  # checked before training: eval is read only after it
        if split not in protocol.assignment.values():
            raise ValidationError(f"split {split!r} is empty")
    net_cfg = mccnn_config(cfg)
    load_channels = tuple(dict.fromkeys((*net_cfg.channels, ChannelId.GRAY)))
    train_data = _split_arrays(cfg, manifest, protocol, load_channels, "train")
    dev_data = _split_arrays(cfg, manifest, protocol, load_channels, "dev")

    if cfg.mccnn.pretrain:
        backbone, pretrain_losses = mccnn.pretrain_reference(
            train_data.frames[ChannelId.GRAY], train_data.labels, net_cfg
        )
    else:
        backbone, pretrain_losses = mccnn.init_backbone(net_cfg), []

    out = mccnn_out_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    model = mccnn.build_model(net_cfg, backbone)
    del backbone  # the model holds its own copy; training runs on it in place
    mccnn.save_model(model, out / "init.mcnn")

    result = mccnn.train(
        mccnn.TrainData(
            train_x={ch: train_data.frames[ch] for ch in net_cfg.channels},
            train_y=train_data.labels,
            dev_x={ch: dev_data.frames[ch] for ch in net_cfg.channels},
            dev_y=dev_data.labels,
        ),
        net_cfg,
        model,
    )
    mccnn.save_model(result.model, out / "model.mcnn")

    save_scores(Scores.from_rows(dev_data.rows, result.dev_scores, dev_data.attack), out / "scores_dev.csv")
    eval_data = _split_arrays(cfg, manifest, protocol, net_cfg.channels, "eval")
    eval_scores = mccnn.predict(result.model, {ch: eval_data.frames[ch] for ch in net_cfg.channels})
    save_scores(Scores.from_rows(eval_data.rows, eval_scores, eval_data.attack), out / "scores_eval.csv")

    history_header = ["epoch", "train_loss", "dev_acer", "dev_tau"]
    history = [(f"pretrain_{i}", loss, None, None) for i, loss in enumerate(pretrain_losses)]
    history.extend([record[key] for key in history_header] for record in result.history)
    write_csv(out / "history.csv", history, history_header)
    write_lock(out, cfg, "train-mccnn")
    return out


# --------------------------------------------------------------------------
# eval / report
# --------------------------------------------------------------------------

def cmd_eval(
    cfg: RunConfig,
    protocol_name: str,
    dev_scores_path: str | Path,
    eval_scores_path: str | Path,
    name: str | None = None,
) -> Path:
    """``report.json``, ``roc.csv`` and the lock in ``eval/<protocol>_<name>``."""
    if protocol_name != cfg.protocol.name:
        raise ValidationError(f"protocol {protocol_name!r} differs from the configured {cfg.protocol.name!r}")
    dev_scores = load_scores(_require(Path(dev_scores_path), "dev score file"))
    eval_scores = load_scores(_require(Path(eval_scores_path), "eval score file"))
    report = build_report(dev_scores, eval_scores, cfg.protocol.bpcer_target, protocol_name)
    label = name or Path(dev_scores_path).stem.removesuffix("_dev")
    out = out_root(cfg) / "eval" / f"{protocol_name}_{label}"
    out.mkdir(parents=True, exist_ok=True)
    write_report_json(report, out / "report.json")
    write_roc_csv(roc(eval_scores), out / "roc.csv")
    write_lock(out, cfg, f"eval:{protocol_name}:{label}")
    return out


def cmd_report(cfg: RunConfig) -> Path:
    """``report/summary.csv``: the dev and eval rates of every experiment
    directory under ``eval/``, each read from its ``report.json``."""
    eval_root = _require(out_root(cfg) / "eval", "eval outputs")
    rows = []
    for experiment in sorted(path for path in eval_root.iterdir() if path.is_dir()):
        report = load_report(_require(experiment / "report.json", "eval report"))
        for split, metrics in (("dev", report.dev), ("eval", report.eval)):
            rows.append((experiment.name, split, metrics.apcer, metrics.bpcer, metrics.acer, report.threshold))
    out = out_root(cfg) / "report"
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "summary.csv", rows, ["experiment", "split", "apcer", "bpcer", "acer", "threshold"])
    write_lock(out, cfg, "report")
    return out / "summary.csv"
