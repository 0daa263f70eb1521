"""Workloads, timed chain, output checks and metrics of the mcpad benchmark.

A run repeats, until the measurement window is used up: generate the
workload's raw inputs (set-up, timed on its own), then run the timed chain of
``mcpad.pipeline.cmd_*`` stages in a fresh output directory. With
tracing on, one more repetition runs under ``spans.traced`` and gives the
per-layer metrics. After every repetition the outputs are checked; a stage
that raised or whose outputs fail a check counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from mcpad import pipeline
from mcpad.config import RunConfig, load_config
from mcpad.dataset import load_manifest, read_sample

from spans import Tracer, traced

ROOT = Path(__file__).resolve().parent.parent

# Shared by every workload: the default synthetic roster (16 bonafide
# clients, 4 instruments for each of the 7 attack types) at 2 frames per
# sample, so that one repetition of the slowest chain takes a few seconds
# and a run fits several repetitions.
SCALE = ("synth.frames_per_sample=2",)

# Set-up is short, so it is repeated before every repetition of the chain
# and the median reported.
SETUP_PER_REP = 2
# Every run compares at least two repetitions of the chain byte for byte.
MIN_REPS = 2

EXTRACTORS = ("lbp", "iqm", "rdwt-haralick")
BASELINES = ("iqm-lbp-lr", "rdwt-haralick-svm")
MODELS = (*BASELINES, "mccnn")


@dataclass(frozen=True)
class Workload:
    name: str
    chain: str  # "classical" or "mccnn"
    overrides: tuple[str, ...]
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grandtest-classical", "classical", (),
            "feature extraction dominates and autodiff never runs: an extractor gain "
            "shows here only",
        ),
        Workload(
            "grandtest-mccnn", "mccnn",
            ("mccnn.epochs=3", "mccnn.pretrain_epochs=2"),
            "MC-CNN forward and backward dominate and no classical feature is extracted",
        ),
        Workload(
            "loo-mccnn-frozen", "mccnn",
            ("protocol.name=LOO_replay", "mccnn.adapt=[]", "mccnn.pretrain=false",
             "mccnn.epochs=10"),
            "every branch frozen: the same conv/pool/MFM ops run forward only; "
            "also the unseen-attack protocol",
        ),
    )
}

STAGES = (
    "preprocess", *(f"extract.{e}" for e in EXTRACTORS),
    *(f"train-baseline.{p}" for p in BASELINES), "train-mccnn", "eval", "report",
)

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("chain_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def _timed_layers() -> list[str]:
    names = ["dataset.read_sample", "dataset.write_sample"]
    names += [f"preprocess.{f}" for f in ("warp", "mad_fit", "preprocess_sample", "align_color")]
    names += [f"features.{f}" for f in (
        "lbp_histogram", "iqm_features", "rdwt_haar", "glcm", "haralick13",
        "rdwt_haralick_features", "read_feature_table", "write_feature_table")]
    names += ["classical.lr_train", "classical.svm_train"]
    names += [f"autodiff.conv2d.{g}.{d}" for g in ("C1", "B1", "G1") for d in ("fwd", "bwd")]
    names += [f"autodiff.{op}.{d}" for op in ("maxpool2d", "mfm") for d in ("fwd", "bwd")]
    names += [f"autodiff.linear.{g}.{d}" for g in ("EMB", "FFC") for d in ("fwd", "bwd")]
    names += ["autodiff.sigmoid", "autodiff.weighted_bce", "autodiff.Tensor.backward",
              "mccnn.save_model"]
    names += [f"evaluation.{f}" for f in ("build_report", "roc", "save_scores", "load_scores")]
    return names


TIMED_LAYERS = _timed_layers()
# Reported as one metric: forward plus backward self time, forward calls.
FWD_BWD_AS_ONE = ("autodiff.sigmoid", "autodiff.weighted_bce")

PER_LAYER = (
    *((f"pipeline.{s}.s", "s", "lower") for s in STAGES),
    *(m for name in TIMED_LAYERS
      for m in ((f"{name}.self_s", "s", "lower"), (f"{name}.calls", "count", "lower"))),
    ("dataset.read_sample.mb", "MB", "lower"),
    ("dataset.write_sample.mb", "MB", "lower"),
    ("preprocess.frames_kept_ratio", "ratio", "higher"),
    ("autodiff.conv2d.gflop", "GFLOP", "lower"),
    ("autodiff.conv2d.gflop_per_s", "GFLOP/s", "higher"),
    ("mccnn.pretrain_reference.s", "s", "lower"),
    ("mccnn.train.s", "s", "lower"),
    ("mccnn.train.frames_per_s", "1/s", "higher"),
    ("mccnn.predict.s", "s", "lower"),
    *((f"acer_eval_pct.{m}", "%", "lower") for m in MODELS),
    ("failed_share", "ratio", "lower"),
    ("trace.chain_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_coverage", "ratio", "higher"),
)

# Outputs whose bytes are recorded and compared: score files, eval metrics
# and reports, models and feature tables.
_MODEL_SUFFIXES = (".mclm", ".mcnn", ".mcfv", ".mcfv.rows.csv")


def _score_split(rel: Path) -> str | None:
    """Split of a score file, or None if ``rel`` is not one."""
    if (rel.parts[0] == "baselines" and rel.parts[-2] == "scores") or (
        rel.parts[0] == "mccnn" and rel.name.startswith("scores_")
    ):
        return rel.stem.rsplit("_", 1)[1]
    return None


def _is_checked(rel: Path) -> bool:
    return (
        rel.name.endswith(_MODEL_SUFFIXES)
        or _score_split(rel) is not None
        or (rel.parts[0] == "eval" and rel.name in ("metrics.csv", "report.json"))
    )


def tree_digests(root: Path, keep: Callable[[Path], bool] = lambda rel: True) -> dict[str, str]:
    """sha256 of every file under ``root`` that ``keep`` accepts, by relative path."""
    return {
        rel.as_posix(): hashlib.sha256((root / rel).read_bytes()).hexdigest()
        for rel in sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())
        if keep(rel)
    }


# --------------------------------------------------------------------------
# the chain
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Step:
    id: str       # unique within a chain, e.g. "eval:mccnn"
    stage: str    # one of STAGES
    call: Callable[[], object]


def chain_steps(workload: Workload, cfg: RunConfig) -> list[Step]:
    """The timed chain. Stages are looked up on ``mcpad.pipeline`` when they
    run, never bound earlier."""
    protocol = cfg.protocol.name

    def evaluate(name: str, scores: Path, dev: str, ev: str) -> Step:
        return Step(f"eval:{name}", "eval", lambda: pipeline.cmd_eval(
            cfg, protocol, scores / dev, scores / ev, name))

    steps = [Step("preprocess", "preprocess", lambda: pipeline.cmd_preprocess(cfg))]
    if workload.chain == "classical":
        for e in EXTRACTORS:
            steps.append(Step(f"extract.{e}", f"extract.{e}",
                              lambda e=e: pipeline.cmd_extract(cfg, e, jobs=1)))
        for p in BASELINES:
            steps.append(Step(f"train-baseline.{p}", f"train-baseline.{p}",
                              lambda p=p: pipeline.cmd_train_baseline(cfg, p)))
        for p in BASELINES:
            scores = pipeline.out_root(cfg) / "baselines" / p / "scores"
            steps.append(evaluate(p, scores, "fused_dev.csv", "fused_eval.csv"))
    else:
        steps.append(Step("train-mccnn", "train-mccnn", lambda: pipeline.cmd_train_mccnn(cfg)))
        steps.append(evaluate("mccnn", pipeline.mccnn_out_dir(cfg), "scores_dev.csv", "scores_eval.csv"))
    steps.append(Step("report", "report", lambda: pipeline.cmd_report(cfg)))
    return steps


def _step_of(rel: Path, protocol: str) -> str:
    """The chain step that writes the checked output ``rel`` (see _is_checked)."""
    top = rel.parts[0]
    if top == "features":
        return "extract." + rel.name.split("_", 2)[2].split(".", 1)[0]
    if top == "baselines":
        return f"train-baseline.{rel.parts[1]}"
    if top == "mccnn":
        return "train-mccnn"
    return "eval:" + rel.parts[1][len(protocol) + 1:]


@dataclass
class Rep:
    wall_s: float
    cpu_s: float
    digests: dict[str, str]
    acer: dict[str, float]
    failed: dict[str, str]  # step id -> reason


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_chain(steps: list[Step], tracer: Tracer | None = None) -> tuple[float, float, dict[str, str]]:
    """Run every step, continuing past failures. Returns wall and CPU seconds
    and the steps that raised, with their error."""
    failed: dict[str, str] = {}
    cpu0, t0 = _cpu_s(), perf_counter()
    for step in steps:
        if tracer is not None:
            tracer.enter(f"pipeline.{step.stage}")
        try:
            step.call()
        except Exception as exc:  # a failing stage is counted, not fatal
            failed[step.id] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        finally:
            if tracer is not None:
                tracer.exit()
    return perf_counter() - t0, _cpu_s() - cpu0, failed


def split_frame_counts(cfg: RunConfig) -> dict[str, int]:
    manifest = load_manifest(pipeline.proc_dir(cfg) / "manifest.csv")
    protocol = pipeline.build_protocol(cfg, manifest)
    counts = {"train": 0, "dev": 0, "eval": 0}
    for entry in manifest:
        sample = read_sample(entry.path)
        counts[protocol.split_of(entry.sample_id)] += next(iter(sample.channels.values())).shape[0]
    return counts


def check_outputs(cfg: RunConfig, steps: list[Step]) -> tuple[dict, dict, dict]:
    """Digests of the checked outputs, eval ACER per model, and the steps
    whose outputs fail a check (row counts, dev BPCER, missing report)."""
    out = pipeline.out_root(cfg)
    protocol = cfg.protocol.name
    digests = tree_digests(out, _is_checked) if out.exists() else {}
    bad: dict[str, str] = {}
    try:
        frames = split_frame_counts(cfg)
    except Exception as exc:  # preprocess failed; its step is already counted
        frames = None
        bad["preprocess"] = f"split frame counts unavailable: {exc}"
    for rel in map(Path, digests):
        split = _score_split(rel)
        if split is None or frames is None:
            continue
        rows = sum(1 for line in (out / rel).read_text().splitlines() if line.strip())
        if rows != frames[split]:
            bad[_step_of(rel, protocol)] = f"{rel}: {rows} rows, {split} has {frames[split]} frames"
    acer: dict[str, float] = {}
    for step in steps:
        if step.stage != "eval":
            continue
        name = step.id.split(":", 1)[1]
        report_path = out / "eval" / f"{protocol}_{name}" / "report.json"
        if not report_path.exists():
            bad[step.id] = "no report.json"
            continue
        report = json.loads(report_path.read_text())
        if report["dev"]["bpcer"] > 100.0 * cfg.protocol.bpcer_target + 1e-9:
            bad[step.id] = f"dev BPCER {report['dev']['bpcer']}% above the target"
        acer[name] = report["eval"]["acer"]
    return digests, acer, bad


def compare_digests(reference: dict[str, str], digests: dict[str, str], protocol: str) -> dict[str, str]:
    """Steps whose outputs differ from ``reference`` (changed, added or missing)."""
    bad: dict[str, str] = {}
    for rel in sorted(set(reference) | set(digests)):
        if reference.get(rel) != digests.get(rel):
            bad[_step_of(Path(rel), protocol)] = f"{rel}: bytes differ between runs"
    return bad


def run_rep(workload: Workload, cfg: RunConfig, tracer: Tracer | None = None) -> Rep:
    """One repetition of the chain, traced into ``tracer`` if given; the
    output checks run after tracing is removed."""
    steps = chain_steps(workload, cfg)
    if tracer is None:
        wall, cpu, failed = run_chain(steps)
    else:
        with traced(tracer, cfg.mccnn.base_width, cfg.mccnn.embedding_dim):
            wall, cpu, failed = run_chain(steps, tracer)
    digests, acer, bad = check_outputs(cfg, steps)
    for step_id, reason in bad.items():
        failed.setdefault(step_id, reason)
    return Rep(wall, cpu, digests, acer, failed)


# --------------------------------------------------------------------------
# environment
# --------------------------------------------------------------------------

def source_digest() -> str:
    """sha256 over the package sources, so runs of the same code can be
    matched without git."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:  # no git on this machine
        return None
    return proc.stdout.strip() or None


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy has no dict mode
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


# --------------------------------------------------------------------------
# a run
# --------------------------------------------------------------------------

def make_config(workload: Workload, seed: int, data_root: Path, out_root: Path,
                extra: tuple[str, ...] = ()) -> RunConfig:
    overrides = (*SCALE, *workload.overrides, *extra, f"seed={seed}",
                 f"paths.data_root={data_root}", f"paths.out_root={out_root}")
    return load_config(None, overrides, env={})


def _per_layer(tracer: Tracer, chain_s: float, untraced_chain_s: float) -> dict[str, float]:
    totals = tracer.totals()
    counters = tracer.counters

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {f"pipeline.{s}.s": get(f"pipeline.{s}", "s") for s in STAGES}
    for name in TIMED_LAYERS:
        if name in FWD_BWD_AS_ONE:
            m[f"{name}.self_s"] = get(f"{name}.fwd", "self_s") + get(f"{name}.bwd", "self_s")
            m[f"{name}.calls"] = get(f"{name}.fwd", "calls")
        else:
            m[f"{name}.self_s"] = get(name, "self_s")
            m[f"{name}.calls"] = get(name, "calls")
    for name in ("dataset.read_sample", "dataset.write_sample"):
        m[f"{name}.mb"] = counters.get(f"{name}.mb", 0.0)
    kept = counters.get("preprocess.frames_kept", 0.0)
    m["preprocess.frames_kept_ratio"] = ratio(kept, kept + counters.get("preprocess.frames_dropped", 0.0))
    conv_s = sum(get(f"autodiff.conv2d.{g}.{d}", "self_s")
                 for g in ("C1", "B1", "G1") for d in ("fwd", "bwd"))
    gflop = counters.get("autodiff.conv2d.gflop", 0.0)
    m["autodiff.conv2d.gflop"] = gflop
    m["autodiff.conv2d.gflop_per_s"] = ratio(gflop, conv_s)
    for name in ("pretrain_reference", "train", "predict"):
        m[f"mccnn.{name}.s"] = get(f"mccnn.{name}", "s")
    m["mccnn.train.frames_per_s"] = ratio(counters.get("mccnn.train.frames", 0.0), get("mccnn.train", "s"))
    m["trace.chain_s"] = chain_s
    m["trace.overhead_s"] = chain_s - untraced_chain_s
    m["trace.self_coverage"] = ratio(sum(t["self_s"] for t in totals.values()), chain_s)
    return m


def run(workload_name: str, seed: int, seconds: float, trace: bool, runs_dir: Path,
        extra: tuple[str, ...] = ()) -> dict:
    """One benchmark run. Returns the result (``correct``, ``attempted``,
    ``failed``, ``metrics``); the full record goes to ``runs_dir``.
    ``extra`` adds config overrides (the benchmark's own tests shrink the
    data with it)."""
    workload = WORKLOADS[workload_name]
    now = time.time_ns()
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(now // 10**9)) + f".{now % 10**9:09d}"
    tag = f"{workload.name}-seed{seed}-trace{int(trace)}-{stamp}"
    work = runs_dir / f"{tag}.work"
    runs_dir.mkdir(parents=True, exist_ok=True)
    env = environment(seed)
    try:
        record = _run(workload, seed, seconds, trace, work, extra, env, runs_dir, tag)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (runs_dir / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record["result"]


def _run(workload, seed, seconds, trace, work, extra, env, runs_dir, tag) -> dict:
    failures: list[dict] = []
    attempted = 0

    setup_s: list[float] = []
    first_raw: dict[str, str] | None = None

    def set_up(label: str) -> Path:
        """Generate the raw inputs SETUP_PER_REP times; return the last copy."""
        nonlocal attempted, first_raw
        for k in range(SETUP_PER_REP):
            data_root = work / label / f"data{k}"
            cfg = make_config(workload, seed, data_root, work / label / "out", extra)
            attempted += 1
            t0 = perf_counter()
            try:
                pipeline.cmd_synth(cfg)
                reason = None
            except Exception as exc:  # counted like any failing stage
                traceback.print_exc(file=sys.stderr)
                reason = f"{type(exc).__name__}: {exc}"
            setup_s.append(perf_counter() - t0)
            samples = data_root / "samples"
            raw = tree_digests(samples) if samples.exists() else {}
            first_raw = raw if first_raw is None else first_raw
            if reason is None and raw != first_raw:
                reason = "raw bytes differ between set-ups"
            if reason is not None:
                failures.append({"rep": label, "step": "synth", "reason": reason})
        return data_root

    # cross-run reference: the first clean run of this code, workload and seed
    key = json.dumps([workload.name, seed, list(SCALE), list(workload.overrides), list(extra),
                      env["source_sha256"], env["blas_threads"]])
    ref_path = runs_dir / "digests" / f"{hashlib.sha256(key.encode()).hexdigest()[:24]}.json"
    stored = json.loads(ref_path.read_text()) if ref_path.exists() else None

    def rep(label: str, reference: dict[str, str] | None, tracer: Tracer | None = None) -> Rep:
        nonlocal attempted
        data_root = set_up(label)
        cfg = make_config(workload, seed, data_root, work / label / "out", extra)
        result = run_rep(workload, cfg, tracer)
        attempted += len(chain_steps(workload, cfg))
        if reference is not None:
            for step_id, reason in compare_digests(reference, result.digests, cfg.protocol.name).items():
                result.failed.setdefault(step_id, reason)
        failures.extend({"rep": label, "step": s, "reason": r} for s, r in sorted(result.failed.items()))
        shutil.rmtree(work / label, ignore_errors=True)
        return result

    # Set-up runs before every repetition, inside the window, so that
    # set-up and chain times are sampled over the same stretch of time.
    reps: list[Rep] = []
    durations: list[float] = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        reps.append(rep(f"rep{len(reps)}", reps[0].digests if reps else stored))
        durations.append(perf_counter() - t0)
        elapsed = perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed + statistics.median(durations) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if stored is None and not reps[0].failed:
        ref_path.parent.mkdir(parents=True, exist_ok=True)
        ref_path.write_text(json.dumps(reps[0].digests, indent=1, sort_keys=True) + "\n")
    chain_s = statistics.median(r.wall_s for r in reps)

    if trace:
        tracer = Tracer()
        traced_rep = rep("traced", reps[0].digests, tracer)
        tracer.write(runs_dir / f"{tag}.spans.jsonl")

    failed = len(failures)
    acer = {m: reps[0].acer.get(m, -1.0) for m in MODELS}
    if trace:
        values = _per_layer(tracer, traced_rep.wall_s, chain_s)
        values.update({f"acer_eval_pct.{m}": v for m, v in acer.items()})
        values["failed_share"] = failed / attempted
        spec = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "chain_s": chain_s,
            "cpu_s": statistics.median(r.cpu_s for r in reps),
            "peak_rss_mb": peak_rss_mb,
        }
        spec = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in spec}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return {
        "workload": workload.name,
        "seconds": seconds,
        "trace": trace,
        "overrides": [*SCALE, *workload.overrides, *extra],
        "environment": env,
        "setup_s": setup_s,
        "reps": [{"wall_s": r.wall_s, "cpu_s": r.cpu_s} for r in reps],
        "acer_eval_pct": acer,
        "failed_share": failed / attempted,
        "failures": failures,
        "digests": reps[0].digests,
        "traced_digests": traced_rep.digests if trace else None,
        "result": result,
    }
