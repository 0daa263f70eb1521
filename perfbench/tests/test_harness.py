"""The benchmark's own checks, on a tiny configuration: 3 clients per
category, 2 frames of 16 px, one epoch."""

import json
import shutil
import subprocess
import sys

import pytest

import harness
from mcpad import pipeline

BENCH = harness.ROOT / "perfbench"
ATTACKS = ("glasses", "fakehead", "print", "replay", "rigidmask", "flexiblemask", "papermask")
TINY = (
    "synth.bonafide_clients=3",
    "synth.attack_instruments={" + ", ".join(f"{a}: 3" for a in ATTACKS) + "}",
    "synth.image_size=32",
    "preprocess.out_size=16",
    "mccnn.input_size=16",
    "mccnn.base_width=2",
    "mccnn.embedding_dim=8",
    "mccnn.epochs=1",
    "mccnn.pretrain_epochs=1",
)


def tiny_run(runs_dir, workload, trace):
    result = harness.run(workload, seed=5, seconds=0, trace=trace, runs_dir=runs_dir, extra=TINY)
    records = sorted(runs_dir.glob(f"{workload}-*-trace{int(trace)}-*.json"))
    return result, json.loads(records[-1].read_text())


@pytest.fixture(scope="module", params=sorted(harness.WORKLOADS))
def traced_run(request, tmp_path_factory):
    return request.param, *tiny_run(tmp_path_factory.mktemp("runs"), request.param, True)


def test_benchmark_json_matches_harness():
    import run

    assert run.WORKLOAD_NAMES == tuple(harness.WORKLOADS)
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in harness.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(harness.PER_LAYER)


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(tmp_path, workload):
    result, record = tiny_run(tmp_path, workload, False)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _, _ in harness.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(record["reps"]) >= harness.MIN_REPS


def test_traced_run_emits_every_per_layer_metric(traced_run):
    workload, result, record = traced_run
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _, _ in harness.PER_LAYER]
    assert result["metrics"]["failed_share"]["value"] == 0
    assert result["metrics"]["trace.self_coverage"]["value"] >= 0.9


def test_tracing_leaves_outputs_unchanged(traced_run):
    _, _, record = traced_run
    assert record["digests"] and record["traced_digests"] == record["digests"]


def test_tracing_restores_every_patched_function(traced_run):
    from mcpad import autodiff, classical, mccnn, preprocess
    from mcpad.features import haralick

    for owner in (pipeline, preprocess, haralick, classical, mccnn, autodiff, autodiff.Tensor):
        for name, value in vars(owner).items():
            assert "<locals>" not in getattr(value, "__qualname__", ""), f"{owner.__name__}.{name}"


def test_layers_each_workload_exercises(traced_run):
    workload, result, _ = traced_run
    value = {name: m["value"] for name, m in result["metrics"].items()}
    autodiff_calls = sum(v for k, v in value.items()
                         if k.startswith("autodiff.") and k.endswith(".calls"))
    if workload == "grandtest-classical":
        assert autodiff_calls == 0
        assert value["features.haralick13.calls"] > 0
        assert value["acer_eval_pct.mccnn"] == -1.0
    else:
        assert value["features.glcm.calls"] == 0
        assert value["autodiff.conv2d.C1.fwd.calls"] > 0
        assert value["acer_eval_pct.mccnn"] >= 0
    if workload == "loo-mccnn-frozen":
        frozen = [f"autodiff.conv2d.{g}.bwd.calls" for g in ("C1", "B1", "G1")]
        frozen += ["autodiff.maxpool2d.bwd.calls", "autodiff.mfm.bwd.calls",
                   "autodiff.linear.EMB.bwd.calls"]
        assert all(value[name] == 0 for name in frozen)
        assert value["autodiff.linear.FFC.bwd.calls"] > 0
    if workload == "grandtest-mccnn":
        assert value["autodiff.conv2d.B1.bwd.calls"] > 0


def test_stage_exception_is_counted_and_run_continues(tmp_path, monkeypatch):
    def broken(cfg):
        raise RuntimeError("injected")

    monkeypatch.setattr(pipeline, "cmd_report", broken)
    result, record = tiny_run(tmp_path, "loo-mccnn-frozen", False)
    reps = len(record["reps"])
    assert not result["correct"]
    assert result["failed"] == reps
    assert {f["step"] for f in record["failures"]} == {"report"}
    assert record["failed_share"] == result["failed"] / result["attempted"]
    assert list(result["metrics"]) == [name for name, _, _ in harness.END_TO_END]


def _metrics_drift_after_first_call():
    """Append a blank line to ``metrics.csv`` from the second repetition on."""
    calls = []

    def mutate(out):
        calls.append(1)
        if len(calls) > 1:
            with open(out / "metrics.csv", "a") as fh:
                fh.write("\n")
    return mutate


def _drop_last_score_row(out):
    scores = out / "scores_eval.csv"
    lines = scores.read_text().splitlines(keepends=True)
    scores.write_text("".join(lines[:-1]))


def _raise_dev_bpcer(out):
    report_path = out / "report.json"
    report = json.loads(report_path.read_text())
    report["dev"]["bpcer"] = 50.0
    report_path.write_text(json.dumps(report))


@pytest.mark.parametrize("stage, mutate, step", [
    ("cmd_eval", _metrics_drift_after_first_call(), "eval:mccnn"),
    ("cmd_train_mccnn", _drop_last_score_row, "train-mccnn"),
    ("cmd_eval", _raise_dev_bpcer, "eval:mccnn"),
], ids=["bytes-differ", "score-rows", "dev-bpcer"])
def test_failed_output_check_fails_the_producing_stage(tmp_path, monkeypatch, stage, mutate, step):
    original = getattr(pipeline, stage)

    def patched(*args, **kwargs):
        out = original(*args, **kwargs)
        mutate(out)
        return out

    monkeypatch.setattr(pipeline, stage, patched)
    result, record = tiny_run(tmp_path, "loo-mccnn-frozen", False)
    assert not result["correct"]
    assert {f["step"] for f in record["failures"]} == {step}


def test_second_run_is_checked_against_the_first(tmp_path):
    first, _ = tiny_run(tmp_path, "loo-mccnn-frozen", False)
    assert first["correct"]
    (stored,) = (tmp_path / "digests").glob("*.json")
    digests = json.loads(stored.read_text())
    model = next(rel for rel in digests if rel.endswith("model.mcnn"))
    digests[model] = "0" * 64
    stored.write_text(json.dumps(digests))
    second, record = tiny_run(tmp_path, "loo-mccnn-frozen", False)
    assert not second["correct"]
    assert [(f["rep"], f["step"]) for f in record["failures"]] == [("rep0", "train-mccnn")]


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grandtest-mccnn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
