"""Integration tests: the CLI chain end to end on a small synthetic set,
plus cross-stage contracts (row alignment, rerun determinism, non-signal
channels carrying no class information)."""

import ctypes
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from mcpad.cli import main
from mcpad.config import load_config
from mcpad.dataset import ChannelId, load_manifest, read_sample
from mcpad.evaluation import load_report, load_scores
from mcpad.features.io import read_feature_table
from mcpad.pipeline import ValidationError, cmd_eval


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """synth -> preprocess -> extract(all) -> baselines -> eval chain."""
    root = tmp_path_factory.mktemp("small")
    config = root / "config.yaml"
    config.write_text(
        "\n".join(
            [
                "seed: 13",
                f"paths: {{data_root: {root / 'data'}, out_root: {root / 'out'}}}",
                "synth:",
                "  bonafide_clients: 6",
                "  attack_instruments: {print: 3, replay: 3}",
                "  frames_per_sample: 4",
                "  image_size: 40",
                "preprocess: {out_size: 32, frames: 4}",
                "classifiers:",
                "  lr: {epochs: 200, learning_rate: 0.02}",
                "  svm: {epochs: 200, learning_rate: 0.05}",
                "mccnn:",
                "  input_size: 32",
                "  embedding_dim: 8",
                "  base_width: 4",
                "  epochs: 2",
                "  pretrain_epochs: 1",
                "  batch_size: 16",
            ]
        )
    )
    args = ["--config", str(config)]
    assert main(["synth", *args]) == 0
    assert main(["preprocess", *args]) == 0
    for extractor in ("lbp", "iqm", "rdwt-haralick"):
        assert main(["extract", "--extractor", extractor, *args]) == 0
    assert main(["train-baseline", "--pipeline", "iqm-lbp-lr", *args]) == 0
    assert main(["train-baseline", "--pipeline", "rdwt-haralick-svm", *args]) == 0
    return root, config


class TestChain:
    def test_preprocessed_samples_are_square_uint8(self, small_run):
        root, _ = small_run
        manifest = load_manifest(root / "out" / "proc" / "manifest.csv")
        sample = read_sample(manifest.entries[0].path, meta=manifest.entries[0].meta)
        assert set(sample.channels) == {
            ChannelId.GRAY, ChannelId.DEPTH, ChannelId.INFRARED, ChannelId.THERMAL,
        }
        for stack in sample.channels.values():
            assert stack.shape == (4, 32, 32) and stack.dtype == np.uint8

    def test_feature_tables_have_expected_dims(self, small_run):
        root, _ = small_run
        fdir = root / "out" / "features" / "grandtest"
        lbp, _ = read_feature_table(fdir / "train_depth_lbp.mcfv")
        assert lbp.shape[1] == 531
        iqm, _ = read_feature_table(fdir / "train_color_iqm.mcfv")
        assert iqm.shape[1] == 18
        har, _ = read_feature_table(fdir / "train_gray_rdwt-haralick.mcfv")
        assert har.shape[1] == 832

    def test_rows_align_across_channels(self, small_run):
        root, _ = small_run
        fdir = root / "out" / "features" / "grandtest"
        _, rows_depth = read_feature_table(fdir / "dev_depth_lbp.mcfv")
        _, rows_color = read_feature_table(fdir / "dev_color_iqm.mcfv")
        assert rows_depth == rows_color

    def test_fused_scores_are_channel_means(self, small_run):
        root, _ = small_run
        scores_dir = root / "out" / "baselines" / "iqm-lbp-lr" / "scores"
        per_channel = []
        for ch in ("color", "depth", "infrared", "thermal"):
            s = load_scores(scores_dir / f"{ch}_dev.csv")
            per_channel.append(dict(zip(zip(s.sample_id.tolist(), s.frame_idx.tolist()), s.score)))
        fused = load_scores(scores_dir / "fused_dev.csv")
        for key, score in zip(zip(fused.sample_id.tolist(), fused.frame_idx.tolist()), fused.score):
            assert score == pytest.approx(np.mean([c[key] for c in per_channel]))

    def test_eval_and_report(self, small_run):
        root, config = small_run
        args = ["--config", str(config)]
        scores = root / "out" / "baselines" / "rdwt-haralick-svm" / "scores"
        assert main([
            "eval", "--name", "rdwt-fused",
            str(scores / "fused_dev.csv"), str(scores / "fused_eval.csv"), *args,
        ]) == 0
        assert main(["report", *args]) == 0
        summary = (root / "out" / "report" / "summary.csv").read_text().splitlines()
        assert summary[0] == "experiment,split,apcer,bpcer,acer,threshold"
        assert any("rdwt-fused" in line for line in summary[1:])

    def test_eval_reproduces_hand_metrics(self, small_run, tmp_path):
        root, config = small_run
        dev = tmp_path / "dev.csv"
        ev = tmp_path / "eval.csv"
        dev.write_text(
            "\n".join(
                [f"b{i},0,{0.01 * i},bonafide,none" for i in range(1, 101)]
                + [f"a{i},0,{0.001 * i},attack,print" for i in range(1, 51)]
            )
            + "\n"
        )
        # By hand: the 100 dev bonafide scores are 0.01..1.00, so k =
        # floor(0.01 * 100) = 1 and tau = s_2 = 0.02. On eval, "bonafide iff
        # score >= tau" accepts a2 (0.6) and rejects a1 (0.01) and a3 (0.015):
        # APCER = 1/3 = 33.3%; b1 and b2 are accepted: BPCER = 0, ACER = 16.7%.
        ev.write_text(
            "\n".join(
                [
                    "a1,0,0.01,attack,print",
                    "a2,0,0.6,attack,print",
                    "a3,0,0.015,attack,replay",
                    "b1,0,0.9,bonafide,none",
                    "b2,0,0.8,bonafide,none",
                ]
            )
            + "\n"
        )
        assert main([
            "eval", "--name", "toy",
            str(dev), str(ev), "--config", str(config),
        ]) == 0
        report = load_report(root / "out" / "eval" / "grandtest_toy" / "report.json")
        assert report.threshold == pytest.approx(0.02)  # threshold s_{k+1}
        assert report.eval.apcer == pytest.approx(100 / 3)
        assert report.eval.bpcer == 0.0
        assert report.eval.acer == pytest.approx(100 / 6)

    def test_eval_rejects_a_protocol_other_than_the_configured_one(self, small_run):
        """The eval directory is named after the protocol, so a name that is
        not the configured one is refused before any score file is read."""
        root, config = small_run
        cfg = load_config(config, env={})
        with pytest.raises(ValidationError, match="differs from the configured 'grandtest'"):
            cmd_eval(cfg, "LOO_print", root / "absent_dev.csv", root / "absent_eval.csv")
        assert not (root / "out" / "eval" / "LOO_print_absent").exists()

    def test_eval_label_drops_only_a_trailing_dev(self, small_run, tmp_path):
        root, config = small_run
        cfg = load_config(config, overrides=[f"paths.out_root={tmp_path}"], env={})
        scores = root / "out" / "baselines" / "rdwt-haralick-svm" / "scores"
        dev = tmp_path / "my_developer_dev.csv"
        dev.write_bytes((scores / "fused_dev.csv").read_bytes())
        out = cmd_eval(cfg, "grandtest", dev, scores / "fused_eval.csv")
        assert out == tmp_path / "eval" / "grandtest_my_developer"

    def test_rerun_byte_identical(self, small_run):
        root, config = small_run
        args = ["--config", str(config)]
        fused = root / "out" / "baselines" / "iqm-lbp-lr" / "scores" / "fused_eval.csv"
        model = root / "out" / "baselines" / "iqm-lbp-lr" / "models" / "depth.mclm"
        before = fused.read_bytes(), model.read_bytes()
        assert main(["train-baseline", "--pipeline", "iqm-lbp-lr", *args]) == 0
        assert (fused.read_bytes(), model.read_bytes()) == before


class TestMccnnChain:
    def test_saved_model_reproduces_saved_scores(self, small_run, tmp_path):
        """``train-mccnn`` writes dev scores kept from training and eval
        scores from ``predict``; the saved model, reloaded, rewrites both
        files byte for byte."""
        import shutil

        from mcpad.evaluation import Scores, save_scores
        from mcpad.mccnn import load_model, predict
        from mcpad.pipeline import _proc_manifest, _split_arrays, build_protocol, mccnn_out_dir

        root, config = small_run
        out = tmp_path / "out"
        shutil.copytree(root / "out" / "proc", out / "proc")
        overrides = ["--set", f"paths.out_root={out}"]
        assert main(["train-mccnn", "--config", str(config), *overrides]) == 0
        cfg = load_config(config, [f"paths.out_root={out}"])
        run_dir = mccnn_out_dir(cfg)
        model = load_model(run_dir / "model.mcnn")
        manifest = _proc_manifest(cfg)
        protocol = build_protocol(cfg, manifest)
        for split in ("dev", "eval"):
            data = _split_arrays(cfg, manifest, protocol, model.config.channels, split)
            scores = predict(model, data.frames)
            save_scores(Scores.from_rows(data.rows, scores, data.attack), tmp_path / f"{split}.csv")
            saved = (run_dir / f"scores_{split}.csv").read_bytes()
            assert (tmp_path / f"{split}.csv").read_bytes() == saved, split

    def test_training_the_saved_init_model_reproduces_the_run(self, small_run, tmp_path):
        """``train`` on the chain's splits, from the ``init.mcnn`` that
        ``train-mccnn`` saved, rewrites its ``model.mcnn``, ``scores_dev.csv``
        and ``history.csv`` byte for byte (the pretraining rows of the
        history come from ``pretrain_reference`` on the train split); a
        model built for another configuration is refused."""
        import dataclasses
        import shutil

        from mcpad import mccnn
        from mcpad.config import mccnn_config
        from mcpad.evaluation import Scores, save_scores
        from mcpad.pipeline import _proc_manifest, _split_arrays, build_protocol, mccnn_out_dir

        root, config = small_run
        out = tmp_path / "out"
        shutil.copytree(root / "out" / "proc", out / "proc")
        assert main(["train-mccnn", "--config", str(config), "--set", f"paths.out_root={out}"]) == 0
        cfg = load_config(config, [f"paths.out_root={out}"])
        run_dir = mccnn_out_dir(cfg)
        net_cfg = mccnn_config(cfg)
        manifest = _proc_manifest(cfg)
        protocol = build_protocol(cfg, manifest)
        train_split, dev_split = (_split_arrays(cfg, manifest, protocol, net_cfg.channels, split)
                                  for split in ("train", "dev"))
        data = mccnn.TrainData(train_split.frames, train_split.labels, dev_split.frames, dev_split.labels)
        model = mccnn.load_model(run_dir / "init.mcnn")
        with pytest.raises(ValueError):
            mccnn.train(data, dataclasses.replace(net_cfg, epochs=1), model)
        result = mccnn.train(data, net_cfg, model)
        _, pretrain_losses = mccnn.pretrain_reference(
            train_split.frames[ChannelId.GRAY], train_split.labels, net_cfg
        )

        mccnn.save_model(result.model, tmp_path / "model.mcnn")
        save_scores(Scores.from_rows(dev_split.rows, result.dev_scores, dev_split.attack),
                    tmp_path / "scores_dev.csv")
        history = ["epoch,train_loss,dev_acer,dev_tau"]
        history += [f"pretrain_{i},{loss!r},," for i, loss in enumerate(pretrain_losses)]
        history += [f"{r['epoch']},{r['train_loss']!r},{r['dev_acer']!r},{r['dev_tau']!r}"
                    for r in result.history]
        (tmp_path / "history.csv").write_text("\n".join(history) + "\n")
        for name in ("model.mcnn", "scores_dev.csv", "history.csv"):
            assert (tmp_path / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_split_arrays_keep_8bit_frames(self, small_run, tmp_path):
        """The MC-CNN splits hold the uint8 frames that ``preprocess`` wrote;
        ``mccnn`` maps them to network input batch by batch."""
        import shutil

        from mcpad.pipeline import _proc_manifest, _split_arrays, build_protocol

        root, config = small_run
        shutil.copytree(root / "out" / "proc", tmp_path / "proc")
        cfg = load_config(config, [f"paths.out_root={tmp_path}"])
        manifest = _proc_manifest(cfg)
        protocol = build_protocol(cfg, manifest)
        channels = (ChannelId.GRAY, ChannelId.DEPTH, ChannelId.INFRARED, ChannelId.THERMAL)
        for split in ("train", "dev", "eval"):
            data = _split_arrays(cfg, manifest, protocol, channels, split)
            for channel in channels:
                stack = data.frames[channel]
                assert stack.dtype == np.uint8 and stack.shape == (len(data.rows), 32, 32), (split, channel)
            sample_id, index = data.rows[0]
            sample = read_sample(manifest.by_id(sample_id).path)
            assert np.array_equal(data.frames[ChannelId.DEPTH][0], sample.channels[ChannelId.DEPTH][index])

    def test_eval_frames_read_after_training(self, small_run, tmp_path, monkeypatch):
        """``train-mccnn`` reads the eval samples only once ``mccnn.train``
        has returned, so they are not held beside the training graph."""
        import shutil

        from mcpad import mccnn, pipeline

        root, config = small_run
        shutil.copytree(root / "out" / "proc", tmp_path / "proc")
        cfg = load_config(config, [f"paths.out_root={tmp_path}"])
        manifest = pipeline._proc_manifest(cfg)
        protocol = pipeline.build_protocol(cfg, manifest)
        split_of = {str(e.path): protocol.split_of(e.sample_id) for e in manifest}
        real_read, real_train = pipeline.read_sample, mccnn.train
        events = []

        def read_sample(path, *args, **kwargs):
            events.append(split_of[str(path)])
            return real_read(path, *args, **kwargs)

        def train(*args, **kwargs):
            events.append("trained")
            return real_train(*args, **kwargs)

        monkeypatch.setattr(pipeline, "read_sample", read_sample)
        monkeypatch.setattr(mccnn, "train", train)
        pipeline.cmd_train_mccnn(cfg)
        trained = events.index("trained")
        assert "eval" not in events[:trained] and "eval" in events[trained:]

    def test_empty_split_exits_before_training(self, small_run, tmp_path, monkeypatch, capsys):
        """An empty eval split still exits 2 before pretraining or any
        epoch runs, although eval is read only after training."""
        import shutil

        from mcpad import mccnn

        def never(*args, **kwargs):
            raise AssertionError("training ran")

        monkeypatch.setattr(mccnn, "pretrain_reference", never)
        monkeypatch.setattr(mccnn, "train", never)
        root, config = small_run
        shutil.copytree(root / "out" / "proc", tmp_path / "proc")
        overrides = ["--set", f"paths.out_root={tmp_path}", "--set", "protocol.ratios=[0.5, 0.5, 0.0]"]
        assert main(["train-mccnn", "--config", str(config), *overrides]) == 2
        assert "split 'eval' is empty" in capsys.readouterr().err

    def test_input_size_mismatch_exits_before_reading_frames(self, small_run, tmp_path, monkeypatch, capsys):
        """An ``mccnn.input_size`` other than ``preprocess.out_size`` exits 2
        before any sample is read."""
        import shutil

        from mcpad import pipeline

        def never(*args, **kwargs):
            raise AssertionError("a sample was read")

        monkeypatch.setattr(pipeline, "read_sample", never)
        root, config = small_run
        shutil.copytree(root / "out" / "proc", tmp_path / "proc")
        overrides = ["--set", f"paths.out_root={tmp_path}", "--set", "mccnn.input_size=64"]
        assert main(["train-mccnn", "--config", str(config), *overrides]) == 2
        assert "mccnn.input_size 64 does not match preprocess.out_size 32" in capsys.readouterr().err


class TestNonSignalChannels:
    def test_classifier_on_non_signal_channel_is_chance(self, small_run):
        """Channels outside signal_channels carry no class information: a
        depth-quality LR trained on infrared stays in the binomial chance
        band on held-out frames."""
        from mcpad.classical import lr_score, lr_train

        root, config = small_run
        fdir = root / "out" / "features" / "grandtest"
        x_train, rows_train = read_feature_table(fdir / "train_infrared_lbp.mcfv")
        x_eval, rows_eval = read_feature_table(fdir / "eval_infrared_lbp.mcfv")
        manifest = load_manifest(root / "out" / "proc" / "manifest.csv")
        lookup = {e.sample_id: int(e.meta.label == "bonafide") for e in manifest}
        y_train = np.array([lookup[sid] for sid, _ in rows_train])
        y_eval = np.array([lookup[sid] for sid, _ in rows_eval])
        model = lr_train(x_train, y_train)
        accuracy = float(((lr_score(model, x_eval) >= 0.5).astype(int) == y_eval).mean())
        sigma = 0.5 / np.sqrt(len(y_eval))
        assert abs(accuracy - 0.5) <= 3 * sigma + 1e-9


class TestJobs:
    @pytest.mark.parametrize("extractor, channels", [("lbp", 3), ("iqm", 1), ("rdwt-haralick", 4)])
    def test_jobs_do_not_change_outputs(self, small_run, extractor, channels):
        """A worker pool writes the same feature tables and row sidecars, byte
        for byte, as the serial loop."""
        from mcpad.pipeline import cmd_extract, features_dir

        _, config = small_run
        cfg = load_config(config)
        tables = features_dir(cfg)

        def outputs():
            return {p.name: p.read_bytes() for p in sorted(tables.glob(f"*_{extractor}.mcfv*"))}

        cmd_extract(cfg, extractor, jobs=1)
        serial = outputs()
        assert len(serial) == 2 * 3 * channels  # (table, sidecar) x splits x channels
        cmd_extract(cfg, extractor, jobs=2)
        assert outputs() == serial

    def test_pool_capped_at_sample_count(self, small_run, monkeypatch):
        """A fork-started pool launches all its workers at the first submit,
        so ``jobs`` beyond the sample count asks for one per sample."""
        import mcpad.pipeline as pipeline

        root, config = small_run
        cfg = load_config(config)
        requested = []

        class Recorder:  # runs the tasks in this process: no worker starts
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Recorder)
        samples = len(load_manifest(root / "out" / "proc" / "manifest.csv").entries)
        pipeline.cmd_extract(cfg, "lbp", jobs=10 * samples)
        pipeline.cmd_extract(cfg, "lbp", jobs=2)
        assert requested == [samples, 2]

    def test_cli_import_leaves_out_multiprocessing(self):
        """A single-job stage starts no pool, so importing the CLI in a fresh
        interpreter loads neither ``multiprocessing`` nor the process pool."""
        import mcpad

        env = {**os.environ, "PYTHONPATH": str(Path(mcpad.__file__).resolve().parents[1])}
        probe = ("import sys, mcpad.cli; "
                 "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
        run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert run.stdout.strip() == "[]"

    def test_jobs_after_predict(self, small_run):
        """Extract workers forked after a predict, which leaves numpy's
        OpenBLAS on one thread in this process, write the serial loop's
        bytes."""
        from mcpad.mccnn import McCnnConfig, build_model, init_backbone, predict
        from mcpad.pipeline import cmd_extract, features_dir

        _, config = small_run
        cfg = load_config(config)
        tables = features_dir(cfg)

        def outputs():
            return {p.name: p.read_bytes() for p in sorted(tables.glob("*_lbp.mcfv*"))}

        net_cfg = McCnnConfig(channels=(ChannelId.GRAY,), input_size=16, embedding_dim=8, base_width=4)
        model = build_model(net_cfg, init_backbone(net_cfg))
        predict(model, {ChannelId.GRAY: np.zeros((4, 16, 16), dtype=np.uint8)})
        cmd_extract(cfg, "lbp", jobs=1)
        serial = outputs()
        cmd_extract(cfg, "lbp", jobs=2)
        assert outputs() == serial


@pytest.fixture(scope="module")
def roster64(tmp_path_factory):
    """Six preprocessed samples of two 64 px frames, the aligned size of the
    default configuration; returns the config overrides that name them."""
    from mcpad import pipeline

    root = tmp_path_factory.mktemp("roster64")
    overrides = [
        "synth.bonafide_clients=3", "synth.attack_instruments={print: 3}", "synth.frames_per_sample=2",
        f"paths.data_root={root / 'data'}", f"paths.out_root={root / 'out'}",
    ]
    cfg = load_config(None, overrides, env={})
    pipeline.cmd_synth(cfg)
    pipeline.cmd_preprocess(cfg)
    return overrides


# Runs in a fresh interpreter: large blocks that earlier tests free raise
# glibc's own thresholds for the rest of the process, which hides the churn.
_SECOND_EXTRACT_FAULTS = """
import resource, sys
from mcpad.config import load_config
from mcpad.pipeline import cmd_extract
cfg = load_config(None, sys.argv[2:], env={})
cmd_extract(cfg, sys.argv[1])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
cmd_extract(cfg, sys.argv[1])
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestFreedHeap:
    @pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="C library has no mallopt")
    @pytest.mark.parametrize("extractor", ["iqm", "rdwt-haralick"])
    def test_second_extract_does_not_refault(self, roster64, extractor):
        """Once ``cmd_extract`` has run, the next one in the same process
        reuses the heap the first freed. With glibc's defaults the second
        run took 5.9k (iqm) and 5.3k (rdwt-haralick) minor faults on this
        roster, as the freed temporaries went back to the OS; with the
        allocator settings it takes 2-35."""
        import mcpad

        env = {**os.environ, "PYTHONPATH": str(Path(mcpad.__file__).resolve().parents[1])}
        run = subprocess.run([sys.executable, "-c", _SECOND_EXTRACT_FAULTS, extractor, *roster64],
                             env=env, capture_output=True, text=True, check=True)
        faults = int(run.stdout)
        assert faults < 500, faults

    @pytest.mark.parametrize("has_mallopt", [True, False])
    def test_keep_freed_heap_runs_once(self, monkeypatch, has_mallopt):
        """The helper sets both thresholds once per process, and returns
        quietly where the C library has no ``mallopt``."""
        from mcpad import pipeline

        loads, calls = [], []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        def cdll(name):
            loads.append(name)
            return types.SimpleNamespace(mallopt=mallopt) if has_mallopt else types.SimpleNamespace()

        monkeypatch.setattr(pipeline.ctypes, "CDLL", cdll)
        pipeline._keep_freed_heap.cache_clear()
        try:
            assert pipeline._keep_freed_heap() is None
            assert pipeline._keep_freed_heap() is None
        finally:
            pipeline._keep_freed_heap.cache_clear()
        assert loads == [None]
        assert calls == ([(pipeline._M_MMAP_THRESHOLD, 32 << 20), (pipeline._M_TRIM_THRESHOLD, 128 << 20)]
                         if has_mallopt else [])


@pytest.fixture(scope="module")
def roster_many_frames(tmp_path_factory):
    """Six preprocessed samples of 16 frames of 32 px, two to a split: the
    feature rows are a large share of the extract heap."""
    from mcpad import pipeline

    root = tmp_path_factory.mktemp("many_frames")
    cfg = load_config(None, [
        "synth.bonafide_clients=3", "synth.attack_instruments={print: 3}", "synth.frames_per_sample=16",
        "synth.image_size=40", "preprocess.out_size=32",
        f"paths.data_root={root / 'data'}", f"paths.out_root={root / 'out'}",
    ], env={})
    pipeline.cmd_synth(cfg)
    pipeline.cmd_preprocess(cfg)
    return cfg


class TestExtractSplitBySplit:
    CHANNELS = (ChannelId.GRAY, ChannelId.DEPTH, ChannelId.INFRARED, ChannelId.THERMAL)

    def test_heap_holds_one_split_of_rows(self, roster_many_frames):
        """The heap peak of a serial ``extract rdwt-haralick`` stays under the
        rows of the largest split plus the peak of extracting one sample on
        its own. On this roster the bound is 5.6 MB and the stage peaks at
        5.2 MB; holding every split's rows until the end, as it once did,
        peaked at 6.9 MB."""
        import tracemalloc
        from collections import Counter

        from mcpad import pipeline

        cfg = roster_many_frames
        manifest = pipeline._proc_manifest(cfg)
        protocol = pipeline.build_protocol(cfg, manifest)
        split_rows = Counter()
        transient = 0
        for entry in manifest:
            tracemalloc.start()
            try:
                _, features = pipeline._extract_one((cfg, "rdwt-haralick", str(entry.path), self.CHANNELS))
                transient = max(transient, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            split_rows[protocol.split_of(entry.sample_id)] += sum(f.nbytes for f in features.values())
        assert len(split_rows) == 3

        tracemalloc.start()
        try:
            pipeline.cmd_extract(cfg, "rdwt-haralick")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < max(split_rows.values()) + transient, (peak, split_rows, transient)

    def test_one_pool_runs_the_splits_in_turn(self, roster_many_frames, monkeypatch):
        """With ``--jobs``, one pool runs the samples of train, then dev, then
        eval, each split in manifest order."""
        from mcpad import pipeline

        cfg = roster_many_frames
        manifest = pipeline._proc_manifest(cfg)
        protocol = pipeline.build_protocol(cfg, manifest)
        sample_of = {str(e.path): e.sample_id for e in manifest}
        pools, calls = [], []

        class Recorder:  # runs the tasks in this process: no worker starts
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                calls.append([sample_of[task[2]] for task in tasks])
                return map(fn, tasks)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Recorder)
        pipeline.cmd_extract(cfg, "lbp", jobs=2)
        assert pools == [2]
        assert calls == [[e.sample_id for e in manifest if protocol.split_of(e.sample_id) == split]
                         for split in ("train", "dev", "eval")]


class TestCorruptInputs:
    def test_missing_channel_exits_without_traceback(self, small_run, tmp_path, capsys):
        """``preprocess`` on raw samples without thermal, and ``extract`` (lbp
        and rdwt-haralick) and ``train-mccnn`` on processed samples without
        it, exit 2 with one ``error:`` line naming the sample and the channel."""
        import shutil

        from mcpad.dataset import MultiChannelSample, write_sample

        root, config = small_run
        for tree in ("data", "out/proc"):
            shutil.copytree(root / tree, tmp_path / tree)
            for path in (tmp_path / tree / "samples").glob("*.mcpd"):
                sample = read_sample(path)
                del sample.channels[ChannelId.THERMAL]
                write_sample(MultiChannelSample(meta=None, channels=sample.channels), path)
        args = ["--config", str(config), "--set", f"paths.data_root={tmp_path / 'data'}",
                "--set", f"paths.out_root={tmp_path / 'out'}"]
        capsys.readouterr()
        for stage in (["preprocess"], ["extract", "--extractor", "lbp"],
                      ["extract", "--extractor", "rdwt-haralick"], ["train-mccnn"]):
            assert main([*stage, *args]) == 2, stage
            err = capsys.readouterr().err
            assert "Traceback" not in err
            [line] = err.splitlines()
            assert line.startswith("error: sample ") and line.endswith(".mcpd has no thermal channel"), line

    def test_truncated_feature_table_exits_without_traceback(self, small_run, tmp_path, capsys):
        import shutil

        root, config = small_run
        out = tmp_path / "out"
        shutil.copytree(root / "out", out)
        table = out / "features" / "grandtest" / "train_gray_rdwt-haralick.mcfv"
        table.write_bytes(table.read_bytes()[:-3])
        code = main(["train-baseline", "--pipeline", "rdwt-haralick-svm", "--config", str(config),
                     "--set", f"paths.out_root={out}"])
        err = capsys.readouterr().err
        assert code in (1, 2)
        assert "byte offset" in err and "Traceback" not in err
