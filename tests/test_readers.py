"""Every binary reader rejects a cut file and trailing bytes with a typed
``FormatError`` carrying the byte offset; the score-file, manifest and
landmarks readers name the file and line of a malformed row; the CLI reports
these, a sample whose frames are all dropped, and a stale artifact that
names a sample its manifest lacks, without a traceback."""

import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcpad import classical, mccnn
from mcpad.classical import LrModel, ScoreNormalizer, Standardizer, POP_ALL
from mcpad.cli import main
from mcpad.dataset import (
    ChannelId, FormatError, Manifest, MultiChannelSample, load_manifest, read_sample,
    save_manifest, write_sample,
)
from mcpad.evaluation import load_scores
from mcpad.features.io import read_feature_table, rows_sidecar, write_feature_table
from mcpad.preprocess import landmarks_path, load_landmarks

TINY_MCCNN = mccnn.McCnnConfig(
    channels=(ChannelId.GRAY,), input_size=16, embedding_dim=4, base_width=2,
    adapt=frozenset(), epochs=1, batch_size=8, seed=0,
)


def _rejects_every_cut(blob: bytes, path, load, cuts=None) -> None:
    for cut in range(len(blob)) if cuts is None else cuts:
        path.write_bytes(blob[:cut])
        with pytest.raises(FormatError) as err:
            load(path)
        assert err.value.offset is not None and 0 <= err.value.offset <= cut


def _rejects_trailing(blob: bytes, path, load) -> None:
    for extra in (b"\x00", bytes(8)):
        path.write_bytes(blob + extra)
        with pytest.raises(FormatError) as err:
            load(path)
        assert err.value.offset == len(blob)


class TestSampleContainer:
    def test_every_cut_and_trailing_bytes(self, tmp_path):
        path = tmp_path / "s.mcpd"
        channels = {
            ChannelId.COLOR: np.arange(2 * 2 * 3 * 3, dtype=np.uint8).reshape(2, 2, 3, 3),
            ChannelId.THERMAL: np.arange(2 * 2 * 3, dtype=np.uint16).reshape(2, 2, 3) * 700,
        }
        write_sample(MultiChannelSample(None, channels), path)
        blob = path.read_bytes()
        _rejects_every_cut(blob, path, read_sample)
        _rejects_trailing(blob, path, read_sample)

    def test_repeated_channel_names_offset(self, tmp_path):
        path = tmp_path / "s.mcpd"
        depth = np.arange(6, dtype=np.uint8).reshape(1, 2, 3)
        write_sample(MultiChannelSample(None, {ChannelId.DEPTH: depth}), path)
        blob = path.read_bytes()
        # header byte 5 is the channel count; the depth section follows it
        path.write_bytes(blob[:5] + b"\x02" + blob[6:] + blob[6:])
        with pytest.raises(FormatError, match="repeated channel id") as err:
            read_sample(path)
        assert err.value.offset == len(blob)


@pytest.fixture
def feature_table(tmp_path):
    path = tmp_path / "t.mcfv"
    table = np.arange(6, dtype=np.float64).reshape(3, 2)
    write_feature_table(path, table, [("s0", 0), ("s0", 1), ("s1", 0)])
    return path, table


class TestFeatureTable:
    def test_round_trip(self, feature_table):
        path, table = feature_table
        loaded, rows = read_feature_table(path)
        assert np.array_equal(loaded, table) and rows == [("s0", 0), ("s0", 1), ("s1", 0)]

    def test_short_header(self, tmp_path, feature_table):
        path, _ = feature_table
        path.write_bytes(b"MCFV\x01\x00")
        with pytest.raises(FormatError) as err:
            read_feature_table(path)
        assert err.value.offset == 4

    def test_every_cut_and_trailing_bytes(self, feature_table):
        path, _ = feature_table
        blob = path.read_bytes()
        _rejects_every_cut(blob, path, read_feature_table)
        _rejects_trailing(blob, path, read_feature_table)

    def test_write_joins_no_copy_of_the_table(self, tmp_path):
        table = np.random.default_rng(0).normal(size=(400, 832))
        rows = [("s", i) for i in range(400)]
        tracemalloc.start()
        try:
            write_feature_table(tmp_path / "t.mcfv", table, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < table.nbytes / 10
        loaded, _ = read_feature_table(tmp_path / "t.mcfv")
        assert np.array_equal(loaded, table)

    def test_read_keeps_one_copy_of_the_table(self, tmp_path):
        table = np.random.default_rng(0).normal(size=(400, 832))
        path = tmp_path / "t.mcfv"
        write_feature_table(path, table, [("s", i) for i in range(400)])
        tracemalloc.start()
        try:
            loaded, _ = read_feature_table(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * path.stat().st_size
        assert np.array_equal(loaded, table) and not loaded.flags.writeable

    def test_short_sidecar_row_names_line(self, feature_table):
        path, _ = feature_table
        sidecar = rows_sidecar(path)
        sidecar.write_text("row,sample_id,frame_idx\n0,s0,0\n1,s0\n2,s1,0\n")
        with pytest.raises(ValueError, match="line 3"):
            read_feature_table(path)


def _lr_model(dim=3):
    std = Standardizer(mean=np.arange(dim, dtype=float), std=np.ones(dim), population=POP_ALL)
    return LrModel(weights=np.linspace(-1, 1, dim), bias=0.25, standardizer=std, l2=1e-3)


class TestClassicalModel:
    @pytest.mark.parametrize("model", [_lr_model(), ScoreNormalizer(lo=-2.5, hi=7.5)],
                             ids=["lr", "normalizer"])
    def test_every_cut_and_trailing_bytes(self, tmp_path, model):
        path = tmp_path / "m.mclm"
        classical.save_model(model, path)
        blob = path.read_bytes()
        _rejects_every_cut(blob, path, classical.load_model)
        _rejects_trailing(blob, path, classical.load_model)

    def test_cut_inside_header(self, tmp_path):
        path = tmp_path / "m.mclm"
        path.write_bytes(b"MCLM\x01\x00")
        with pytest.raises(FormatError) as err:
            classical.load_model(path)
        assert err.value.offset == 4

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "m.mclm"
        classical.save_model(ScoreNormalizer(lo=0.0, hi=1.0), path)
        blob = bytearray(path.read_bytes())
        blob[5] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as err:
            classical.load_model(path)
        assert err.value.offset == 5


class TestMccnnModel:
    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "m.mcnn"
        mccnn.save_model(mccnn.build_model(TINY_MCCNN, mccnn.init_backbone(TINY_MCCNN)), path)
        return path, path.read_bytes()

    def test_cut_inside_header(self, tmp_path):
        path = tmp_path / "m.mcnn"
        path.write_bytes(b"MCNN\x01\x00")
        with pytest.raises(FormatError) as err:
            mccnn.load_model(path)
        assert err.value.offset == 4

    def test_cuts_through_header_and_blocks(self, saved):
        # every byte up to the first block's data, then every 16th byte (each
        # cut past the config echo pays for parsing and checking the echo)
        path, blob = saved
        (config_len,) = np.frombuffer(blob, dtype="<u4", count=1, offset=5)
        dense = 9 + int(config_len) + 64
        cuts = [*range(dense), *range(dense, len(blob), 16), len(blob) - 1]
        _rejects_every_cut(blob, path, mccnn.load_model, cuts)

    @given(fraction=st.floats(0.0, 1.0, exclude_max=True))
    def test_any_cut(self, saved, fraction):
        path, blob = saved
        _rejects_every_cut(blob, path, mccnn.load_model, [int(fraction * len(blob))])

    def test_trailing_bytes(self, saved):
        path, blob = saved
        _rejects_trailing(blob, path, mccnn.load_model)

    def test_repeated_block_names_offset(self, saved):
        path, blob = saved
        (config_len,) = np.frombuffer(blob, dtype="<u4", count=1, offset=5)
        at = 9 + int(config_len)  # the block count
        (n_blocks,) = struct.unpack_from("<I", blob, at)
        name = b"head.fc1_b"
        again = struct.pack("<H", len(name)) + name + struct.pack("<BI", 1, 10) + bytes(40)
        path.write_bytes(blob[:at] + struct.pack("<I", n_blocks + 1) + blob[at + 4:] + again)
        with pytest.raises(FormatError, match="repeated block name 'head.fc1_b'") as err:
            mccnn.load_model(path)
        assert err.value.offset == len(blob)

    @pytest.mark.parametrize("block, shape", [("head.fc1_w", (10, 7)), ("shared.C1.conv_w", (4, 1, 3, 3))])
    def test_block_shape_mismatch_names_block(self, tmp_path, block, shape):
        # a well-formed file whose block disagrees with the echoed config
        # fails at load, not later inside predict
        model = mccnn.build_model(TINY_MCCNN, mccnn.init_backbone(TINY_MCCNN))
        expected = model.params[block].data.shape
        model.params[block].data = np.zeros(shape, dtype=np.float32)
        path = tmp_path / "m.mcnn"
        mccnn.save_model(model, path)
        with pytest.raises(ValueError, match=re.escape(f"{block}: shape {shape}, expected {expected}")):
            mccnn.load_model(path)


class TestScoreFile:
    def test_short_line_names_line_number(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("a,0,0.5,bonafide,none\nb,1,0.25,attack\n")
        with pytest.raises(ValueError, match="line 2"):
            load_scores(path)

    @pytest.mark.parametrize("line, reason", [
        ("b,1,0.25,attakc,print", "label 'attakc'"),
        ("b,1,0.25,bonafide,print", "label 'bonafide' does not match attack type 'print'"),
        ("b,1,0.25,attack,none", "label 'attack' does not match attack type 'none'"),
        ("b,1,0.25,attack,cardboard", "unknown attack type 'cardboard'"),
        ("b,1.5,0.25,attack,print", "invalid literal for int"),
        ("b,1,high,attack,print", "could not convert string to float"),
    ])
    def test_inconsistent_row_names_line_number(self, tmp_path, line, reason):
        path = tmp_path / "s.csv"
        path.write_text(f"a,0,0.5,bonafide,none\n{line}\n")
        with pytest.raises(ValueError, match=f"line 2: {reason}"):
            load_scores(path)

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_score_names_line_number(self, tmp_path, score):
        path = tmp_path / "s.csv"
        path.write_text(f"a,0,0.5,bonafide,none\nb,1,{score},attack,print\n")
        with pytest.raises(ValueError, match=f"line 2: non-finite score '{score}'"):
            load_scores(path)


MANIFEST_HEADER = "sample_id,path,client_id,label,attack_type,session\n"


class TestManifest:
    @pytest.mark.parametrize("row, reason", [
        ("b,b.mcpd,1,bonafide", "expected 6 columns, found 4"),
        ("b,b.mcpd,one,bonafide,none,1", "invalid literal for int"),
        ("b,b.mcpd,1,bonafide,cardboard,1", "unknown attack type 'cardboard'"),
    ])
    def test_bad_row_names_file_and_line(self, tmp_path, row, reason):
        path = tmp_path / "manifest.csv"
        path.write_text(f"{MANIFEST_HEADER}a,a.mcpd,0,bonafide,none,1\n{row}\n")
        (tmp_path / "a.mcpd").touch()  # line 2 is valid, so line 3 is the one reported
        with pytest.raises(ValueError, match=f"manifest.csv: line 3: {reason}"):
            load_manifest(path)


class TestLandmarks:
    @pytest.mark.parametrize("line, reason", [
        ("1,0,1,2,3,4,x", "could not convert string to float"),
        ("1,0,1,2,3,4", "expected 7 fields, found 6"),
        ("x,0,1,2,3,4,5", "invalid literal for int"),
        ("0,10,10,20,10,15,20", "duplicate frame index 0"),
        ("1,10,10,10,10,15,20", "eye centers must be distinct"),
    ])
    def test_bad_line_names_file_and_line(self, tmp_path, line, reason):
        path = tmp_path / "s.landmarks"
        path.write_text(f"0,10,10,20,10,15,20\n{line}\n")
        with pytest.raises(ValueError, match=f"s.landmarks: line 2: {reason}"):
            load_landmarks(path)


class TestCliReportsWithoutTraceback:
    def test_eval_on_malformed_score_file(self, tmp_path, capsys):
        bad = tmp_path / "bad_dev.csv"
        bad.write_text("a,0,0.5,bonafide\n")
        code = main(["eval", "--set", f"paths.out_root={tmp_path / 'out'}",
                     "--protocol", "grandtest", str(bad), str(bad)])
        err = capsys.readouterr().err
        assert code in (1, 2)
        assert "line 1" in err and "Traceback" not in err

    def test_preprocess_names_sample_with_every_frame_dropped(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text("\n".join([
            f"paths: {{data_root: {tmp_path / 'data'}, out_root: {tmp_path / 'out'}}}",
            "synth: {bonafide_clients: 2, attack_instruments: {print: 1}, frames_per_sample: 2,"
            " image_size: 40}",
            "preprocess: {out_size: 32, frames: 2}",
        ]))
        assert main(["synth", "--config", str(config)]) == 0
        first = next(iter(load_manifest(tmp_path / "data" / "manifest.csv")))
        landmarks_path(first.path).write_text("")
        capsys.readouterr()
        code = main(["preprocess", "--config", str(config)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"sample {first.sample_id}: all frames dropped" in err and "Traceback" not in err

    @staticmethod
    def _preprocessed_run(tmp_path):
        """synth -> preprocess on a tiny roster with one bonafide client to
        spare for grandtest; returns the CLI arguments."""
        config = tmp_path / "config.yaml"
        config.write_text("\n".join([
            f"paths: {{data_root: {tmp_path / 'data'}, out_root: {tmp_path / 'out'}}}",
            "synth: {bonafide_clients: 4, attack_instruments: {print: 3}, frames_per_sample: 2,"
            " image_size: 40}",
            "preprocess: {out_size: 32, frames: 2}",
        ]))
        args = ["--config", str(config)]
        assert main(["synth", *args]) == 0
        assert main(["preprocess", *args]) == 0
        return args

    @staticmethod
    def _drop_first(manifest_path):
        """Rewrite a manifest without its first sample; returns that id."""
        manifest = load_manifest(manifest_path)
        dropped = manifest.entries[0].sample_id
        save_manifest(Manifest(manifest.entries[1:]), manifest_path)
        return dropped

    def test_iqm_extract_names_sample_missing_from_raw_manifest(self, tmp_path, capsys):
        args = self._preprocessed_run(tmp_path)
        dropped = self._drop_first(tmp_path / "data" / "manifest.csv")
        capsys.readouterr()
        code = main(["extract", "--extractor", "iqm", *args])
        err = capsys.readouterr().err
        assert code == 2
        assert repr(dropped) in err and "Traceback" not in err

    def test_train_baseline_names_sample_missing_from_processed_manifest(self, tmp_path, capsys):
        args = self._preprocessed_run(tmp_path)
        assert main(["extract", "--extractor", "rdwt-haralick", *args]) == 0
        dropped = self._drop_first(tmp_path / "out" / "proc" / "manifest.csv")
        capsys.readouterr()
        code = main(["train-baseline", "--pipeline", "rdwt-haralick-svm", *args])
        err = capsys.readouterr().err
        assert code == 2
        assert repr(dropped) in err and "Traceback" not in err
