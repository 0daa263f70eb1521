import hashlib
import json
import typing
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest
import yaml

from mcpad.cli import main
from mcpad.config import (
    ConfigError,
    MccnnSection,
    ProtocolSection,
    RunConfig,
    config_digest,
    load_config,
    mccnn_config,
    to_canonical_json,
    write_lock,
)
from mcpad.codec import build, plain
from mcpad.dataset import AttackType, ChannelId, SynthConfig
from mcpad.evaluation import SplitMetrics


class TestLoading:
    def test_defaults(self):
        cfg = load_config(None, env={})
        assert cfg.seed == 0
        assert cfg.mccnn.epochs == 25
        assert cfg.mccnn.learning_rate == pytest.approx(1e-4)
        assert cfg.mccnn.batch_size == 32

    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("seed: 9\nmccnn:\n  epochs: 3\n  channels: [gray, depth]\n")
        cfg = load_config(path, env={})
        assert cfg.seed == 9 and cfg.mccnn.epochs == 3
        assert cfg.mccnn.channels == ("gray", "depth")

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("sneed: 1\n")
        with pytest.raises(ConfigError):
            load_config(path, env={})

    def test_nested_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("mccnn:\n  warp_factor: 9\n")
        with pytest.raises(ConfigError):
            load_config(path, env={})

    def test_type_errors(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("seed: banana\n")
        with pytest.raises(ConfigError):
            load_config(path, env={})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.yaml", env={})

    def test_set_overrides(self):
        cfg = load_config(None, overrides=["mccnn.epochs=2", "synth.noise_level=3.5"], env={})
        assert cfg.mccnn.epochs == 2 and cfg.synth.noise_level == 3.5

    def test_set_unknown_key(self):
        with pytest.raises(ConfigError):
            load_config(None, overrides=["mccnn.nope=1"], env={})

    def test_env_seed_override(self):
        cfg = load_config(None, env={"MCPAD_SEED": "77"})
        assert cfg.seed == 77

    def test_env_seed_bad(self):
        with pytest.raises(ConfigError):
            load_config(None, env={"MCPAD_SEED": "x"})

    def test_bad_protocol_name(self):
        with pytest.raises(ConfigError):
            load_config(None, overrides=["protocol.name=LOO_nothing"], env={})

    def test_malformed_set_value(self):
        with pytest.raises(ConfigError, match="--set synth.attack_instruments: parse error"):
            load_config(None, overrides=["synth.attack_instruments={print: 3"], env={})

    def test_set_merges_into_yaml_section(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("mccnn:\n  channels: [gray]\n")
        cfg = load_config(path, overrides=["mccnn.epochs=2"], env={})
        assert cfg.mccnn.channels == ("gray",) and cfg.mccnn.epochs == 2

    def test_set_leaves_yaml_alias_as_written(self, tmp_path):
        """A ``--set`` below a section that the file aliases elsewhere
        changes that path only."""
        path = tmp_path / "c.yaml"
        path.write_text("classifiers:\n  lr: &c {epochs: 5}\n  svm: *c\n")
        cfg = load_config(path, overrides=["classifiers.lr.epochs=9"], env={})
        assert cfg.classifiers.lr.epochs == 9 and cfg.classifiers.svm.epochs == 5

    def test_set_through_a_value_rejected(self):
        with pytest.raises(ConfigError, match="'seed' is not a section"):
            load_config(None, overrides=["seed=1", "seed.x=2"], env={})

    def test_yaml_targets_rejected(self, tmp_path):
        """``preprocess.targets`` is not part of the schema: the alignment
        targets follow ``preprocess.out_size``."""
        path = tmp_path / "c.yaml"
        path.write_text("preprocess:\n  targets:\n    left_eye: [20, 24]\n")
        with pytest.raises(ConfigError, match=r"unknown keys \['targets'\]"):
            load_config(path, env={})


class TestValidByConstruction:
    @pytest.mark.parametrize("make", [
        lambda: RunConfig(protocol=ProtocolSection(name="bogus")),
        lambda: RunConfig(protocol=ProtocolSection(name="LOO_nothing")),
        lambda: RunConfig(protocol=ProtocolSection(name="LOO_none")),
        lambda: RunConfig(mccnn=MccnnSection(input_size=12)),
    ], ids=["protocol-name", "loo-attack", "loo-bonafide", "mccnn-input-size"])
    def test_invalid_sections_raise(self, make):
        with pytest.raises(ValueError):
            make()


def test_build_names_missing_required_keys():
    """A field without a default that the mapping lacks is a ConfigError
    naming it, not the TypeError of the dataclass constructor."""
    data = {"apcer": 0.0, "acer": 0.0, "apcer_max_pai": 0.0,
            "per_pai_apcer": {}, "per_pai_accuracy": {}, "counts": {}}
    with pytest.raises(ConfigError, match=r"dev: missing keys \['bpcer'\]"):
        build(SplitMetrics, data, "dev")


def test_lock_echo_builds_the_same_config(monkeypatch):
    """A lock's ``config`` echo loads back as the run it records, for the
    default config and for each benchmark workload's."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import harness

    configs = [load_config(None, env={})]
    configs += [harness.make_config(w, 101, Path("data"), Path("out")) for w in harness.WORKLOADS.values()]
    assert len(configs) == 4
    for cfg in configs:
        assert build(RunConfig, plain(cfg)) == cfg
        assert build(RunConfig, json.loads(to_canonical_json(cfg))) == cfg


# Each value passes its type check but not a check of its section or of
# its domain config; ``features`` is not a section at all.
@pytest.mark.parametrize("override", [
    "features.lbp.p=5",
    "mccnn.input_size=12",
    "mccnn.channels=[color]",
    "synth.signal_channels=[gray]",
    "protocol.name=LOO_none",
    "preprocess.out_size=4",
    "preprocess.mad_span=0",
    "preprocess.frames=0",
    "classifiers.lr.epochs=0",
    "classifiers.lr.learning_rate=-1",
    "classifiers.lr.l2=-5",
    "classifiers.svm.epochs=0",
    "classifiers.svm.learning_rate=0",
    "classifiers.svm.c=-1",
    "mccnn.learning_rate=0",
])
class TestDomainChecksAtLoad:
    def test_set_rejected(self, override):
        with pytest.raises(ConfigError):
            load_config(None, overrides=[override], env={})

    def test_yaml_rejected(self, override, tmp_path):
        dotted, value = override.split("=", 1)
        doc = yaml.safe_load(value)
        for key in reversed(dotted.split(".")):
            doc = {key: doc}
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigError):
            load_config(path, env={})

    def test_cli_exits_2(self, override, tmp_path):
        rc = main(["synth", "--set", override, "--set", f"paths.data_root={tmp_path}",
                   "--set", "synth.frames_per_sample=1", "--set", "synth.image_size=16"])
        assert rc == 2


class TestAdapters:
    def test_synth_config(self):
        """The synth section is the generator's own config; the seed stays
        at run level."""
        cfg = load_config(None, overrides=["seed=4", "synth.attack_instruments={print: 2}"], env={})
        assert isinstance(cfg.synth, SynthConfig)
        assert cfg.seed == 4 and "seed" not in plain(cfg.synth)
        assert ChannelId.DEPTH in cfg.synth.signal_channels
        assert cfg.synth.attack_instruments == {AttackType.PRINT: 2}

    def test_mccnn_config_channel_override(self):
        cfg = load_config(None, overrides=["mccnn.channels=[gray]"], env={})
        net = mccnn_config(cfg)
        assert net.channels == (ChannelId.GRAY,)
        assert net.adapt == frozenset({"C1", "B1"})


def _settable_values(cls) -> int:
    hints = typing.get_type_hints(cls)
    return sum(_settable_values(hints[f.name]) if is_dataclass(hints[f.name]) else 1 for f in fields(cls))


def test_settable_value_count():
    """Pins the configuration surface: one independently settable value per
    leaf dataclass field of ``RunConfig``."""
    count = _settable_values(RunConfig)
    assert count == 34, (
        f"RunConfig has {count} settable values, not 34: record the knob added or removed "
        "in CHANGES.md, then update this count"
    )


DEFAULT_DIGEST = "937834ea939947fe851229df90fa216ea94f1b5f8ee0d1ab040c6c357067e5b0"


class TestDigestsAndLocks:
    def test_default_digest_and_lock_golden(self, tmp_path):
        cfg = load_config(None, env={})
        assert config_digest(cfg) == DEFAULT_DIGEST
        lock = write_lock(tmp_path, cfg, "synth").read_bytes()
        assert hashlib.sha256(lock).hexdigest() == (
            "ee37a4842c0ce45aa0420139c7d03805a088782a7903b250327704d6e12d390e"
        )

    def test_signal_channels_lock_sorted(self):
        """``synth.signal_channels`` is a set: any listing order locks as
        the sorted labels."""
        cfg = load_config(None, overrides=["synth.signal_channels=[thermal, depth]"], env={})
        assert plain(cfg.synth)["signal_channels"] == ["depth", "thermal"]
        assert config_digest(cfg) == DEFAULT_DIGEST

    def test_digest_stable(self):
        a, b = RunConfig(), RunConfig()
        assert config_digest(a) == config_digest(b)
        assert json.loads(to_canonical_json(a))["seed"] == 0

    def test_digest_changes_with_config(self):
        base = load_config(None, env={})
        other = load_config(None, overrides=["seed=1"], env={})
        assert config_digest(base) != config_digest(other)

    def test_lock_reruns_identical(self, tmp_path):
        cfg = load_config(None, env={})
        p1 = write_lock(tmp_path, cfg, "synth")
        first = p1.read_bytes()
        p2 = write_lock(tmp_path, cfg, "synth")
        assert p2.read_bytes() == first


class TestCliSurface:
    def test_unknown_extractor_exits_2(self, tmp_path, capsys):
        rc = main(["extract", "--extractor", "lbp", "--set", "paths.out_root=" + str(tmp_path)])
        assert rc == 2  # missing upstream artifacts -> validation error

    def test_eval_missing_file_exits_2(self, tmp_path):
        rc = main([
            "eval", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
            "--set", "paths.out_root=" + str(tmp_path),
        ])
        assert rc == 2

    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_jobs_below_one_exits_2(self, jobs, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["extract", "--extractor", "lbp", "--jobs", jobs, "--set", "paths.out_root=" + str(tmp_path)])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_bad_override_exits_2(self):
        assert main(["synth", "--set", "nope=1"]) == 2

    @pytest.mark.parametrize("override", [
        "synth.attack_instruments={print: 3",
        "preprocess.targets.left_eye=[1, 2]",
    ])
    def test_malformed_or_removed_override_exits_2(self, override, tmp_path, capsys):
        assert main(["synth", "--set", override, "--set", f"paths.data_root={tmp_path}"]) == 2
        assert "error:" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_features_section_rejected(self, tmp_path, capsys):
        """The classical extractors have fixed definitions: a config file
        with a ``features`` section exits 2."""
        config = tmp_path / "c.yaml"
        config.write_text("features:\n  lbp: {p: 8}\n")
        assert main(["synth", "--config", str(config), "--set", f"paths.data_root={tmp_path / 'data'}"]) == 2
        assert "unknown keys ['features']" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    def test_jobs_only_on_extract(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--jobs", "2", "--set", f"paths.data_root={tmp_path}"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("kind", ["directory", "non-utf8"])
    def test_unreadable_config_exits_2(self, kind, tmp_path, capsys):
        config = tmp_path
        if kind == "non-utf8":
            config = tmp_path / "c.yaml"
            config.write_bytes(b"seed: 1\n# \xff\xfe\n")
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(config, env={})
        assert main(["synth", "--config", str(config)]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_digest_printed(self, tmp_path, capsys):
        main(["eval", "x.csv", "y.csv",
              "--set", "paths.out_root=" + str(tmp_path)])
        out = capsys.readouterr().out
        assert "config digest:" in out
