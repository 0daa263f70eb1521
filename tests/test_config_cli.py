import hashlib
import json
from pathlib import Path

import pytest
import yaml

from mcpad.cli import main
from mcpad.config import (
    ConfigError,
    FeaturesSection,
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
        lambda: RunConfig(features=FeaturesSection(iqm_measures=("nope",))),
        lambda: RunConfig(mccnn=MccnnSection(input_size=12)),
    ], ids=["protocol-name", "loo-attack", "iqm-measure", "mccnn-input-size"])
    def test_invalid_sections_raise(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("name, left_out", [
        ("grandtest", None), ("LOO_replay", AttackType.REPLAY), ("LOO_papermask", AttackType.PAPERMASK),
    ])
    def test_protocol_left_out(self, name, left_out):
        assert ProtocolSection(name=name).left_out is left_out


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


# Each value passes its section's type check but not its domain config's.
@pytest.mark.parametrize("override", [
    "features.lbp.p=5",
    "mccnn.input_size=12",
    "mccnn.channels=[color]",
    "synth.signal_channels=[gray]",
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


DEFAULT_DIGEST = "e6a36f3e0074119cd5f126eb54e06eb6f49e130a29d3d5d47738440a338df9ed"


class TestDigestsAndLocks:
    def test_default_digest_and_lock_golden(self, tmp_path):
        cfg = load_config(None, env={})
        assert config_digest(cfg) == DEFAULT_DIGEST
        lock = write_lock(tmp_path, cfg, "synth").read_bytes()
        assert hashlib.sha256(lock).hexdigest() == (
            "6232e83dbcf45f7cee87e8d4d7afd4865c58049e513bea7df63c951b53f126d4"
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
            "eval", "--protocol", "grandtest",
            str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
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
        main(["eval", "--protocol", "grandtest", "x.csv", "y.csv",
              "--set", "paths.out_root=" + str(tmp_path)])
        out = capsys.readouterr().out
        assert "config digest:" in out
