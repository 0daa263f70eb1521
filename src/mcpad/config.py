"""Run configuration: one YAML file drives every pipeline stage.

``load_config`` puts the YAML file, then each ``--set dotted.key=value``
(the value parsed as YAML, at its dotted path) and MCPAD_SEED (the seed)
into one plain mapping, and one ``codec.build`` makes the ``RunConfig``,
rejecting unknown keys and mistyped values. Each section checks its own
values on construction and ``RunConfig`` checks those that span sections,
so a ``RunConfig`` is valid however it was made.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

import yaml

from .classical import LrConfig, SvmConfig
from .codec import ConfigError, build, plain
from .dataset import AttackType, SynthConfig
from .features.haralick import GlcmConfig
from .features.iqm import IQM_NAMES
from .features.lbp import LbpConfig
from .files import atomic_write
from .mccnn import McCnnConfig


@dataclass(frozen=True)
class PathsConfig:
    data_root: str = "runs/data"
    out_root: str = "runs/out"


@dataclass(frozen=True)
class PreprocessSection:
    out_size: int = 64
    mad_span: float = 4.0
    frames: int = 50


@dataclass(frozen=True)
class FeaturesSection:
    lbp: LbpConfig = field(default_factory=LbpConfig)
    glcm: GlcmConfig = field(default_factory=GlcmConfig)
    iqm_measures: tuple[str, ...] = IQM_NAMES

    def __post_init__(self):
        unknown = set(self.iqm_measures) - set(IQM_NAMES)
        if unknown:
            raise ValueError(f"unknown IQM measures {sorted(unknown)}")


@dataclass(frozen=True)
class ClassifiersSection:
    lr: LrConfig = field(default_factory=LrConfig)
    svm: SvmConfig = field(default_factory=SvmConfig)


# Kept apart from McCnnConfig, whose .mcnn echo carries seed, bpcer_target,
# beta1, beta2 and adam_eps: the run and the protocol set the first two, the
# Adam constants keep their defaults, and pretrain is a run-level switch.
@dataclass(frozen=True)
class MccnnSection:
    channels: tuple[str, ...] = ("gray", "depth", "infrared", "thermal")
    input_size: int = 64
    embedding_dim: int = 64
    adapt: tuple[str, ...] = ("C1", "B1")
    epochs: int = 25
    batch_size: int = 32
    learning_rate: float = 1e-4
    flip_prob: float = 0.5
    base_width: int = 16
    pretrain: bool = True
    pretrain_epochs: int = 10


@dataclass(frozen=True)
class ProtocolSection:
    """``name`` is ``grandtest`` or ``LOO_<attack>``; the attack it leaves
    out of training is ``left_out`` (None for grandtest)."""

    name: str = "grandtest"
    ratios: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    bpcer_target: float = 0.01

    def __post_init__(self):
        left_out = None
        if self.name != "grandtest":
            if not self.name.startswith("LOO_"):
                raise ValueError("protocol name must be 'grandtest' or 'LOO_<attack>'")
            left_out = AttackType.from_label(self.name[len("LOO_"):])
        object.__setattr__(self, "left_out", left_out)


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    paths: PathsConfig = field(default_factory=PathsConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    preprocess: PreprocessSection = field(default_factory=PreprocessSection)
    features: FeaturesSection = field(default_factory=FeaturesSection)
    classifiers: ClassifiersSection = field(default_factory=ClassifiersSection)
    mccnn: MccnnSection = field(default_factory=MccnnSection)
    protocol: ProtocolSection = field(default_factory=ProtocolSection)

    def __post_init__(self):
        mccnn_config(self)


# --------------------------------------------------------------------------
# loading
# --------------------------------------------------------------------------

def _parse_yaml(text: str, where: str) -> Any:
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{where}: parse error: {exc}") from None


def load_config(
    path: str | Path | None = None,
    overrides: Sequence[str] = (),
    env: Mapping[str, str] | None = None,
) -> RunConfig:
    """The RunConfig of the YAML file at ``path`` (all defaults when None),
    with each ``--set key=value`` override and then MCPAD_SEED applied."""
    data = None
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        data = _parse_yaml(text, "config")
        if not isinstance(data, (Mapping, type(None))):
            raise ConfigError("config root must be a mapping")
    data = dict(data or {})
    for override in overrides:
        dotted, sep, raw_value = override.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got {override!r}")
        dotted = dotted.strip()
        *sections, leaf = dotted.split(".")
        node = data
        for part in sections:
            # copied on the way down, so a section that YAML aliases elsewhere stays as written there
            section = node.get(part, {})
            if not isinstance(section, Mapping):
                raise ConfigError(f"--set {dotted}: {part!r} is not a section")
            node[part] = dict(section)
            node = node[part]
        node[leaf] = _parse_yaml(raw_value, f"--set {dotted}")
    env = os.environ if env is None else env
    if "MCPAD_SEED" in env:
        try:
            data["seed"] = int(env["MCPAD_SEED"])
        except ValueError:
            raise ConfigError("MCPAD_SEED must be an integer") from None
    return build(RunConfig, data)


# --------------------------------------------------------------------------
# domain configs
# --------------------------------------------------------------------------

def mccnn_config(cfg: RunConfig) -> McCnnConfig:
    """The network config: the ``mccnn`` section (less the run-level
    ``pretrain``) with the run seed and the protocol's BPCER target."""
    data = plain(cfg.mccnn)
    del data["pretrain"]
    data.update(seed=cfg.seed, bpcer_target=cfg.protocol.bpcer_target)
    return build(McCnnConfig, data, "config.mccnn")


# --------------------------------------------------------------------------
# canonical serialization / digests / lock files
# --------------------------------------------------------------------------

def to_canonical_json(cfg: RunConfig) -> str:
    return json.dumps(plain(cfg), sort_keys=True, separators=(",", ":"))


def config_digest(cfg: RunConfig) -> str:
    return hashlib.sha256(to_canonical_json(cfg).encode()).hexdigest()


def write_lock(directory: str | Path, cfg: RunConfig, command: str) -> Path:
    """Echo the resolved configuration so a run can be reproduced; reruns
    with identical inputs rewrite identical bytes."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {"command": command, "digest": config_digest(cfg), "config": plain(cfg)}
    path = directory / "config.lock"
    atomic_write(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path
