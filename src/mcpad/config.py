"""Run configuration: one YAML file drives every pipeline stage. Unknown
keys are rejected; ``--set dotted.key=value`` overrides individual fields;
the MCPAD_SEED environment variable overrides the seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import typing
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Mapping, Sequence

import yaml

from .classical import LrConfig, SvmConfig
from .codec import ConfigError, build, coerce, plain
from .dataset import AttackType, SynthConfig
from .features.haralick import GlcmConfig
from .features.iqm import IQM_NAMES
from .features.lbp import LbpConfig
from .files import atomic_write
from .mccnn import McCnnConfig
from .preprocess import AlignTargets


@dataclass(frozen=True)
class PathsConfig:
    data_root: str = "runs/data"
    out_root: str = "runs/out"


@dataclass(frozen=True)
class TargetsSection:
    left_eye: tuple[float, float] | None = None
    right_eye: tuple[float, float] | None = None
    mouth: tuple[float, float] | None = None


@dataclass(frozen=True)
class PreprocessSection:
    out_size: int = 64
    mad_span: float = 4.0
    frames: int = 50
    targets: TargetsSection = field(default_factory=TargetsSection)


@dataclass(frozen=True)
class FeaturesSection:
    lbp: LbpConfig = field(default_factory=LbpConfig)
    glcm: GlcmConfig = field(default_factory=GlcmConfig)
    iqm_measures: tuple[str, ...] = IQM_NAMES


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
    name: str = "grandtest"
    ratios: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    bpcer_target: float = 0.01


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


# --------------------------------------------------------------------------
# loading
# --------------------------------------------------------------------------

def _deep_get_set(obj, dotted: str, raw_value: str):
    parts = dotted.split(".")
    target = obj
    owners = []
    for part in parts[:-1]:
        if not is_dataclass(target) or part not in {f.name for f in fields(target)}:
            raise ConfigError(f"--set {dotted}: no such section {part!r}")
        owners.append((target, part))
        target = getattr(target, part)
    leaf = parts[-1]
    if not is_dataclass(target) or leaf not in {f.name for f in fields(target)}:
        raise ConfigError(f"--set {dotted}: no such key {leaf!r}")
    annotation = typing.get_type_hints(type(target))[leaf]
    value = coerce(yaml.safe_load(raw_value), annotation, f"--set {dotted}")
    try:
        new = dataclasses.replace(target, **{leaf: value})
    except ValueError as exc:
        raise ConfigError(f"--set {dotted}: {exc}") from None
    for owner, part in reversed(owners):
        new = dataclasses.replace(owner, **{part: new})
    return new


def load_config(
    path: str | Path | None = None,
    overrides: Sequence[str] = (),
    env: Mapping[str, str] | None = None,
) -> RunConfig:
    """Load (or default) a RunConfig, apply ``--set key=value`` overrides,
    then the MCPAD_SEED environment override."""
    if path is None:
        cfg = RunConfig()
    else:
        try:
            raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        except yaml.YAMLError as exc:
            raise ConfigError(f"config parse error: {exc}") from None
        if raw is None:
            raw = {}
        if not isinstance(raw, Mapping):
            raise ConfigError("config root must be a mapping")
        cfg = build(RunConfig, raw)
    for override in overrides:
        if "=" not in override:
            raise ConfigError(f"--set expects key=value, got {override!r}")
        dotted, raw_value = override.split("=", 1)
        cfg = _deep_get_set(cfg, dotted.strip(), raw_value)
    env = os.environ if env is None else env
    if "MCPAD_SEED" in env:
        try:
            seed = int(env["MCPAD_SEED"])
        except ValueError:
            raise ConfigError("MCPAD_SEED must be an integer") from None
        cfg = dataclasses.replace(cfg, seed=seed)
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    """Checks that span sections: the MC-CNN domain config must build, the
    protocol must be known, and the IQM measures must exist."""
    mccnn_config(cfg)
    name = cfg.protocol.name
    if name != "grandtest":
        if not name.startswith("LOO_"):
            raise ConfigError("protocol name must be 'grandtest' or 'LOO_<attack>'")
        coerce(name[len("LOO_"):], AttackType, "config.protocol.name")
    unknown = set(cfg.features.iqm_measures) - set(IQM_NAMES)
    if unknown:
        raise ConfigError(f"unknown IQM measures {sorted(unknown)}")


# --------------------------------------------------------------------------
# domain configs
# --------------------------------------------------------------------------

def align_targets(cfg: RunConfig) -> AlignTargets:
    t = cfg.preprocess.targets
    if t.left_eye is None or t.right_eye is None or t.mouth is None:
        return AlignTargets.for_size(cfg.preprocess.out_size)
    return AlignTargets(tuple(t.left_eye), tuple(t.right_eye), tuple(t.mouth), cfg.preprocess.out_size)


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
