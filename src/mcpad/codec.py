"""Config codec: strict construction of frozen dataclasses from plain
YAML/JSON values, and the inverse.

``build`` rejects unknown keys and mistyped values; ``plain`` turns a
dataclass back into mappings, lists and scalars. Enums travel by label
(``label`` / ``from_label``), tuples as lists, frozensets as sorted lists.
Every failure, including a ``ValueError`` from a dataclass's own checks,
surfaces as :class:`ConfigError`.
"""

from __future__ import annotations

import typing
from dataclasses import fields, is_dataclass
from enum import Enum
from typing import Any, Mapping


class ConfigError(ValueError):
    """Configuration file or override is invalid."""


def coerce(value: Any, annotation: Any, where: str) -> Any:
    """``value`` as an instance of ``annotation``, or ConfigError."""
    origin = getattr(annotation, "__origin__", None)
    if is_dataclass(annotation):
        if not isinstance(value, Mapping):
            raise ConfigError(f"{where}: expected a mapping")
        return build(annotation, value, where)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list")
        args = annotation.__args__
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(coerce(v, args[0], f"{where}[{i}]") for i, v in enumerate(value))
        if len(value) != len(args):
            raise ConfigError(f"{where}: expected {len(args)} entries")
        return tuple(coerce(v, a, f"{where}[{i}]") for i, (v, a) in enumerate(zip(value, args)))
    if origin is frozenset:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list")
        return frozenset(coerce(v, annotation.__args__[0], f"{where}[{i}]") for i, v in enumerate(value))
    if origin is dict:
        if not isinstance(value, Mapping):
            raise ConfigError(f"{where}: expected a mapping")
        k_ann, v_ann = annotation.__args__
        return {
            coerce(k, k_ann, f"{where}.{k}"): coerce(v, v_ann, f"{where}.{k}")
            for k, v in value.items()
        }
    if isinstance(annotation, type) and issubclass(annotation, Enum):
        if not isinstance(value, str):
            raise ConfigError(f"{where}: expected a label, got {value!r}")
        try:
            return annotation.from_label(value)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    if annotation is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}: expected a number, got {value!r}")
        return float(value)
    if annotation is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where}: expected an integer, got {value!r}")
        return value
    if annotation is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{where}: expected a boolean, got {value!r}")
        return value
    if annotation is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where}: expected a string, got {value!r}")
        return value
    # optional tuple fields (targets) arrive as typing unions; accept lists
    if value is None:
        return None
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return value


def build(cls, data: Mapping, where: str = "config"):
    """Construct dataclass ``cls`` from a mapping of its field values."""
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    type_hints = typing.get_type_hints(cls)
    kwargs = {
        name: coerce(data[name], type_hints[name], f"{where}.{name}")
        for name in known
        if name in data
    }
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def plain(value: Any) -> Any:
    """JSON-ready form of a config value; ``build`` inverts it."""
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Mapping):
        return dict(sorted((plain(k), plain(v)) for k, v in value.items()))
    if isinstance(value, frozenset):
        return sorted(plain(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, Enum):
        return value.label
    return value
