"""Config codec: strict construction of frozen dataclasses from plain
YAML/JSON values, and the inverse.

``build`` rejects unknown or missing keys and mistyped values; ``plain``
turns a dataclass back into mappings, lists and scalars. Enums travel by
label (``label`` / ``from_label``), tuples as lists, frozensets as sorted lists.
Every bad value, including one a dataclass's own checks reject with a
``ValueError``, surfaces as :class:`ConfigError`; a field annotation the
codec does not know raises ``TypeError``.
"""

from __future__ import annotations

import typing
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
from typing import Any, Mapping


class ConfigError(ValueError):
    """Configuration file or override is invalid."""


def coerce(value: Any, annotation: Any, where: str) -> Any:
    """``value`` as an instance of ``annotation``, or ConfigError."""
    origin = getattr(annotation, "__origin__", None)
    if is_dataclass(annotation):
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
    raise TypeError(f"{where}: unsupported annotation {annotation!r}")


def build(cls, data: Mapping, where: str = "config"):
    """Construct dataclass ``cls`` from a mapping of its field values."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"{where}: expected a mapping")
    known = {f.name for f in fields(cls)}
    required = {f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING}
    for problem, names in (("unknown", set(data) - known), ("missing", required - set(data))):
        if names:
            raise ConfigError(f"{where}: {problem} keys {sorted(names)}")
    type_hints = typing.get_type_hints(cls)
    kwargs = {name: coerce(value, type_hints[name], f"{where}.{name}") for name, value in data.items()}
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
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
