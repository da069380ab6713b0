"""Exception types shared across the package, and ``read_config``, the one
reader that builds every config object from JSON. It converts no value: a
dataclass field takes an object, ``X | None`` also null, ``tuple[X, ...]`` a
list of ``X`` (a bare ``tuple`` any list), ``float`` any number, and ``int``,
``bool`` or ``str`` only an integer, true or false, or a string.
"""

import dataclasses
import typing


class DataError(ValueError):
    """Raised when an input file or in-memory structure violates the data contract."""


class ConfigError(ValueError):
    """Raised when a configuration value is out of range or inconsistent."""


_KINDS = {dict: "an object", tuple: "a list", bool: "true or false", int: "an integer",
          float: "a number", str: "a string"}


def read_config(cls, value, label: str):
    """``cls(**value)`` for a JSON object ``value`` whose keys all name fields of
    dataclass ``cls`` and whose values fit their annotations; otherwise raise
    ``ConfigError`` naming the field, with ``label`` naming ``cls``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{label} must be an object, got {value!r}")
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(value) - set(fields)
    if unknown:
        raise ConfigError(f"unknown {label} fields: {sorted(unknown)}")
    return cls(**{name: _read(fields[name], v, name, label) for name, v in value.items()})


def _read(tp, value, name: str, label: str):
    """``value`` of field ``name`` of a ``label``, read as annotation ``tp``."""
    args = typing.get_args(tp)
    optional = type(None) in args  # X | None
    if optional:
        if value is None:
            return None
        tp = args[0]
    base = dict if dataclasses.is_dataclass(tp) else typing.get_origin(tp) or tp
    json_type = {tuple: list, float: (int, float)}.get(base, base)
    if isinstance(value, bool) != (base is bool) or not isinstance(value, json_type):
        null = " or null" if optional else ""
        raise ConfigError(f"{label} field {name!r} must be {_KINDS[base]}{null}, got {value!r}")
    if base is dict:
        return read_config(tp, value, f"{name} config")
    if base is tuple:
        items = typing.get_args(tp)  # (X, ...) for tuple[X, ...], () for a bare tuple
        return tuple(_read(items[0], v, f"{name}[{i}]", label) if items else v
                     for i, v in enumerate(value))
    return value
