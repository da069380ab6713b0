"""Exception types shared across the package, and the config field check."""

import dataclasses


class DataError(ValueError):
    """Raised when an input file or in-memory structure violates the data contract."""


class ConfigError(ValueError):
    """Raised when a configuration value is out of range or inconsistent."""


def check_fields(cls, d: dict, label: str) -> None:
    """Raise ``ConfigError`` naming the keys of ``d`` that are not fields of dataclass
    ``cls``, or the first ``int`` field whose value is not an integer (a bool is not)."""
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(d) - set(fields)
    if unknown:
        raise ConfigError(f"unknown {label} fields: {sorted(unknown)}")
    for name, value in d.items():
        if fields[name] is int and (isinstance(value, bool) or not isinstance(value, int)):
            raise ConfigError(f"{label} field {name!r} must be an integer, got {value!r}")
