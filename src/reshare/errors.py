"""Exception types shared across the package, and the config field check."""

import dataclasses


class DataError(ValueError):
    """Raised when an input file or in-memory structure violates the data contract."""


class ConfigError(ValueError):
    """Raised when a configuration value is out of range or inconsistent."""


def check_fields(cls, d: dict, label: str) -> None:
    """Raise ``ConfigError`` naming the keys of ``d`` that are not fields of dataclass ``cls``."""
    unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {label} fields: {sorted(unknown)}")
