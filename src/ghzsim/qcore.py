"""The package's error classes. The CLI sorts its exit codes by them: it
exits 2 for a `ConfigError` and lets every other exception propagate."""
from __future__ import annotations


class ConfigError(ValueError):
    """A configuration value is invalid: the CLI exits 2 for it."""


class ParameterError(ConfigError):
    """A parameter outside its range, or a scenario or measure no table holds."""
