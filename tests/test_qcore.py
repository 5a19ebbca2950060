"""The error classes the CLI sorts its exit codes by."""
from __future__ import annotations

from ghzsim import ConfigError, ParameterError


class TestErrors:
    def test_parameter_error_is_a_config_error(self):
        assert issubclass(ParameterError, ConfigError)
