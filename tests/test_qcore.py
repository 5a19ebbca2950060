"""Mode labels and the error classes the CLI sorts its exit codes by."""
from __future__ import annotations

from ghzsim import ConfigError, LabelError, ModeLabel, ParameterError


class TestModeLabel:
    def test_wedge_modes_are_the_suffixed_labels(self):
        wedge = {m for m in ModeLabel if m.is_wedge_mode}
        assert wedge == {ModeLabel.B_I, ModeLabel.B_II, ModeLabel.C_I, ModeLabel.C_II}

    def test_labels_are_read_from_their_strings(self):
        assert ModeLabel("B_I") is ModeLabel.B_I
        assert ModeLabel.C_II == "C_II"


class TestErrors:
    def test_parameter_error_is_a_config_error(self):
        assert issubclass(ParameterError, ConfigError)

    def test_label_error_is_not_a_config_error(self):
        """A bad label can only come from the package's own scenario table,
        so it is an internal error, not bad input."""
        assert not issubclass(LabelError, ConfigError)
