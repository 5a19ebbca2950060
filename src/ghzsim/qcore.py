"""Mode labels and the package's error classes.

A scenario's three kept modes are listed in register order, and its 8x8
matrices use the big-endian basis convention: the first mode is the most
significant bit, so a register (A, B, C) enumerates the computational basis
as |000>, |001>, ..., |111>.
"""
from __future__ import annotations

from enum import Enum


class LabelError(ValueError):
    """A set of mode labels is invalid where it is used, such as a scenario's
    kept regions."""


class ConfigError(ValueError):
    """A configuration value is invalid: the CLI exits 2 for it."""


class ParameterError(ConfigError):
    """A physical parameter is outside its allowed range."""


class ModeLabel(str, Enum):
    """Identifier of one qubit mode.

    Plain labels (A, B, C) belong to inertial observers. The _I/_II variants
    are the accessible/inaccessible wedge modes an accelerated observer sees.
    """

    A = "A"
    B = "B"
    C = "C"
    B_I = "B_I"
    B_II = "B_II"
    C_I = "C_I"
    C_II = "C_II"

    @property
    def is_wedge_mode(self) -> bool:
        return "_" in self.value

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value
