"""Labeled qubit registers and the density operators on them: the mode
labels, the partial trace and the density-matrix sanity checks.

Basis convention is big-endian: the first mode of a register is the most
significant bit, so a register (A, B, C) enumerates the computational basis
as |000>, |001>, ..., |111>.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np


class LabelError(ValueError):
    """A mode label is missing from, duplicated in, or invalid for a register."""


class SizeError(ValueError):
    """A register is empty, or a matrix does not match its register's size."""


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


@dataclass(frozen=True)
class ModeRegister:
    """Ordered, duplicate-free sequence of mode labels."""

    modes: tuple[ModeLabel, ...]

    def __post_init__(self) -> None:
        modes = tuple(ModeLabel(m) for m in self.modes)
        object.__setattr__(self, "modes", modes)
        if not modes:
            raise SizeError("register must contain at least one mode")
        if len(set(modes)) != len(modes):
            raise LabelError(f"duplicate mode labels in register: {[m.value for m in modes]}")

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def dim(self) -> int:
        return 2 ** self.n_modes

    def position(self, label: ModeLabel) -> int:
        label = ModeLabel(label)
        try:
            return self.modes.index(label)
        except ValueError:
            raise LabelError(f"mode {label.value} not in register {self}") from None

    def restricted(self, keep: Iterable[ModeLabel]) -> "ModeRegister":
        """Sub-register with only `keep`, original order preserved."""
        keep_set = {ModeLabel(k) for k in keep}
        missing = keep_set - set(self.modes)
        if missing:
            raise LabelError(f"labels {sorted(m.value for m in missing)} not in register {self}")
        return ModeRegister(tuple(m for m in self.modes if m in keep_set))

    def __str__(self) -> str:
        return "(" + ",".join(m.value for m in self.modes) + ")"


@dataclass(frozen=True)
class DensityOperator:
    """Dense density matrix tagged with its register."""

    register: ModeRegister
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        d = self.register.dim
        if mat.shape != (d, d):
            raise SizeError(f"matrix shape {mat.shape} does not match register {self.register}")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))


def partial_trace(rho: DensityOperator, keep: Iterable[ModeLabel]) -> DensityOperator:
    """Trace out every mode not in `keep`; kept modes preserve their order."""
    keep_set = {ModeLabel(k) for k in keep}
    if not keep_set:
        raise LabelError("keep must be a nonempty set of mode labels")
    new_register = rho.register.restricted(keep_set)
    n = rho.register.n_modes
    keep_idx = [i for i, m in enumerate(rho.register.modes) if m in keep_set]
    trace_idx = [i for i in range(n) if i not in keep_idx]
    if not trace_idx:
        return rho

    tensor = rho.matrix.reshape((2,) * (2 * n))
    remaining = n
    for offset, idx in enumerate(trace_idx):
        ax = idx - offset
        tensor = np.trace(tensor, axis1=ax, axis2=ax + remaining)
        remaining -= 1
    k = len(keep_idx)
    return DensityOperator(new_register, tensor.reshape(2 ** k, 2 ** k))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the density-operator sanity checks at one tolerance."""

    tol: float
    hermiticity_deviation: float
    trace_deviation: float
    min_eigenvalue: float

    @property
    def hermitian_ok(self) -> bool:
        return self.hermiticity_deviation < self.tol

    @property
    def trace_ok(self) -> bool:
        return self.trace_deviation < self.tol

    @property
    def positive_ok(self) -> bool:
        return self.min_eigenvalue >= -self.tol

    @property
    def ok(self) -> bool:
        return self.hermitian_ok and self.trace_ok and self.positive_ok


def validate_density(rho: DensityOperator, tol: float = 1e-10) -> ValidationReport:
    """Report Hermiticity, trace and positivity deviations (never raises).

    The spectrum is taken from the Hermitized matrix (rho + rho^dag)/2 so a
    tiny floating-point asymmetry cannot poison the eigenvalue test.
    """
    mat = rho.matrix
    herm_dev = float(np.max(np.abs(mat - mat.conj().T)))
    trace_dev = float(abs(np.trace(mat) - 1.0))
    hermitized = (mat + mat.conj().T) / 2.0
    min_eig = float(np.linalg.eigvalsh(hermitized)[0])
    return ValidationReport(tol, herm_dev, trace_dev, min_eig)
