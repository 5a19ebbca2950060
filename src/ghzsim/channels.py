"""Amplitude-damping channel applied to labeled qubits of a register.

The channel models spontaneous decay |1> -> |0> with probability p and is
defined by its single-qubit Kraus pair. `damp_stack`, the one damping
kernel, applies it to a stack of matrices, one p each, through the
equivalent map on the operator blocks r_ab of each target qubit:

    [[r00, r01], [r10, r11]] -> [[r00 + p*r11, sqrt(1-p)*r01],
                                 [sqrt(1-p)*r10, (1-p)*r11]].

Environments of several targets act independently, so the maps compose.
`apply_damping` is the kernel's one-matrix case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .qcore import DensityOperator, ModeLabel, ParameterError


@dataclass(frozen=True)
class DampingParams:
    """Decay probability p = 1 - exp(-Gamma t)."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ParameterError(f"p={self.p} outside [0, 1]")


@dataclass(frozen=True)
class KrausPair:
    """The two 2x2 Kraus operators of the single-qubit channel."""

    m0: np.ndarray
    m1: np.ndarray

    def completeness_deviation(self) -> float:
        total = self.m0.conj().T @ self.m0 + self.m1.conj().T @ self.m1
        return float(np.max(np.abs(total - np.eye(2))))


def amplitude_damping_kraus(params: DampingParams) -> KrausPair:
    """m0 = diag(1, sqrt(1-p)); m1 maps |1> to sqrt(p)|0>."""
    p = params.p
    m0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - p)]], dtype=complex)
    m1 = np.array([[0.0, math.sqrt(p)], [0.0, 0.0]], dtype=complex)
    return KrausPair(m0, m1)


def damp_stack(stack: np.ndarray, positions: Iterable[int], p) -> np.ndarray:
    """Damp the qubits at `positions` of every matrix in an (N, 2^n, 2^n)
    complex stack, matrix k at probability p[k] (a scalar p applies to all).

    Works in place on a C-contiguous stack and returns the damped stack.
    Any other stack is a caller's bug: its reshaped views would be copies,
    so this raises ValueError rather than damp it out of place.
    """
    if not (stack.flags.c_contiguous and stack.flags.writeable):
        raise ValueError("damp_stack needs a writeable C-contiguous stack")
    n = len(stack)
    p = np.broadcast_to(np.asarray(p, dtype=float), (n,))
    bad = ~((p >= 0.0) & (p <= 1.0))
    if bad.any():
        raise ParameterError(f"p={p[bad][0]} outside [0, 1]")
    n_modes = stack.shape[-1].bit_length() - 1
    pb = p.reshape((n,) + (1,) * (2 * n_modes - 2))
    sq = np.sqrt(1.0 - pb)
    tensor = stack.reshape((n,) + (2,) * (2 * n_modes))
    for pos in positions:
        blocks = np.moveaxis(tensor, (1 + pos, 1 + n_modes + pos), (1, 2))
        blocks[:, 0, 0] += pb * blocks[:, 1, 1]  # before r11 is scaled
        blocks[:, 0, 1] *= sq
        blocks[:, 1, 0] *= sq
        blocks[:, 1, 1] *= 1.0 - pb
    return tensor.reshape(stack.shape)


def apply_damping(
    rho: DensityOperator, targets: Iterable[ModeLabel], params: DampingParams
) -> DensityOperator:
    """`rho` after damping of one or two target qubits (one or two observers
    in a noisy environment), every target with the same p."""
    target_set = {ModeLabel(t) for t in targets}
    if not 1 <= len(target_set) <= 2:
        raise ParameterError(f"expected 1 or 2 target modes, got {len(target_set)}")
    positions = sorted(rho.register.position(t) for t in target_set)
    stack = np.array(rho.matrix, dtype=complex)[None]
    return DensityOperator(rho.register, damp_stack(stack, positions, params.p)[0])
