"""Amplitude-damping channel applied to labeled qubits of a register.

The channel models spontaneous decay |1> -> |0> with probability p and is
defined by its single-qubit Kraus pair. It acts on the operator blocks r_ab
of each target qubit as

    [[r00, r01], [r10, r11]] -> [[r00 + p*r11, sqrt(1-p)*r01],
                                 [sqrt(1-p)*r10, (1-p)*r11]].

Environments of several targets act independently, so the maps compose.
`damp_entries`, the one damping kernel, applies the map to entries of N
matrices held as rows of a (K, N) array; `block_plan` lays out each
target's block rows over a support closed under the map (every r11 entry
with its r00 partner). `apply_damping` is the kernel on every entry of one
matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .qcore import DensityOperator, ModeLabel, ParameterError
from .unruh import _check


@dataclass(frozen=True)
class DampingParams:
    """Decay probability p = 1 - exp(-Gamma t)."""

    p: float

    def __post_init__(self) -> None:
        _check("p", self.p)


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


def block_plan(support: np.ndarray, dim: int, positions: Iterable[int]) -> list:
    """Per target position, the (r00, matching r11, r01 and r10) rows of
    values gathered at the sorted flat entries `support` of dim x dim
    matrices; ValueError if an r11 entry's r00 partner is not in it."""
    rows, cols = np.divmod(support, dim)
    plan = []
    for pos in positions:
        bit = dim >> (1 + pos)  # big-endian: position 0 is the top bit
        upper, left = (rows & bit) != 0, (cols & bit) != 0
        k11 = np.flatnonzero(upper & left)
        partners = support[k11] - bit * (dim + 1)
        if not np.isin(partners, support).all():
            raise ValueError("support is not closed under the damping map")
        k00 = np.searchsorted(support, partners)
        plan.append((k00, k11, np.flatnonzero(upper != left)))
    return plan


def damp_entries(values: np.ndarray, plan: list, p) -> np.ndarray:
    """Damp in place, and return, the (K, N) rows of N matrices' entries laid
    out by `plan`, matrix j at probability p[j] (a scalar p applies to all)."""
    p = np.broadcast_to(np.asarray(p, dtype=float), values.shape[-1:])
    _check("p", p)
    sq = np.sqrt(1.0 - p)
    for k00, k11, off in plan:
        values[k00] += p * values[k11]  # before r11 is scaled
        values[off] *= sq
        values[k11] *= 1.0 - p
    return values


def apply_damping(
    rho: DensityOperator, targets: Iterable[ModeLabel], params: DampingParams
) -> DensityOperator:
    """`rho` after damping of one or two target qubits (one or two observers
    in a noisy environment), every target with the same p."""
    target_set = {ModeLabel(t) for t in targets}
    if not 1 <= len(target_set) <= 2:
        raise ParameterError(f"expected 1 or 2 target modes, got {len(target_set)}")
    positions = sorted(rho.register.position(t) for t in target_set)
    entries = rho.matrix.reshape(-1, 1).copy()  # one matrix as a (dim^2, 1) column
    damp_entries(entries, block_plan(np.arange(entries.size), len(rho.matrix), positions), params.p)
    return DensityOperator(rho.register, entries.reshape(rho.matrix.shape))
