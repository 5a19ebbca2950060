"""Amplitude-damping channel applied to chosen qubits of many matrices.

The channel models spontaneous decay |1> -> |0> with probability p and is
defined by its single-qubit Kraus pair m0 = diag(1, sqrt(1-p)) and
m1 = sqrt(p)|0><1|. It acts on the operator blocks r_ab of each target
qubit as

    [[r00, r01], [r10, r11]] -> [[r00 + p*r11, sqrt(1-p)*r01],
                                 [sqrt(1-p)*r10, (1-p)*r11]].

Environments of several targets act independently, so the maps compose.
`damp_entries`, the one damping kernel, applies the map to entries of N
matrices held as rows of a (K, N) array; `block_plan` lays out each
target's block rows over a support closed under the map (every r11 entry
with its r00 partner). On the full support `np.arange(dim * dim)` it damps
every entry of a matrix.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np


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
    out by `plan`, matrix j at probability p[j] (a scalar p applies to all).
    It checks no range: p must lie in [0, 1], as the engine entry checks."""
    p = np.broadcast_to(np.asarray(p, dtype=float), values.shape[-1:])
    sq = np.sqrt(1.0 - p)
    for k00, k11, off in plan:
        values[k00] += p * values[k11]  # before r11 is scaled
        values[off] *= sq
        values[k11] *= 1.0 - p
    return values
