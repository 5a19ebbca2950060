"""The X-state test and the three quantumness measures.

For a three-qubit X-matrix (nonzero entries on the main diagonal and the
antidiagonal only) the measures have closed evaluations:

  Svetlichny value   S = max(8*sqrt(2)*max_i |f_i|, 4|N|),
                     N = d1 - d2 - d3 + d4 - e4 + e3 + e2 - e1;
                     S > 4 certifies genuine tripartite nonlocality.
  GTE                E = 2*max(0, max_i (|f_i| - m_i)),
                     m_i = sum_{j != i} sqrt(d_j e_j).
  l1-coherence       C = sum of |off-diagonal entries| (any density matrix).

Diagonal entries 1..4 are d_1..d_4; entries 8..5 are e_1..e_4, so d_i and
e_i sit on mirrored positions. f_i lives on the (i, 9-i) antidiagonal slot
(1-based indices).

Each measure is written once, as an array expression over N matrices held
as the (K, N) rows of their entries at a support (sorted flat 8x8 indices;
every other entry is 0; a whole matrix is the support np.arange(64)).
`support_measures` evaluates them and leaves S and E NaN on a matrix with a
nonzero `off_pattern` entry (-0.0 counts as 0): an exact test, so no scale
of the state moves it. C adds the off-diagonal magnitudes one row at a time
in row-major order; an entry outside the support adds 0, so every support
of a matrix gives the same bits, and so does every batch width.
"""
from __future__ import annotations

import functools
import math

import numpy as np

_SQRT2_8 = 8.0 * math.sqrt(2.0)
#: Flat 8x8 indices of d_1..d_4, e_1..e_4 and f_1..f_4.
_SLOTS = np.r_[0:36:9, 63:35:-9, 7:35:7]


def off_pattern(support) -> np.ndarray:
    """Mask of the flat 8x8 indices `support` off the diagonal and antidiagonal."""
    r, c = np.divmod(support, 8)
    return (r != c) & (r + c != 7)


def _slots(rows: np.ndarray, support: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d, e, f) as (4, N) arrays, 0 for an entry outside the support."""
    held = np.isin(_SLOTS, support)
    out = np.zeros((12, rows.shape[-1]), dtype=rows.dtype)
    out[held] = rows[np.searchsorted(support, _SLOTS[held])]
    return out[:4].real, out[4:8].real, out[8:]


def svetlichny(d: np.ndarray, e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """S from (4, N) arrays of d_i, e_i and |f_i|."""
    (d1, d2, d3, d4), (e1, e2, e3, e4) = d, e
    n = d1 - d2 - d3 + d4 - e4 + e3 + e2 - e1
    return np.maximum(_SQRT2_8 * f.max(axis=0), 4.0 * np.abs(n))


def tripartite_entanglement(d: np.ndarray, e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """E from (4, N) arrays of d_i, e_i and |f_i|."""
    roots = np.sqrt(np.maximum(d * e, 0.0))
    total = roots[0] + roots[1] + roots[2] + roots[3]
    best = (f - (total - roots)).max(axis=0)
    return 2.0 * np.maximum(0.0, best)


def l1_coherence(rows: np.ndarray, support: np.ndarray) -> np.ndarray:
    """C from the (K, N) entries at a support: the magnitudes of its
    off-diagonal rows, added one row at a time in support (row-major) order."""
    zeros = np.zeros(rows.shape[-1])
    return functools.reduce(np.add, np.abs(rows[support // 8 != support % 8]), zeros)


def support_measures(rows: np.ndarray, support, measures: tuple[str, ...]) -> dict[str, np.ndarray]:
    """The requested measures of the N matrices whose entries at the sorted
    flat indices `support` are the (K, N) `rows`, as (N,) arrays. S and E
    are NaN where a matrix fails the X test: a nonzero `off_pattern` entry."""
    out: dict[str, np.ndarray] = {}
    if "C" in measures:
        out["C"] = l1_coherence(rows, support)
    if "S" in measures or "E" in measures:
        x = ~np.any(rows[off_pattern(support)], axis=0)
        d, e, f = _slots(rows, support)
        f = np.abs(f)
        if "S" in measures:
            out["S"] = np.where(x, svetlichny(d, e, f), math.nan)
        if "E" in measures:
            out["E"] = np.where(x, tripartite_entanglement(d, e, f), math.nan)
    return out

