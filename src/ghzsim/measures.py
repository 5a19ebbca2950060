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

The X test and each measure are written once, as array expressions over
(N, 8, 8) matrix stacks; `stack_measures` evaluates them on a stack and
leaves S and E NaN on a matrix that fails the X test.
"""
from __future__ import annotations

import math

import numpy as np

#: Largest off-pattern magnitude an X-structured matrix may carry.
X_TOL = 1e-12

#: Off-pattern slots of an 8x8 matrix: neither diagonal nor antidiagonal.
_OFF_X = ~(np.eye(8, dtype=bool) | np.eye(8, dtype=bool)[::-1])
_F_ROWS = np.arange(4)
_SQRT2_8 = 8.0 * math.sqrt(2.0)


def is_x(absm: np.ndarray) -> np.ndarray:
    """Per matrix of an (N, 8, 8) stack of magnitudes: no off-pattern entry
    above X_TOL."""
    return ~(np.max(absm[:, _OFF_X], axis=1, initial=0.0) > X_TOL)


def _slots(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d, e, f) of an (N, 8, 8) stack as (4, N) arrays."""
    diag = np.diagonal(mat, axis1=-2, axis2=-1).real
    return diag[..., :4].T, diag[..., 7:3:-1].T, mat[..., _F_ROWS, 7 - _F_ROWS].T


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


def l1_coherence(absm: np.ndarray) -> np.ndarray:
    """C of each matrix in an (N, 8, 8) stack of magnitudes."""
    return absm.sum(axis=(-2, -1)) - np.trace(absm, axis1=-2, axis2=-1)


def stack_measures(stack: np.ndarray, measures: tuple[str, ...]) -> dict[str, np.ndarray]:
    """The requested measures of every matrix in an (N, 8, 8) stack as (N,)
    arrays. S and E are NaN where the matrix is not X-structured."""
    absm = np.abs(stack)
    out: dict[str, np.ndarray] = {}
    if "C" in measures:
        out["C"] = l1_coherence(absm)
    if "S" in measures or "E" in measures:
        x = is_x(absm)
        d, e, f = _slots(stack)
        f = np.abs(f)
        if "S" in measures:
            out["S"] = np.where(x, svetlichny(d, e, f), math.nan)
        if "E" in measures:
            out["E"] = np.where(x, tripartite_entanglement(d, e, f), math.nan)
    return out
