"""Independent numeric oracle for checking ghzsim outputs.

It shares no code with the package. The GHZ state is built by Kronecker
products of per-mode vectors, the complement is traced out by einsum
contraction, and amplitude damping is applied through its analytic 2x2
block map on each damped qubit. S, E and C follow the X-state formulas
in the package documentation; S and E are NaN when the damped state is
not X-structured.
"""
from __future__ import annotations

import math

import numpy as np

# Mode order after the wedge expansion of the accelerated observers.
_MODES_CHARLIE = ("A", "B", "C_I", "C_II")
_MODES_BOB_CHARLIE = ("A", "B_I", "B_II", "C_I", "C_II")

#: scenario -> kept modes, in register order.
KEPT = {
    "ABC_I": ("A", "B", "C_I"),
    "ABC_II": ("A", "B", "C_II"),
    "AB_I_C_I": ("A", "B_I", "C_I"),
    "AB_I_C_II": ("A", "B_I", "C_II"),
    "AB_II_C_I": ("A", "B_II", "C_I"),
    "AB_II_C_II": ("A", "B_II", "C_II"),
    "AB_I_B_II": ("A", "B_I", "B_II"),
    "AC_I_C_II": ("A", "C_I", "C_II"),
}

_X_TOL = 1e-12


def _kron_all(vectors) -> np.ndarray:
    out = np.ones(1, dtype=complex)
    for v in vectors:
        out = np.kron(out, v)
    return out


def _ghz_expanded(alpha: float, beta: float, bob_accelerated: bool) -> np.ndarray:
    """alpha|000> + sqrt(1-alpha^2)|111>, with each accelerated qubit mapped
    |0> -> cos(beta)|00> + sin(beta)|11> and |1> -> |10> on its wedge pair."""
    zero, one = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    wedge_zero = np.array([math.cos(beta), 0.0, 0.0, math.sin(beta)])
    wedge_one = np.array([0.0, 0.0, 1.0, 0.0])
    b0, b1 = (wedge_zero, wedge_one) if bob_accelerated else (zero, one)
    weight = math.sqrt(1.0 - alpha * alpha)
    return alpha * _kron_all((zero, b0, wedge_zero)) + weight * _kron_all((one, b1, wedge_one))


def _trace_out(mat: np.ndarray, n: int, keep: list[int]) -> np.ndarray:
    rows = list(range(n))
    cols = [n + i if i in keep else i for i in range(n)]
    out = keep + [n + i for i in keep]
    tensor = mat.reshape((2,) * (2 * n))
    k = len(keep)
    return np.einsum(tensor, rows + cols, out).reshape(2**k, 2**k)


def _damp(mat: np.ndarray, n: int, pos: int, p: float) -> np.ndarray:
    tensor = np.moveaxis(mat.reshape((2,) * (2 * n)), (pos, n + pos), (0, 1))
    sq = math.sqrt(1.0 - p)
    out = np.empty_like(tensor)
    out[0, 0] = tensor[0, 0] + p * tensor[1, 1]
    out[0, 1] = sq * tensor[0, 1]
    out[1, 0] = sq * tensor[1, 0]
    out[1, 1] = (1.0 - p) * tensor[1, 1]
    return np.moveaxis(out, (0, 1), (pos, n + pos)).reshape(mat.shape)


def damped_state(scenario: str, alpha: float, beta: float, p: float) -> np.ndarray:
    """8x8 reduced state of `scenario` after damping its kept wedge modes."""
    kept = KEPT[scenario]
    bob_accelerated = not scenario.startswith("ABC_")
    modes = _MODES_BOB_CHARLIE if bob_accelerated else _MODES_CHARLIE
    psi = _ghz_expanded(alpha, beta, bob_accelerated)
    rho = _trace_out(np.outer(psi, psi.conj()), len(modes), [modes.index(m) for m in kept])
    for pos, mode in enumerate(kept):
        if "_" in mode:
            rho = _damp(rho, 3, pos, p)
    return rho


def measures(scenario: str, alpha: float, beta: float, p: float) -> dict[str, float]:
    """S, E and C of the damped reduced state."""
    rho = damped_state(scenario, alpha, beta, p)
    mag = np.abs(rho)
    c = float(mag.sum() - np.trace(mag))
    off_x = mag.copy()
    for i in range(8):
        off_x[i, i] = off_x[i, 7 - i] = 0.0
    if off_x.max() > _X_TOL:
        return {"S": math.nan, "E": math.nan, "C": c}
    d = [rho[i, i].real for i in range(4)]
    e = [rho[7 - i, 7 - i].real for i in range(4)]
    f = [abs(rho[i, 7 - i]) for i in range(4)]
    n = d[0] - d[1] - d[2] + d[3] - e[3] + e[2] + e[1] - e[0]
    s = max(8.0 * math.sqrt(2.0) * max(f), 4.0 * abs(n))
    roots = [math.sqrt(max(di * ei, 0.0)) for di, ei in zip(d, e)]
    gte = 2.0 * max(0.0, max(fi - (sum(roots) - ri) for fi, ri in zip(f, roots)))
    return {"S": float(s), "E": float(gte), "C": c}


def close(got: float, want: float, tol: float = 1e-9) -> bool:
    """Equal within `tol` absolute plus `tol` relative; NaN equals NaN."""
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    return abs(got - want) <= tol * (1.0 + abs(want))
