"""GHZ-like state preparation and the single-mode expansion seen by
uniformly accelerated observers.

An accelerated observer's qubit mode splits into a pair of wedge modes:
the accessible one (suffix _I) and the inaccessible one (suffix _II).
For a fermionic field the vacuum and excited states map as

    |0>  ->  cos(beta)|0>_I|0>_II + sin(beta)|1>_I|1>_II
    |1>  ->  |1>_I|0>_II

with beta in [0, pi/4] (`qcore.BETA_MAX`); beta = 0 is the inertial limit and
beta = pi/4 the infinite-acceleration limit.

A scenario is plain data, a `Scenario` of mode-name strings: the observers
whose mode is expanded and the three modes kept. `SCENARIOS` holds the
paper's eight. `qcore` owns that table (`Scenario`, `SCENARIOS`, `scenario`),
so the CLI reads it without numpy. `scenario_reduced_entries`, the one
builder, computes chosen entries of a scenario's reduced states for N points
at once from its table row, in real arithmetic: it expands each `expanded`
mode, Bob's before Charlie's, in an (N, 2, 2, 2) amplitude tensor,
multiplies the kept-mode amplitudes of each entry and sums out the traced
modes in register order, for two traced modes as (t0 + t2) + (t1 + t3).
`engine.damped_scenario_state` at p = 0 is it on one point's 64 entries.
Like every kernel under the engine it checks no range: the engine entry
does, through `qcore.checked`.
"""
from __future__ import annotations

import numpy as np

from .qcore import Scenario


def _expand_stack(psi: np.ndarray, axis: int, cos_b: np.ndarray, sin_b: np.ndarray) -> np.ndarray:
    """Wedge expansion of the mode at tensor `axis` of an (N, 2, ..., 2)
    amplitude stack: the mode's axis becomes the (_I, _II) axis pair, with
    |0> -> cos|00> + sin|11> and |1> -> |10>."""
    psi = np.moveaxis(psi, axis, 1)
    out = np.zeros((len(psi), 2, 2) + psi.shape[2:])
    per_point = (-1,) + (1,) * (psi.ndim - 2)
    out[:, 0, 0] = psi[:, 0] * cos_b.reshape(per_point)
    out[:, 1, 1] = psi[:, 0] * sin_b.reshape(per_point)
    out[:, 1, 0] = psi[:, 1]
    return np.moveaxis(out, (1, 2), (axis, axis + 1))


def scenario_reduced_entries(alpha, beta, scen: Scenario, support) -> np.ndarray:
    """(K, N) entries at the flat 8x8 indices `support` of one scenario's
    reduced matrices, one column per element of the broadcast of
    (alpha, beta) in row-major order."""
    a, b = (np.asarray(v, dtype=float).ravel() for v in np.broadcast_arrays(alpha, beta))
    n = len(a)
    psi = np.zeros((n, 2, 2, 2))  # axes (N, A, B, C)
    psi[:, 0, 0, 0] = a
    psi[:, 1, 1, 1] = np.sqrt(1.0 - a * a)
    cos_b, sin_b = np.cos(b), np.sin(b)
    register = ("A", "B", "C")
    # Bob before Charlie: the order fixes the rounding of the amplitude
    # products.
    for t in scen.expanded:
        pos = register.index(t)
        psi = _expand_stack(psi, 1 + pos, cos_b, sin_b)
        register = register[:pos] + (t + "_I", t + "_II") + register[pos + 1 :]
    kept = [register.index(m) for m in scen.regions]
    traced = [i for i in range(len(register)) if i not in kept]
    # (N, traced..., kept...) -> (T, 8, N): psi[t] holds the kept amplitudes
    # at traced bits t, whose outer product is the (t, t) block of the full
    # density matrix. Halving sums over the first traced mode, then the next.
    psi = np.transpose(psi, [1 + i for i in traced + kept] + [0]).reshape(-1, 8, n)
    rows, cols = np.divmod(support, 8)
    terms = psi[:, rows] * psi[:, cols]
    while len(terms) > 1:
        terms = terms[: len(terms) // 2] + terms[len(terms) // 2 :]
    return terms[0]

