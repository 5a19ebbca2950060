"""Numeric first-principles evaluation pipeline.

One evaluation point is (scenario, alpha, beta, p): build the GHZ-like
state, expand the accelerated observers' modes, reduce to the scenario's
three kept modes, damp the kept accelerated modes, then evaluate S/E/C.

S and E are defined through the X-state parameterization. Two region
combinations (AB_I_B_II and AC_I_C_II) reduce to states whose coherence
connects basis states differing in only two bits, so they are not
X-structured and S/E come out as NaN there; the l1-coherence C is defined
for any density matrix and is always finite. The X test is decided per
point.

The pipeline is one batched array kernel, `numeric_batch`. It takes
broadcastable (alpha, beta, p) arrays and stacks the reduced (undamped) 8x8
matrices, cached per (scenario, alpha, beta), into an (N, 8, 8) array. It
damps each kept accelerated mode with the channel's analytic 2x2 block map
at every point's own p, then evaluates the X test and S/E/C as vector
expressions over the stack. The scalar functions are its N = 1 case.
Callers batch by structure (one grid row, one boundary scan, one sum-rule
sample set), never a whole grid, so a stack stays within a few MB.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

from .qcore import DensityOperator, ModeRegister, ParameterError
from .unruh import GhzParams, Scenario, UnruhParams, scenario, scenario_reduced_state

MEASURES = ("S", "E", "C")

#: Largest off-pattern magnitude an X-structured matrix may carry.
X_TOL = 1e-12

_X_OFF_MASK = np.ones((8, 8), dtype=bool)
for _i in range(8):
    _X_OFF_MASK[_i, _i] = False
    _X_OFF_MASK[_i, 7 - _i] = False

_F_ROWS = np.arange(4)
_SQRT2_8 = 8.0 * math.sqrt(2.0)


def _as_scenario(scen: "Scenario | str") -> Scenario:
    return scen if isinstance(scen, Scenario) else scenario(scen)


@lru_cache(maxsize=4096)
def _reduced(name: str, alpha: float, beta: float) -> np.ndarray:
    """Cached 3-mode reduced matrix of one scenario."""
    return scenario_reduced_state(GhzParams(alpha), UnruhParams(beta), scenario(name)).matrix


def _damp(stack: np.ndarray, positions: Iterable[int], p: np.ndarray) -> np.ndarray:
    """Amplitude damping, in place, of the qubits at `positions` of an
    (N, 8, 8) stack, point n at probability p[n], through the channel's 2x2
    block map

        [[r00, r01], [r10, r11]] -> [[r00 + p*r11, sqrt(1-p)*r01],
                                     [sqrt(1-p)*r10, (1-p)*r11]]

    where r_ab are the operator blocks of the target qubit.
    """
    n = len(stack)
    pb = p.reshape(n, 1, 1, 1, 1)
    sq = np.sqrt(1.0 - pb)
    tensor = stack.reshape(n, 2, 2, 2, 2, 2, 2)
    for pos in positions:
        blocks = np.moveaxis(tensor, (1 + pos, 4 + pos), (1, 2))
        blocks[:, 0, 0] += pb * blocks[:, 1, 1]  # before r11 is scaled
        blocks[:, 0, 1] *= sq
        blocks[:, 1, 0] *= sq
        blocks[:, 1, 1] *= 1.0 - pb
    return stack


def _damped_stack(scen: Scenario, alpha, beta, p) -> np.ndarray:
    """(N, 8, 8) damped reduced matrices over the flattened broadcast of
    (alpha, beta, p), in row-major order."""
    a, b, pp = np.broadcast_arrays(
        np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float), np.asarray(p, dtype=float)
    )
    pp = pp.ravel()
    bad = ~((pp >= 0.0) & (pp <= 1.0))
    if bad.any():
        raise ParameterError(f"p={pp[bad][0]} outside [0, 1]")
    # A fresh copy of the cached matrices, so damping may work in place.
    stack = np.array(
        [_reduced(scen.name, x, y) for x, y in zip(a.ravel().tolist(), b.ravel().tolist())],
        dtype=complex,
    ).reshape(-1, 8, 8)
    # Region tuples are stored in register order, so they are the register.
    positions = [scen.regions.index(m) for m in scen.damped_modes]
    return _damp(stack, positions, pp)


def _is_x(absm: np.ndarray) -> np.ndarray:
    """Per point of an (N, 8, 8) stack of magnitudes: no off-pattern entry
    above X_TOL."""
    return ~(np.max(absm[:, _X_OFF_MASK], axis=1, initial=0.0) > X_TOL)


def numeric_batch(
    scen: "Scenario | str", alpha, beta, p, measures: Iterable[str] = MEASURES
) -> dict[str, np.ndarray]:
    """Evaluate the requested measures at every point of the broadcast of
    (alpha, beta, p); each array has the broadcast shape. S and E are NaN
    where the damped state is not X-structured."""
    scen = _as_scenario(scen)
    wanted = tuple(measures)
    unknown = set(wanted) - set(MEASURES)
    if unknown:
        raise ValueError(f"unknown measures {sorted(unknown)}; expected subset of {MEASURES}")
    shape = np.broadcast_shapes(np.shape(alpha), np.shape(beta), np.shape(p))
    stack = _damped_stack(scen, alpha, beta, p)

    absm = np.abs(stack)
    out: dict[str, np.ndarray] = {}
    if "C" in wanted:
        out["C"] = absm.sum(axis=(1, 2)) - np.trace(absm, axis1=1, axis2=2)
    if "S" in wanted or "E" in wanted:
        x = _is_x(absm)
        diag = np.diagonal(stack, axis1=1, axis2=2).real
        d = diag[:, :4].T  # d_1..d_4
        e = diag[:, 7:3:-1].T  # e_1..e_4, mirrored
        f = absm[:, _F_ROWS, 7 - _F_ROWS].T  # |f_1|..|f_4|
        if "S" in wanted:
            (d1, d2, d3, d4), (e1, e2, e3, e4) = d, e
            n = d1 - d2 - d3 + d4 - e4 + e3 + e2 - e1
            s = np.maximum(_SQRT2_8 * f.max(axis=0), 4.0 * np.abs(n))
            out["S"] = np.where(x, s, math.nan)
        if "E" in wanted:
            roots = np.sqrt(np.maximum(d * e, 0.0))
            total = roots[0] + roots[1] + roots[2] + roots[3]
            best = (f - (total - roots)).max(axis=0)
            out["E"] = np.where(x, 2.0 * np.maximum(0.0, best), math.nan)
    return {m: out[m].reshape(shape) for m in wanted}


def damped_scenario_state(
    scen: "Scenario | str", alpha: float, beta: float, p: float
) -> DensityOperator:
    """Reduced scenario state after amplitude damping of its kept
    accelerated modes (reduction first; the two orders commute)."""
    scen = _as_scenario(scen)
    mat = _damped_stack(scen, float(alpha), float(beta), float(p))[0]
    return DensityOperator(ModeRegister(scen.regions), mat)


def numeric_measures(
    scen: "Scenario | str",
    alpha: float,
    beta: float,
    p: float,
    measures: Iterable[str] = MEASURES,
) -> Mapping[str, float]:
    """Evaluate the requested measures at one point."""
    values = numeric_batch(scen, float(alpha), float(beta), float(p), measures)
    return {m: float(v) for m, v in values.items()}


def is_x_structured(scen: "Scenario | str") -> bool:
    """Whether the scenario's reduced states carry the X pattern (and hence
    numeric S/E are defined). Decided from the state itself at a generic
    interior point, not from a hard-coded list."""
    return bool(_is_x(np.abs(_damped_stack(_as_scenario(scen), 0.6, 0.5, 0.3)))[0])
