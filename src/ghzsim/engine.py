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

`numeric_batch` takes broadcastable (alpha, beta, p) arrays and only wires
the steps together: it stacks the reduced (undamped) 8x8 matrices, cached
per (scenario, alpha, beta), into an (N, 8, 8) array, damps them with the
channel kernel `channels.damp_stack` at every point's own p, and measures
the stack with `measures.stack_measures`. The scalar functions are its
N = 1 case. Callers batch by structure (one grid row, one boundary scan,
one bisection step, one sum-rule sample set), never a whole grid, so a
stack stays within a few MB.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

from .channels import damp_stack
from .measures import is_x, stack_measures
from .qcore import DensityOperator, ModeRegister
from .unruh import GhzParams, Scenario, UnruhParams, scenario, scenario_reduced_state

MEASURES = ("S", "E", "C")


def _as_scenario(scen: "Scenario | str") -> Scenario:
    return scen if isinstance(scen, Scenario) else scenario(scen)


@lru_cache(maxsize=4096)
def _reduced(name: str, alpha: float, beta: float) -> np.ndarray:
    """Cached 3-mode reduced matrix of one scenario."""
    return scenario_reduced_state(GhzParams(alpha), UnruhParams(beta), scenario(name)).matrix


def _damped_stack(scen: Scenario, alpha, beta, p) -> np.ndarray:
    """(N, 8, 8) damped reduced matrices over the flattened broadcast of
    (alpha, beta, p), in row-major order."""
    a, b, pp = (np.asarray(v, dtype=float).ravel() for v in np.broadcast_arrays(alpha, beta, p))
    # A fresh copy of the cached matrices, so damping may work in place.
    stack = np.array(
        [_reduced(scen.name, x, y) for x, y in zip(a.tolist(), b.tolist())], dtype=complex
    ).reshape(-1, 8, 8)
    # Region tuples are stored in register order, so they are the register.
    positions = [scen.regions.index(m) for m in scen.damped_modes]
    return damp_stack(stack, positions, pp)


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
    values = stack_measures(_damped_stack(scen, alpha, beta, p), wanted)
    return {m: values[m].reshape(shape) for m in wanted}


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
    return bool(is_x(np.abs(_damped_stack(_as_scenario(scen), 0.6, 0.5, 0.3)))[0])
