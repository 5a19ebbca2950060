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
the steps together: `unruh.scenario_reduced_stack` builds the reduced
(undamped) 8x8 matrices, one per (alpha, beta) element a block of points
uses, never one per p; the channel kernel `channels.damp_stack` damps a
copy of them at every point's own p; `measures.stack_measures` measures the
stack. The scalar functions are its N = 1 case. A call evaluates its
flattened points BLOCK_POINTS at a time, so its temporaries stay bounded
(about 7 KiB per two-damped point) however many points it is given.
"""
from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping

import numpy as np

from .channels import damp_stack
from .measures import is_x, stack_measures
from .qcore import DensityOperator, ModeRegister
from .unruh import Scenario, scenario, scenario_reduced_stack

MEASURES = ("S", "E", "C")

#: Points damped and measured together in one pass of `numeric_batch`.
BLOCK_POINTS = 4096


def _as_scenario(scen: "Scenario | str") -> Scenario:
    return scen if isinstance(scen, Scenario) else scenario(scen)


def _damped_blocks(scen: Scenario, alpha, beta, p) -> Iterator[tuple[slice, np.ndarray]]:
    """(slice, damped (n, 8, 8) stack) over the flattened broadcast of
    (alpha, beta, p) in row-major order, BLOCK_POINTS points at a time."""
    a, b = np.broadcast_arrays(np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float))
    shape = np.broadcast_shapes(a.shape, np.shape(p))
    # The (alpha, beta) element and the p of every point.
    ab = np.broadcast_to(np.arange(a.size).reshape(a.shape), shape).ravel()
    pp = np.broadcast_to(np.asarray(p, dtype=float), shape).ravel()
    a, b = a.ravel(), b.ravel()
    # Region tuples are stored in register order, so they are the register.
    positions = [scen.regions.index(m) for m in scen.damped_modes]
    for start in range(0, len(pp), BLOCK_POINTS):
        block = slice(start, start + BLOCK_POINTS)
        used, inverse = np.unique(ab[block], return_inverse=True)
        reduced = scenario_reduced_stack(a[used], b[used], scen)
        # Indexing copies each point's matrix into a fresh C-contiguous
        # stack, which damping then updates in place.
        yield block, damp_stack(reduced[inverse], positions, pp[block])


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
    values = {m: np.empty(math.prod(shape)) for m in wanted}
    for block, stack in _damped_blocks(scen, alpha, beta, p):
        for m, v in stack_measures(stack, wanted).items():
            values[m][block] = v
    return {m: v.reshape(shape) for m, v in values.items()}


def damped_scenario_state(
    scen: "Scenario | str", alpha: float, beta: float, p: float
) -> DensityOperator:
    """Reduced scenario state after amplitude damping of its kept
    accelerated modes (reduction first; the two orders commute)."""
    scen = _as_scenario(scen)
    _, stack = next(_damped_blocks(scen, float(alpha), float(beta), float(p)))
    return DensityOperator(ModeRegister(scen.regions), stack[0])


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
    rho = damped_scenario_state(scen, 0.6, 0.5, 0.3)
    return bool(is_x(np.abs(rho.matrix)[None])[0])
