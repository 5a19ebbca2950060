"""Numeric first-principles evaluation pipeline.

One evaluation point is (scenario, alpha, beta, p): build the GHZ-like
state, expand the accelerated observers' modes, reduce to the scenario's
three kept modes, damp the kept accelerated modes, then evaluate S/E/C.

S and E are defined through the X-state parameterization, and the X test is
decided per point: S/E are NaN exactly where the damped state has an
off-pattern entry above `measures.X_TOL`; the l1-coherence C is always
finite. AB_I_B_II and AC_I_C_II keep both wedge modes of one observer, whose
coherence connects basis states two bit flips apart. It vanishes only on the
beta = 0 row, the p = 1 column and at alpha = 0, so only there are S/E finite
(201 values of a 101 x 101 sweep at alpha = 1/sqrt(2)). `is_x_structured`
decides for a whole scenario from one interior point; the audit and the
figures use it.

`numeric_batch` takes broadcastable (alpha, beta, p) arrays and only wires
the steps together: `unruh.scenario_reduced_stack` builds the reduced
(undamped) 8x8 matrices, one per (alpha, beta) element a block of points
uses, never one per p; the channel kernel `channels.damp_entries` damps
them at every point's own p; `measures.stack_measures` measures the
stack. The scalar functions are its N = 1 case.

Damping touches only a scenario's support: the 5 to 10 entries its reduced
states (near-X matrices; Hashemi Rafsanjani et al., PRA 86, 062303 (2012))
can carry, all real, closed under the damping block map and found once per
scenario. Each block gathers their real parts, one row per entry, damps the
rows and scatters them into a zeroed real stack. A call evaluates
BLOCK_POINTS points at a time. Measured with tracemalloc, a block peaks at
about 6 MiB when its points share reduced states, as grid rows do, and at
26 MiB (6.6 KiB per point) with two damped modes and a distinct
(alpha, beta) at every point.
"""
from __future__ import annotations

import functools
import math
from typing import Iterable, Iterator, Mapping

import numpy as np

from .channels import block_plan, damp_entries, damp_stack
from .measures import is_x, stack_measures
from .qcore import DensityOperator, ModeRegister
from .unruh import Scenario, scenario, scenario_reduced_stack

MEASURES = ("S", "E", "C")

#: Points damped and measured together in one pass of `numeric_batch`.
BLOCK_POINTS = 4096


def _as_scenario(scen: "Scenario | str") -> Scenario:
    return scen if isinstance(scen, Scenario) else scenario(scen)


@functools.cache
def _support(scen: Scenario) -> tuple[np.ndarray, list]:
    """The sorted flat 8x8 entries the scenario's damped states can carry,
    and the damping plan over them. At an interior (alpha, beta) no reduced
    entry cancels (all amplitudes are positive), and damping magnitudes at
    an interior p fills exactly the entries the block map reaches."""
    # Region tuples are stored in register order, so they are the register.
    positions = [scen.regions.index(m) for m in scen.damped_modes]
    probe = np.abs(scenario_reduced_stack((0.6, 0.8), (0.3, 0.5), scen)).sum(axis=0)
    support = np.flatnonzero(damp_stack(probe[None], positions, 0.5))
    return support, block_plan(support, 8, positions)


def _damped_blocks(scen: Scenario, alpha, beta, p) -> Iterator[tuple[slice, np.ndarray]]:
    """(slice, damped real (n, 8, 8) stack) over the flattened broadcast of
    (alpha, beta, p) in row-major order, BLOCK_POINTS points at a time."""
    a, b = np.broadcast_arrays(np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float))
    shape = np.broadcast_shapes(a.shape, np.shape(p))
    # The (alpha, beta) element and the p of every point.
    ab = np.broadcast_to(np.arange(a.size).reshape(a.shape), shape).ravel()
    pp = np.broadcast_to(np.asarray(p, dtype=float), shape).ravel()
    a, b = a.ravel(), b.ravel()
    support, plan = _support(scen)
    for start in range(0, len(pp), BLOCK_POINTS):
        block = slice(start, start + BLOCK_POINTS)
        used, inverse = np.unique(ab[block], return_inverse=True)
        reduced = scenario_reduced_stack(a[used], b[used], scen).reshape(len(used), 64)
        # Row k holds entry support[k] of each point's matrix, in a fresh
        # C-contiguous array that damping updates in place.
        rows = damp_entries(np.take(reduced[:, support].real.T, inverse, axis=1), plan, pp[block])
        stack = np.zeros((len(inverse), 64))
        stack[:, support] = rows.T
        yield block, stack.reshape(-1, 8, 8)


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
