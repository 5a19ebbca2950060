"""Numeric first-principles evaluation pipeline.

One evaluation point is (scenario, alpha, beta, p): build the GHZ-like
state, expand the accelerated observers' modes, reduce to the scenario's
three kept modes, damp the kept accelerated modes, then evaluate S/E/C.

S and E are defined through the X-state parameterization. The kernel decides
per point: S/E are NaN exactly where the damped state has a nonzero
`measures.off_pattern` entry, with no tolerance; the l1-coherence C is always
finite. AB_I_B_II and AC_I_C_II keep both wedge modes of one observer, whose
coherence alpha^2 g(beta, p) connects basis states two bit flips apart. It
is exactly 0 only on the beta = 0 row, the p = 1 column and at alpha = 0, so
only there are S/E finite: 201 values of a 101 x 101 sweep at every alpha
from 1e-158 to 1 (near 1e-160 the computed coherence underflows to 0).
`is_x_structured` decides for a whole scenario from its support, with no
kernel call; the audit, the figures and the boundary use it.

Each public function takes a scenario by name, the kernels its `SCENARIOS`
row. `numeric_batch` takes broadcastable (alpha, beta, p) and wires the
steps together on a scenario's support: the 5 to 10 real entries its
reduced states (near-X matrices; Hashemi Rafsanjani et al., PRA 86, 062303
(2012)) can carry, closed under the damping block map and found once per
scenario. `unruh.scenario_reduced_entries` builds them as (K, n) rows, one
column per (alpha, beta) element of the broadcast, once per call and never
once per p; `channels.damp_entries` damps the gathered rows at each point's
own p, and `measures.support_measures` measures them. No 8x8 matrix is
formed, except by `damped_scenario_state`, which scatters one point's damped
support rows into a plain real (8, 8) array for callers that want the whole
matrix.

A call builds BLOCK_POINTS elements, then damps and measures BLOCK_POINTS
points, at a time, and holds 8K bytes (at most 80) per (alpha, beta)
element: about 80 KB at the CLI defaults, which have at most 1,009. Measured
with tracemalloc, a 101 x 101 grid call peaks at 1.6 MiB (ABC_I) and 1.7 MiB
(AB_I_C_I); on AB_I_C_I with a distinct (alpha, beta) at every point, at
5.3 MiB for 4,096 points and 15.5 MiB for 100,000.
"""
from __future__ import annotations

import functools
from typing import Iterable

import numpy as np

from .channels import block_plan, damp_entries
from .measures import off_pattern, support_measures
from .qcore import ConfigError, Scenario, checked, scenario
from .unruh import scenario_reduced_entries

MEASURES = ("S", "E", "C")

#: Points damped and measured together in one pass of `numeric_batch`.
BLOCK_POINTS = 4096


@functools.cache
def _support(scen: Scenario) -> tuple[np.ndarray, list]:
    """The sorted flat 8x8 entries the scenario's damped states can carry,
    and the damping plan over them. At an interior (alpha, beta) no reduced
    entry cancels (all amplitudes are positive), and damping magnitudes at
    an interior p fills exactly the entries the block map reaches."""
    # Region tuples are stored in register order, so they are the register.
    positions = [scen.regions.index(m) for m in scen.damped_modes]
    every = np.arange(64)
    probe = np.abs(scenario_reduced_entries((0.6, 0.8), (0.3, 0.5), scen, every)).sum(axis=1)
    support = np.flatnonzero(damp_entries(probe[:, None], block_plan(every, 8, positions), 0.5))
    return support, block_plan(support, 8, positions)


def numeric_batch(
    name: str, alpha, beta, p, measures: Iterable[str] = MEASURES
) -> dict[str, np.ndarray]:
    """Evaluate the requested measures of scenario `name` at every point of
    the broadcast of (alpha, beta, p); each array has the broadcast shape. S
    and E are NaN where the damped state is not X-structured."""
    scen = scenario(name)
    wanted = tuple(measures)
    if unknown := set(wanted) - set(MEASURES):
        raise ConfigError(f"unknown measures {sorted(unknown)}; expected subset of {MEASURES}")
    a, b = np.broadcast_arrays(checked("alpha", alpha), checked("beta", beta))
    p = checked("p", p)
    shape = np.broadcast_shapes(a.shape, np.shape(p))
    # The (alpha, beta) element and the p of every point, in row-major order.
    ab = np.broadcast_to(np.arange(a.size).reshape(a.shape), shape).ravel()
    pp = np.broadcast_to(p, shape).ravel()
    a, b = a.ravel(), b.ravel()
    support, plan = _support(scen)
    reduced = np.empty((len(support), a.size))
    for start in range(0, a.size, BLOCK_POINTS):
        block = slice(start, start + BLOCK_POINTS)
        reduced[:, block] = scenario_reduced_entries(a[block], b[block], scen, support)
    values = {m: np.empty(len(pp)) for m in wanted}
    for start in range(0, len(pp), BLOCK_POINTS):
        block = slice(start, start + BLOCK_POINTS)
        # A fresh C-contiguous array, which damping updates in place.
        rows = damp_entries(np.take(reduced, ab[block], axis=1), plan, pp[block])
        for m, v in support_measures(rows, support, wanted).items():
            values[m][block] = v
    return {m: v.reshape(shape) for m, v in values.items()}


def damped_scenario_state(name: str, alpha: float, beta: float, p: float) -> np.ndarray:
    """The real (8, 8) reduced matrix of scenario `name` after amplitude
    damping of its kept accelerated modes (reduction first; the two orders
    commute); at p = 0, the undamped reduced matrix."""
    scen = scenario(name)
    alpha, beta = checked("alpha", float(alpha)), checked("beta", float(beta))
    support, plan = _support(scen)
    rows = scenario_reduced_entries(alpha, beta, scen, support)
    matrix = np.zeros(64)
    matrix[support] = damp_entries(rows, plan, checked("p", float(p)))[:, 0]
    return matrix.reshape(8, 8)


def is_x_structured(name: str) -> bool:
    """Whether the damped states of scenario `name` carry the X pattern (and
    hence numeric S/E are defined): whether its support, found from the
    states themselves, holds no off-pattern entry."""
    return not off_pattern(_support(scenario(name))[0]).any()
