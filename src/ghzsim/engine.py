"""Numeric first-principles evaluation pipeline.

One evaluation point is (scenario, alpha, beta, p): build the GHZ-like
state alpha|000> + sqrt(1 - alpha^2)|111>, expand the accelerated
observers' modes, reduce to the scenario's three kept modes, damp the kept
accelerated modes, then evaluate S/E/C. Each public function takes a
scenario by name, the kernels its `SCENARIOS` row (`qcore` owns that table,
so the CLI reads it without numpy). The kernels check no range: the public
functions do, through `qcore.checked`.

Support rows, the one data format of the kernels: N real 8x8 matrices held
as the (K, N) rows of their entries at a support, sorted flat 8x8 indices
(every other entry is 0; a whole matrix is the support np.arange(64)). A
scenario's support holds the 5 to 10 entries its reduced states (near-X
matrices; Hashemi Rafsanjani et al., PRA 86, 062303 (2012)) can carry,
closed under the damping block map and found once per scenario.

Wedge map. An accelerated observer's qubit mode splits into the accessible
wedge mode (suffix _I) and the inaccessible one (suffix _II); for a
fermionic field

    |0>  ->  cos(beta)|0>_I|0>_II + sin(beta)|1>_I|1>_II
    |1>  ->  |1>_I|0>_II

with beta in [0, pi/4] (`qcore.BETA_MAX`); beta = 0 is the inertial limit
and beta = pi/4 the infinite-acceleration limit. `scenario_reduced_entries`
builds the reduced states' rows for N (alpha, beta) elements in real
arithmetic: it expands each `expanded` mode, Bob's before Charlie's, in an
(N, 2, 2, 2) amplitude tensor, multiplies the kept-mode amplitudes of each
entry and sums out the traced modes in register order, for two traced
modes as (t0 + t2) + (t1 + t3).

Damping block map. Amplitude damping, decay |1> -> |0> with probability p,
has the single-qubit Kraus pair m0 = diag(1, sqrt(1-p)) and
m1 = sqrt(p)|0><1|. It acts on the operator blocks r_ab of each target
qubit as

    [[r00, r01], [r10, r11]] -> [[r00 + p*r11, sqrt(1-p)*r01],
                                 [sqrt(1-p)*r10, (1-p)*r11]].

The environments of several targets act independently, so the maps
compose, and they commute with the partial trace. `block_plan` lays out
each target's block rows over a support closed under the map (every r11
entry with its r00 partner); `damp_entries` applies the map to the rows.

X-state measures. For a three-qubit X matrix (nonzero entries on the main
diagonal and the antidiagonal only), diagonal entries 1..4 are d_1..d_4 and
entries 8..5 are e_1..e_4, so d_i and e_i sit on mirrored positions; f_i
lives on the (i, 9-i) antidiagonal slot (1-based indices). Then

  Svetlichny value   S = max(8*sqrt(2)*max_i |f_i|, 4|N|),
                     N = d1 - d2 - d3 + d4 - e4 + e3 + e2 - e1;
                     S > 4 certifies genuine tripartite nonlocality.
  GTE                E = 2*max(0, max_i (|f_i| - m_i)),
                     m_i = sum_{j != i} sqrt(d_j e_j).
  l1-coherence       C = sum of |off-diagonal entries| (any density matrix).

`support_measures` writes each once, as an array expression over support
rows. It leaves S and E NaN on a matrix with a nonzero `off_pattern` entry
(-0.0 counts as 0): an exact test, with no tolerance, so no scale of the
state moves it; C is always finite. C adds the off-diagonal magnitudes one
row at a time in row-major order; an entry outside the support adds 0, so
every support of a matrix gives the same bits, and so does every batch
width. AB_I_B_II and AC_I_C_II keep both wedge modes of one observer, whose
coherence alpha^2 g(beta, p) connects basis states two bit flips apart. It
is exactly 0 only on the beta = 0 row, the p = 1 column and at alpha = 0, so
only there are S/E finite: 201 values of a 101 x 101 sweep at every alpha
from 1e-158 to 1 (near 1e-160 the computed coherence underflows to 0).
`is_x_structured` decides for a whole scenario from its support, with no
kernel call; the audit, the figures and the boundary use it.

`numeric_batch` takes broadcastable (alpha, beta, p) and builds the rows
once per (alpha, beta) element of the broadcast, never once per p, then
damps the gathered rows at each point's own p and measures them. No 8x8
matrix is formed, except by `damped_scenario_state`, which scatters one
point's damped support rows into a plain real (8, 8) array for callers that
want the whole matrix.

A call builds BLOCK_POINTS elements, then damps and measures BLOCK_POINTS
points, at a time, and holds 8K bytes (at most 80) per (alpha, beta)
element: about 80 KB at the CLI defaults, which have at most 1,009. Measured
with tracemalloc, a 101 x 101 grid call peaks at 1.6 MiB (ABC_I) and 1.7 MiB
(AB_I_C_I); on AB_I_C_I with a distinct (alpha, beta) at every point, at
5.3 MiB for 4,096 points and 15.5 MiB for 100,000.
"""
from __future__ import annotations

import functools
import math
from typing import Iterable

import numpy as np

from .qcore import ConfigError, Scenario, checked, scenario

MEASURES = ("S", "E", "C")

#: Points damped and measured together in one pass of `numeric_batch`.
BLOCK_POINTS = 4096

_SQRT2_8 = 8.0 * math.sqrt(2.0)
#: Flat 8x8 indices of d_1..d_4, e_1..e_4 and f_1..f_4.
_SLOTS = np.r_[0:36:9, 63:35:-9, 7:35:7]


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
