"""Shared fixtures, independent numeric oracles, and the acceptance summary.

The oracles here are written separately from the package's own code paths,
so the tests cross-check two implementations. `trace_out_oracle` is the
partial trace, an einsum contraction; the package never forms a full
register's matrix. `damp_qubit_oracle` damps one qubit of one matrix out of
place, building a new array from the four operator blocks; the package's
single damping kernel, `engine.damp_entries`, updates chosen entries of N
matrices in place as rows of a (K, N) array, one p per matrix.
`kraus_pair_oracle` is the channel's definition, its two 2x2 Kraus
operators, and `kraus_sum_oracle` applies them to chosen qubits as a Kraus
sum of full-register matrices, so the kernel can be checked against the
channel itself. `density_deviations` gives the Hermiticity, trace and
positivity deviations of one matrix for the density-matrix checks.
`damp_all_entries` and `damp_one` run the package's kernel on every entry
of whole matrices, so tests can hold it to these oracles.

`register_reduced_oracle` builds a scenario's reduced state one point at a
time on a register of mode-name strings: the GHZ vector, the wedge
expansion of each accelerated mode by its bit strings, the full outer
product and `trace_out_oracle`. The batched builder must equal it bit for
bit. Which modes it expands and keeps, `expanded_from_name` and
`modes_from_name` read off the scenario's name, not from the package's
scenario table.
`x_measures_oracle` evaluates S, E and C of one matrix in Python scalars,
straight from the formulas in the `engine` module docstring, so the
engine's differential test shares no code with the kernels it checks.
`dense_measures_oracle` is the dense form the package replaced with its
support-row kernel: a boolean-mask X test over all 48 off-pattern slots,
slots read off the stack's diagonals and C as the sum of all 56
off-diagonal magnitudes of whole (N, 8, 8) stacks, added in row-major order
as `x_measures_oracle` adds them. The kernel must give its bits exactly.
Both oracles call a matrix X-structured as the package does, exactly: when
no off-pattern entry is nonzero, with no tolerance. `svetlichny_bound_oracle`
bounds S from above by the singular values of the correlation tensor, with
no X-state formula, so it also checks the formula S itself.

`sweep_records_oracle`, `records_csv_oracle`, `records_json_oracle` and
`figure_csv_oracle` are the per-record and per-cell writers the package
replaced with its columnar grid writer; the serialization tests require the
package's output to equal theirs byte for byte. `grid_records` lays a
`SweepGrid`'s arrays out as those writers' `Record` rows.
"""
from __future__ import annotations

import json
import math
import os
import re
from collections import namedtuple
from functools import reduce

import numpy as np
import pytest

from ghzsim import cf_eval, damped_scenario_state, numeric_batch
from ghzsim.engine import block_plan, damp_entries, svetlichny, tripartite_entanglement

# --- independent oracles ------------------------------------------------------


def trace_out_oracle(mat: np.ndarray, n_modes: int, keep: list[int]) -> np.ndarray:
    """Partial trace by einsum contraction (big-endian qubit order)."""
    rows = list(range(n_modes))
    cols = [n_modes + i if i in keep else i for i in range(n_modes)]
    out = [i for i in keep] + [n_modes + i for i in keep]
    tensor = mat.reshape((2,) * (2 * n_modes))
    k = len(keep)
    return np.einsum(tensor, rows + cols, out).reshape(2**k, 2**k)


def damp_qubit_oracle(mat: np.ndarray, n_modes: int, pos: int, p: float) -> np.ndarray:
    """Amplitude damping of one qubit via its analytic 2x2 block action:

        [[r00, r01], [r10, r11]] -> [[r00 + p*r11, sqrt(1-p)*r01],
                                     [sqrt(1-p)*r10, (1-p)*r11]]

    where r_ab are the operator blocks of the target qubit.
    """
    tensor = mat.reshape((2,) * (2 * n_modes))
    tensor = np.moveaxis(tensor, (pos, n_modes + pos), (0, 1))
    r00, r01, r10, r11 = tensor[0, 0], tensor[0, 1], tensor[1, 0], tensor[1, 1]
    sq = np.sqrt(1.0 - p)
    out = np.empty_like(tensor)
    out[0, 0] = r00 + p * r11
    out[0, 1] = sq * r01
    out[1, 0] = sq * r10
    out[1, 1] = (1.0 - p) * r11
    out = np.moveaxis(out, (0, 1), (pos, n_modes + pos))
    return out.reshape(mat.shape)


def kraus_pair_oracle(p: float) -> tuple[np.ndarray, np.ndarray]:
    """The single-qubit channel's Kraus pair: m0 = diag(1, sqrt(1-p)) and
    m1 = sqrt(p)|0><1|."""
    m0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - p)]], dtype=complex)
    m1 = np.array([[0.0, math.sqrt(p)], [0.0, 0.0]], dtype=complex)
    return m0, m1


def kraus_sum_oracle(mat: np.ndarray, n_modes: int, positions, p: float) -> np.ndarray:
    """The channel on each qubit of `positions` of one matrix, as the sum of
    K rho K^dag over every product K of one Kraus operator per target."""
    pair = kraus_pair_oracle(p)
    out = mat
    for pos in positions:
        ops = [
            reduce(np.kron, [k if i == pos else np.eye(2) for i in range(n_modes)])
            for k in pair
        ]
        out = sum(op @ out @ op.conj().T for op in ops)
    return out


def density_deviations(mat: np.ndarray) -> tuple[float, float, float]:
    """(Hermiticity deviation, trace deviation, minimum eigenvalue) of one
    matrix. The spectrum is taken from the Hermitized matrix
    (rho + rho^dag)/2, so a tiny floating-point asymmetry cannot poison the
    eigenvalue test."""
    herm_dev = float(np.max(np.abs(mat - mat.conj().T)))
    trace_dev = float(abs(np.trace(mat) - 1.0))
    min_eig = float(np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)[0])
    return herm_dev, trace_dev, min_eig


_WEDGES = {"B": ("B_I", "B_II"), "C": ("C_I", "C_II")}


def expanded_from_name(name: str) -> tuple[str, ...]:
    """The observers whose mode a scenario expands, read off its name: only
    Charlie's in the ABC_ scenarios, where Bob's mode is kept whole, and
    Bob's then Charlie's in the rest."""
    return ("C",) if name.startswith("ABC_") else ("B", "C")


def modes_from_name(name: str) -> tuple[str, ...]:
    """The modes a scenario keeps, read off its name: AB_I_C_II keeps A, B_I
    and C_II. The name must be exactly its modes spelled in order, with `_`
    after each wedge mode that another mode follows."""
    modes = tuple(re.findall(r"[ABC](?:_II|_I)?", name))
    spelled = "".join(m + "_" * ("_" in m) for m in modes[:-1]) + "".join(modes[-1:])
    if spelled != name:
        raise ValueError(f"{name!r} does not spell its modes")
    return modes


def ghz_oracle(alpha: float) -> tuple[tuple[str, ...], np.ndarray]:
    """alpha|000> + sqrt(1-alpha^2)|111> over the register (A, B, C)."""
    vec = np.zeros(8, dtype=complex)
    vec[0b000] = alpha
    vec[0b111] = math.sqrt(1.0 - alpha * alpha)
    return ("A", "B", "C"), vec


def wedge_expand_oracle(modes, vec: np.ndarray, target: str, beta: float):
    """Replace `target` in place by its wedge pair (_I, then _II), mapping
    |0> -> cos(beta)|00> + sin(beta)|11> and |1> -> |10> bit string by bit
    string. Returns the new (modes, vector)."""
    if target not in modes or target not in _WEDGES:
        raise ValueError(f"mode {target} cannot be expanded in {modes}")
    pos, n = modes.index(target), len(modes)
    cos_b, sin_b = math.cos(beta), math.sin(beta)
    out = np.zeros(2 ** (n + 1), dtype=complex)
    for idx in np.flatnonzero(vec):
        amp = vec[idx]
        bits = format(idx, f"0{n}b")
        head, bit, tail = bits[:pos], bits[pos], bits[pos + 1 :]
        if bit == "0":
            out[int(head + "00" + tail, 2)] += amp * cos_b
            out[int(head + "11" + tail, 2)] += amp * sin_b
        else:
            out[int(head + "10" + tail, 2)] += amp
    return modes[:pos] + _WEDGES[target] + modes[pos + 1 :], out


def expanded_ghz_oracle(alpha: float, beta: float, scen):
    """(modes, vector) of the GHZ state with Bob's mode (when he
    accelerates, as the scenario's name tells) and then Charlie's
    expanded."""
    modes, vec = ghz_oracle(alpha)
    for target in expanded_from_name(scen.name):
        modes, vec = wedge_expand_oracle(modes, vec, target, beta)
    return modes, vec


def register_reduced_oracle(alpha: float, beta: float, scen) -> np.ndarray:
    """The scenario's reduced 8x8 matrix: the expanded GHZ vector's outer
    product with the unkept modes traced out by `trace_out_oracle`."""
    modes, vec = expanded_ghz_oracle(alpha, beta, scen)
    keep = [modes.index(m) for m in modes_from_name(scen.name)]
    return trace_out_oracle(np.outer(vec, vec.conj()), len(modes), keep)


def x_measures_oracle(mat: np.ndarray) -> dict[str, float]:
    """S, E and C of one 8x8 matrix, in Python scalars, from the formulas of
    the `measures` docstring. S and E are NaN when any entry off both the
    diagonal and the antidiagonal is nonzero, however small (-0.0 is 0)."""
    m = mat.tolist()
    off_diagonal = [(i, j) for i in range(8) for j in range(8) if i != j]
    out = {"C": sum(abs(m[i][j]) for i, j in off_diagonal)}
    if any(m[i][j] != 0 for i, j in off_diagonal if i + j != 7):
        return {"S": math.nan, "E": math.nan, **out}
    d = [m[i][i].real for i in range(4)]  # entries 1..4
    e = [m[7 - i][7 - i].real for i in range(4)]  # entries 8..5
    f = [abs(m[i][7 - i]) for i in range(4)]  # slots (i, 9 - i)
    (d1, d2, d3, d4), (e1, e2, e3, e4) = d, e
    n = d1 - d2 - d3 + d4 - e4 + e3 + e2 - e1
    out["S"] = max(8.0 * math.sqrt(2.0) * max(f), 4.0 * abs(n))
    m_i = [sum(math.sqrt(max(d[j] * e[j], 0.0)) for j in range(4) if j != i) for i in range(4)]
    out["E"] = 2.0 * max(0.0, max(f[i] - m_i[i] for i in range(4)))
    return out


_OFF_X = ~(np.eye(8, dtype=bool) | np.eye(8, dtype=bool)[::-1])
_OFF_DIAGONAL = ~np.eye(8, dtype=bool)
_F_ROWS = np.arange(4)


def dense_measures_oracle(stack: np.ndarray, measures) -> dict[str, np.ndarray]:
    """The measures of every matrix in an (N, 8, 8) stack, read off the
    dense stack. S and E are NaN where an off-pattern entry is nonzero (-0.0
    is 0), by a boolean mask over the whole stack."""
    absm = np.abs(stack)
    out = {}
    if "C" in measures:
        # One entry at a time in row-major order: the order fixes the bits.
        out["C"] = reduce(np.add, absm[:, _OFF_DIAGONAL].T, np.zeros(len(stack)))
    if "S" in measures or "E" in measures:
        x = ~(stack[:, _OFF_X] != 0).any(axis=1)
        diag = np.diagonal(stack, axis1=-2, axis2=-1).real
        d, e = diag[..., :4].T, diag[..., 7:3:-1].T
        f = np.abs(stack[..., _F_ROWS, 7 - _F_ROWS].T)
        if "S" in measures:
            out["S"] = np.where(x, svetlichny(d, e, f), math.nan)
        if "E" in measures:
            out["E"] = np.where(x, tripartite_entanglement(d, e, f), math.nan)
    return out


_PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def svetlichny_bound_oracle(name: str, alpha: float, beta: float, p: float) -> float:
    """4 sigma_max(M), an upper bound on the Svetlichny value of
    `damped_scenario_state(name, alpha, beta, p)`, where M is the 3x9
    unfolding (Alice's index by Bob's and Charlie's) of the correlation
    tensor T_ijk = Tr(rho sigma_i x sigma_j x sigma_k).

    Charlie's unit settings enter as c + c' = 2 cos(t) u and c - c' =
    2 sin(t) v, with u and v orthogonal unit vectors. So Alice's settings a
    and a' meet T through a.Mx and a'.My, where x = 2(cos(t) b x u + sin(t)
    b' x v) and y = 2(sin(t) b x v - cos(t) b' x u) have norm 2. Hence
    S <= |Mx| + |My| <= 4 sigma_max(M): a theorem, not a search, and it
    shares no code with the X-state formulas."""
    rho = damped_scenario_state(name, alpha, beta, p).reshape((2,) * 6)
    tensor = np.einsum("abcdef,ida,jeb,kfc->ijk", rho, _PAULIS, _PAULIS, _PAULIS).real
    return 4.0 * float(np.linalg.svd(tensor.reshape(3, 9), compute_uv=False)[0])


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Ginibre-random full-rank density matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _fmt_oracle(x: float) -> str:
    return "nan" if math.isnan(x) else format(x, ".17g")


#: One row of a sweep's output, owned here so that the writer tests need no
#: record type from the package.
Record = namedtuple("Record", "scenario measure engine alpha beta p value")


def grid_records(grid):
    """The rows of a `SweepGrid` in their documented order: by (beta index,
    p index), then by (measure, engine) in the order of its surfaces."""
    surfaces = [(m, e, s.tolist()) for (m, e), s in grid.surfaces.items()]
    for bi, beta in enumerate(grid.betas):
        for pi, p in enumerate(grid.ps):
            for m, e, s in surfaces:
                yield Record(grid.scenario, m, e, grid.alpha, beta, p, s[bi][pi])


def sweep_records_oracle(
    scenario, alpha, beta_steps, p_steps, measures, engine
) -> list[Record]:
    """The records of a sweep over beta in [0, pi/4] and p in [0, 1], built
    one by one from the two engines: rows ordered by (beta index, p index),
    then measure, then engine."""
    betas = np.linspace(0.0, math.pi / 4, beta_steps).tolist()
    ps = np.linspace(0.0, 1.0, p_steps).tolist()
    engines = ("numeric", "closedform") if engine == "both" else (engine,)
    grid = (alpha, np.asarray(betas)[:, None], np.asarray(ps))
    values = {}
    for m in measures:
        if "numeric" in engines:
            values[m, "numeric"] = numeric_batch(scenario, *grid, (m,))[m].tolist()
        if "closedform" in engines:
            values[m, "closedform"] = cf_eval(scenario, m, *grid).tolist()
    return [
        Record(scenario, m, e, alpha, beta, p, values[m, e][bi][pi])
        for bi, beta in enumerate(betas)
        for pi, p in enumerate(ps)
        for m in measures
        for e in engines
    ]


def records_csv_oracle(rows) -> str:
    lines = ["scenario,measure,engine,alpha,beta,p,value"]
    for r in rows:
        lines.append(
            f"{r.scenario},{r.measure},{r.engine},{_fmt_oracle(r.alpha)},"
            f"{_fmt_oracle(r.beta)},{_fmt_oracle(r.p)},{_fmt_oracle(r.value)}"
        )
    return "\n".join(lines) + "\n"


def records_json_oracle(rows) -> str:
    payload = [
        {
            "scenario": r.scenario,
            "measure": r.measure,
            "engine": r.engine,
            "alpha": r.alpha,
            "beta": r.beta,
            "p": r.p,
            "value": None if math.isnan(r.value) else r.value,
        }
        for r in rows
    ]
    return json.dumps(payload, indent=2) + "\n"


def figure_csv_oracle(betas, ps, surface: np.ndarray) -> str:
    """One figure file, written cell by cell."""
    lines = ["beta,p,value"]
    for beta, row in zip(betas, surface.tolist()):
        for p, v in zip(ps, row):
            lines.append(f"{_fmt_oracle(beta)},{_fmt_oracle(p)},{_fmt_oracle(v)}")
    return "\n".join(lines) + "\n"


# --- the package's damping kernel on whole matrices ---------------------------


def damp_all_entries(stack: np.ndarray, positions, p) -> np.ndarray:
    """The damping kernel on every entry of an (N, d, d) stack: its
    (d^2, N) rows under the plan over the full support np.arange(d^2)."""
    dim = stack.shape[-1]
    rows = stack.reshape(len(stack), dim * dim).T.copy()
    damp_entries(rows, block_plan(np.arange(dim * dim), dim, positions), p)
    return np.ascontiguousarray(rows.T).reshape(stack.shape)


def damp_one(mat: np.ndarray, positions, p) -> np.ndarray:
    """The damping kernel on every entry of one matrix."""
    return damp_all_entries(mat[None], positions, p)[0]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def umask_022():
    """Run the test under umask 022, then restore the caller's umask."""
    old = os.umask(0o022)
    yield
    os.umask(old)


# --- acceptance summary -------------------------------------------------------

_ACCEPTANCE: list[tuple[str, str]] = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        _ACCEPTANCE.append((report.nodeid.split("::")[-1], report.outcome))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for name, outcome in sorted(_ACCEPTANCE):
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{status}  {name}")
