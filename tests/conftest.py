"""Shared fixtures, independent numeric oracles, and the acceptance summary.

The oracles here are written separately from the package's own code paths,
so the tests cross-check two implementations. `trace_out_oracle` contracts
with einsum, where the package takes one axis trace per mode.
`damp_qubit_oracle` damps one qubit of one matrix out of place, building a
new array from the four operator blocks; the package's single damping kernel,
`channels.damp_stack`, updates whole (N, 2^n, 2^n) stacks in place, one p
per matrix. Differential tests of the numeric engine damp with the oracle,
never with `apply_damping`, because that is the kernel's N = 1 case.

`sweep_records_oracle`, `records_csv_oracle`, `records_json_oracle` and
`figure_csv_oracle` are the per-record and per-cell writers the package
replaced with its columnar grid writer; the serialization tests require the
package's output to equal theirs byte for byte.
"""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

from ghzsim import SweepRecord, cf_eval, numeric_batch

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


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Ginibre-random full-rank density matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _fmt_oracle(x: float) -> str:
    return "nan" if math.isnan(x) else format(x, ".17g")


def sweep_records_oracle(config) -> list[SweepRecord]:
    """The records of a sweep, built one by one from the two engines: rows
    ordered by (beta index, p index), then measure, then engine."""
    betas = np.linspace(*config.beta_range).tolist()
    ps = np.linspace(*config.p_range).tolist()
    engines = ("numeric", "closedform") if config.engine == "both" else (config.engine,)
    grid = (config.alpha, np.asarray(betas)[:, None], np.asarray(ps))
    values = {}
    for m in config.measures:
        if "numeric" in engines:
            values[m, "numeric"] = numeric_batch(config.scenario, *grid, (m,))[m].tolist()
        if "closedform" in engines:
            values[m, "closedform"] = cf_eval(config.scenario, m, *grid).tolist()
    return [
        SweepRecord(config.scenario, m, e, config.alpha, beta, p, values[m, e][bi][pi])
        for bi, beta in enumerate(betas)
        for pi, p in enumerate(ps)
        for m in config.measures
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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


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
