"""Acceptance suite: one test per release criterion.

Each test pins the tolerance it enforces; the session summary (see
conftest.py) prints one PASS/FAIL line per criterion at the end of the run.
"""
from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from ghzsim import (
    damped_scenario_state,
    find_boundary,
    numeric_batch,
    run_sweep,
    sum_rule_samples,
)
from ghzsim.cli import EXIT_AUDIT_FLAGGED, main
from ghzsim.sweep import DEFAULT_SEED, records_to_csv
from conftest import (
    damp_one,
    density_deviations,
    kraus_pair_oracle,
    kraus_sum_oracle,
    trace_out_oracle,
)

ALPHA_GHZ = 1.0 / math.sqrt(2.0)
BETA_MAX = math.pi / 4


def test_criterion_1_pure_state_baseline():
    """Inertial, undamped GHZ state: S = 4*sqrt(2), E = 1, C = 1."""
    values = numeric_batch("ABC_I", ALPHA_GHZ, 0.0, 0.0)
    assert values["S"] == pytest.approx(4.0 * math.sqrt(2.0), abs=1e-12)
    assert values["E"] == pytest.approx(1.0, abs=1e-12)
    assert values["C"] == pytest.approx(1.0, abs=1e-12)


def test_criterion_2_matrix_entry_reproduction():
    """Damped scenario matrices at (1/sqrt 2, pi/6, 0.3) match their analytic
    entry formulas elementwise to 1e-12.

    For the single-acceleration case the formulas are d1 + p*d2, (1-p)*d2,
    p*e1, (1-p)*e1 and sqrt(1-p)*f1. For the double-acceleration case the
    populations couple through both damped qubits; the four entries whose
    hand-derived transcript is inconsistent with a trace-one output
    (d1', d3', e2', e4') are checked against the unique trace-preserving
    completion, which the Kraus construction produces.
    """
    alpha, beta, p = ALPHA_GHZ, math.pi / 6, 0.3
    c2, s2 = math.cos(beta) ** 2, math.sin(beta) ** 2
    a2 = alpha * alpha
    w = alpha * math.sqrt(1.0 - a2)

    # Charlie accelerated, accessible wedge kept.
    d1, d2, e1, f1 = a2 * c2, a2 * s2, 1.0 - a2, w * math.cos(beta)
    expected = np.zeros((8, 8), dtype=complex)
    expected[0, 0] = d1 + p * d2
    expected[1, 1] = (1.0 - p) * d2
    expected[6, 6] = p * e1
    expected[7, 7] = (1.0 - p) * e1
    expected[0, 7] = expected[7, 0] = math.sqrt(1.0 - p) * f1
    rho = damped_scenario_state("ABC_I", alpha, beta, p)
    np.testing.assert_allclose(rho, expected, atol=1e-12)

    # Bob and Charlie accelerated, both accessible wedges kept.
    d = [a2 * c2 * c2, a2 * c2 * s2, a2 * s2 * c2, a2 * s2 * s2]
    f1 = w * c2
    expected = np.zeros((8, 8), dtype=complex)
    expected[0, 0] = d[0] + p * (d[1] + d[2]) + p * p * d[3]
    expected[1, 1] = (1.0 - p) * d[1] + p * (1.0 - p) * d[3]
    expected[2, 2] = (1.0 - p) * d[2] + p * (1.0 - p) * d[3]
    expected[3, 3] = (1.0 - p) ** 2 * d[3]
    expected[4, 4] = p * p * e1
    expected[5, 5] = p * (1.0 - p) * e1
    expected[6, 6] = p * (1.0 - p) * e1
    expected[7, 7] = (1.0 - p) ** 2 * e1
    expected[0, 7] = expected[7, 0] = (1.0 - p) * f1
    rho = damped_scenario_state("AB_I_C_I", alpha, beta, p)
    np.testing.assert_allclose(rho, expected, atol=1e-12)


def test_criterion_3_sudden_death_boundary():
    """Nonlocality sudden death for the inertial-limit slice at p* = 0.5
    (bisection to 1e-6, brute-force scan at step 1e-5) and threshold
    saturation S(p=0) = 4 at maximal acceleration."""
    result = find_boundary("ABC_I", measure="S", alpha=ALPHA_GHZ, beta_steps=2, tol=1e-6)
    origin = result["curve"][0]
    assert origin["status"] == "crossing"
    assert origin["p_star"] == pytest.approx(0.5, abs=1e-6)

    # Brute-force confirmation: damp the undamped beta=0 state across the
    # whole p grid in one batched Kraus application and locate the first p
    # where the Svetlichny value drops to the classical threshold.
    rho = damped_scenario_state("ABC_I", ALPHA_GHZ, 0.0, 0.0)
    ps = np.arange(0.0, 1.0 + 5e-6, 1e-5)
    m0 = np.zeros((ps.size, 8, 8))
    m1 = np.zeros((ps.size, 8, 8))
    decay, survive = np.sqrt(ps), np.sqrt(1.0 - ps)
    for block in range(4):  # damping acts on the least significant qubit
        lo = 2 * block
        m0[:, lo, lo] = 1.0
        m0[:, lo + 1, lo + 1] = survive
        m1[:, lo, lo + 1] = decay
    damped = m0 @ rho @ np.swapaxes(m0, 1, 2) + m1 @ rho @ np.swapaxes(m1, 1, 2)
    diag = np.real(damped[:, range(8), range(8)])
    anti = np.abs(damped[:, range(8), range(7, -1, -1)])
    signs = np.array([1, -1, -1, 1, -1, 1, 1, -1.0])
    s_values = np.maximum(
        8.0 * math.sqrt(2.0) * anti.max(axis=1), 4.0 * np.abs(diag @ signs)
    )
    first = int(np.argmax(s_values <= 4.0 + 1e-12))
    assert np.all(s_values[:first] > 4.0)
    assert ps[first] == pytest.approx(0.5, abs=1e-5)

    s_at_max_acceleration = numeric_batch("ABC_I", ALPHA_GHZ, BETA_MAX, 0.0, ("S",))["S"]
    assert s_at_max_acceleration == pytest.approx(4.0, abs=1e-9)


def test_criterion_4_entanglement_coherence_identity():
    """Keeping the inaccessible wedge makes E and C coincide: the reduced
    state has a single coherence and no cross populations to subtract."""
    betas = np.linspace(0.0, BETA_MAX, 101)
    ps = np.linspace(0.0, 1.0, 101)
    values = numeric_batch("ABC_II", ALPHA_GHZ, betas[:, None], ps, ("E", "C"))
    worst = np.abs(values["E"] - values["C"]).max()
    assert worst < 1e-10


def test_criterion_5_coherence_sum_rules():
    """The three asserted coherence relations hold to 1e-10 at 1000 random
    parameter points; the fourth is reported with its alpha-dependence."""
    report = sum_rule_samples(None, samples=1000, seed=DEFAULT_SEED)
    asserted = [r for r in report["rules"] if r["asserted"]]
    assert len(asserted) == 3
    for rule in asserted:
        assert rule["max_numeric_residual"] < 1e-10, rule["name"]

    reported = next(r for r in report["rules"] if not r["asserted"])
    assert reported["max_numeric_residual"] > 0.0
    section = report["reported_rule_alpha_dependence"]
    assert "alpha" in section["note"]
    ratios = [pt["residual_over_alpha2_times_1_minus_alpha2_sq"] for pt in section["points"]]
    assert max(ratios) - min(ratios) < 1e-10  # residual ~ alpha^2 (1-alpha^2)^2


def test_criterion_6_no_nonlocality_in_inaccessible_wedge():
    """The Svetlichny value of the inaccessible-wedge combination never
    exceeds the classical bound 4 anywhere on the grid, and stays strictly
    below it at all interior points. The bound is saturated exactly on the
    degenerate edges (inertial limit beta = 0, full damping p = 1, and the
    undamped maximal-acceleration corner) where the state is effectively
    classical with respect to this test."""
    betas = np.linspace(0.0, BETA_MAX, 101)
    ps = np.linspace(0.0, 1.0, 101)
    values = numeric_batch("ABC_II", ALPHA_GHZ, betas[:, None], ps, ("S",))["S"]
    assert values.max() <= 4.0 + 1e-12
    assert np.all(values[1:-1, 1:-1] < 4.0)


def test_criterion_7_channel_laws(rng):
    """Kraus completeness, agreement of the damping kernel with the Kraus
    sum on one and two targets, trace preservation, positivity and
    commutation with discarding untouched modes, over 200 random states and
    p values."""
    for _ in range(200):
        p = float(rng.uniform(0.0, 1.0))
        m0, m1 = kraus_pair_oracle(p)
        completeness = m0.conj().T @ m0 + m1.conj().T @ m1
        assert np.max(np.abs(completeness - np.eye(2))) < 1e-14

        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        mat = g @ g.conj().T
        mat = mat / np.trace(mat).real

        for positions in ([2], [1, 2]):
            np.testing.assert_allclose(
                damp_one(mat, positions, p), kraus_sum_oracle(mat, 3, positions, p), atol=1e-14
            )

        _, trace_dev, min_eig = density_deviations(damp_one(mat, [1, 2], p))
        assert trace_dev < 1e-13
        assert min_eig >= -1e-10

        damp_then_trace = trace_out_oracle(damp_one(mat, [2], p), 3, [1, 2])
        trace_then_damp = damp_one(trace_out_oracle(mat, 3, [1, 2]), [1], p)
        np.testing.assert_allclose(damp_then_trace, trace_then_damp, atol=1e-13)


def test_criterion_8_audit_determinism_and_gating(tmp_path):
    """Two audit runs with one config are byte-identical; the transcription
    slip in the double-acceleration Svetlichny expression is flagged with
    both engine values and a nonzero exit code."""
    args = [
        "audit", "--scenario", "AB_I_C_I", "--beta-steps", "11", "--p-steps", "11",
        "--samples", "100",
    ]
    first, second = tmp_path / "a1.json", tmp_path / "a2.json"
    assert main(args + ["--out", str(first)]) == EXIT_AUDIT_FLAGGED
    assert main(args + ["--out", str(second)]) == EXIT_AUDIT_FLAGGED
    assert first.read_bytes() == second.read_bytes()

    payload = json.loads(first.read_text())
    flag = next(f for f in payload["flags"] if f.startswith("AB_I_C_I/S"))
    assert "numeric=" in flag and "closedform=" in flag
    entry = next(
        e for e in payload["entries"]
        if (e["scenario"], e["measure"]) == ("AB_I_C_I", "S")
    )
    assert not entry["pass"]
    assert entry["numeric_at_max"] != entry["closedform_at_max"]


def test_criterion_9_performance_envelope(tmp_path):
    """A full 101x101 grid, three measures, both engines, finishes in under
    five seconds from cold caches; running it again gives the same bytes."""
    start = time.perf_counter()
    rows = run_sweep(scenario="ABC_I", beta_steps=101, p_steps=101, engine="both")
    elapsed = time.perf_counter() - start
    assert len(rows["betas"]) * len(rows["ps"]) * len(rows["surfaces"]) == 101 * 101 * 3 * 2
    assert elapsed < 5.0, f"sweep took {elapsed:.2f}s"

    again = run_sweep(scenario="ABC_I", beta_steps=101, p_steps=101, engine="both")
    assert "".join(records_to_csv(rows)) == "".join(records_to_csv(again))
