"""Seeded workload inputs, the CLI invocations they make and their output checks.

Every workload is a fixed list of `ghzsim` CLI invocations. The seed only
picks among scenarios or figures with the same number of damped modes and
supplies `--seed` to the sampled commands, so seeds change values but not
the kind or amount of work. Sizes equal to the CLI defaults are still
passed explicitly, so a changed default cannot change the workload.

Checks compare values within a tolerance against `oracle`, never bytes,
so a kernel that moves the last printed digit still passes.
"""
from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle

ALPHA = 1.0 / math.sqrt(2.0)
BETA_MAX = math.pi / 4
GRID_STEPS = 101
BOUNDARY_STEPS = 33
BISECT_TOL = 1e-6
SAMPLES = 1000
CHECK_POINTS = 12
EXIT_AUDIT_FLAGGED = 4

WORKLOADS = ("grid", "audit", "scan")

ONE_DAMPED = ("ABC_I", "ABC_II")
#: figure id -> scenario, for the figures over two damped modes.
TWO_DAMPED_FIGURES = {4: "AB_I_C_I", 5: "AB_I_C_II", 6: "AB_II_C_II"}
TWO_DAMPED_X = ("AB_I_C_I", "AB_I_C_II", "AB_II_C_I", "AB_II_C_II")

#: (scenario, measure) pairs the audit flags at the default alpha.
AUDIT_FLAGS = frozenset(
    {
        ("AB_II_C_I", "S"),
        ("AB_II_C_II", "S"),
        ("AB_I_B_II", "S"),
        ("AB_I_B_II", "E"),
        ("AB_I_C_I", "S"),
        ("AB_I_C_I", "E"),
        ("AB_I_C_II", "S"),
        ("AC_I_C_II", "S"),
        ("AC_I_C_II", "E"),
    }
)

Check = Callable[[Path], list[str]]


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its arguments, the exit code it must return and the
    check of the files it writes into the output directory."""

    args: tuple[str, ...]
    exit_code: int
    check: Check


@dataclass(frozen=True)
class Inputs:
    sweep_scenario: str
    figure: int
    e_boundary_scenario: str
    audit_seed: int
    sumrules_seed: int
    check_seed: int

    @classmethod
    def from_seed(cls, seed: int) -> "Inputs":
        rng = random.Random(seed)
        return cls(
            sweep_scenario=rng.choice(ONE_DAMPED),
            figure=rng.choice(sorted(TWO_DAMPED_FIGURES)),
            e_boundary_scenario=rng.choice(TWO_DAMPED_X),
            audit_seed=rng.randrange(1, 2**31),
            sumrules_seed=rng.randrange(1, 2**31),
            check_seed=rng.randrange(2**31),
        )


def _axis(steps: int, hi: float) -> list[float]:
    return [hi * k / (steps - 1) for k in range(steps)]


def _read_csv(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != header:
        raise ValueError(f"{path.name}: header {rows[:1]} is not {header}")
    return rows[1:]


def _sample_points(rng: random.Random) -> list[tuple[int, int]]:
    return [(rng.randrange(GRID_STEPS), rng.randrange(GRID_STEPS)) for _ in range(CHECK_POINTS)]


def _check_sweep(scenario: str, rng: random.Random) -> Check:
    measures, engines = ("S", "E", "C"), ("numeric", "closedform")
    betas, ps = _axis(GRID_STEPS, BETA_MAX), _axis(GRID_STEPS, 1.0)

    def check(out: Path) -> list[str]:
        rows = _read_csv(out / "sweep.csv", "scenario,measure,engine,alpha,beta,p,value".split(","))
        per_point = len(measures) * len(engines)
        if len(rows) != GRID_STEPS * GRID_STEPS * per_point:
            return [f"sweep.csv: {len(rows)} rows, expected {GRID_STEPS**2 * per_point}"]
        for i, row in enumerate(rows):
            point, rest = divmod(i, per_point)
            bi, pi = divmod(point, GRID_STEPS)
            want = (scenario, measures[rest // 2], engines[rest % 2])
            if (
                tuple(row[:3]) != want
                or not oracle.close(float(row[3]), ALPHA, 1e-15)
                or not oracle.close(float(row[4]), betas[bi], 1e-15)
                or not oracle.close(float(row[5]), ps[pi], 1e-15)
            ):
                return [f"sweep.csv row {i + 1}: {row[:6]} is out of grid order"]
            float(row[6])
        errors = []
        for bi, pi in _sample_points(rng):
            want = oracle.measures(scenario, ALPHA, betas[bi], ps[pi])
            for m, measure in enumerate(measures):
                got = float(rows[(bi * GRID_STEPS + pi) * per_point + 2 * m][6])
                if not oracle.close(got, want[measure]):
                    errors.append(
                        f"sweep.csv {scenario}/{measure} at beta={betas[bi]!r}, p={ps[pi]!r}: "
                        f"numeric {got!r}, oracle {want[measure]!r}"
                    )
        return errors

    return check


def _check_figure(figure: int, rng: random.Random) -> Check:
    scenario = TWO_DAMPED_FIGURES[figure]
    betas, ps = _axis(GRID_STEPS, BETA_MAX), _axis(GRID_STEPS, 1.0)

    def check(out: Path) -> list[str]:
        points = _sample_points(rng)
        wanted = {pt: oracle.measures(scenario, ALPHA, betas[pt[0]], ps[pt[1]]) for pt in points}
        errors = []
        for measure in ("S", "E"):
            name = f"figure_{measure}.csv"
            rows = _read_csv(out / name, ["beta", "p", "value"])
            if len(rows) != GRID_STEPS * GRID_STEPS:
                errors.append(f"{name}: {len(rows)} rows, expected {GRID_STEPS**2}")
                continue
            for i, row in enumerate(rows):
                bi, pi = divmod(i, GRID_STEPS)
                if not (
                    oracle.close(float(row[0]), betas[bi], 1e-15)
                    and oracle.close(float(row[1]), ps[pi], 1e-15)
                ):
                    errors.append(f"{name} row {i + 1}: {row[:2]} is out of grid order")
                    break
            for (bi, pi), want in wanted.items():
                got = float(rows[bi * GRID_STEPS + pi][2])
                if not oracle.close(got, want[measure]):
                    errors.append(
                        f"{name} at beta={betas[bi]!r}, p={ps[pi]!r}: "
                        f"value {got!r}, oracle {want[measure]!r}"
                    )
        return errors

    return check


def _check_audit(seed: int) -> Check:
    def check(out: Path) -> list[str]:
        report = json.loads((out / "audit.json").read_text())
        errors = []
        if report["config"]["seed"] != seed:
            errors.append(f"audit.json: seed {report['config']['seed']}, expected {seed}")
        flagged = {tuple(flag.split(":", 1)[0].split("/")) for flag in report["flags"]}
        if flagged != AUDIT_FLAGS:
            errors.append(f"audit.json: flags {sorted(flagged)}, expected {sorted(AUDIT_FLAGS)}")
        for entry in report["entries"]:
            if entry["status"] != "compared":
                continue
            got, beta, p = entry["numeric_at_max"], entry["beta_at_max"], entry["p_at_max"]
            want = oracle.measures(entry["scenario"], ALPHA, beta, p)[entry["measure"]]
            if not oracle.close(got, want):
                errors.append(
                    f"audit.json {entry['scenario']}/{entry['measure']} at beta={beta!r}, "
                    f"p={p!r}: numeric {got!r}, oracle {want!r}"
                )
        return errors

    return check


def _check_boundary(name: str, scenario: str, measure: str) -> Check:
    threshold = 4.0 if measure == "S" else 0.0
    betas = _axis(BOUNDARY_STEPS, BETA_MAX)
    spot_ps = (0.0, 0.25, 0.5, 0.75, 0.99)

    def value(beta: float, p: float) -> float:
        return oracle.measures(scenario, ALPHA, beta, p)[measure]

    def check(out: Path) -> list[str]:
        rows = _read_csv(out / name, ["beta", "p_star", "status"])
        if len(rows) != BOUNDARY_STEPS:
            return [f"{name}: {len(rows)} rows, expected {BOUNDARY_STEPS}"]
        errors = []
        for (beta_text, p_text, status), beta in zip(rows, betas):
            where = f"{name} {scenario}/{measure} at beta={beta!r}"
            if not oracle.close(float(beta_text), beta, 1e-15):
                errors.append(f"{where}: beta column reads {beta_text}")
            elif status == "crossing":
                p_star = float(p_text)
                if value(beta, p_star) > threshold + 1e-9:
                    errors.append(f"{where}: value at p*={p_star!r} is above {threshold}")
                if p_star == 0.0:
                    if measure == "S" and abs(value(beta, 0.0) - threshold) > 1e-9:
                        errors.append(f"{where}: p*=0 but S(0) is not 4")
                elif not value(beta, max(0.0, p_star - 2 * BISECT_TOL)) > threshold:
                    errors.append(f"{where}: value just below p*={p_star!r} is not above {threshold}")
            elif status == "no_crossing" and p_text == "":
                values = [value(beta, p) for p in spot_ps]
                if (measure == "E" or values[0] > threshold) and min(values) <= threshold:
                    errors.append(f"{where}: no crossing reported but the oracle crosses {threshold}")
            else:
                errors.append(f"{where}: unexpected row {status!r}, {p_text!r}")
        return errors

    return check


def _check_sumrules(seed: int) -> Check:
    def check(out: Path) -> list[str]:
        report = json.loads((out / "sumrules.json").read_text())
        errors = []
        if (report["seed"], report["samples"]) != (seed, SAMPLES):
            errors.append(f"sumrules.json: seed/samples {report['seed']}/{report['samples']}")
        asserted = [rule for rule in report["rules"] if rule["asserted"]]
        if len(asserted) != 3:
            errors.append(f"sumrules.json: {len(asserted)} asserted rules, expected 3")
        for rule in asserted:
            if not rule["max_numeric_residual"] <= 1e-10:
                errors.append(
                    f"sumrules.json {rule['name']}: residual {rule['max_numeric_residual']!r} > 1e-10"
                )
        return errors

    return check


def invocations(workload: str, inputs: Inputs) -> list[Invocation]:
    """The CLI calls of one pass of `workload`, in the order they run."""
    rng = random.Random(inputs.check_seed)
    grid = ("--beta-steps", str(GRID_STEPS), "--p-steps", str(GRID_STEPS))
    boundary = ("--beta-steps", str(BOUNDARY_STEPS), "--tol", repr(BISECT_TOL))
    if workload == "grid":
        return [
            Invocation(
                ("sweep", "--scenario", inputs.sweep_scenario, "--engine", "both", *grid,
                 "--out", "sweep.csv"),
                0,
                _check_sweep(inputs.sweep_scenario, rng),
            ),
            Invocation(
                ("figure", "--figure", str(inputs.figure), "--resolution", str(GRID_STEPS),
                 "--out", "figure.csv"),
                0,
                _check_figure(inputs.figure, rng),
            ),
        ]
    if workload == "audit":
        return [
            Invocation(
                ("audit", *grid, "--samples", str(SAMPLES), "--tol", "1e-8",
                 "--seed", str(inputs.audit_seed), "--out", "audit.json"),
                EXIT_AUDIT_FLAGGED,
                _check_audit(inputs.audit_seed),
            )
        ]
    if workload == "scan":
        e_scenario = inputs.e_boundary_scenario
        return [
            Invocation(
                ("boundary", "--scenario", "ABC_I", "--measure", "S", *boundary,
                 "--out", "boundary_S.csv"),
                0,
                _check_boundary("boundary_S.csv", "ABC_I", "S"),
            ),
            Invocation(
                ("boundary", "--scenario", e_scenario, "--measure", "E", *boundary,
                 "--out", "boundary_E.csv"),
                0,
                _check_boundary("boundary_E.csv", e_scenario, "E"),
            ),
            Invocation(
                ("sumrules", "--samples", str(SAMPLES), "--seed", str(inputs.sumrules_seed),
                 "--out", "sumrules.json"),
                0,
                _check_sumrules(inputs.sumrules_seed),
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}")

