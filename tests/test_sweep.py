"""Grid sweeps, serialization, boundary finding, figure data, sum-rule
sampling and the engine audit."""
from __future__ import annotations

import inspect
import json
import math
import random
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ghzsim.sweep
from ghzsim import (
    BETA_MAX,
    SCENARIOS,
    ConfigError,
    cf_eval,
    damped_scenario_state,
    figure_csv,
    find_boundary,
    numeric_batch,
    run_audit,
    run_sweep,
    sum_rule_samples,
)
from ghzsim.sweep import (
    DEFAULT_SEED,
    SCAN_STEP,
    boundary_to_csv,
    json_text,
    records_to_csv,
    records_to_json,
    _csv_keys,
    _fmt,
    _grid_csv,
)
from conftest import (
    figure_csv_oracle,
    grid_records,
    modes_from_name,
    records_csv_oracle,
    records_json_oracle,
    register_reduced_oracle,
    sweep_records_oracle,
)

ALPHA_GHZ = 1.0 / math.sqrt(2.0)

SMALL = {"beta_steps": 3, "p_steps": 3}

#: The scenarios whose reduced states are X-structured.
X_SCENARIOS = ("ABC_I", "ABC_II", "AB_I_C_I", "AB_I_C_II", "AB_II_C_I", "AB_II_C_II")

#: The upper end of a tolerance's domain, as range errors show it.
MAX_FLOAT = repr(sys.float_info.max)


class TestSweepChecks:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 1.5},
            {"beta_steps": 0},
            {"p_steps": 0},
            {"scenario": "nope"},
            {"measures": ("S", "Q")},
            {"measures": ()},
            {"measures": ("S", "S", "E")},
            {"engine": "exact"},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            run_sweep(**kwargs)

    def test_default_config_is_valid(self):
        grid = run_sweep()
        assert len(grid["betas"]) * len(grid["ps"]) * len(grid["surfaces"]) == 101 * 101 * 3 * 2

    @pytest.mark.parametrize("name, hi", [("beta", BETA_MAX), ("p", 1.0)])
    def test_axes_end_at_the_pipeline_limits(self, name, hi):
        """Each axis runs evenly from 0 to its domain's upper end, both ends
        included, so no grid point lies past what the pipeline accepts."""
        grid = run_sweep(**{**SMALL, f"{name}_steps": 5}, engine="numeric")
        values = grid["betas"] if name == "beta" else grid["ps"]
        assert (len(values), values[0], values[-1]) == (5, 0.0, hi)
        np.testing.assert_allclose(np.diff(values), hi / 4, rtol=1e-12)

    @pytest.mark.parametrize(
        "name, bad, shown",
        [("alpha", 2.0, "1"), ("alpha", -0.5, "1"), ("alpha", math.nan, "1"),
         ("beta", 1.0, "pi/4"), ("beta", -0.1, "pi/4"), ("beta", math.nan, "pi/4"),
         ("p", 1.5, "1"), ("p", -0.25, "1"), ("p", math.nan, "1"),
         ("tol", math.nan, MAX_FLOAT), ("tol", -1.0, MAX_FLOAT), ("tol", math.inf, MAX_FLOAT)],
    )
    def test_range_errors_read_the_same_everywhere(self, name, bad, shown):
        """Both engines, the one-point damped state and the workflows reject
        a bad alpha, beta, p or tol with one ConfigError text: the sweep
        (alpha; its axes lie in range), the audit and the boundary (alpha and
        tol)."""
        good = {"alpha": 0.6, "beta": 0.3, "p": 0.5}
        rejecters = {}
        if name != "tol":
            point = {**good, name: bad}
            rejecters["numeric_batch"] = lambda: numeric_batch("AB_I_C_I", **point)
            rejecters["cf_eval"] = lambda: cf_eval("AB_I_C_I", "C", **point)
            rejecters["damped_scenario_state"] = lambda: damped_scenario_state("AB_I_C_I", **point)
        if name == "alpha":
            rejecters["run_sweep"] = lambda: run_sweep(alpha=bad)
        if name in ("alpha", "tol"):
            rejecters["run_audit"] = lambda: run_audit(**{name: bad})
            rejecters["find_boundary"] = lambda: find_boundary(measure="S", **{name: bad})
        for where, reject in rejecters.items():
            with pytest.raises(ConfigError) as err:
                reject()
            assert str(err.value) == f"{name}={bad} outside [0, {shown}]", where


class TestRunSweep:
    def test_row_count_and_order(self):
        grid = run_sweep(**SMALL)
        rows = list(grid_records(grid))
        # 3 beta x 3 p x 3 measures x 2 engines
        assert len(grid["betas"]) * len(grid["ps"]) * len(grid["surfaces"]) == len(rows) == 54
        first = rows[0]
        assert (first.measure, first.engine) == ("S", "numeric")
        assert rows[1].engine == "closedform"
        # beta varies slowest, p next
        assert rows[0].beta == 0.0 and rows[0].p == 0.0
        assert rows[6].p == 0.5
        assert rows[18].beta == pytest.approx(math.pi / 8)

    def test_single_engine(self):
        grid = run_sweep(beta_steps=2, p_steps=2, engine="numeric")
        assert {r.engine for r in grid_records(grid)} == {"numeric"}

    def test_engines_agree_on_sound_scenario(self):
        values = {}
        for row in grid_records(run_sweep(**SMALL)):
            values.setdefault((row.beta, row.p, row.measure), {})[row.engine] = row.value
        for point, pair in values.items():
            assert pair["numeric"] == pytest.approx(pair["closedform"], abs=1e-12), point

    @pytest.mark.parametrize("name", ["AB_I_C_II", "AB_I_B_II"])
    def test_numeric_rows_equal_point_evaluation(self, name):
        """Every cell of a 7x7 row-batched grid equals the per-point engine
        at that cell's (beta, p), NaN included, in row-major order."""
        grid = run_sweep(
            name,
            alpha=0.6,
            beta_steps=7,
            p_steps=7,
            engine="numeric",
        )
        rows = list(grid_records(grid))
        rows_in_grid = len(grid["betas"]) * len(grid["ps"]) * len(grid["surfaces"])
        assert rows_in_grid == len(rows) == 7 * 7 * 3
        axis = [k / 6.0 for k in range(7)]
        for k, row in enumerate(rows):
            bi, rest = divmod(k, 7 * 3)
            assert row.beta == pytest.approx(axis[bi] * math.pi / 4, abs=1e-15)
            assert row.p == pytest.approx(axis[rest // 3], abs=1e-15)
            want = numeric_batch(name, 0.6, row.beta, row.p)[row.measure]
            assert row.value == want or (math.isnan(row.value) and math.isnan(want)), row


class TestSerialization:
    def test_csv_header_and_precision(self):
        text = records_to_csv(run_sweep(**SMALL))
        lines = text.strip().split("\n")
        assert lines[0] == "scenario,measure,engine,alpha,beta,p,value"
        assert lines[1].startswith("ABC_I,S,numeric,0.70710678118654746,0,0,")
        # 17 significant digits survive a round trip
        value = float(lines[1].split(",")[-1])
        assert value == pytest.approx(4.0 * math.sqrt(2.0), abs=1e-15)

    def test_negative_zero_input_gives_the_bytes_of_zero(self):
        """Each workflow reads alpha = -0.0 (and the audit tol = -0.0) as 0,
        so neither its echo of the input nor a value computed from it is
        written as -0."""
        def texts(alpha, tol):
            grid = run_sweep(alpha=alpha, **SMALL)
            return [
                records_to_csv(grid),
                records_to_json(grid),
                json_text(find_boundary(measure="S", alpha=alpha, beta_steps=2)),
                json_text(sum_rule_samples(alpha, samples=2)),
                json_text(run_audit(alpha, **SMALL, tol=tol, samples=2, scenario="ABC_I")),
            ]

        zero = texts(0.0, 0.0)
        assert texts(-0.0, 0.0) == zero
        assert texts(0.0, -0.0) == zero

    def test_nan_serialization(self):
        # interior beta with p < 1 (the fourth point, beta = pi/8 and p = 0):
        # the reduced state is not X-structured there, so the numeric
        # Svetlichny value is undefined
        grid = run_sweep("AB_I_B_II", beta_steps=3, p_steps=3, engine="numeric", measures=("S",))
        assert (grid["betas"][1], grid["ps"][0]) == (math.pi / 8, 0.0)
        csv_text = records_to_csv(grid)
        assert csv_text.strip().split("\n")[4].endswith(",nan")
        payload = json.loads(records_to_json(grid))
        assert payload[3]["value"] is None

    @pytest.mark.parametrize(
        "x, text",
        [(math.nan, "nan"), (math.inf, "inf"), (-0.0, "-0"), (0.1, "0.10000000000000001")],
    )
    def test_float_format(self, x, text):
        """The one float format of every text output, grid writer included."""
        assert _fmt(x) == text


#: A 7x5 grid of the non-X scenario, whose numeric S and E are NaN off the
#: beta = 0 row and the p = 1 column, and a one-engine, one-measure sweep.
COLUMNAR_CONFIGS = [
    dict(scenario="AB_I_B_II", alpha=ALPHA_GHZ, beta_steps=7, p_steps=5,
         measures=("S", "E", "C"), engine="both"),
    dict(scenario="AB_I_C_II", alpha=0.3, beta_steps=6, p_steps=4, measures=("E",),
         engine="closedform"),
]


#: NaN, infinities, a signed zero, the least subnormal and a value that
#: needs all 17 digits, on a 3x2 (beta, p) grid, and a grid of them with
#: signed-zero and subnormal axis values.
SPECIAL_VALUES = np.array([[math.nan, math.inf], [-math.inf, -0.0], [5e-324, 0.1 + 0.2]])
SPECIAL_GRID = dict(
    scenario="AB_I_C_I", alpha=0.3, betas=(0.0, 1e-300, BETA_MAX), ps=(-0.0, 1.0),
    surfaces={("S", "numeric"): SPECIAL_VALUES, ("C", "closedform"): SPECIAL_VALUES[::-1].copy()},
)
EMPTY_GRID = dict(scenario="ABC_I", alpha=0.5, betas=(), ps=(), surfaces={})


class TestColumnarOutput:
    """The grid writer against the per-record writers it replaced."""

    @pytest.mark.parametrize("config", COLUMNAR_CONFIGS)
    def test_csv_and_json_equal_the_per_record_writers(self, config):
        grid = run_sweep(**config)
        records = sweep_records_oracle(**config)
        assert records_csv_oracle(records).count("nan") == (48 if config["engine"] == "both" else 0)
        assert records_to_csv(grid) == records_csv_oracle(records)
        assert records_to_json(grid) == records_json_oracle(records)

    def test_json_spells_every_float_as_the_encoder_does(self):
        """NaN, infinities, signed zeros, subnormals and 17-digit values, and
        a grid with no records."""
        assert records_to_json(SPECIAL_GRID) == records_json_oracle(grid_records(SPECIAL_GRID))
        assert records_to_json(EMPTY_GRID) == records_json_oracle(grid_records(EMPTY_GRID)) == "[]\n"

    def test_csv_spells_every_float_as_format_does(self):
        """The same grids through the CSV writer, whose floats must read as
        `format(x, ".17g")` spells them."""
        assert records_to_csv(SPECIAL_GRID) == records_csv_oracle(grid_records(SPECIAL_GRID))
        header = "scenario,measure,engine,alpha,beta,p,value\n"
        assert records_to_csv(EMPTY_GRID) == records_csv_oracle(grid_records(EMPTY_GRID)) == header

    def test_figure_file_spells_every_float_as_format_does(self):
        betas, ps = (0.0, 1e-300, BETA_MAX), (-0.0, 1.0)
        figure = _grid_csv("beta,p,value", _csv_keys(betas, ps), [("", SPECIAL_VALUES)])
        assert figure == figure_csv_oracle(betas, ps, SPECIAL_VALUES)
        empty = np.empty((0, 0))
        assert _grid_csv("beta,p,value", _csv_keys((), ()), [("", empty)]) == "beta,p,value\n"
        assert figure_csv_oracle((), (), empty) == "beta,p,value\n"

    @pytest.mark.parametrize("name", ["100%", "A%sB%%C%(x)s%.17g"])
    def test_percent_in_a_scenario_name_is_text(self, name):
        """Both writers fill one `%` template; a `%` in the name is not a
        conversion of it."""
        grid = dict(scenario=name, alpha=0.3, betas=(0.0, 0.5), ps=(0.25,),
                    surfaces={("C", "numeric"): SPECIAL_VALUES[:2, :1]})
        text = records_to_csv(grid)
        assert text == records_csv_oracle(grid_records(grid))
        assert text.split("\n")[1].startswith(name + ",C,numeric,")
        assert records_to_json(grid) == records_json_oracle(grid_records(grid))
        assert [r["scenario"] for r in json.loads(records_to_json(grid))] == [name, name]

    @pytest.mark.parametrize("config", COLUMNAR_CONFIGS)
    def test_grid_reads_as_its_records(self, config):
        """The grid's arrays, laid out in the documented row order, are the
        records built one by one, and its row count is theirs."""
        grid = run_sweep(**config)
        records = sweep_records_oracle(**config)
        assert records_csv_oracle(grid_records(grid)) == records_csv_oracle(records)
        assert len(grid["betas"]) * len(grid["ps"]) * len(grid["surfaces"]) == len(records)

    @pytest.mark.parametrize("figure_id", [1, 2, 7])
    def test_figure_files_equal_the_per_cell_writer(self, figure_id):
        """Figure 1 has one measure, figure 2 two; figure 7 takes the
        catalog path."""
        name, measures = ghzsim.sweep.FIGURES[figure_id]
        betas = np.linspace(0.0, BETA_MAX, 17).tolist()
        ps = np.linspace(0.0, 1.0, 17).tolist()
        grid = (ALPHA_GHZ, np.asarray(betas)[:, None], np.asarray(ps))
        texts = figure_csv(figure_id, ALPHA_GHZ, 17)
        assert len(texts) == len(measures)
        for (measure, text), want in zip(texts.items(), measures):
            assert measure == want
            if figure_id == 7:
                surface = cf_eval(name, measure, *grid)
            else:
                surface = numeric_batch(name, *grid, (measure,))[measure]
            assert text == figure_csv_oracle(betas, ps, surface)


class TestFindBoundary:
    def test_inertial_nonlocality_sudden_death(self):
        result = find_boundary("ABC_I", measure="S", alpha=ALPHA_GHZ, beta_steps=2)
        origin, extreme = result["curve"]
        assert origin["status"] == "crossing"
        assert origin["p_star"] == pytest.approx(0.5, abs=1e-6)
        # at maximal acceleration the state starts exactly on the threshold
        assert extreme["status"] == "crossing"
        assert extreme["p_star"] == 0.0

    @pytest.mark.parametrize("tol", [1e-6, 1e-17, 1e-300])
    def test_entanglement_survives_until_full_damping(self, tol):
        """The catalog puts the ABC_I entanglement zero at p* = cot^2 beta,
        which is >= 1 on [0, pi/4]: no beta of the default curve crosses,
        whatever the tolerance, one below the float spacing at 1 included."""
        result = find_boundary(
            "ABC_I", measure="E", alpha=ALPHA_GHZ, beta_steps=33, tol=tol
        )
        assert len(result["curve"]) == 33
        assert all(pt["status"] == "no_crossing" and pt["p_star"] is None for pt in result["curve"])

    def test_rejects_unknown_measure(self):
        with pytest.raises(ConfigError):
            find_boundary("ABC_I", measure="C", alpha=ALPHA_GHZ, beta_steps=2)

    @pytest.mark.parametrize("alpha", [0.0, ALPHA_GHZ])
    @pytest.mark.parametrize("beta_steps", [1, 2, 33])
    @pytest.mark.parametrize("measure", ["S", "E"])
    @pytest.mark.parametrize("name", ["AB_I_B_II", "AC_I_C_II"])
    def test_rejects_non_x_scenario(self, name, measure, beta_steps, alpha):
        """The scenario's structure decides, not whether one scan happens to
        meet a non-X point: a single beta = 0 row, or alpha = 0, meets none."""
        with pytest.raises(ConfigError) as err:
            find_boundary(name, measure=measure, alpha=alpha, beta_steps=beta_steps)
        assert str(err.value) == (
            f"numeric {measure} undefined for scenario {name}: "
            "its reduced state is not X-structured"
        )

    def test_range_error_comes_before_the_structure_error(self):
        with pytest.raises(ConfigError, match=r"alpha=2\.0 outside \[0, 1\]"):
            find_boundary("AB_I_B_II", measure="S", alpha=2.0, beta_steps=2)

    def test_matches_closed_form_curve(self):
        """At alpha = 1/sqrt 2 the ABC_I Svetlichny value falls to 4 at
        p* = 1 - 1/(2 cos^2 beta), for every beta of the default curve."""
        tol = 1e-6
        result = find_boundary(
            "ABC_I", measure="S", alpha=ALPHA_GHZ, beta_steps=33, tol=tol
        )
        assert len(result["curve"]) == 33
        for pt in result["curve"]:
            assert pt["status"] == "crossing"
            expected = 1.0 - 1.0 / (2.0 * math.cos(pt["beta"]) ** 2)
            assert abs(pt["p_star"] - expected) <= 2.0 * tol, pt["beta"]

    @pytest.mark.parametrize("measure", ["S", "E"])
    def test_matches_scalar_bisection_exactly(self, measure):
        """Batched bisection gives the bits of the one-beta-at-a-time loop,
        on a two-damped scenario whose curves mix crossings and none."""
        name = "AB_I_C_I"
        threshold, slack = (4.0, 1e-12) if measure == "S" else (0.0, 0.0)
        scan = [k / 1000 for k in range(1001)]

        def value(beta, p):
            return numeric_batch(name, ALPHA_GHZ, beta, p, (measure,))[measure]

        expected = []
        for beta in np.linspace(0.0, math.pi / 4, 9).tolist():
            values = numeric_batch(name, ALPHA_GHZ, beta, np.array(scan), (measure,))[measure]
            k = next((k for k, v in enumerate(values) if not v > threshold + slack), None)
            if k == 0:
                p_star = 0.0 if abs(values[0] - threshold) <= 1e-9 else None
            elif k is None:
                p_star = None
            else:
                lo, hi = scan[k - 1], scan[k]
                if measure == "E" and k == 1000:
                    # E dies inside (0.999, 1]: a crossing only if it is 0 at 1 - tol.
                    hi = 1.0 - 1e-6
                    if value(beta, hi) > 0.0:
                        expected.append(None)
                        continue
                while hi - lo > 1e-6:
                    mid = 0.5 * (lo + hi)
                    if value(beta, mid) > threshold:
                        lo = mid
                    else:
                        hi = mid
                p_star = hi
            expected.append(p_star)
        result = find_boundary(name, measure=measure, alpha=ALPHA_GHZ, beta_steps=9)
        assert [pt["p_star"] for pt in result["curve"]] == expected
        assert None in expected and any(p not in (None, 0.0) for p in expected)

    @pytest.mark.parametrize("name", X_SCENARIOS)
    @pytest.mark.parametrize("alpha", [0.5, ALPHA_GHZ])
    def test_nonlocality_dies_no_later_than_entanglement(self, name, alpha):
        """Svetlichny nonlocality needs entanglement, so wherever both curves
        cross at a beta, p*_S <= p*_E."""
        s_curve = find_boundary(name, measure="S", alpha=alpha)["curve"]
        e_curve = find_boundary(name, measure="E", alpha=alpha)["curve"]
        for s_pt, e_pt in zip(s_curve, e_curve, strict=True):
            if s_pt["p_star"] is not None and e_pt["p_star"] is not None:
                assert s_pt["p_star"] <= e_pt["p_star"], (name, s_pt["beta"])

    @pytest.mark.parametrize("tol", [-1.0, math.nan])
    def test_rejects_nonpositive_tolerance(self, tol):
        with pytest.raises(ConfigError, match="tol="):
            find_boundary("ABC_I", measure="S", alpha=ALPHA_GHZ, beta_steps=2, tol=tol)

    @pytest.mark.parametrize("measure, name", [("S", "ABC_I"), ("E", "AB_I_C_I")])
    def test_zero_tolerance_bisects_to_float_spacing(self, measure, name):
        """A tolerance of 0 is valid: bisection stops where no float lies
        inside a bracket, as it does for any tolerance below the spacing."""
        curves = [find_boundary(name, measure=measure, beta_steps=9, tol=tol)["curve"]
                  for tol in (0.0, 1e-300)]
        assert curves[0] == curves[1]
        assert any(pt["status"] == "crossing" for pt in curves[0])

    def test_rejects_empty_curve(self):
        with pytest.raises(ConfigError, match=r"^beta_steps=0 outside \[1, inf\]$"):
            find_boundary("ABC_I", measure="S", alpha=ALPHA_GHZ, beta_steps=0)

    def test_tolerance_below_float_spacing_terminates(self, monkeypatch):
        """Bisection stops once no float lies strictly inside a bracket: a
        1e-3 bracket takes about 43 halvings to reach float spacing."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            assert len(calls) <= 100, "bisection does not terminate"
            return numeric_batch(*args, **kwargs)

        monkeypatch.setattr(ghzsim.sweep, "numeric_batch", counted)
        result = find_boundary(
            "ABC_I", measure="S", alpha=ALPHA_GHZ, beta_steps=5, tol=1e-300
        )
        for pt in result["curve"]:
            expected = 1.0 - 1.0 / (2.0 * math.cos(pt["beta"]) ** 2)
            assert pt["p_star"] == pytest.approx(expected, abs=1e-14)

    def test_serialization(self):
        result = find_boundary("ABC_I", measure="S", alpha=ALPHA_GHZ, beta_steps=2)
        csv_lines = boundary_to_csv(result).strip().split("\n")
        assert csv_lines[0] == "beta,p_star,status"
        assert len(csv_lines) == 3
        payload = json.loads(json_text(result))
        assert list(payload) == [
            "scenario", "measure", "alpha", "threshold", "bisect_tol", "scan_step", "curve"
        ]
        assert list(payload["curve"][0]) == ["beta", "p_star", "status"]
        assert payload["threshold"] == 4.0
        assert payload["scan_step"] == SCAN_STEP == 1e-3
        assert payload["curve"][0]["status"] == "crossing"

    def test_scan_step_is_not_a_parameter(self):
        with pytest.raises(TypeError, match="scan_step"):
            find_boundary("ABC_I", measure="S", alpha=ALPHA_GHZ, beta_steps=2, scan_step=0.0)


def fine_scan_p_star(name: str, measure: str, beta: float) -> float | None:
    """p* at one beta from a brute-force p scan at step 1e-5, under the
    boundary's rules: S crosses where it first comes within 1e-12 of 4, E
    where it is first exactly 0; a curve that starts on the threshold
    crosses at p = 0 and one that starts below it never does. E is scanned
    up to 1 - 1e-6 (the default bisection tolerance) in place of p = 1, so a
    zero that starts later is no crossing. None means no crossing."""
    threshold, slack = (4.0, 1e-12) if measure == "S" else (0.0, 0.0)
    ps = np.arange(100_001) / 100_000
    if measure == "E":
        ps[-1] = 1.0 - 1e-6
    values = numeric_batch(name, ALPHA_GHZ, beta, ps, (measure,))[measure]
    reached = np.flatnonzero(values <= threshold + slack)
    if len(reached) == 0:
        return None
    if reached[0] == 0:
        return 0.0 if abs(values[0] - threshold) <= 1e-9 else None
    return float(ps[reached[0]])


def one_row(name, measure, alpha, beta, tol):
    """`find_boundary`'s point at one given beta: it samples beta on an even
    grid, so the grid is replaced by that beta."""
    with mock.patch.object(ghzsim.sweep, "_axis", lambda hi, steps: (beta,)):
        result = find_boundary(name, measure=measure, alpha=alpha, beta_steps=1, tol=tol)
    (point,) = result["curve"]
    assert point["beta"] == beta
    return point


class TestBoundaryScanMissesNoCrossing:
    """The 1e-3 coarse scan of `find_boundary` finds the same first crossing
    as a scan 100 times finer, at any beta."""

    @settings(max_examples=4, deadline=None)
    @given(beta=st.floats(0.0, BETA_MAX))
    # Betas where E dies inside the last scan step, or is tiny but positive
    # up to p = 1.
    @example(beta=0.3748)
    @example(beta=1e-7)
    @example(beta=1e-9)
    @example(beta=1e-10)
    @example(beta=2.0**-14)
    @example(beta=2.0**-24)
    @pytest.mark.parametrize("measure", ["S", "E"])
    @pytest.mark.parametrize("name", X_SCENARIOS)
    def test_agrees_with_a_fine_scan(self, name, measure, beta):
        point = one_row(name, measure, ALPHA_GHZ, beta, 1e-6)
        want = fine_scan_p_star(name, measure, beta)
        assert point["status"] == ("no_crossing" if want is None else "crossing")
        if want is not None:
            assert abs(point["p_star"] - want) <= 2e-5


#: On AB_I_C_I, E = 2 alpha sqrt(1-alpha^2) (1-p) max(0, cos^2 b - p sin^2 b
#: - 2 sin b sqrt(p (cos^2 b + p sin^2 b))), so E dies where u = p tan^2 b is
#: the root of 3u^2 + 6u - 1: p*_E = (2/sqrt 3 - 1) cot^2 b, for every alpha.
E_DEATH_FACTOR = 2.0 / math.sqrt(3.0) - 1.0
#: p*_E = 1 here: a crossing exists only above it.
BETA_C = math.atan(math.sqrt(E_DEATH_FACTOR))


def x_entries_at_p0(name, alpha, beta):
    """max_i |f_i| and N of the undamped reduced state, from the register
    oracle, not the engine."""
    m = register_reduced_oracle(alpha, beta, SCENARIOS[name]).real
    d, e = np.diag(m)[:4], np.diag(m)[7:3:-1]
    f0 = max(abs(m[i, 7 - i]) for i in range(4))
    return f0, d[0] - d[1] - d[2] + d[3] - e[3] + e[2] + e[1] - e[0]


def assert_matches(point, p_star, crosses, tol):
    assert point["status"] == ("crossing" if crosses else "no_crossing")
    if crosses:
        assert abs(point["p_star"] - p_star) <= tol


class TestClosedFormBoundaries:
    """`find_boundary` against curves derived by hand from the damped X
    entries, an oracle outside the engine: the same status, and p* to within
    the bisection tolerance. Draws within 1e-6 of a status switch are
    skipped, where the scan's last point or the threshold's slack decides."""

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(1e-3, 0.999),
        beta=st.floats(0.0, BETA_MAX),
        tol=st.floats(1e-12, 1e-4),
    )
    # Rows just below and just above beta_c, and the far end.
    @example(alpha=ALPHA_GHZ, beta=BETA_C - 1e-5, tol=1e-12)
    @example(alpha=ALPHA_GHZ, beta=BETA_C + 1e-5, tol=1e-12)
    @example(alpha=0.05, beta=BETA_C + 1e-4, tol=1e-9)
    @example(alpha=0.999, beta=BETA_MAX, tol=1e-12)
    def test_entanglement_death_on_ab_i_c_i(self, alpha, beta, tol):
        """p*_E(beta) = (2/sqrt 3 - 1) cot^2 beta whatever alpha, so E dies
        before full damping only for beta > beta_c = 0.374734..."""
        tan2 = math.tan(beta) ** 2
        p_star = E_DEATH_FACTOR / tan2 if tan2 else math.inf
        assume(abs(p_star - (1.0 - tol)) >= 1e-6)
        point = one_row("AB_I_C_I", "E", alpha, beta, tol)
        crosses = p_star < 1.0 - tol
        assert crosses <= (beta > BETA_C)
        assert_matches(point, p_star, crosses, tol)

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(1e-3, 0.999),
        beta=st.floats(0.0, BETA_MAX),
        tol=st.floats(1e-12, 1e-4),
    )
    @example(alpha=ALPHA_GHZ, beta=0.0, tol=1e-12)
    @example(alpha=0.3, beta=0.0, tol=1e-9)
    # On AB_I_C_I, p* = 1 - 1/(2 sqrt 2 alpha sqrt(1 - alpha^2) cos^2 beta):
    # 0.2252 here.
    @example(alpha=ALPHA_GHZ, beta=0.3, tol=1e-12)
    @pytest.mark.parametrize("name", X_SCENARIOS)
    def test_nonlocality_death(self, name, alpha, beta, tol):
        """S = max(8 sqrt 2 max_i |f_i|, 4|N|). N is a signed sum of the
        diagonal of a unit-trace state, so |N| <= 1 and only the coherence
        branch lifts S above 4; with k damped modes each f_i is
        f_i(0) (1 - p)^(k/2). So with g = 2 sqrt 2 max_i |f_i(0)|, S dies at
        p* = 1 - g^(-2/k) where g > 1, at p = 0 where S(0) is within 1e-9
        of 4 (`find_boundary`'s start rule), and never otherwise. On ABC_I
        (k = 1), g^2 = 8 alpha^2 (1 - alpha^2) cos^2 beta."""
        f0, n0 = x_entries_at_p0(name, alpha, beta)
        k = sum("_" in mode for mode in modes_from_name(name))
        g = 2.0 * math.sqrt(2.0) * f0
        s0 = 4.0 * max(g, abs(n0))
        assume(abs(g * g - 1.0) >= 1e-6 and not 1e-9 < 4.0 - s0 < 1e-6)
        point = one_row(name, "S", alpha, beta, tol)
        if g > 1.0:
            assert_matches(point, 1.0 - g ** (-2.0 / k), True, tol)
        else:
            assert_matches(point, 0.0, 4.0 - s0 <= 1e-9, tol)


class TestLateDeath:
    """At alpha = 1/sqrt 2, AB_I_C_I's E at beta = 0.3748 is positive at
    p = 0.999 and exactly 0 from about p = 0.99962: it dies inside the last
    step of the coarse scan, which ends at 1 - tol."""

    BETA = 0.3748

    def boundary(self, monkeypatch, tol):
        """The row's point and the p axis of each kernel call."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(np.atleast_1d(args[3]))
            return numeric_batch(*args, **kwargs)

        monkeypatch.setattr(ghzsim.sweep, "numeric_batch", counted)
        monkeypatch.setattr(ghzsim.sweep, "_axis", lambda hi, steps: (self.BETA,))
        result = find_boundary(
            "AB_I_C_I", measure="E", alpha=ALPHA_GHZ, beta_steps=1, tol=tol
        )
        (point,) = result["curve"]
        return point, calls

    def test_costs_no_extra_kernel_call(self, monkeypatch):
        """The scan, then the 10 halvings of (0.999, 1 - 1e-6] down to 1e-6."""
        point, calls = self.boundary(monkeypatch, 1e-6)
        assert len(calls) == 1 + 10
        assert calls[0][-1] == 1 - 1e-6
        assert point["status"] == "crossing"
        assert 0.999 < point["p_star"] <= 1 - 1e-6

    @pytest.mark.parametrize("tol", [2e-3, 0.5, 1e-300])
    def test_scan_ends_at_1_minus_tol(self, monkeypatch, tol):
        """A tolerance of at least a step ends the scan at its 0.999 point,
        where E is still positive: no crossing. One below the float spacing
        at 1 ends it at the float below 1, where E is 0."""
        point, calls = self.boundary(monkeypatch, tol)
        if tol >= SCAN_STEP:
            assert calls[0][-1] == calls[0][-2] == 0.999
            assert (point["status"], point["p_star"]) == ("no_crossing", None)
        else:
            assert calls[0][-1] == np.nextafter(1.0, 0.0)
            assert point["status"] == "crossing"
            assert 0.999 < point["p_star"] < 1.0


class TestFigureCsv:
    def test_single_measure_gives_one_text(self):
        texts = figure_csv(1, ALPHA_GHZ, 16)
        assert list(texts) == ["S"]
        lines = texts["S"].strip().split("\n")
        assert lines[0] == "beta,p,value"
        assert len(lines) == 1 + 16 * 16

    def test_multi_measure_gives_one_text_per_measure(self):
        assert list(figure_csv(3, ALPHA_GHZ, 16)) == ["S", "E"]

    def test_defaults(self):
        """The paper's alpha and a 101 x 101 grid, written once in `sweep`."""
        assert figure_csv(1) == figure_csv(1, ALPHA_GHZ, 101)

    def test_resolution_guard(self):
        with pytest.raises(ConfigError):
            figure_csv(1, ALPHA_GHZ, 4)

    def test_unknown_figure(self):
        with pytest.raises(ConfigError):
            figure_csv(8, ALPHA_GHZ, 16)

    def test_undefined_numeric_measures_fall_back_to_catalog(self):
        """The surface of the non-X-structured combination has no numeric S,
        so its data comes from the analytic catalog and contains no NaN."""
        for body in figure_csv(7, ALPHA_GHZ, 16).values():
            assert "nan" not in body


class TestSumRuleSamples:
    def test_asserted_rules_within_tolerance(self):
        report = sum_rule_samples(None, samples=100, seed=DEFAULT_SEED)
        for rule in report["rules"]:
            if rule["asserted"]:
                assert rule["max_numeric_residual"] < 1e-10, rule["name"]

    def test_reported_rule_alpha_dependence(self):
        report = sum_rule_samples(None, samples=10, seed=DEFAULT_SEED)
        section = report["reported_rule_alpha_dependence"]
        # The residual's exact form, -2 sin^2(2 beta) (1-p)^2 a^2 (1-a^2)^2,
        # also vanishes on the beta = 0 row and the p = 1 column.
        assert section["note"].endswith("vanishes only at alpha in {0, 1}, beta = 0 or p = 1")
        points = section["points"]
        assert [round(pt["alpha"], 10) for pt in points] == [round(0.1 * k, 10) for k in range(1, 10)]
        # residual / (alpha^2 (1-alpha^2)^2) is constant in alpha
        ratios = [pt["residual_over_alpha2_times_1_minus_alpha2_sq"] for pt in points]
        assert max(ratios) - min(ratios) < 1e-10

    def test_deterministic_for_fixed_seed(self):
        a = sum_rule_samples(0.8, samples=50, seed=7)
        b = sum_rule_samples(0.8, samples=50, seed=7)
        assert a == b

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            sum_rule_samples(None, samples=5, seed=-1)

    @pytest.mark.parametrize("alpha", [None, 0.8])
    def test_points_are_the_stdlib_stream_in_alpha_beta_p_order(self, monkeypatch, alpha):
        """All alphas (when sampled), then all betas, then all p, drawn from
        random.Random(seed), whose stream Python keeps across versions; the
        reported rule's nine fixed points follow them in the same call."""
        calls = []
        terms = ghzsim.sweep._sum_rule_terms

        def capture(*points):
            calls.append(points)
            return terms(*points)

        monkeypatch.setattr(ghzsim.sweep, "_sum_rule_terms", capture)
        sum_rule_samples(alpha, samples=7, seed=11)
        rnd = random.Random(11)
        alphas = [alpha] * 7 if alpha is not None else [rnd.uniform(0.0, 1.0) for _ in range(7)]
        betas = [rnd.uniform(0.0, BETA_MAX) for _ in range(7)]
        ps = [rnd.uniform(0.0, 1.0) for _ in range(7)]
        fixed = [[0.1 * k for k in range(1, 10)], [math.pi / 6.0] * 9, [0.3] * 9]
        assert len(calls) == 1
        assert [np.asarray(v, dtype=float).tolist() for v in calls[0]] == [
            alphas + fixed[0], betas + fixed[1], ps + fixed[2]
        ]


class TestAuditParameters:
    @pytest.mark.parametrize("kwargs", [{"samples": 0}, {"tol": -1.0}, {"tol": math.nan}])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            run_audit(**kwargs)

    def test_zero_tolerance_is_valid(self):
        run_audit(beta_steps=2, p_steps=2, tol=0.0, samples=2, scenario="ABC_I")

    @pytest.mark.parametrize(
        "kwargs, error",
        [({"alpha": 1.5}, "alpha=1.5 outside"), ({"beta_steps": 0}, "beta_steps=0 outside"),
         ({"p_steps": 0}, "p_steps=0 outside")],
    )
    def test_bad_grid_fails_before_the_sum_rules(self, monkeypatch, kwargs, error):
        def unreachable(*a, **k):
            raise AssertionError("the sum rules ran")

        monkeypatch.setattr(ghzsim.sweep, "sum_rule_samples", unreachable)
        with pytest.raises(ConfigError, match=error):
            run_audit(**kwargs)

    def test_config_echoes_the_grid_over_the_whole_domain(self):
        """The report's `beta_range` and `p_range` are (0, upper end, steps)."""
        config = run_audit(beta_steps=3, p_steps=5, samples=5, scenario="ABC_I")["config"]
        assert config["beta_range"] == [0.0, BETA_MAX, 3]
        assert config["p_range"] == [0.0, 1.0, 5]
        config = run_audit()["config"]
        assert (config["beta_range"], config["p_range"]) == ([0.0, BETA_MAX, 101], [0.0, 1.0, 101])


class TestNegativeSeed:
    def test_fails_validation(self):
        with pytest.raises(ConfigError, match="seed"):
            run_audit(seed=-1)

    def test_audit_fails_before_evaluating_the_grid(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the grid was evaluated")

        monkeypatch.setattr(ghzsim.sweep, "numeric_batch", unreachable)
        with pytest.raises(ConfigError, match="seed"):
            run_audit(seed=-1)


def _surfaces(grid: dict):
    return grid["betas"], grid["ps"], {k: np.nan_to_num(v, nan=-1.0).tolist()
                                       for k, v in grid["surfaces"].items()}


def _findings(report: dict):
    """The audit report without its echo of the parameters."""
    return report["entries"], report["flags"], report["sum_rules"]["rules"]


#: workflow -> (base keyword arguments, a changed value of each parameter,
#: what a call computed: its result without the echo of its parameters).
WORKFLOW_CHANGES = {
    run_sweep: (
        SMALL,
        {"alpha": 0.6, "beta_steps": 4, "p_steps": 4, "scenario": "AB_I_C_I",
         "measures": ("S",), "engine": "numeric"},
        _surfaces,
    ),
    run_audit: (
        {"beta_steps": 3, "p_steps": 3, "samples": 5, "scenario": "AB_I_C_I"},
        {"alpha": 0.6, "beta_steps": 4, "p_steps": 4, "tol": 10.0, "samples": 6, "seed": 1,
         "scenario": "ABC_I"},
        _findings,
    ),
    find_boundary: (
        {"measure": "S", "alpha": 0.6, "beta_steps": 2},
        {"scenario": "AB_I_C_I", "measure": "E", "alpha": 0.5, "beta_steps": 3, "tol": 1e-3},
        lambda result: result["curve"],
    ),
    sum_rule_samples: (
        {"samples": 5},
        {"alpha": 0.6, "samples": 6, "seed": 1},
        lambda result: (result["rules"], result["reported_rule_alpha_dependence"]),
    ),
    figure_csv: (
        {"figure": 4, "resolution": 16},
        {"figure": 2, "alpha": 0.6, "resolution": 17},
        lambda texts: texts,
    ),
}


def _name(value):
    return getattr(value, "__name__", value)


class TestEveryParameterIsRead:
    """No workflow accepts a parameter it ignores: a changed value of each
    changes the computed result, not only its echo in the output, or is
    rejected with ConfigError."""

    @pytest.mark.parametrize("workflow", WORKFLOW_CHANGES, ids=_name)
    def test_the_tables_name_every_parameter(self, workflow):
        changes = WORKFLOW_CHANGES[workflow][1]
        assert set(changes) == set(inspect.signature(workflow).parameters)

    @pytest.mark.parametrize(
        "workflow, name",
        [(workflow, name) for workflow, (_, changes, _) in WORKFLOW_CHANGES.items()
         for name in changes],
        ids=_name,
    )
    def test_parameter(self, workflow, name):
        base, changes, computed = WORKFLOW_CHANGES[workflow]
        try:
            changed = workflow(**{**base, name: changes[name]})
        except ConfigError:
            return
        assert computed(changed) != computed(workflow(**base))


@pytest.fixture(scope="module")
def report():
    return run_audit(beta_steps=9, p_steps=9, samples=50)


class TestRunAudit:
    def test_evaluates_whole_grids_not_points(self, monkeypatch):
        """Each engine is called once per grid or sample set: per scenario,
        one kernel call for the grid and one for the sum rules, one catalog
        call per compared measure and one for the sum rules."""
        calls = {"cf_eval": 0, "numeric_batch": 0}

        def counting(name):
            fn = getattr(ghzsim.sweep, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(ghzsim.sweep, name, counted)

        counting("cf_eval")
        counting("numeric_batch")
        run_audit()
        assert calls["cf_eval"] <= 28
        assert calls["numeric_batch"] <= 16


class TestKernelCalls:
    """Deciding a scenario's structure costs no kernel call: the engine
    damps support rows only for values a command writes."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """The scenario name of each `numeric_batch` call a workflow makes."""
        calls = []
        batch = ghzsim.sweep.numeric_batch

        def counted(*args, **kwargs):
            calls.append(args[0])
            return batch(*args, **kwargs)

        monkeypatch.setattr(ghzsim.sweep, "numeric_batch", counted)
        return calls

    def test_default_audit(self, kernel_calls):
        """One grid and one sum-rule set per scenario."""
        run_audit()
        assert len(kernel_calls) == 16

    def test_sum_rules(self, kernel_calls):
        """The random points and the reported rule's alpha scan share one
        call per scenario."""
        sum_rule_samples(samples=10)
        assert sorted(kernel_calls) == sorted(SCENARIOS)

    def test_figure(self, kernel_calls):
        figure_csv(4, ALPHA_GHZ, 16)
        assert kernel_calls == ["AB_I_C_I"]

    def test_audit_checks_scenario_names_first(self, kernel_calls, monkeypatch):
        """A bad name is reported before the sum rules run: no
        `numeric_batch` call."""
        batches = []
        monkeypatch.setattr(ghzsim.sweep, "numeric_batch", lambda *a, **k: batches.append(a))
        with pytest.raises(ConfigError, match=r"^scenario='nope' not in \("):
            run_audit(scenario="nope")
        assert batches == [] and kernel_calls == []

    @pytest.mark.parametrize("name", ["AB_I_B_II", "AC_I_C_II"])
    def test_non_x_boundary(self, kernel_calls, name):
        with pytest.raises(ConfigError, match="not X-structured"):
            find_boundary(name, measure="S", alpha=ALPHA_GHZ, beta_steps=33)
        assert kernel_calls == []

    def test_flags_transcription_slip(self, report):
        assert report["flags"]
        assert any(f.startswith("AB_I_C_I/S") for f in report["flags"])

    def test_flags_carry_both_engine_values(self, report):
        flag = next(f for f in report["flags"] if f.startswith("AB_I_C_I/S"))
        assert "numeric=" in flag and "closedform=" in flag

    def test_non_x_scenarios_marked(self, report):
        entries = {
            (e["scenario"], e["measure"]): e for e in report["entries"]
        }
        assert entries[("AB_I_B_II", "S")]["status"] == "not_x_structured"
        assert entries[("AC_I_C_II", "E")]["status"] == "not_x_structured"
        # coherence is still defined and compared there
        assert entries[("AB_I_B_II", "C")]["pass"]
        assert entries[("AC_I_C_II", "C")]["pass"]

    def test_sound_entries_pass(self, report):
        entries = {
            (e["scenario"], e["measure"]): e for e in report["entries"]
        }
        for key in [("ABC_I", "S"), ("ABC_I", "E"), ("ABC_II", "C"), ("AB_I_C_II", "E")]:
            assert entries[key]["pass"], key

    def test_json_round_trip_has_no_nan(self, report):
        payload = json.loads(json_text(report))
        assert payload["flags"] == list(report["flags"])
