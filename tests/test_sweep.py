"""Grid sweeps, serialization, boundary finding, figure data, sum-rule
sampling and the engine audit."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

import ghzsim.sweep
from ghzsim import (
    ConfigError,
    SweepConfig,
    find_boundary,
    numeric_batch,
    numeric_measures,
    run_audit,
    run_sweep,
    sum_rule_samples,
)
from ghzsim.sweep import (
    DEFAULT_SEED,
    boundary_to_csv,
    boundary_to_json,
    emit_figure_data,
    records_to_csv,
    records_to_json,
    write_text_atomic,
)

ALPHA_GHZ = 1.0 / math.sqrt(2.0)

SMALL = SweepConfig(beta_range=(0.0, math.pi / 4, 3), p_range=(0.0, 1.0, 3))


class TestSweepConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 1.5},
            {"beta_range": (0.0, 2.0, 11)},
            {"beta_range": (0.0, 0.5, 1)},
            {"p_range": (0.5, 0.2, 11)},
            {"scenario": "nope"},
            {"measures": ("S", "Q")},
            {"measures": ()},
            {"engine": "exact"},
            {"fmt": "xml"},
            {"workers": 0},
            {"samples": 0},
            {"tol": -1.0},
            {"tol": math.nan},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SweepConfig(**kwargs).validate()

    def test_default_config_is_valid(self):
        SweepConfig().validate()

    def test_zero_tolerance_is_valid(self):
        SweepConfig(tol=0.0).validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta_range": (0.0, math.pi / 4 + 1e-13, 3)},
            {"p_range": (0.0, 1.0 + 1e-13, 3)},
        ],
    )
    def test_ranges_past_the_pipeline_limits_fail_validation(self, kwargs):
        """A range the pipeline would reject mid-run is rejected up front."""
        with pytest.raises(ConfigError):
            SweepConfig(**kwargs).validate()


class TestRunSweep:
    def test_row_count_and_order(self):
        rows = run_sweep(SMALL)
        # 3 beta x 3 p x 3 measures x 2 engines
        assert len(rows) == 54
        first = rows[0]
        assert (first.measure, first.engine) == ("S", "numeric")
        assert rows[1].engine == "closedform"
        # beta varies slowest, p next
        assert rows[0].beta == 0.0 and rows[0].p == 0.0
        assert rows[6].p == 0.5
        assert rows[18].beta == pytest.approx(math.pi / 8)

    def test_single_engine(self):
        rows = run_sweep(SweepConfig(beta_range=(0, 0.5, 2), p_range=(0, 1, 2), engine="numeric"))
        assert {r.engine for r in rows} == {"numeric"}

    def test_engines_agree_on_sound_scenario(self):
        values = {}
        for row in run_sweep(SMALL):
            values.setdefault((row.beta, row.p, row.measure), {})[row.engine] = row.value
        for point, pair in values.items():
            assert pair["numeric"] == pytest.approx(pair["closedform"], abs=1e-12), point

    @pytest.mark.parametrize("name", ["AB_I_C_II", "AB_I_B_II"])
    def test_numeric_rows_equal_point_evaluation(self, name):
        """Every cell of a 7x7 row-batched grid equals the per-point engine
        at that cell's (beta, p), NaN included, in row-major order."""
        rows = run_sweep(
            SweepConfig(
                alpha=0.6,
                scenario=name,
                beta_range=(0.0, math.pi / 4, 7),
                p_range=(0.0, 1.0, 7),
                engine="numeric",
            )
        )
        assert len(rows) == 7 * 7 * 3
        axis = [k / 6.0 for k in range(7)]
        for k, row in enumerate(rows):
            bi, rest = divmod(k, 7 * 3)
            assert row.beta == pytest.approx(axis[bi] * math.pi / 4, abs=1e-15)
            assert row.p == pytest.approx(axis[rest // 3], abs=1e-15)
            want = numeric_measures(name, 0.6, row.beta, row.p)[row.measure]
            assert row.value == want or (math.isnan(row.value) and math.isnan(want)), row

    def test_worker_count_does_not_change_rows(self):
        base = run_sweep(SMALL)
        parallel = run_sweep(
            SweepConfig(beta_range=(0.0, math.pi / 4, 3), p_range=(0.0, 1.0, 3), workers=2)
        )
        assert records_to_csv(base) == records_to_csv(parallel)


class TestSerialization:
    def test_csv_header_and_precision(self):
        text = records_to_csv(run_sweep(SMALL))
        lines = text.strip().split("\n")
        assert lines[0] == "scenario,measure,engine,alpha,beta,p,value"
        assert lines[1].startswith("ABC_I,S,numeric,0.70710678118654746,0,0,")
        # 17 significant digits survive a round trip
        value = float(lines[1].split(",")[-1])
        assert value == pytest.approx(4.0 * math.sqrt(2.0), abs=1e-15)

    def test_nan_serialization(self):
        # interior beta with p < 1: the reduced state is not X-structured
        # there, so the numeric Svetlichny value is undefined
        config = SweepConfig(
            scenario="AB_I_B_II",
            beta_range=(0.4, 0.5, 2),
            p_range=(0.0, 0.5, 2),
            engine="numeric",
            measures=("S",),
        )
        csv_text = records_to_csv(run_sweep(config))
        assert csv_text.strip().split("\n")[1].endswith(",nan")
        payload = json.loads(records_to_json(run_sweep(config)))
        assert payload[0]["value"] is None

    def test_atomic_write(self, tmp_path):
        target = tmp_path / "out.csv"
        write_text_atomic(str(target), "hello\n")
        assert target.read_text() == "hello\n"
        assert list(tmp_path.iterdir()) == [target]


class TestFindBoundary:
    def test_inertial_nonlocality_sudden_death(self):
        result = find_boundary("ABC_I", "S", ALPHA_GHZ, beta_samples=2)
        origin, extreme = result.curve
        assert origin.status == "crossing"
        assert origin.p_star == pytest.approx(0.5, abs=1e-6)
        # at maximal acceleration the state starts exactly on the threshold
        assert extreme.status == "crossing"
        assert extreme.p_star == 0.0

    def test_entanglement_survives_until_full_damping(self):
        result = find_boundary("ABC_I", "E", ALPHA_GHZ, beta_samples=3)
        assert all(pt.status == "no_crossing" for pt in result.curve)

    def test_rejects_unknown_measure(self):
        with pytest.raises(ConfigError):
            find_boundary("ABC_I", "C", ALPHA_GHZ, beta_samples=2)

    def test_rejects_non_x_scenario(self):
        with pytest.raises(ConfigError, match="not X-structured"):
            find_boundary("AB_I_B_II", "S", ALPHA_GHZ, beta_samples=2)

    def test_matches_closed_form_curve(self):
        """At alpha = 1/sqrt 2 the ABC_I Svetlichny value falls to 4 at
        p* = 1 - 1/(2 cos^2 beta), for every beta of the default curve."""
        tol = 1e-6
        result = find_boundary("ABC_I", "S", ALPHA_GHZ, beta_samples=33, bisect_tol=tol)
        assert len(result.curve) == 33
        for pt in result.curve:
            assert pt.status == "crossing"
            expected = 1.0 - 1.0 / (2.0 * math.cos(pt.beta) ** 2)
            assert abs(pt.p_star - expected) <= 2.0 * tol, pt.beta

    @pytest.mark.parametrize("measure", ["S", "E"])
    def test_matches_scalar_bisection_exactly(self, measure):
        """Batched bisection gives the bits of the one-beta-at-a-time loop,
        on a two-damped scenario whose curves mix crossings and none."""
        name = "AB_I_C_I"
        threshold, level = (4.0, 4.0) if measure == "S" else (0.0, 1e-12)
        scan = [k / 1000 for k in range(1001)]
        expected = []
        for beta in np.linspace(0.0, math.pi / 4, 9).tolist():
            values = numeric_batch(name, ALPHA_GHZ, beta, np.array(scan), (measure,))[measure]
            k = next((k for k, v in enumerate(values) if not v > threshold + 1e-12), None)
            if k == 0:
                p_star = 0.0 if abs(values[0] - threshold) <= 1e-9 else None
            elif k is None or (measure == "E" and k == 1000):
                p_star = None
            else:
                lo, hi = scan[k - 1], scan[k]
                while hi - lo > 1e-6:
                    mid = 0.5 * (lo + hi)
                    if numeric_measures(name, ALPHA_GHZ, beta, mid, (measure,))[measure] > level:
                        lo = mid
                    else:
                        hi = mid
                p_star = hi
            expected.append(p_star)
        result = find_boundary(name, measure, ALPHA_GHZ, beta_samples=9)
        assert [pt.p_star for pt in result.curve] == expected
        assert None in expected and any(p not in (None, 0.0) for p in expected)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_tolerance(self, tol):
        with pytest.raises(ConfigError, match="tolerance"):
            find_boundary("ABC_I", "S", ALPHA_GHZ, beta_samples=2, bisect_tol=tol)

    def test_rejects_empty_curve(self):
        with pytest.raises(ConfigError, match="beta samples"):
            find_boundary("ABC_I", "S", ALPHA_GHZ, beta_samples=0)

    def test_tolerance_below_float_spacing_terminates(self, monkeypatch):
        """Bisection stops once no float lies strictly inside a bracket: a
        1e-3 bracket takes about 43 halvings to reach float spacing."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            assert len(calls) <= 100, "bisection does not terminate"
            return numeric_batch(*args, **kwargs)

        monkeypatch.setattr(ghzsim.sweep, "numeric_batch", counted)
        result = find_boundary("ABC_I", "S", ALPHA_GHZ, beta_samples=5, bisect_tol=1e-300)
        for pt in result.curve:
            expected = 1.0 - 1.0 / (2.0 * math.cos(pt.beta) ** 2)
            assert pt.p_star == pytest.approx(expected, abs=1e-14)

    def test_serialization(self):
        result = find_boundary("ABC_I", "S", ALPHA_GHZ, beta_samples=2)
        csv_lines = boundary_to_csv(result).strip().split("\n")
        assert csv_lines[0] == "beta,p_star,status"
        assert len(csv_lines) == 3
        payload = json.loads(boundary_to_json(result))
        assert payload["threshold"] == 4.0
        assert payload["curve"][0]["status"] == "crossing"


class TestEmitFigureData:
    def test_single_measure_writes_exact_path(self, tmp_path):
        out = tmp_path / "surface.csv"
        written = emit_figure_data(1, ALPHA_GHZ, 16, str(out))
        assert written == [str(out)]
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "beta,p,value"
        assert len(lines) == 1 + 16 * 16

    def test_multi_measure_suffixes_files(self, tmp_path):
        out = tmp_path / "surface.csv"
        written = emit_figure_data(3, ALPHA_GHZ, 16, str(out))
        assert written == [str(tmp_path / "surface_S.csv"), str(tmp_path / "surface_E.csv")]

    def test_resolution_guard(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_figure_data(1, ALPHA_GHZ, 4, str(tmp_path / "x.csv"))

    def test_unknown_figure(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_figure_data(8, ALPHA_GHZ, 16, str(tmp_path / "x.csv"))

    def test_undefined_numeric_measures_fall_back_to_catalog(self, tmp_path):
        """The surface of the non-X-structured combination has no numeric S,
        so its data comes from the analytic catalog and contains no NaN."""
        out = tmp_path / "f7.csv"
        written = emit_figure_data(7, ALPHA_GHZ, 16, str(out))
        for path in written:
            body = open(path).read()
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


class TestNegativeSeed:
    def test_fails_validation(self):
        with pytest.raises(ConfigError, match="seed"):
            SweepConfig(seed=-1).validate()

    def test_audit_fails_before_evaluating_the_grid(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the grid was evaluated")

        monkeypatch.setattr(ghzsim.sweep, "numeric_batch", unreachable)
        with pytest.raises(ConfigError, match="seed"):
            run_audit(SweepConfig(seed=-1))


@pytest.fixture(scope="module")
def report():
    config = SweepConfig(beta_range=(0.0, math.pi / 4, 9), p_range=(0.0, 1.0, 9), samples=50)
    return run_audit(config)


class TestRunAudit:
    def test_evaluates_whole_grids_not_points(self, monkeypatch):
        """Each engine is called once per grid or sample set: per scenario,
        one kernel call for the grid and two for the sum rules, one catalog
        call per compared measure and two for the sum rules."""
        calls = {"cf_eval": 0, "numeric_batch": 0}

        def counting(name):
            fn = getattr(ghzsim.sweep, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(ghzsim.sweep, name, counted)

        counting("cf_eval")
        counting("numeric_batch")
        run_audit(SweepConfig())
        assert calls["cf_eval"] <= 36
        assert calls["numeric_batch"] <= 24

    def test_requires_both_engines(self):
        with pytest.raises(ConfigError):
            run_audit(SweepConfig(engine="numeric"))

    def test_flags_transcription_slip(self, report):
        assert report.has_flags
        assert any(f.startswith("AB_I_C_I/S") for f in report.flags)

    def test_flags_carry_both_engine_values(self, report):
        flag = next(f for f in report.flags if f.startswith("AB_I_C_I/S"))
        assert "numeric=" in flag and "closedform=" in flag

    def test_non_x_scenarios_marked(self, report):
        entries = {
            (e["scenario"], e["measure"]): e for e in report.payload["entries"]
        }
        assert entries[("AB_I_B_II", "S")]["status"] == "not_x_structured"
        assert entries[("AC_I_C_II", "E")]["status"] == "not_x_structured"
        # coherence is still defined and compared there
        assert entries[("AB_I_B_II", "C")]["pass"]

    def test_sound_entries_pass(self, report):
        entries = {
            (e["scenario"], e["measure"]): e for e in report.payload["entries"]
        }
        for key in [("ABC_I", "S"), ("ABC_I", "E"), ("ABC_II", "C"), ("AB_I_C_II", "E")]:
            assert entries[key]["pass"], key

    def test_json_round_trip_has_no_nan(self, report):
        payload = json.loads(report.to_json())
        assert payload["flags"] == list(report.flags)
