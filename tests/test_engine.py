"""First-principles evaluation pipeline: damped scenario states and the
numeric measures, cross-checked against the step-by-step public API."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzsim import (
    BETA_MAX,
    DampingParams,
    DensityOperator,
    GhzParams,
    ParameterError,
    SCENARIOS,
    StructureError,
    UnruhParams,
    apply_damping,
    coherence_l1,
    damped_scenario_state,
    extract_xstate,
    gte,
    gtn,
    is_x_structured,
    numeric_batch,
    numeric_measures,
    scenario,
    scenario_reduced_state,
    validate_density,
)
from ghzsim import engine
from ghzsim.engine import MEASURES
from conftest import damp_qubit_oracle

ALPHA_GHZ = 1.0 / math.sqrt(2.0)

#: scenarios whose reduced matrix keeps the X pattern (S and E defined).
X_SCENARIOS = (
    "ABC_I",
    "ABC_II",
    "AB_I_C_I",
    "AB_I_C_II",
    "AB_II_C_I",
    "AB_II_C_II",
)
NON_X_SCENARIOS = ("AB_I_B_II", "AC_I_C_II")


class TestDampedScenarioState:
    def test_matches_stepwise_construction(self):
        """The fast path must agree with reduce-then-damp done by hand
        through the public channel API, for every scenario."""
        alpha, beta, p = 0.65, 0.45, 0.37
        for name, scen in SCENARIOS.items():
            fast = damped_scenario_state(name, alpha, beta, p)
            slow = scenario_reduced_state(GhzParams(alpha), UnruhParams(beta), scen)
            if scen.damped_modes:
                slow = apply_damping(slow, scen.damped_modes, DampingParams(p))
            np.testing.assert_allclose(fast.matrix, slow.matrix, atol=1e-14, err_msg=name)
            assert fast.register == slow.register

    def test_register_carries_scenario_regions(self):
        rho = damped_scenario_state("AB_I_C_II", 0.7, 0.3, 0.2)
        assert tuple(m.value for m in rho.register.modes) == ("A", "B_I", "C_II")

    @settings(max_examples=20, deadline=None)
    @given(
        alpha=st.floats(0.0, 1.0),
        beta=st.floats(0.0, BETA_MAX),
        p=st.floats(0.0, 1.0),
        name=st.sampled_from(sorted(SCENARIOS)),
    )
    def test_always_a_valid_density_matrix(self, alpha, beta, p, name):
        rho = damped_scenario_state(name, alpha, beta, p)
        report = validate_density(rho)
        assert report.trace_deviation < 1e-12
        assert report.min_eigenvalue >= -1e-12

    def test_accepts_scenario_objects(self):
        by_name = damped_scenario_state("ABC_I", 0.7, 0.2, 0.1)
        by_obj = damped_scenario_state(scenario("ABC_I"), 0.7, 0.2, 0.1)
        np.testing.assert_array_equal(by_name.matrix, by_obj.matrix)


class TestNumericMeasures:
    def test_pure_state_baseline(self):
        values = numeric_measures("ABC_I", ALPHA_GHZ, 0.0, 0.0)
        assert values["S"] == pytest.approx(4.0 * math.sqrt(2.0), abs=1e-12)
        assert values["E"] == pytest.approx(1.0, abs=1e-12)
        assert values["C"] == pytest.approx(1.0, abs=1e-12)

    def test_frozen_interior_point(self):
        """Values at (alpha, beta, p) = (1/sqrt 2, pi/6, 0.3), frozen from an
        independent run of the reduce-then-damp construction."""
        values = numeric_measures("ABC_I", ALPHA_GHZ, math.pi / 6, 0.3)
        assert values["S"] == pytest.approx(4.0987803063838388, abs=1e-13)
        assert values["E"] == pytest.approx(0.49544005256167989, abs=1e-13)
        assert values["C"] == pytest.approx(0.72456883730947186, abs=1e-13)

    def test_agrees_with_measure_functions(self):
        rho = damped_scenario_state("AB_II_C_II", 0.6, 0.5, 0.4)
        values = numeric_measures("AB_II_C_II", 0.6, 0.5, 0.4)
        assert values["S"] == pytest.approx(gtn(extract_xstate(rho)), abs=1e-14)
        assert values["E"] == pytest.approx(gte(extract_xstate(rho)), abs=1e-14)
        assert values["C"] == pytest.approx(coherence_l1(rho), abs=1e-14)

    def test_measure_subset_selection(self):
        values = numeric_measures("ABC_I", 0.7, 0.2, 0.1, ("C",))
        assert set(values) == {"C"}

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError, match="unknown measures"):
            numeric_measures("ABC_I", 0.7, 0.2, 0.1, ("S", "Q"))

    @pytest.mark.parametrize("name", NON_X_SCENARIOS)
    def test_non_x_scenarios_leave_s_and_e_undefined(self, name):
        """Keeping both wedge modes of one observer couples basis states two
        bit flips apart, which breaks the X pattern; S and E rely on it."""
        values = numeric_measures(name, ALPHA_GHZ, math.pi / 6, 0.3)
        assert math.isnan(values["S"])
        assert math.isnan(values["E"])
        assert values["C"] == pytest.approx(0.30310889132455343, abs=1e-13)

    @pytest.mark.parametrize("name", NON_X_SCENARIOS)
    def test_x_test_is_decided_per_point(self, name):
        """The two-flip coherence vanishes on the beta = 0 row and the p = 1
        column, so S and E are finite there and only there."""
        betas = np.linspace(0.0, BETA_MAX, 5)[:, None]
        ps = np.linspace(0.0, 1.0, 5)
        values = numeric_batch(name, ALPHA_GHZ, betas, ps)
        on_x = (betas == 0.0) | (ps == 1.0)
        for measure in ("S", "E"):
            assert np.array_equal(np.isfinite(values[measure]), on_x), measure
        assert np.isfinite(values["C"]).all()

    def test_full_damping_leaves_ground_state_statistics(self):
        values = numeric_measures("AB_I_C_I", 0.8, 0.5, 1.0)
        assert values["C"] == pytest.approx(0.0, abs=1e-14)
        assert values["E"] == pytest.approx(0.0, abs=1e-14)


class TestIsXStructured:
    @pytest.mark.parametrize("name", X_SCENARIOS)
    def test_x_scenarios(self, name):
        assert is_x_structured(name)

    @pytest.mark.parametrize("name", NON_X_SCENARIOS)
    def test_non_x_scenarios(self, name):
        assert not is_x_structured(name)


def _unit_interval_with_ends(hi: float = 1.0):
    return st.one_of(st.sampled_from([0.0, hi]), st.floats(0.0, hi))


class TestNumericBatch:
    @settings(max_examples=40, deadline=None)
    @given(
        points=st.lists(
            st.tuples(
                _unit_interval_with_ends(),
                _unit_interval_with_ends(BETA_MAX),
                _unit_interval_with_ends(),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_matches_reduce_kraus_extract_path(self, points):
        """Each point of a batch, every scenario, agrees with the scalar
        reference path: reduce, the independent block-map damping oracle,
        X extraction, then the measure functions. A point without the X
        pattern is NaN for S/E on both sides."""
        alphas, betas, ps = (np.array(axis) for axis in zip(*points))
        for name, scen in SCENARIOS.items():
            batch = numeric_batch(name, alphas, betas, ps)
            for n, (alpha, beta, p) in enumerate(points):
                rho = scenario_reduced_state(GhzParams(alpha), UnruhParams(beta), scen)
                mat = rho.matrix
                for mode in scen.damped_modes:
                    mat = damp_qubit_oracle(mat, 3, rho.register.position(mode), p)
                rho = DensityOperator(rho.register, mat)
                try:
                    x = extract_xstate(rho)
                    expected = {"S": gtn(x), "E": gte(x)}
                except StructureError:
                    expected = {"S": math.nan, "E": math.nan}
                expected["C"] = coherence_l1(rho)
                for measure, want in expected.items():
                    got = batch[measure][n]
                    where = (name, measure, alpha, beta, p)
                    assert math.isnan(got) == math.isnan(want), where
                    if not math.isnan(want):
                        assert abs(got - want) <= 1e-13, where

    def test_rejects_p_outside_unit_interval(self):
        with pytest.raises(ParameterError, match="outside"):
            numeric_batch("ABC_I", 0.7, 0.2, np.array([0.5, 1.0 + 1e-13]))


@pytest.fixture
def build_sizes(monkeypatch) -> list[int]:
    """Number of reduced matrices of each call to the batched builder."""
    sizes: list[int] = []
    build = engine.scenario_reduced_stack

    def counting(alpha, beta, scen):
        stack = build(alpha, beta, scen)
        sizes.append(len(stack))
        return stack

    monkeypatch.setattr(engine, "scenario_reduced_stack", counting)
    return sizes


class TestReducedBuilds:
    def test_grid_builds_one_matrix_per_beta_row(self, build_sizes):
        betas = np.linspace(0.0, BETA_MAX, 5)[:, None]
        ps = np.linspace(0.0, 1.0, 101)
        numeric_batch("AB_I_C_I", ALPHA_GHZ, betas, ps, MEASURES)
        assert sum(build_sizes) == 5

    @pytest.mark.parametrize("name", ["AB_I_C_I", "AB_I_B_II"])
    def test_blocks_are_byte_identical_to_one_pass(self, monkeypatch, build_sizes, name):
        """Points split over several blocks give the bytes of one block, and
        no block builds more matrices than it has points."""
        rng = np.random.default_rng(11)
        alphas = rng.uniform(0.0, 1.0, (3, 1))
        betas = rng.uniform(0.0, BETA_MAX, (3, 4))
        ps = rng.uniform(0.0, 1.0, (2, 1, 4))
        whole = numeric_batch(name, alphas, betas, ps)
        assert build_sizes == [12]
        build_sizes.clear()
        monkeypatch.setattr(engine, "BLOCK_POINTS", 5)
        split = numeric_batch(name, alphas, betas, ps)
        assert len(build_sizes) == 5 and max(build_sizes) <= 5
        for measure in MEASURES:
            assert split[measure].shape == whole[measure].shape == (2, 3, 4)
            assert split[measure].tobytes() == whole[measure].tobytes(), measure
