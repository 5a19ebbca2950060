"""State preparation, wedge-mode expansion and scenario reduction."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzsim import (
    BETA_MAX,
    SCENARIOS,
    ConfigError,
    damped_scenario_state,
    is_x_structured,
    numeric_batch,
    scenario,
)
from ghzsim.engine import scenario_reduced_entries
from conftest import (
    density_deviations,
    expanded_from_name,
    expanded_ghz_oracle,
    ghz_oracle,
    modes_from_name,
    random_density_matrix,
    register_reduced_oracle,
    trace_out_oracle,
    wedge_expand_oracle,
)

ALPHA_GHZ = 1.0 / math.sqrt(2.0)


class TestParams:
    """The whole-matrix function checks alpha and beta at the engine entry."""

    @pytest.mark.parametrize("alpha", [-0.1, 1.1])
    def test_alpha_range(self, alpha):
        with pytest.raises(ConfigError):
            damped_scenario_state("ABC_I", alpha, 0.3, 0.0)

    @pytest.mark.parametrize("beta", [-0.01, math.pi / 4 + 0.01])
    def test_beta_range(self, beta):
        with pytest.raises(ConfigError):
            damped_scenario_state("ABC_I", 0.6, beta, 0.0)

    def test_beta_endpoints_allowed(self):
        damped_scenario_state("ABC_I", 0.6, 0.0, 0.0)
        damped_scenario_state("ABC_I", 0.6, BETA_MAX, 0.0)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_by_name(self, name):
        """A name resolves to its own table row: at p = 0 the whole-matrix
        function gives the bits of the kernel on that row."""
        by_name = damped_scenario_state(name, 0.7, 0.3, 0.0)
        assert by_name.tobytes() == reduced_matrices(0.7, 0.3, scenario(name))[0].tobytes()

    def test_unknown_scenario_name(self):
        """Every public function resolves a name the same way."""
        with pytest.raises(ConfigError, match="unknown scenario 'ABC_III'"):
            numeric_batch("ABC_III", 0.7, 0.3, 0.0)
        with pytest.raises(ConfigError, match="unknown scenario 'ABC_III'"):
            damped_scenario_state("ABC_III", 0.7, 0.3, 0.1)
        with pytest.raises(ConfigError, match="unknown scenario 'ABC_III'"):
            is_x_structured("ABC_III")


class TestTraceOutOracle:
    """The einsum partial trace that every reference reduction uses."""

    def test_product_state_factors_cleanly(self, rng):
        a = random_density_matrix(rng, 2)
        bc = random_density_matrix(rng, 4)
        np.testing.assert_allclose(trace_out_oracle(np.kron(a, bc), 3, [1, 2]), bc, atol=1e-14)

    def test_keep_all_is_identity(self, rng):
        mat = random_density_matrix(rng, 8)
        np.testing.assert_array_equal(trace_out_oracle(mat, 3, [0, 1, 2]), mat)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), keep_bit=st.integers(0, 2))
    def test_preserves_trace_and_hermiticity(self, seed, keep_bit):
        mat = random_density_matrix(np.random.default_rng(seed), 8)
        reduced = trace_out_oracle(mat, 3, [keep_bit])
        assert np.trace(reduced) == pytest.approx(1.0, abs=1e-13)
        np.testing.assert_allclose(reduced, reduced.conj().T, atol=1e-14)


class TestBuildGhz:
    """The register-level reference state that the batched builder is held
    to bit for bit (`conftest.ghz_oracle`)."""

    def test_amplitudes(self):
        _, vec = ghz_oracle(0.6)
        assert vec[0b000] == pytest.approx(0.6)
        assert vec[0b111] == pytest.approx(0.8)
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_register_order(self):
        modes, _ = ghz_oracle(0.5)
        assert modes == ("A", "B", "C")


class TestUnruhExpand:
    """The reference wedge expansion (`conftest.wedge_expand_oracle`)."""

    def test_vacuum_mode_splits(self):
        beta = 0.3
        modes, vec = wedge_expand_oracle(("C",), np.array([1.0, 0.0]), "C", beta)
        assert modes == ("C_I", "C_II")
        assert vec[0b00] == pytest.approx(math.cos(beta))
        assert vec[0b11] == pytest.approx(math.sin(beta))

    def test_excited_mode_stays_in_accessible_wedge(self):
        _, vec = wedge_expand_oracle(("C",), np.array([0.0, 1.0]), "C", 0.7)
        assert vec[0b10] == pytest.approx(1.0)

    def test_wedge_pair_inserted_in_place(self):
        modes, _ = wedge_expand_oracle(*ghz_oracle(ALPHA_GHZ), "B", 0.2)
        assert modes == ("A", "B_I", "B_II", "C")

    def test_preserves_norm(self):
        _, vec = wedge_expand_oracle(*ghz_oracle(0.8), "C", 0.5)
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_inertial_limit_is_vacuum_padding(self):
        _, vec = wedge_expand_oracle(*ghz_oracle(0.8), "C", 0.0)
        assert vec[0b0000] == pytest.approx(0.8)
        assert vec[0b1110] == pytest.approx(0.6)

    def test_mode_without_expansion(self):
        with pytest.raises(ValueError, match="mode A cannot be expanded"):
            wedge_expand_oracle(*ghz_oracle(0.5), "A", 0.1)

    def test_double_expansion_rejected(self):
        once = wedge_expand_oracle(*ghz_oracle(0.5), "C", 0.1)
        with pytest.raises(ValueError, match="mode C cannot be expanded"):
            wedge_expand_oracle(*once, "C", 0.1)

    @settings(max_examples=25, deadline=None)
    @given(
        alpha=st.floats(0.0, 1.0),
        beta=st.floats(0.0, BETA_MAX),
    )
    def test_expansion_is_an_isometry(self, alpha, beta):
        _, vec = wedge_expand_oracle(*ghz_oracle(alpha), "C", beta)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


class TestScenarios:
    def test_catalog_names(self):
        assert sorted(SCENARIOS) == [
            "ABC_I",
            "ABC_II",
            "AB_II_C_I",
            "AB_II_C_II",
            "AB_I_B_II",
            "AB_I_C_I",
            "AB_I_C_II",
            "AC_I_C_II",
        ]

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            scenario("ABC_III")

    def test_damped_modes_are_the_kept_wedge_modes(self):
        assert scenario("ABC_I").damped_modes == ("C_I",)
        assert scenario("AB_I_C_II").damped_modes == ("B_I", "C_II")
        assert scenario("AC_I_C_II").damped_modes == ("C_I", "C_II")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
class TestScenarioTable:
    """Each row of the scenario table is consistent, decided from its name
    and the register its expansion leaves."""

    def test_regions_are_three_distinct_modes_of_the_expanded_register(self, name):
        scen = SCENARIOS[name]
        register = ["A", "B", "C"]
        for t in scen.expanded:
            pos = register.index(t)
            register[pos : pos + 1] = [t + "_I", t + "_II"]
        assert len(scen.regions) == 3 and len(set(scen.regions)) == 3
        assert set(scen.regions) <= set(register)
        assert sorted(scen.regions, key=register.index) == list(scen.regions)

    def test_name_spells_the_regions(self, name):
        assert SCENARIOS[name].name == name
        assert SCENARIOS[name].regions == modes_from_name(name)

    def test_bob_is_expanded_unless_the_name_starts_with_abc(self, name):
        assert SCENARIOS[name].expanded == expanded_from_name(name)


class TestScenarioReducedState:
    def test_single_acceleration_accessible_wedge(self):
        """Charlie accelerated, keeping (A, B, C_I): an X-matrix with the
        populations split by cos^2/sin^2 and coherence damped by cos(beta)."""
        alpha, beta = ALPHA_GHZ, math.pi / 6
        rho = damped_scenario_state("ABC_I", alpha, beta, 0.0)
        expected = np.zeros((8, 8), dtype=complex)
        expected[0, 0] = alpha**2 * math.cos(beta) ** 2
        expected[1, 1] = alpha**2 * math.sin(beta) ** 2
        expected[7, 7] = 1.0 - alpha**2
        f1 = alpha * math.sqrt(1.0 - alpha**2) * math.cos(beta)
        expected[0, 7] = expected[7, 0] = f1
        np.testing.assert_allclose(rho, expected, atol=1e-14)

    def test_double_acceleration_populations(self):
        """Both accelerated, keeping (A, B_I, C_I): diagonal weights follow
        cos/sin powers of beta and the |000><111| coherence survives."""
        alpha, beta = 0.6, 0.4
        c2, s2 = math.cos(beta) ** 2, math.sin(beta) ** 2
        rho = damped_scenario_state("AB_I_C_I", alpha, beta, 0.0)
        diag = np.real(np.diag(rho))
        a2 = alpha * alpha
        np.testing.assert_allclose(
            diag,
            [a2 * c2 * c2, a2 * c2 * s2, a2 * s2 * c2, a2 * s2 * s2, 0, 0, 0, 1 - a2],
            atol=1e-14,
        )
        f1 = alpha * c2 * math.sqrt(1.0 - a2)
        assert rho[0, 7] == pytest.approx(f1)

    def test_matches_oracle_reduction(self):
        """Full five-mode expansion contracted with the einsum oracle agrees
        with the pipeline's reduction for every scenario."""
        alpha, beta = 0.7, 0.35
        modes, vec = expanded_ghz_oracle(alpha, beta, scenario("AB_I_C_I"))
        full = np.outer(vec, vec.conj())
        order = {m: i for i, m in enumerate(modes)}
        for name in SCENARIOS:
            if expanded_from_name(name) != ("B", "C"):
                continue
            rho = damped_scenario_state(name, alpha, beta, 0.0)
            keep = [order[m] for m in modes_from_name(name)]
            np.testing.assert_allclose(
                rho, trace_out_oracle(full, 5, keep), atol=1e-14, err_msg=name
            )

    def test_reduced_states_are_valid(self):
        for name in SCENARIOS:
            herm_dev, trace_dev, min_eig = density_deviations(
                damped_scenario_state(name, 0.8, 0.6, 0.0)
            )
            assert herm_dev < 1e-10 and trace_dev < 1e-10 and min_eig >= -1e-10, name

    def test_is_a_plain_real_matrix(self):
        rho = damped_scenario_state("AB_I_C_II", 0.7, 0.3, 0.0)
        assert type(rho) is np.ndarray
        assert rho.shape == (8, 8) and rho.dtype == float


def _ends_or_inside(hi: float):
    return st.one_of(st.sampled_from([0.0, hi]), st.floats(0.0, hi))


def reduced_matrices(alpha, beta, scen) -> np.ndarray:
    """The builder on all 64 entries, as (N, 8, 8) matrices."""
    entries = scenario_reduced_entries(alpha, beta, scen, np.arange(64))
    assert entries.shape[0] == 64 and entries.dtype == float
    return entries.T.reshape(-1, 8, 8)


class TestFullSupportBuild:
    @settings(max_examples=30, deadline=None)
    @given(
        points=st.lists(
            st.tuples(_ends_or_inside(1.0), _ends_or_inside(BETA_MAX)), min_size=1, max_size=6
        )
    )
    def test_bit_equal_to_register_level_path(self, points):
        """Every matrix of the batched build equals the register-level
        reduction exactly, and the einsum oracle to 1e-15, in all scenarios."""
        alphas, betas = (np.array(axis) for axis in zip(*points))
        for name, scen in SCENARIOS.items():
            stack = reduced_matrices(alphas, betas, scen)
            assert stack.shape == (len(points), 8, 8)
            for k, (alpha, beta) in enumerate(points):
                where = (name, alpha, beta)
                assert np.array_equal(stack[k], register_reduced_oracle(alpha, beta, scen)), where
                modes, vec = expanded_ghz_oracle(alpha, beta, scen)
                full = np.outer(vec, vec.conj())
                keep = [modes.index(m) for m in modes_from_name(name)]
                oracle = trace_out_oracle(full, len(modes), keep)
                assert np.max(np.abs(stack[k] - oracle)) <= 1e-15, where

    def test_one_matrix_per_element_of_the_broadcast(self):
        betas = np.linspace(0.0, BETA_MAX, 4)
        stack = reduced_matrices(0.6, betas[:, None] * np.ones(3), scenario("ABC_II"))
        assert stack.shape == (12, 8, 8)
        for k, beta in enumerate(np.repeat(betas, 3)):
            assert np.array_equal(stack[k], register_reduced_oracle(0.6, float(beta), scenario("ABC_II")))

    def test_whole_matrix_builder_rejects_nan(self):
        with pytest.raises(ConfigError):
            damped_scenario_state("ABC_I", math.nan, 0.3, 0.0)
        with pytest.raises(ConfigError):
            damped_scenario_state("ABC_I", 0.6, math.nan, 0.0)


class TestUnruhChannel:
    """On a kept _I mode the expansion followed by the trace over _II is a
    qubit channel with the Kraus pair diag(cos beta, 1) and sin beta |1><0|:
    |0><0| -> cos^2 |0><0| + sin^2 |1><1|, |1><1| -> |1><1| and |0><1| ->
    cos |0><1|. It composes in cos beta, as damping composes in 1 - p
    (test_channels.TestDampingSemigroup): the state at beta is the channel
    at c = cos beta / cos beta_0 applied to the state at any beta_0 <= beta."""

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=_ends_or_inside(1.0),
        betas=st.lists(_ends_or_inside(BETA_MAX), min_size=2, max_size=2),
    )
    def test_expansions_compose_as_a_channel_on_qubit_c(self, alpha, betas):
        beta_0, beta = sorted(betas)
        c = math.cos(beta) / math.cos(beta_0)
        pair = (np.diag([c, 1.0]), np.array([[0.0, 0.0], [math.sqrt(max(0.0, 1.0 - c * c)), 0.0]]))
        ops = [np.kron(np.eye(4), k) for k in pair]
        earlier = damped_scenario_state("ABC_I", alpha, beta_0, 0.0)
        want = sum(op @ earlier @ op.T for op in ops)
        got = damped_scenario_state("ABC_I", alpha, beta, 0.0)
        assert np.max(np.abs(got - want)) <= 1e-14, (beta_0, beta)
