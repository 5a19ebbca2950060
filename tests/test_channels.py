"""Amplitude-damping channel: Kraus structure, analytic action, and the
physical laws it must obey (trace preservation, positivity, commutation
with discarding untouched modes)."""
from __future__ import annotations

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzsim import (
    BETA_MAX,
    SCENARIOS,
    DampingParams,
    DensityOperator,
    ModeLabel,
    ModeRegister,
    ParameterError,
    amplitude_damping_kraus,
    apply_damping,
    partial_trace,
    validate_density,
)
from ghzsim.channels import block_plan, damp_entries
from ghzsim.unruh import scenario_reduced_entries
from conftest import damp_qubit_oracle, random_density_matrix

ABC = ModeRegister((ModeLabel.A, ModeLabel.B, ModeLabel.C))


def damp_all_entries(stack: np.ndarray, positions, p) -> np.ndarray:
    """The damping kernel on every entry of an (N, d, d) stack: its
    (d^2, N) rows under the plan over the full support np.arange(d^2)."""
    dim = stack.shape[-1]
    rows = stack.reshape(len(stack), dim * dim).T.copy()
    damp_entries(rows, block_plan(np.arange(dim * dim), dim, positions), p)
    return np.ascontiguousarray(rows.T).reshape(stack.shape)


class TestKrausPair:
    @pytest.mark.parametrize("p", [0.0, 0.17, 0.5, 1.0])
    def test_completeness(self, p):
        pair = amplitude_damping_kraus(DampingParams(p))
        assert pair.completeness_deviation() < 1e-15

    def test_decay_element(self):
        pair = amplitude_damping_kraus(DampingParams(0.36))
        assert pair.m1[0, 1] == pytest.approx(0.6)
        assert pair.m0[1, 1] == pytest.approx(0.8)

    @pytest.mark.parametrize("p", [-0.2, 1.5])
    def test_probability_range(self, p):
        with pytest.raises(ParameterError):
            DampingParams(p)


class TestApplyDamping:
    def test_identity_at_p_zero(self, rng):
        rho = DensityOperator(ABC, random_density_matrix(rng, 8))
        out = apply_damping(rho, [ModeLabel.B], DampingParams(0.0))
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-15)

    def test_full_decay_grounds_the_target(self, rng):
        rho = DensityOperator(ABC, random_density_matrix(rng, 8))
        out = apply_damping(rho, [ModeLabel.C], DampingParams(1.0))
        reduced = partial_trace(out, {ModeLabel.C})
        np.testing.assert_allclose(reduced.matrix, np.diag([1.0, 0.0]), atol=1e-14)

    def test_matches_block_map_oracle(self, rng):
        rho = DensityOperator(ABC, random_density_matrix(rng, 8))
        p = 0.42
        for label, pos in [(ModeLabel.A, 0), (ModeLabel.B, 1), (ModeLabel.C, 2)]:
            out = apply_damping(rho, [label], DampingParams(p))
            expected = damp_qubit_oracle(rho.matrix, 3, pos, p)
            np.testing.assert_allclose(out.matrix, expected, atol=1e-14)

    def test_matches_kraus_sum_of_the_defining_pair(self, rng):
        """The block map is the Kraus sum of `amplitude_damping_kraus`."""
        rho = DensityOperator(ABC, random_density_matrix(rng, 8))
        pair = amplitude_damping_kraus(DampingParams(0.42))
        for label, pos in [(ModeLabel.A, 0), (ModeLabel.B, 1), (ModeLabel.C, 2)]:
            ops = [
                reduce(np.kron, [k if i == pos else np.eye(2) for i in range(3)])
                for k in (pair.m0, pair.m1)
            ]
            expected = sum(op @ rho.matrix @ op.conj().T for op in ops)
            out = apply_damping(rho, [label], DampingParams(0.42))
            np.testing.assert_allclose(out.matrix, expected, atol=1e-14)

    def test_two_targets_compose_single_target_maps(self, rng):
        rho = DensityOperator(ABC, random_density_matrix(rng, 8))
        p = 0.3
        both = apply_damping(rho, [ModeLabel.A, ModeLabel.C], DampingParams(p))
        expected = damp_qubit_oracle(
            damp_qubit_oracle(rho.matrix, 3, 0, p), 3, 2, p
        )
        np.testing.assert_allclose(both.matrix, expected, atol=1e-14)

    def test_target_order_is_irrelevant(self, rng):
        rho = DensityOperator(ABC, random_density_matrix(rng, 8))
        a = apply_damping(rho, [ModeLabel.A, ModeLabel.B], DampingParams(0.6))
        b = apply_damping(rho, [ModeLabel.B, ModeLabel.A], DampingParams(0.6))
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_target_count_guard(self, rng):
        rho = DensityOperator(ABC, random_density_matrix(rng, 8))
        with pytest.raises(ParameterError):
            apply_damping(rho, [], DampingParams(0.5))
        with pytest.raises(ParameterError):
            apply_damping(
                rho, [ModeLabel.A, ModeLabel.B, ModeLabel.C], DampingParams(0.5)
            )

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.floats(0.0, 1.0))
    def test_output_is_a_density_matrix(self, seed, p):
        mat = random_density_matrix(np.random.default_rng(seed), 8)
        out = apply_damping(
            DensityOperator(ABC, mat), [ModeLabel.B], DampingParams(p)
        )
        report = validate_density(out)
        assert report.trace_deviation < 1e-13
        assert report.min_eigenvalue >= -1e-12

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.floats(0.0, 1.0))
    def test_commutes_with_discarding_untouched_modes(self, seed, p):
        """Damping B then tracing out C equals tracing out C then damping B."""
        mat = random_density_matrix(np.random.default_rng(seed), 8)
        rho = DensityOperator(ABC, mat)
        params = DampingParams(p)
        damp_first = partial_trace(
            apply_damping(rho, [ModeLabel.B], params), {ModeLabel.A, ModeLabel.B}
        )
        trace_first = apply_damping(
            partial_trace(rho, {ModeLabel.A, ModeLabel.B}), [ModeLabel.B], params
        )
        np.testing.assert_allclose(damp_first.matrix, trace_first.matrix, atol=1e-13)


class TestDampEntriesOnFullSupport:
    def test_per_point_probability_matches_oracle(self, rng):
        """Every matrix of an (N, 8, 8) stack is damped at its own p, with
        the composed oracle's arithmetic: the same bits, signed zeros
        included."""
        ps = np.array([0.0, 1e-12, 0.13, 0.5, 0.77, 1.0])
        mats = np.array([random_density_matrix(rng, 8) for _ in ps])
        mats[0, 0, 7] = -0.0
        for positions in ([1], [0, 2], [1, 2], [0, 1, 2]):
            out = damp_all_entries(mats, positions, ps)
            for mat, p, got in zip(mats, ps, out):
                expected = mat
                for pos in positions:
                    expected = damp_qubit_oracle(expected, 3, pos, p)
                assert np.array_equal(got.view(np.int64), expected.view(np.int64)), positions

    def test_two_mode_stack_with_scalar_probability(self, rng):
        mats = np.array([random_density_matrix(rng, 4) for _ in range(3)])
        out = damp_all_entries(mats, [0], 0.4)
        for mat, got in zip(mats, out):
            np.testing.assert_allclose(got, damp_qubit_oracle(mat, 2, 0, 0.4), atol=1e-14)

    @pytest.mark.parametrize("p", [-1e-13, 1.0 + 1e-13, float("nan")])
    def test_rejects_probability_outside_unit_interval(self, rng, p):
        stack = random_density_matrix(rng, 8)[None]
        with pytest.raises(ParameterError, match="outside"):
            damp_all_entries(stack, [0], np.array([p]))


#: Probabilities k/4096 over [0, 1], ends included: 1 - (1-p)(1-q) of two
#: of them is exact in float64.
_DYADIC = st.integers(0, 4096).map(lambda k: k / 4096)


class TestDampingSemigroup:
    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(SCENARIOS)),
        alpha=st.floats(0.0, 1.0),
        beta=st.floats(0.0, BETA_MAX),
        p=_DYADIC,
        q=_DYADIC,
    )
    def test_damping_at_p_then_q_is_damping_at_the_combined_probability(
        self, name, alpha, beta, p, q
    ):
        """Decay survived with probability 1 - p and then 1 - q is survived
        with probability (1 - p)(1 - q): the channels form a semigroup. On
        the dyadic grid the combined probability is exact, so only the
        channel's own rounding is compared."""
        scen = SCENARIOS[name]
        plan = block_plan(np.arange(64), 8, [scen.regions.index(m) for m in scen.damped_modes])
        rho = scenario_reduced_entries(alpha, beta, scen, np.arange(64))
        twice = damp_entries(damp_entries(rho.copy(), plan, p), plan, q)
        once = damp_entries(rho.copy(), plan, 1.0 - (1.0 - p) * (1.0 - q))
        np.testing.assert_allclose(twice, once, rtol=0, atol=1e-14)
