"""Amplitude-damping channel: the damping kernel against the channel's
Kraus definition and analytic action, and the physical laws it must obey
(trace preservation, positivity, commutation with discarding untouched
modes)."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzsim import BETA_MAX, SCENARIOS
from ghzsim.channels import block_plan, damp_entries
from ghzsim.unruh import scenario_reduced_entries
from conftest import (
    damp_all_entries,
    damp_one,
    damp_qubit_oracle,
    density_deviations,
    kraus_pair_oracle,
    kraus_sum_oracle,
    random_density_matrix,
    trace_out_oracle,
)


class TestKrausPair:
    @pytest.mark.parametrize("p", [0.0, 0.17, 0.5, 1.0])
    def test_completeness(self, p):
        m0, m1 = kraus_pair_oracle(p)
        total = m0.conj().T @ m0 + m1.conj().T @ m1
        assert np.max(np.abs(total - np.eye(2))) < 1e-15


class TestDampingMap:
    def test_identity_at_p_zero(self, rng):
        mat = random_density_matrix(rng, 8)
        np.testing.assert_allclose(damp_one(mat, [1], 0.0), mat, atol=1e-15)

    def test_full_decay_grounds_the_target(self, rng):
        out = damp_one(random_density_matrix(rng, 8), [2], 1.0)
        np.testing.assert_allclose(trace_out_oracle(out, 3, [2]), np.diag([1.0, 0.0]), atol=1e-14)

    def test_matches_block_map_oracle(self, rng):
        mat = random_density_matrix(rng, 8)
        p = 0.42
        for pos in range(3):
            expected = damp_qubit_oracle(mat, 3, pos, p)
            np.testing.assert_allclose(damp_one(mat, [pos], p), expected, atol=1e-14)

    @pytest.mark.parametrize("positions", [[0], [1], [2], [0, 2], [1, 2]])
    def test_matches_kraus_sum_of_the_defining_pair(self, rng, positions):
        """The block map is the Kraus sum of the channel's defining pair, on
        one target and on two."""
        mat = random_density_matrix(rng, 8)
        expected = kraus_sum_oracle(mat, 3, positions, 0.42)
        np.testing.assert_allclose(damp_one(mat, positions, 0.42), expected, atol=1e-14)

    def test_two_targets_compose_single_target_maps(self, rng):
        mat = random_density_matrix(rng, 8)
        p = 0.3
        expected = damp_qubit_oracle(damp_qubit_oracle(mat, 3, 0, p), 3, 2, p)
        np.testing.assert_allclose(damp_one(mat, [0, 2], p), expected, atol=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.floats(0.0, 1.0))
    def test_output_is_a_density_matrix(self, seed, p):
        mat = random_density_matrix(np.random.default_rng(seed), 8)
        _, trace_dev, min_eig = density_deviations(damp_one(mat, [1], p))
        assert trace_dev < 1e-13
        assert min_eig >= -1e-12

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.floats(0.0, 1.0))
    def test_commutes_with_discarding_untouched_modes(self, seed, p):
        """Damping B then tracing out C equals tracing out C then damping B."""
        mat = random_density_matrix(np.random.default_rng(seed), 8)
        damp_first = trace_out_oracle(damp_one(mat, [1], p), 3, [0, 1])
        trace_first = damp_one(trace_out_oracle(mat, 3, [0, 1]), [1], p)
        np.testing.assert_allclose(damp_first, trace_first, atol=1e-13)


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
