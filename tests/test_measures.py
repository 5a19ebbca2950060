"""The X-state test and the three quantumness measures, evaluated through
the support-row kernel on the full support np.arange(64), one matrix at a
time and against the dense oracle on random stacks."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzsim.engine import MEASURES, _slots, off_pattern, support_measures
from conftest import _OFF_X, dense_measures_oracle, random_density_matrix

SQRT2_8 = 8.0 * math.sqrt(2.0)


def x_matrix(d, e, f) -> np.ndarray:
    """Assemble the 8x8 matrix with the standard X-state slot convention."""
    mat = np.zeros((8, 8), dtype=complex)
    for i in range(4):
        mat[i, i] = d[i]
        mat[7 - i, 7 - i] = e[i]
        mat[i, 7 - i] = f[i]
        mat[7 - i, i] = np.conj(f[i])
    return mat


def measures_of(mat: np.ndarray, measures=MEASURES) -> dict[str, float]:
    values = support_measures(mat.reshape(64, 1), np.arange(64), measures)
    return {m: float(v[0]) for m, v in values.items()}


def s_value(d, e, f) -> float:
    return measures_of(x_matrix(d, e, f), ("S",))["S"]


def e_value(d, e, f) -> float:
    return measures_of(x_matrix(d, e, f), ("E",))["E"]


GHZ = x_matrix([0.5, 0, 0, 0], [0.5, 0, 0, 0], [0.5, 0, 0, 0])


class TestExtractXstate:
    """Slot reading and the X test."""

    def test_off_pattern_is_the_complement_of_the_x_pattern(self):
        """The 48 entries off both diagonals, read the same on any support."""
        assert np.array_equal(off_pattern(np.arange(64)).reshape(8, 8), _OFF_X)
        support = np.array([0, 3, 7, 9, 14, 18, 27, 36, 49, 56, 63])
        assert np.array_equal(off_pattern(support), _OFF_X.ravel()[support])

    def test_slot_convention(self):
        d = (0.1, 0.2, 0.05, 0.15)
        e = (0.2, 0.1, 0.1, 0.1)
        f = (0.04j, 0.03, -0.02, 0.01)
        got_d, got_e, got_f = _slots(x_matrix(d, e, f).reshape(64, 1), np.arange(64))
        assert got_d[:, 0].tolist() == pytest.approx(d)
        assert got_e[:, 0].tolist() == pytest.approx(e)
        assert got_f[:, 0].tolist() == pytest.approx(f)

    def test_rejects_off_pattern_entry(self):
        mat = GHZ.copy()
        mat[0, 3] = mat[3, 0] = 1e-6
        values = measures_of(mat)
        assert math.isnan(values["S"]) and math.isnan(values["E"])
        assert values["C"] == pytest.approx(1.0 + 2e-6)


class TestGtn:
    """The Svetlichny value S."""

    def test_ghz_saturates_tsirelson_like_value(self):
        assert measures_of(GHZ)["S"] == pytest.approx(4.0 * math.sqrt(2.0))

    def test_diagonal_branch(self):
        """With no coherence the value is 4|N| from the population signs."""
        value = s_value((0.4, 0.1, 0.1, 0.0), (0.3, 0.05, 0.05, 0.0), (0, 0, 0, 0))
        n = 0.4 - 0.1 - 0.1 + 0.0 - 0.0 + 0.05 + 0.05 - 0.3
        assert value == pytest.approx(4.0 * abs(n))

    def test_coherence_branch_uses_largest_slot(self):
        value = s_value((0.25,) * 4, (0.25,) * 4, (0.01, 0.2, 0.05, 0.0))
        assert value == pytest.approx(SQRT2_8 * 0.2)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_nonnegative_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        diag = rng.dirichlet(np.ones(8))
        d, e = tuple(diag[:4]), tuple(diag[7:3:-1])
        f = tuple(rng.uniform(-1, 1, 4) * np.sqrt(np.array(d) * np.array(e)))
        value = s_value(d, e, f)
        assert 0.0 <= value <= SQRT2_8 + 1e-12


class TestGte:
    """The genuine tripartite entanglement E."""

    def test_ghz_is_maximally_entangled(self):
        assert measures_of(GHZ)["E"] == pytest.approx(1.0)

    def test_cross_populations_suppress_entanglement(self):
        value = e_value((0.3, 0.1, 0, 0), (0.3, 0.3, 0, 0), (0.2, 0, 0, 0))
        m1 = math.sqrt(0.1 * 0.3)
        assert value == pytest.approx(2.0 * (0.2 - m1))

    def test_clips_to_zero(self):
        assert e_value((0.2, 0.2, 0.1, 0), (0.2, 0.2, 0.1, 0), (0.01, 0, 0, 0)) == 0.0

    def test_separable_diagonal_state(self):
        assert e_value((0.5, 0, 0, 0), (0.5, 0, 0, 0), (0, 0, 0, 0)) == 0.0


class TestCoherence:
    """The l1-coherence C."""

    def test_ghz_value(self):
        assert measures_of(GHZ)["C"] == pytest.approx(1.0)

    def test_equals_twice_antidiagonal_sum_on_x_states(self):
        f = (0.1, 0.05j, -0.02, 0.03)
        mat = x_matrix((0.2, 0.1, 0.1, 0.1), (0.2, 0.1, 0.1, 0.1), f)
        expected = 2.0 * sum(abs(fi) for fi in f)
        assert measures_of(mat)["C"] == pytest.approx(expected)

    def test_diagonal_state_has_no_coherence(self):
        assert measures_of(np.diag(np.full(8, 0.125 + 0j)))["C"] == 0.0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_nonnegative_on_random_states(self, seed):
        mat = random_density_matrix(np.random.default_rng(seed), 8)
        assert measures_of(mat, ("C",))["C"] >= 0.0


class TestFullSupportKernel:
    """The support-row kernel on all 64 entries must give the dense oracle's
    bits on any complex stack."""

    @pytest.mark.parametrize("n", [1, 7, 300])
    def test_bit_identical_to_dense_oracle(self, rng, n):
        stack = rng.normal(size=(n, 8, 8)) + 1j * rng.normal(size=(n, 8, 8))
        stack[rng.random((n, 8, 8)) < 0.3] = 0.0
        # A third X-structured, a third whose off-pattern entries are all
        # -0.0, all +0.0, or -0.0 but for one 5e-324, in turn, a third dense.
        off = ~(np.eye(8, dtype=bool) | np.eye(8, dtype=bool)[::-1])
        stack[: n // 3, off] = 0.0
        zeros = stack[n // 3 : 2 * n // 3]
        zeros[:, off] = complex(-0.0, -0.0)
        zeros[1::3, off] = 0.0
        zeros[2::3, 0, 3] = 5e-324
        stack[:, [2, 5], [2, 5]] = -0.0
        got = support_measures(stack.reshape(n, 64).T, np.arange(64), MEASURES)
        want = dense_measures_oracle(stack, MEASURES)
        for measure in MEASURES:
            # int64 views: signed zeros and NaN payloads count.
            assert np.array_equal(got[measure].view(np.int64), want[measure].view(np.int64)), measure
        x = np.ones(n, dtype=bool)
        x[2 * n // 3 :] = False
        x[n // 3 : 2 * n // 3][2::3] = False
        for measure in ("S", "E"):
            assert np.array_equal(np.isfinite(got[measure]), x), measure
