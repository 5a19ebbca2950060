"""X-state extraction and the three quantumness measures."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzsim import (
    DensityOperator,
    ModeLabel,
    ModeRegister,
    SizeError,
    StructureError,
    XState,
    coherence_l1,
    extract_xstate,
    gte,
    gtn,
)
from conftest import random_density_matrix

ABC = ModeRegister((ModeLabel.A, ModeLabel.B, ModeLabel.C))
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


GHZ = x_matrix([0.5, 0, 0, 0], [0.5, 0, 0, 0], [0.5, 0, 0, 0])


class TestExtractXstate:
    def test_slot_convention(self):
        d = (0.1, 0.2, 0.05, 0.15)
        e = (0.2, 0.1, 0.1, 0.1)
        f = (0.04j, 0.03, -0.02, 0.01)
        x = extract_xstate(DensityOperator(ABC, x_matrix(d, e, f)))
        assert x.d == pytest.approx(d)
        assert x.e == pytest.approx(e)
        assert x.f == pytest.approx(f)

    def test_rejects_off_pattern_entry(self):
        mat = GHZ.copy()
        mat[0, 3] = mat[3, 0] = 1e-6
        with pytest.raises(StructureError, match="not X-structured"):
            extract_xstate(DensityOperator(ABC, mat))

    def test_reports_first_worst_entry_in_row_major_order(self):
        mat = GHZ.copy()
        mat[1, 2] = mat[2, 1] = 1e-6
        mat[0, 3] = mat[3, 0] = 1e-6
        with pytest.raises(StructureError, match=r"entry \(0, 3\) has magnitude 1\.000e-06"):
            extract_xstate(DensityOperator(ABC, mat))

    def test_tolerance_is_respected(self):
        mat = GHZ.copy()
        mat[0, 3] = mat[3, 0] = 1e-6
        x = extract_xstate(DensityOperator(ABC, mat), tol=1e-5)
        assert x.f[0] == pytest.approx(0.5)

    def test_rejects_wrong_size(self):
        reg = ModeRegister((ModeLabel.A, ModeLabel.B))
        with pytest.raises(SizeError):
            extract_xstate(DensityOperator(reg, np.eye(4) / 4.0))


class TestGtn:
    def test_ghz_saturates_tsirelson_like_value(self):
        assert gtn(extract_xstate(DensityOperator(ABC, GHZ))) == pytest.approx(
            4.0 * math.sqrt(2.0)
        )

    def test_diagonal_branch(self):
        """With no coherence the value is 4|N| from the population signs."""
        x = XState((0.4, 0.1, 0.1, 0.0), (0.3, 0.05, 0.05, 0.0), (0, 0, 0, 0))
        n = 0.4 - 0.1 - 0.1 + 0.0 - 0.0 + 0.05 + 0.05 - 0.3
        assert gtn(x) == pytest.approx(4.0 * abs(n))

    def test_coherence_branch_uses_largest_slot(self):
        x = XState((0.25,) * 4, (0.25,) * 4, (0.01, 0.2, 0.05, 0.0))
        assert gtn(x) == pytest.approx(SQRT2_8 * 0.2)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_nonnegative_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        diag = rng.dirichlet(np.ones(8))
        d, e = tuple(diag[:4]), tuple(diag[7:3:-1])
        f = tuple(rng.uniform(-1, 1, 4) * np.sqrt(np.array(d) * np.array(e)))
        value = gtn(XState(d, e, f))
        assert 0.0 <= value <= SQRT2_8 + 1e-12


class TestGte:
    def test_ghz_is_maximally_entangled(self):
        assert gte(extract_xstate(DensityOperator(ABC, GHZ))) == pytest.approx(1.0)

    def test_cross_populations_suppress_entanglement(self):
        x = XState((0.3, 0.1, 0, 0), (0.3, 0.3, 0, 0), (0.2, 0, 0, 0))
        m1 = math.sqrt(0.1 * 0.3)
        assert gte(x) == pytest.approx(2.0 * (0.2 - m1))

    def test_clips_to_zero(self):
        x = XState((0.2, 0.2, 0.1, 0), (0.2, 0.2, 0.1, 0), (0.01, 0, 0, 0))
        assert gte(x) == 0.0

    def test_separable_diagonal_state(self):
        x = XState((0.5, 0, 0, 0), (0.5, 0, 0, 0), (0, 0, 0, 0))
        assert gte(x) == 0.0


class TestCoherence:
    def test_ghz_value(self):
        assert coherence_l1(DensityOperator(ABC, GHZ)) == pytest.approx(1.0)

    def test_equals_twice_antidiagonal_sum_on_x_states(self):
        f = (0.1, 0.05j, -0.02, 0.03)
        mat = x_matrix((0.2, 0.1, 0.1, 0.1), (0.2, 0.1, 0.1, 0.1), f)
        expected = 2.0 * sum(abs(fi) for fi in f)
        assert coherence_l1(DensityOperator(ABC, mat)) == pytest.approx(expected)

    def test_diagonal_state_has_no_coherence(self):
        rho = DensityOperator(ABC, np.diag(np.full(8, 0.125)))
        assert coherence_l1(rho) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_nonnegative_on_random_states(self, seed):
        mat = random_density_matrix(np.random.default_rng(seed), 8)
        assert coherence_l1(DensityOperator(ABC, mat)) >= 0.0
