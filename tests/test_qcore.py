"""Labeled-register linear algebra: registers, partial traces and
density-matrix validation."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzsim import (
    DensityOperator,
    LabelError,
    ModeLabel,
    ModeRegister,
    SizeError,
    partial_trace,
    validate_density,
)
from conftest import random_density_matrix, trace_out_oracle

ABC = ModeRegister((ModeLabel.A, ModeLabel.B, ModeLabel.C))


class TestModeRegister:
    def test_basic_properties(self):
        assert ABC.n_modes == 3
        assert ABC.dim == 8
        assert ABC.position(ModeLabel.B) == 1

    def test_duplicate_labels_rejected(self):
        with pytest.raises(LabelError):
            ModeRegister((ModeLabel.A, ModeLabel.A))

    def test_empty_register_rejected(self):
        with pytest.raises(SizeError):
            ModeRegister(())

    def test_position_of_missing_label(self):
        with pytest.raises(LabelError):
            ABC.position(ModeLabel.B_II)

    def test_restricted_preserves_order(self):
        sub = ABC.restricted({ModeLabel.C, ModeLabel.A})
        assert sub.modes == (ModeLabel.A, ModeLabel.C)

    def test_restricted_missing_label(self):
        with pytest.raises(LabelError):
            ABC.restricted({ModeLabel.C_I})

    def test_labels_accepted_as_strings(self):
        reg = ModeRegister(("A", "B_I"))
        assert reg.modes == (ModeLabel.A, ModeLabel.B_I)


class TestPartialTrace:
    def test_matches_einsum_oracle(self, rng):
        mat = random_density_matrix(rng, 8)
        rho = DensityOperator(ABC, mat)
        for keep, keep_idx in [
            ({ModeLabel.A}, [0]),
            ({ModeLabel.B}, [1]),
            ({ModeLabel.A, ModeLabel.C}, [0, 2]),
            ({ModeLabel.B, ModeLabel.C}, [1, 2]),
        ]:
            reduced = partial_trace(rho, keep)
            expected = trace_out_oracle(mat, 3, keep_idx)
            np.testing.assert_allclose(reduced.matrix, expected, atol=1e-14)

    def test_product_state_factors_cleanly(self, rng):
        a = random_density_matrix(rng, 2)
        bc = random_density_matrix(rng, 4)
        rho = DensityOperator(ABC, np.kron(a, bc))
        reduced = partial_trace(rho, {ModeLabel.B, ModeLabel.C})
        np.testing.assert_allclose(reduced.matrix, bc, atol=1e-14)

    def test_keep_all_is_identity(self, rng):
        rho = DensityOperator(ABC, random_density_matrix(rng, 8))
        same = partial_trace(rho, set(ABC.modes))
        np.testing.assert_array_equal(same.matrix, rho.matrix)

    def test_register_follows_kept_modes(self, rng):
        rho = DensityOperator(ABC, random_density_matrix(rng, 8))
        reduced = partial_trace(rho, {ModeLabel.C, ModeLabel.A})
        assert reduced.register.modes == (ModeLabel.A, ModeLabel.C)

    def test_empty_keep_rejected(self, rng):
        rho = DensityOperator(ABC, random_density_matrix(rng, 8))
        with pytest.raises(LabelError):
            partial_trace(rho, set())

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), keep_bit=st.integers(0, 2))
    def test_preserves_trace_and_hermiticity(self, seed, keep_bit):
        mat = random_density_matrix(np.random.default_rng(seed), 8)
        rho = DensityOperator(ABC, mat)
        reduced = partial_trace(rho, {ABC.modes[keep_bit]})
        assert reduced.trace() == pytest.approx(1.0, abs=1e-13)
        np.testing.assert_allclose(
            reduced.matrix, reduced.matrix.conj().T, atol=1e-14
        )


class TestValidateDensity:
    def test_clean_state_passes(self, rng):
        rho = DensityOperator(ABC, random_density_matrix(rng, 8))
        report = validate_density(rho)
        assert report.ok
        assert report.min_eigenvalue >= -1e-12

    def test_flags_trace_deviation(self):
        rho = DensityOperator(ABC, np.eye(8) * 0.2)
        report = validate_density(rho)
        assert not report.trace_ok
        assert report.trace_deviation == pytest.approx(0.6)

    def test_flags_negativity(self):
        mat = np.zeros((8, 8), dtype=complex)
        mat[0, 0], mat[7, 7] = 1.2, -0.2
        report = validate_density(DensityOperator(ABC, mat))
        assert not report.positive_ok
        assert report.min_eigenvalue == pytest.approx(-0.2)

    def test_flags_non_hermitian(self):
        mat = np.eye(8, dtype=complex) / 8.0
        mat[0, 1] = 0.5
        report = validate_density(DensityOperator(ABC, mat))
        assert not report.hermitian_ok
