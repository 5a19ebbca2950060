"""Analytic catalog: coverage, agreement with the numeric engine where the
transcribed expressions are sound, and the known divergences the audit is
expected to surface (the numeric engine is authoritative there)."""
from __future__ import annotations

import math

import numpy as np
import pytest

from ghzsim import (
    BETA_MAX,
    CATALOG,
    CoverageError,
    SCENARIOS,
    cf_eval,
    cf_sum_rules,
    numeric_measures,
)
from ghzsim.closedform import SUM_RULES

ALPHA_GHZ = 1.0 / math.sqrt(2.0)
POINT = (ALPHA_GHZ, math.pi / 6, 0.3)

#: (scenario, measure) pairs whose catalog expression tracks the numeric
#: engine; the complement is flagged by the audit as transcription slips.
AGREEING = [
    ("ABC_I", "S"),
    ("ABC_I", "E"),
    ("ABC_I", "C"),
    ("ABC_II", "S"),
    ("ABC_II", "E"),
    ("ABC_II", "C"),
    ("AB_I_C_I", "C"),
    ("AB_I_C_II", "E"),
    ("AB_I_C_II", "C"),
    ("AB_II_C_I", "E"),
    ("AB_II_C_I", "C"),
    ("AB_II_C_II", "E"),
    ("AB_II_C_II", "C"),
    ("AB_I_B_II", "C"),
    ("AC_I_C_II", "C"),
]


class TestCatalog:
    def test_covers_every_scenario_measure(self):
        for name in SCENARIOS:
            for measure in ("S", "E", "C"):
                assert (name, measure) in CATALOG

    def test_unknown_pair(self):
        with pytest.raises(CoverageError):
            cf_eval("ABC_I", "Q", *POINT)

    @pytest.mark.parametrize("name,measure", AGREEING)
    def test_agreement_with_numeric_engine(self, name, measure):
        grid = [(b, p) for b in (0.0, 0.3, math.pi / 4) for p in (0.0, 0.25, 0.8)]
        for beta, p in grid:
            numeric = numeric_measures(name, 0.75, beta, p, (measure,))[measure]
            analytic = cf_eval(name, measure, 0.75, beta, p)
            assert analytic == pytest.approx(numeric, abs=1e-12), (beta, p)

    def test_known_divergence_is_preserved_verbatim(self):
        """The transcribed S expression for (A, B_I, C_I) damps its coherence
        branch like the single-acceleration case; the actual channel output
        damps it by an extra sqrt(1-p)*cos(beta). The expression is kept
        verbatim so the audit can flag it against the engine."""
        numeric = numeric_measures("AB_I_C_I", *POINT, ("S",))["S"]
        analytic = cf_eval("AB_I_C_I", "S", *POINT)
        assert numeric == pytest.approx(2.9698484809835, abs=1e-12)
        assert analytic == pytest.approx(4.0987803063838406, abs=1e-12)
        assert abs(numeric - analytic) > 1.0

    def test_bob_charlie_symmetry(self):
        """Swapping which observer's wedge is kept leaves all measures
        invariant, so the symmetric partners share expressions."""
        for measure in ("S", "E", "C"):
            a = numeric_measures("AB_I_C_II", 0.6, 0.5, 0.2, (measure,))[measure]
            b = numeric_measures("AB_II_C_I", 0.6, 0.5, 0.2, (measure,))[measure]
            assert a == pytest.approx(b, abs=1e-13)


class TestArrayCatalog:
    @pytest.mark.parametrize("name,measure", sorted(CATALOG))
    def test_batch_equals_point_evaluation(self, name, measure):
        """A broadcast batch gives, bit for bit, the value of each point
        evaluated alone from Python floats."""
        alphas = np.array([[0.0], [1.0], [ALPHA_GHZ], [0.37]])
        ps = np.array([[1.0], [0.0], [0.37], [0.8]])
        betas = np.linspace(0.0, BETA_MAX, 1001)
        batch = cf_eval(name, measure, alphas, betas, ps)
        assert batch.shape == (4, 1001)
        points = np.array(
            [
                [cf_eval(name, measure, a, b, p) for b in betas.tolist()]
                for a, p in zip(alphas.ravel().tolist(), ps.ravel().tolist())
            ]
        )
        assert batch.tobytes() == points.tobytes()

    def test_scalar_arguments_give_a_float(self):
        value = cf_eval("ABC_I", "C", *POINT)
        assert isinstance(value, float) and np.shape(value) == ()

    #: AB_I_C_I (E, C) as float.hex at alpha = 1/sqrt(2) and two betas of the
    #: 1001-step axis, per p in (0, 0.25, 0.5, 0.75). Ten of these sixteen
    #: values move in the last digit when powers are taken by array `**`.
    PINNED = {
        0.51993358416911084: [
            ("0x1.25b08379b7bc4p-3", "0x1.819f286e687d7p-1"),
            ("0x0.0p+0", "0x1.21375e52ce5e1p-1"),
            ("0x0.0p+0", "0x1.819f286e687d7p-2"),
            ("0x0.0p+0", "0x1.819f286e687d7p-3"),
        ],
        0.58512163173109899: [
            ("0x1.670979bad5d30p-5", "0x1.63d24d0adaec4p-1"),
            ("0x0.0p+0", "0x1.0addb9c824313p-1"),
            ("0x0.0p+0", "0x1.63d24d0adaec4p-2"),
            ("0x0.0p+0", "0x1.63d24d0adaec4p-3"),
        ],
    }

    def test_powers_round_like_python_floats(self):
        betas = np.linspace(0.0, BETA_MAX, 1001)[[662, 745]]
        assert betas.tolist() == list(self.PINNED)
        ps = np.array([0.0, 0.25, 0.5, 0.75])
        e, c = (cf_eval("AB_I_C_I", m, ALPHA_GHZ, betas[:, None], ps).tolist() for m in "EC")
        got = {
            beta: [(ev.hex(), cv.hex()) for ev, cv in zip(e_row, c_row)]
            for beta, e_row, c_row in zip(betas.tolist(), e, c)
        }
        assert got == self.PINNED


class TestSumRules:
    def test_rule_inventory(self):
        names = [rule.name for rule in SUM_RULES]
        assert names == [
            "charlie_pair_coherence_sq",
            "matched_wedge_coherence_sum",
            "bc_wedge_coherence_sq",
            "same_observer_weighted_sq",
        ]
        assert [rule.asserted for rule in SUM_RULES] == [True, True, True, False]

    def test_asserted_rules_hold_numerically(self):
        for alpha, beta, p in [(0.3, 0.2, 0.1), (0.9, 0.7, 0.6), POINT]:
            for res in cf_sum_rules(alpha, beta, p):
                if res.asserted:
                    assert res.numeric_residual < 1e-12, res.name
                    assert res.closedform_residual < 1e-12, res.name

    def test_reported_rule_residual_formula(self):
        """The non-asserted relation undercounts by a cross term; its
        residual is 8 (1-p)^2 alpha^2 (1-alpha^2)^2 sin^2(beta) cos^2(beta)."""
        alpha, beta, p = 0.6, 0.5, 0.25
        res = next(r for r in cf_sum_rules(alpha, beta, p) if not r.asserted)
        a2 = alpha * alpha
        expected = (
            8.0
            * (1.0 - p) ** 2
            * a2
            * (1.0 - a2) ** 2
            * math.sin(beta) ** 2
            * math.cos(beta) ** 2
        )
        assert res.rhs - res.numeric_lhs == pytest.approx(expected, abs=1e-13)

    def test_reported_rule_vanishes_at_alpha_endpoints(self):
        for alpha in (0.0, 1.0):
            res = next(r for r in cf_sum_rules(alpha, 0.5, 0.3) if not r.asserted)
            assert res.numeric_residual < 1e-13
