"""Analytic catalog: coverage, agreement with the numeric engine where the
transcribed expressions are sound, and the known divergences the audit is
expected to surface (the numeric engine is authoritative there)."""
from __future__ import annotations

import math
import random
import re

import numpy as np
import pytest

from ghzsim import (
    BETA_MAX,
    CATALOG,
    SCENARIOS,
    ConfigError,
    Scenario,
    cf_eval,
    numeric_batch,
)
from ghzsim.closedform import REPORTED_RULE, SUM_RULES
from ghzsim.sweep import _sum_rule_terms, sum_rule_samples

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

    @pytest.mark.parametrize("name,measure", [("ABC_I", "Q"), ("ABC_III", "C")])
    def test_unknown_pair(self, name, measure):
        with pytest.raises(ConfigError, match=r"^(scenario='ABC_III'|measures=\('Q',\)) not in \("):
            cf_eval(name, measure, *POINT)

    @pytest.mark.parametrize(
        "row",
        [
            Scenario("ABC_I", ("C",), ("A", "B", "C_II")),
            SCENARIOS["ABC_I"]._replace(expanded=("B", "C")),
            Scenario("ABC_III", ("C",), ("A", "B", "C_I")),
            *SCENARIOS.values(),
        ],
        ids=["wrong-regions", "wrong-expansion", "unknown-name", *SCENARIOS],
    )
    def test_a_hand_built_row_is_rejected(self, row):
        """The catalog takes a scenario by name: a `Scenario` object, a table
        row included, has no closed form."""
        with pytest.raises(ConfigError, match="^" + re.escape(f"scenario={row!r} not in (")):
            cf_eval(row, "S", *POINT)

    @pytest.mark.parametrize("name,measure", AGREEING)
    def test_agreement_with_numeric_engine(self, name, measure):
        grid = [(b, p) for b in (0.0, 0.3, math.pi / 4) for p in (0.0, 0.25, 0.8)]
        for beta, p in grid:
            numeric = numeric_batch(name, 0.75, beta, p, (measure,))[measure]
            analytic = cf_eval(name, measure, 0.75, beta, p)
            assert analytic == pytest.approx(numeric, abs=1e-12), (beta, p)

    def test_known_divergence_is_preserved_verbatim(self):
        """The transcribed S expression for (A, B_I, C_I) damps its coherence
        branch like the single-acceleration case; the actual channel output
        damps it by an extra sqrt(1-p)*cos(beta). The expression is kept
        verbatim so the audit can flag it against the engine."""
        numeric = numeric_batch("AB_I_C_I", *POINT, ("S",))["S"]
        analytic = cf_eval("AB_I_C_I", "S", *POINT)
        assert numeric == pytest.approx(2.9698484809835, abs=1e-12)
        assert analytic == pytest.approx(4.0987803063838406, abs=1e-12)
        assert abs(numeric - analytic) > 1.0

    def test_bob_charlie_symmetry(self):
        """Swapping which observer's wedge is kept leaves all measures
        invariant, so the symmetric partners share expressions."""
        for measure in ("S", "E", "C"):
            a = numeric_batch("AB_I_C_II", 0.6, 0.5, 0.2, (measure,))[measure]
            b = numeric_batch("AB_II_C_I", 0.6, 0.5, 0.2, (measure,))[measure]
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

    @pytest.mark.parametrize("name,measure", sorted(CATALOG))
    @pytest.mark.parametrize("axes", [(0,), (1,), (2,), (0, 1, 2)], ids=["a", "b", "p", "abp"])
    def test_negative_zero_gives_the_bits_of_positive_zero(self, name, measure, axes):
        """alpha, beta, p or all three at -0.0 give the value at +0.0, bit
        for bit, so no output reads -0 where the same input 0 reads 0."""
        neg, pos = (
            [zero if k in axes else v for k, v in enumerate(POINT)] for zero in (-0.0, 0.0)
        )
        got, want = (np.float64(cf_eval(name, measure, *args)) for args in (neg, pos))
        assert got.view(np.int64) == want.view(np.int64)

    @pytest.mark.parametrize("name,measure", sorted(CATALOG))
    @pytest.mark.parametrize("case", ["scalar", "negative-zero", "grid", "points"])
    def test_axes_evaluation_gives_the_bits_of_the_broadcast_one(self, name, measure, case):
        """`cf_eval` hands the expression its inputs unbroadcast; every value
        keeps the bits of evaluating on the fully broadcast inputs."""
        rng = np.random.default_rng(17)
        points = [rng.random(300), rng.random(300) * BETA_MAX, rng.random(300)]
        for axis in points:
            axis[::37] = -0.0
        args = {
            "scalar": POINT,
            "negative-zero": (-0.0, -0.0, -0.0),
            "grid": (ALPHA_GHZ, np.linspace(0.0, BETA_MAX, 101)[:, None], np.linspace(0, 1, 101)),
            "points": points,
        }[case]
        broadcast = np.broadcast_arrays(*(np.asarray(v, float) + 0.0 for v in args))
        want = CATALOG[(name, measure)](*broadcast)
        got = cf_eval(name, measure, *args)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("name,measure", sorted(CATALOG))
    @pytest.mark.parametrize(
        "args",
        [
            (ALPHA_GHZ, np.linspace(0.0, BETA_MAX, 5)[:, None], np.linspace(0.0, 1.0, 3)),
            tuple(np.linspace(0.0, hi, 7) for hi in (1.0, BETA_MAX, 1.0)),
            POINT,
        ],
        ids=["grid", "points", "scalar"],
    )
    def test_result_takes_the_broadcast_shape(self, name, measure, args):
        """Every expression reads alpha, beta and p, so its own result has
        the broadcast shape; `cf_eval` broadcasts nothing after it."""
        shape = np.broadcast_shapes(*(np.shape(v) for v in args))
        assert np.shape(cf_eval(name, measure, *args)) == shape

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
        names = list(SUM_RULES)
        assert names == [
            "charlie_pair_coherence_sq",
            "matched_wedge_coherence_sum",
            "bc_wedge_coherence_sq",
            "same_observer_weighted_sq",
        ]
        assert REPORTED_RULE == "same_observer_weighted_sq"
        rules = sum_rule_samples(None, samples=2)["rules"]
        assert [rule["name"] for rule in rules] == names
        assert [rule["asserted"] for rule in rules] == [True, True, True, False]

    def test_asserted_rules_hold_numerically(self):
        for alpha, beta, p in [(0.3, 0.2, 0.1), (0.9, 0.7, 0.6), POINT]:
            for name, (num, cat, rhs) in _sum_rule_terms(alpha, beta, p).items():
                if name != REPORTED_RULE:
                    assert abs(num[0] - rhs[0]) < 1e-12, name
                    assert abs(cat[0] - rhs[0]) < 1e-12, name

    def test_relations_are_array_functions(self):
        """One call over 50 points gives, bit for bit, the 50 one-point calls'
        numeric lhs, catalog lhs and rhs: no relation is a per-point
        expression (math.*, a Python loop) that a one-point call would hide."""
        rng = np.random.default_rng(5)
        alphas, betas, ps = rng.random(50), rng.random(50) * BETA_MAX, rng.random(50)
        batch = _sum_rule_terms(alphas, betas, ps)
        points = [_sum_rule_terms(a, b, p) for a, b, p in zip(alphas, betas, ps)]
        assert list(batch) == list(SUM_RULES)
        for name, terms in batch.items():
            for k, got in enumerate(terms):
                want = np.concatenate([point[name][k] for point in points])
                assert got.shape == want.shape == (50,), (name, k)
                assert got.view(np.int64).tolist() == want.view(np.int64).tolist(), (name, k)

    def test_reported_rule_residual_formula(self):
        """The non-asserted relation undercounts by a cross term; its
        residual is 8 (1-p)^2 alpha^2 (1-alpha^2)^2 sin^2(beta) cos^2(beta)."""
        alpha, beta, p = 0.6, 0.5, 0.25
        num, _, rhs = _sum_rule_terms(alpha, beta, p)[REPORTED_RULE]
        a2 = alpha * alpha
        expected = (
            8.0
            * (1.0 - p) ** 2
            * a2
            * (1.0 - a2) ** 2
            * math.sin(beta) ** 2
            * math.cos(beta) ** 2
        )
        assert rhs[0] - num[0] == pytest.approx(expected, abs=1e-13)

    @staticmethod
    def exact_reported_residual(alphas, betas, ps) -> np.ndarray:
        """|lhs - rhs| of the reported relation's exact form on the numeric
        engine: C(AB_I_C_I)^2 + C(AB_II_C_II)^2
        + (1-a^2)(C(AB_I_B_II)^2 + C(AC_I_C_II)^2)
        = 4(1-p)^2 a^2 (1-a^2) - 2 sin^2(2 beta)(1-p)^2 a^2 (1-a^2)^2."""
        a, b, p = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (alphas, betas, ps)))
        c = {
            name: numeric_batch(name, a, b, p, ("C",))["C"]
            for name in ("AB_I_C_I", "AB_II_C_II", "AB_I_B_II", "AC_I_C_II")
        }
        a2, q2 = a * a, (1.0 - p) ** 2
        lhs = c["AB_I_C_I"] ** 2 + c["AB_II_C_II"] ** 2 + (1.0 - a2) * (
            c["AB_I_B_II"] ** 2 + c["AC_I_C_II"] ** 2
        )
        rhs = 4.0 * q2 * a2 * (1.0 - a2) - 2.0 * np.sin(2.0 * b) ** 2 * q2 * a2 * (1.0 - a2) ** 2
        return np.abs(lhs - rhs)

    def test_reported_rule_has_an_exact_form_at_random_points(self):
        rnd = random.Random(7)
        alphas = [rnd.uniform(0.0, 1.0) for _ in range(2000)]
        betas = [rnd.uniform(0.0, BETA_MAX) for _ in range(2000)]
        ps = [rnd.uniform(0.0, 1.0) for _ in range(2000)]
        assert self.exact_reported_residual(alphas, betas, ps).max() <= 1.5e-15

    def test_reported_rule_has_an_exact_form_at_the_corners(self):
        """alpha in {0, 1}, beta in {0, pi/4}, p in {0, 1}, and the points
        between them where the correction term is largest."""
        grid = np.meshgrid([0.0, ALPHA_GHZ, 1.0], [0.0, math.pi / 4], [0.0, 0.5, 1.0])
        assert self.exact_reported_residual(*grid).max() <= 1.5e-15

    def test_reported_rule_vanishes_at_alpha_endpoints(self):
        for alpha in (0.0, 1.0):
            num, _, rhs = _sum_rule_terms(alpha, 0.5, 0.3)[REPORTED_RULE]
            assert abs(num[0] - rhs[0]) < 1e-13


#: The default sweep's 101 x 101 (beta, p) grid.
GRID_BETAS = np.linspace(0.0, BETA_MAX, 101)[:, None]
GRID_PS = np.linspace(0.0, 1.0, 101)


def hierarchy_breaks(name: str, alpha: float) -> np.ndarray:
    """Grid points where the catalog breaks S > 4 => E > 0 => C > 0, with
    the numeric law's 1e-12 slack on S (test_engine.TestResourceHierarchy)."""
    s, e, c = (cf_eval(name, m, alpha, GRID_BETAS, GRID_PS) for m in "SEC")
    return ((s > 4.0 + 1e-12) & ~(e > 0.0)) | ((e > 0.0) & ~(c > 0.0))


class TestCatalogHierarchyBreaks:
    """The numeric engine keeps the resource hierarchy at every X point; the
    catalog breaks it in three scenarios, as a known property of its
    expressions that the audit does not flag. Every break on the grid is
    S > 4 where E = 0. Where a break is pinned absent, each E = 0 point has
    S within 1e-13 of 4 or at least 4.9e-6 below it, and C >= 6e-8 wherever
    E > 0, so a libm's rounding cannot add one. Break counts (656 on
    AB_I_C_I at the default alpha) are not pinned: they are measured on one
    Python only."""

    @pytest.mark.parametrize(
        "name, intact, broken",
        [
            ("AB_I_C_I", [0.3, 0.5, 0.95, 1.0], [0.55, ALPHA_GHZ, 0.8]),
            ("AB_I_B_II", [0.3, 0.5, 0.7, ALPHA_GHZ], [0.75, 0.8, 1.0]),
            ("AC_I_C_II", [0.3, 0.5, 0.7, ALPHA_GHZ], [0.75, 0.8, 1.0]),
        ],
    )
    def test_breaks_start_past_an_alpha(self, name, intact, broken):
        for alpha in intact:
            assert not hierarchy_breaks(name, alpha).any(), alpha
        for alpha in broken:
            assert hierarchy_breaks(name, alpha).any(), alpha

    @pytest.mark.parametrize("name", ["ABC_I", "ABC_II", "AB_I_C_II", "AB_II_C_I", "AB_II_C_II"])
    def test_other_scenarios_never_break(self, name):
        for alpha in [0.05 * k for k in range(21)] + [ALPHA_GHZ]:
            assert not hierarchy_breaks(name, alpha).any(), alpha

    @pytest.mark.parametrize("name", ["AB_I_B_II", "AC_I_C_II"])
    def test_product_state_is_nonlocal_only_in_the_catalog(self, name):
        """At alpha = 1 the state is the product |000>. Wherever the numeric
        S is defined it stays at 4 (to rounding), yet the catalog's S exceeds
        4 at some of those points."""
        catalog = cf_eval(name, "S", 1.0, GRID_BETAS, GRID_PS)
        numeric = numeric_batch(name, 1.0, GRID_BETAS, GRID_PS, ("S",))["S"]
        defined = np.isfinite(numeric)
        assert (numeric[defined] <= 4.0 + 1e-12).all()
        assert (catalog[defined] > 4.0 + 1e-12).any()
