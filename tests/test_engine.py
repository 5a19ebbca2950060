"""First-principles evaluation pipeline: damped scenario states and the
numeric measures, cross-checked against step-by-step construction and
independent oracles."""
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
    Scenario,
    damped_scenario_state,
    is_x_structured,
    numeric_batch,
    run_sweep,
)
from ghzsim import engine
from ghzsim.engine import MEASURES
from conftest import (
    damp_one,
    damp_qubit_oracle,
    dense_measures_oracle,
    density_deviations,
    register_reduced_oracle,
    svetlichny_bound_oracle,
    x_measures_oracle,
)

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

#: `Scenario` objects in place of a name: hand-built ones that are no row of
#: SCENARIOS (four kept modes under an unknown name and under a table name,
#: ABC_I's name on AB_I_C_I's modes, and an unknown mode), then every row.
NOT_IN_TABLE = (
    Scenario("X", ("C",), ("A", "B", "C_I", "C_II")),
    Scenario("ABC_I", ("C",), ("A", "B", "C_I", "C_II")),
    Scenario("ABC_I", *SCENARIOS["AB_I_C_I"][1:]),
    Scenario("ABC_I", ("C",), ("A", "B", "D")),
    *SCENARIOS.values(),
)

#: Every engine entry point that takes a scenario, called at one point.
SCENARIO_CALLS = {
    "numeric_batch": lambda s: numeric_batch(s, 0.6, 0.3, 0.2),
    "damped_scenario_state": lambda s: damped_scenario_state(s, 0.6, 0.3, 0.2),
    "is_x_structured": is_x_structured,
}


class TestOnlyTableRows:
    """SCENARIOS is the only source of scenarios, and a public function takes
    one by name: any `Scenario` object, a table row included, is rejected."""

    @pytest.mark.parametrize("call", SCENARIO_CALLS)
    @pytest.mark.parametrize("scen", NOT_IN_TABLE, ids=range(len(NOT_IN_TABLE)))
    def test_row_outside_the_table_is_rejected(self, call, scen):
        with pytest.raises(ConfigError):
            SCENARIO_CALLS[call](scen)


class TestDampedScenarioState:
    def test_matches_stepwise_construction(self):
        """The fast path must agree with reduce-then-damp done by hand: the
        whole reduced matrix, then the damping kernel on all 64 entries, for
        every scenario. The undamped input is the register-level reference, not
        the engine's own p = 0 state."""
        alpha, beta, p = 0.65, 0.45, 0.37
        for name, scen in SCENARIOS.items():
            fast = damped_scenario_state(name, alpha, beta, p)
            positions = [scen.regions.index(m) for m in scen.damped_modes]
            slow = damp_one(register_reduced_oracle(alpha, beta, scen), positions, p)
            np.testing.assert_allclose(fast, slow, atol=1e-14, err_msg=name)

    def test_is_a_plain_real_matrix(self):
        rho = damped_scenario_state("AB_I_C_II", 0.7, 0.3, 0.2)
        assert type(rho) is np.ndarray
        assert rho.shape == (8, 8) and rho.dtype == float

    @settings(max_examples=20, deadline=None)
    @given(
        alpha=st.floats(0.0, 1.0),
        beta=st.floats(0.0, BETA_MAX),
        p=st.floats(0.0, 1.0),
        name=st.sampled_from(sorted(SCENARIOS)),
    )
    def test_always_a_valid_density_matrix(self, alpha, beta, p, name):
        _, trace_dev, min_eig = density_deviations(damped_scenario_state(name, alpha, beta, p))
        assert trace_dev < 1e-12
        assert min_eig >= -1e-12


class TestNumericMeasures:
    def test_pure_state_baseline(self):
        values = numeric_batch("ABC_I", ALPHA_GHZ, 0.0, 0.0)
        assert values["S"] == pytest.approx(4.0 * math.sqrt(2.0), abs=1e-12)
        assert values["E"] == pytest.approx(1.0, abs=1e-12)
        assert values["C"] == pytest.approx(1.0, abs=1e-12)

    def test_frozen_interior_point(self):
        """Values at (alpha, beta, p) = (1/sqrt 2, pi/6, 0.3), frozen from an
        independent run of the reduce-then-damp construction."""
        values = numeric_batch("ABC_I", ALPHA_GHZ, math.pi / 6, 0.3)
        assert values["S"] == pytest.approx(4.0987803063838388, abs=1e-13)
        assert values["E"] == pytest.approx(0.49544005256167989, abs=1e-13)
        assert values["C"] == pytest.approx(0.72456883730947186, abs=1e-13)

    def test_agrees_with_measure_functions(self):
        """C adds the off-diagonal magnitudes in the oracle's row-major
        order, so it carries the oracle's bits; S and E agree to 1e-14."""
        rho = damped_scenario_state("AB_II_C_II", 0.6, 0.5, 0.4)
        values = numeric_batch("AB_II_C_II", 0.6, 0.5, 0.4)
        want = x_measures_oracle(rho)
        assert values["C"].view(np.int64) == np.float64(want.pop("C")).view(np.int64)
        for measure, value in want.items():
            assert values[measure] == pytest.approx(value, abs=1e-14), measure

    def test_measure_subset_selection(self):
        values = numeric_batch("ABC_I", 0.7, 0.2, 0.1, ("C",))
        assert set(values) == {"C"}

    def test_unknown_measure_rejected(self):
        with pytest.raises(ConfigError, match=r"^measures=\('S', 'Q'\) not in \('S', 'E', 'C'\)$"):
            numeric_batch("ABC_I", 0.7, 0.2, 0.1, ("S", "Q"))

    @pytest.mark.parametrize("name", NON_X_SCENARIOS)
    def test_non_x_scenarios_leave_s_and_e_undefined(self, name):
        """Keeping both wedge modes of one observer couples basis states two
        bit flips apart, which breaks the X pattern; S and E rely on it."""
        values = numeric_batch(name, ALPHA_GHZ, math.pi / 6, 0.3)
        assert math.isnan(values["S"])
        assert math.isnan(values["E"])
        assert values["C"] == pytest.approx(0.30310889132455343, abs=1e-13)

    @pytest.mark.parametrize("alpha", [5e-324, 1e-162, 1e-150, 1e-8, 1e-4, ALPHA_GHZ, 1.0])
    @pytest.mark.parametrize("name", NON_X_SCENARIOS)
    def test_x_test_is_decided_per_point(self, name, alpha):
        """The two-flip coherence is alpha^2 g(beta, p). It vanishes on the
        beta = 0 row and the p = 1 column and nowhere else, however small
        alpha is, even where its computed value underflows to 0; the X test
        is exact over the reals. So a default sweep has finite S and E there,
        201 points, and only there, at every alpha > 0."""
        grid = run_sweep(name, alpha=alpha, engine="numeric")
        on_x = (np.array(grid["betas"])[:, None] == 0.0) | (np.array(grid["ps"]) == 1.0)
        assert on_x.sum() == 201
        for measure in ("S", "E"):
            finite = np.isfinite(grid["surfaces"][measure, "numeric"])
            assert np.array_equal(finite, on_x), (measure, int(finite.sum()))
        assert np.isfinite(grid["surfaces"]["C", "numeric"]).all()

    def test_a_tiny_coherence_is_not_cancelled(self):
        """C adds the off-diagonal magnitudes, so the 3.5e-17 of AB_I_B_II at
        alpha = 1e-8, beta = pi/8, p = 0.5 stays positive."""
        c = numeric_batch("AB_I_B_II", 1e-8, math.pi / 8, 0.5, ("C",))["C"]
        assert 3e-17 < c < 4e-17

    def test_full_damping_leaves_ground_state_statistics(self):
        values = numeric_batch("AB_I_C_I", 0.8, 0.5, 1.0)
        assert values["C"] == pytest.approx(0.0, abs=1e-14)
        assert values["E"] == pytest.approx(0.0, abs=1e-14)


class TestIsXStructured:
    @pytest.mark.parametrize("name", X_SCENARIOS)
    def test_x_scenarios(self, name):
        assert is_x_structured(name)

    @pytest.mark.parametrize("name", NON_X_SCENARIOS)
    def test_non_x_scenarios(self, name):
        assert not is_x_structured(name)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_support_rule_equals_the_interior_point_probe(self, name, monkeypatch):
        """Read from the X table, the rule gives the answer of a full kernel
        call at one interior point, and makes no kernel call itself."""
        probe = not math.isnan(numeric_batch(name, 0.6, 0.5, 0.3, ("S",))["S"])
        # `_support` is cached by now, so only a kernel call would build.
        monkeypatch.setattr(engine, "scenario_reduced_entries", None)
        assert is_x_structured(name) == probe

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_x_table_is_the_zero_set_of_the_two_flip_coherence(self, name):
        """Per zero class (alpha 0, inside or 1; beta 0 or inside; p 0,
        inside or 1): the two non-X scenarios are off the X pattern exactly
        where alpha > 0, beta > 0 and p < 1, the six others nowhere."""
        classes = [(a, b, p) for a in range(3) for b in range(2) for p in range(3)]
        want = [not (name in NON_X_SCENARIOS and a > 0 and b > 0 and p < 2) for a, b, p in classes]
        assert engine._support(SCENARIOS[name])[2].tolist() == want


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
        then the Python-scalar measure oracle, which shares no code with the
        measure kernels. S/E are NaN exactly on the zero set of the non-X
        scenarios' two-flip coherence, alpha > 0, beta > 0 and p < 1, where
        the oracle's float X test may still pass once that coherence
        underflows (beta = 5e-324); elsewhere both sides are finite."""
        alphas, betas, ps = (np.array(axis) for axis in zip(*points))
        for name, scen in SCENARIOS.items():
            batch = numeric_batch(name, alphas, betas, ps)
            for n, (alpha, beta, p) in enumerate(points):
                mat = damped_scenario_state(name, alpha, beta, 0.0)
                for mode in scen.damped_modes:
                    mat = damp_qubit_oracle(mat, 3, scen.regions.index(mode), p)
                off_x = name in NON_X_SCENARIOS and alpha > 0 and beta > 0 and p < 1
                for measure, want in x_measures_oracle(mat).items():
                    got = batch[measure][n]
                    where = (name, measure, alpha, beta, p)
                    assert math.isnan(got) == (off_x and measure != "C"), where
                    if not math.isnan(got):
                        assert abs(got - want) <= 1e-13, where

    def test_rejects_p_outside_unit_interval(self):
        with pytest.raises(ConfigError, match="outside"):
            numeric_batch("ABC_I", 0.7, 0.2, np.array([0.5, 1.0 + 1e-13]))

    @pytest.mark.parametrize(
        "alpha, beta, p, shape",
        [
            (np.array([]), 0.3, 0.5, (0,)),
            (0.5, np.zeros((3, 0)), np.zeros((2, 1, 1)), (2, 3, 0)),
        ],
        ids=["no-alpha", "no-beta-column"],
    )
    @pytest.mark.parametrize("name", ["ABC_I", "AB_I_C_I"])
    def test_empty_broadcast_gives_empty_arrays(self, name, alpha, beta, p, shape):
        values = numeric_batch(name, alpha, beta, p)
        assert sorted(values) == sorted(MEASURES)
        for measure, v in values.items():
            assert v.shape == shape and v.dtype == np.float64, measure


#: An edge-inclusive grid: alpha and beta at both ends of their ranges and
#: p at 0 and 1, besides interior values.
EDGE_ALPHAS = np.array([0.0, 1e-9, 0.3, ALPHA_GHZ, 0.9, 1.0])[:, None, None]
EDGE_BETAS = np.array([0.0, 0.1, 0.4, BETA_MAX])[:, None]
EDGE_PS = np.array([0.0, 1e-12, 0.35, 0.8, 1.0])


@pytest.fixture(scope="module")
def dense_reference() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """name -> (reduced, damped) complex (N, 8, 8) stacks over the flattened
    edge grid: the register-level reference states, damped one point at a
    time on every entry by the block-map oracle, damped modes in register
    order."""
    a, b, p = (x.ravel() for x in np.broadcast_arrays(EDGE_ALPHAS, EDGE_BETAS, EDGE_PS))
    out = {}
    for name, scen in SCENARIOS.items():
        reduced = np.array([register_reduced_oracle(ak, bk, scen) for ak, bk in zip(a, b)])
        damped = reduced.copy()
        for mode in scen.damped_modes:
            pos = scen.regions.index(mode)
            damped = np.array([damp_qubit_oracle(m, 3, pos, pk) for m, pk in zip(damped, p)])
        out[name] = reduced, damped
    return out


class TestSupportDamping:
    """The engine builds, damps and measures only a scenario's support, in
    real arithmetic; its measures must carry the bits of dense complex
    damping of the reference states, measured on the dense stack."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_measures_are_bit_identical_to_dense_damping(self, dense_reference, name):
        want = dense_measures_oracle(dense_reference[name][1], MEASURES)
        got = numeric_batch(name, EDGE_ALPHAS, EDGE_BETAS, EDGE_PS)
        for measure in MEASURES:
            # int64 views: signed zeros and NaN payloads count.
            assert np.array_equal(
                got[measure].ravel().view(np.int64), want[measure].view(np.int64)
            ), measure

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_support_holds_every_nonzero_entry(self, dense_reference, name):
        """Every entry the reduced or damped states carry is in the support,
        and every support entry is carried somewhere on the grid."""
        support = engine._support(SCENARIOS[name])[0]
        carried = np.zeros(64, dtype=bool)
        for stack in dense_reference[name]:
            carried |= (stack.reshape(-1, 64) != 0).any(axis=0)
        assert np.array_equal(np.flatnonzero(carried), support)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_reduced_states_are_real(self, dense_reference, name):
        """The engine builds real parts only: the reference states'
        imaginary parts are exactly zero."""
        reduced, _ = dense_reference[name]
        assert not reduced.imag.any()

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_negative_zero_gives_the_bits_of_positive_zero(self, name):
        """Real products keep the -0.0 of alpha = -0.0 or beta = -0.0 that
        complex products turned into +0.0; no measure may show it."""
        for neg, pos in [
            ((-0.0, EDGE_BETAS, EDGE_PS), (0.0, EDGE_BETAS, EDGE_PS)),
            ((EDGE_ALPHAS, -0.0, EDGE_PS), (EDGE_ALPHAS, 0.0, EDGE_PS)),
            ((-0.0, -0.0, -0.0), (0.0, 0.0, 0.0)),
        ]:
            got, want = numeric_batch(name, *neg), numeric_batch(name, *pos)
            for measure in MEASURES:
                assert np.array_equal(
                    got[measure].view(np.int64), want[measure].view(np.int64)
                ), (measure, neg)


@pytest.fixture
def build_sizes(monkeypatch) -> list[int]:
    """Number of reduced matrices of each call to the support-row builder."""
    for scen in SCENARIOS.values():
        engine._support(scen)  # its class-point build is not a kernel call
    sizes: list[int] = []
    build = engine.scenario_reduced_entries

    def counting(alpha, beta, scen, support):
        rows = build(alpha, beta, scen, support)
        sizes.append(rows.shape[-1])
        return rows

    monkeypatch.setattr(engine, "scenario_reduced_entries", counting)
    return sizes


class TestReducedBuilds:
    def test_grid_builds_one_matrix_per_beta_row(self, build_sizes):
        betas = np.linspace(0.0, BETA_MAX, 5)[:, None]
        ps = np.linspace(0.0, 1.0, 101)
        numeric_batch("AB_I_C_I", ALPHA_GHZ, betas, ps, MEASURES)
        assert sum(build_sizes) == 5

    @pytest.mark.parametrize(
        "shapes",
        [
            ((3, 1), (3, 4), (2, 1, 4)),
            # alpha on the last axis and p on the first only: at 5 points a
            # block gathers the elements 10, 11, 0, 1 and 2.
            ((4,), (3, 1), (2, 1, 1)),
        ],
        ids=["alpha-first", "alpha-last"],
    )
    @pytest.mark.parametrize("name", ["AB_I_C_I", "AB_I_B_II"])
    def test_blocks_are_byte_identical_to_one_pass(self, monkeypatch, build_sizes, name, shapes):
        """Each of the 12 (alpha, beta) elements is built once per call, in
        builds of at most BLOCK_POINTS elements, and any block size gives
        the bytes of one block."""
        rng = np.random.default_rng(11)
        alpha_shape, beta_shape, p_shape = shapes
        alphas = rng.uniform(0.0, 1.0, alpha_shape)
        betas = rng.uniform(0.0, BETA_MAX, beta_shape)
        ps = rng.uniform(0.0, 1.0, p_shape)
        whole = numeric_batch(name, alphas, betas, ps)
        assert build_sizes == [12]
        for block_points in (1, 5, 4096):
            build_sizes.clear()
            monkeypatch.setattr(engine, "BLOCK_POINTS", block_points)
            split = numeric_batch(name, alphas, betas, ps)
            assert sum(build_sizes) == 12 and max(build_sizes) <= block_points
            for measure in MEASURES:
                assert split[measure].shape == whole[measure].shape == (2, 3, 4)
                assert split[measure].tobytes() == whole[measure].tobytes(), measure


class TestMonotonicityInP:
    """Damping is an incoherent operation and local damping is LOCC, so at
    fixed (alpha, beta) neither the l1-coherence C nor the GME monotone E
    may grow with p. On a kept _I mode the Unruh map is a local channel too
    (test_unruh.TestUnruhChannel), so where only _I modes are kept E may not
    grow with beta either. S may grow with both (TestSvetlichnyRises)."""

    PS = np.linspace(0.0, 1.0, 201)
    BETAS = np.linspace(0.0, BETA_MAX, 201)

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(SCENARIOS)),
        alpha=st.floats(0.0, 1.0),
        beta=st.floats(0.0, BETA_MAX),
    )
    def test_coherence_and_entanglement_never_increase_with_p(self, name, alpha, beta):
        measures = ("E", "C") if name in X_SCENARIOS else ("C",)
        values = numeric_batch(name, alpha, beta, self.PS, measures)
        for measure in measures:
            rise = np.diff(values[measure])
            assert rise.max() <= 1e-12, (measure, float(self.PS[1 + rise.argmax()]))

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(["ABC_I", "AB_I_C_I"]),
        alpha=st.floats(0.0, 1.0),
        p=st.floats(0.0, 1.0),
    )
    def test_entanglement_never_increases_with_beta_on_i_modes(self, name, alpha, p):
        rise = np.diff(numeric_batch(name, alpha, self.BETAS, p, ("E",))["E"])
        assert rise.max() <= 1e-12, float(self.BETAS[1 + rise.argmax()])


class TestSvetlichnyRises:
    """S is no monotone under local channels, as a known property of the
    X-state S rather than an engine bug: it maximises over spin settings
    sigma.n only, and the adjoint of a non-unital channel adds an identity
    part to a setting (damping: sigma_z -> (1 - p) sigma_z + p I; the Unruh
    map likewise), which can raise the best sigma.n correlation. On the
    default 101 x 101 grid one step in beta raises S by as much as 0.0057 on
    ABC_I at alpha = 0.3, and one step in p by as much as 0.0157 on AB_I_C_I
    at alpha = 0.8; E rises with neither (TestMonotonicityInP). Only the
    rise's presence is pinned."""

    BETAS = np.linspace(0.0, BETA_MAX, 101)[:, None]
    PS = np.linspace(0.0, 1.0, 101)

    def test_rises_with_beta_on_abc_i(self):
        s = numeric_batch("ABC_I", 0.3, self.BETAS, self.PS, ("S",))["S"]
        assert np.diff(s, axis=0).max() > 1e-3

    def test_rises_with_p_on_ab_i_c_i(self):
        s = numeric_batch("AB_I_C_I", 0.8, self.BETAS, self.PS, ("S",))["S"]
        assert np.diff(s, axis=1).max() > 1e-2


class TestNoNonlocalityNearFullDamping:
    """From p = 0.999 on, S <= 4 in every X scenario: 4|N| is at most 4
    times the trace, and each f_i, at most 1/2 undamped, is scaled by
    sqrt(1 - p) at least once, so 8 sqrt(2) |f_i| <= 0.18. The boundary
    scan therefore reaches every S curve by its 0.999 point, wherever the
    scan ends after it."""

    ALPHAS = np.linspace(0.0, 1.0, 101)[:, None, None]
    BETAS = np.linspace(0.0, BETA_MAX, 101)[:, None]
    PS = np.array([0.999, 1.0 - 1e-6])

    @pytest.mark.parametrize("name", X_SCENARIOS)
    def test_svetlichny_is_at_most_4(self, name):
        s = numeric_batch(name, self.ALPHAS, self.BETAS, self.PS, ("S",))["S"]
        assert s.max() <= 4.0 + 1e-12


def svetlichny_branches(mat: np.ndarray) -> tuple[float, float]:
    """The two branches of the X-state S of one matrix: 8 sqrt(2) max |f_i|
    and 4|N|."""
    d, e = np.diag(mat)[:4], np.diag(mat)[:3:-1]
    f = np.abs(mat[np.arange(4), 7 - np.arange(4)])
    n = d[0] - d[1] - d[2] + d[3] - e[3] + e[2] + e[1] - e[0]
    return 8.0 * math.sqrt(2.0) * float(f.max()), 4.0 * abs(float(n))


class TestSvetlichnyCertificate:
    """S <= 4 sigma_max of the correlation tensor's 3x9 unfolding is a
    theorem (`svetlichny_bound_oracle`), and the X-state formula attains it:
    wherever the engine's S is finite, in any scenario, S equals the bound.
    The two have agreed bit for bit, but the bound goes through an SVD, whose
    bits LAPACK does not promise, hence the 1e-12 tolerance."""

    def test_normalisation(self):
        bound = svetlichny_bound_oracle("ABC_I", ALPHA_GHZ, 0.0, 0.0)
        assert bound == pytest.approx(4.0 * math.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_finite_s_equals_the_bound(self, name):
        """60 seeded points per scenario; those of a non-X scenario lie on
        its beta = 0 row or its p = 1 column, where S is finite."""
        rng = np.random.default_rng(sorted(SCENARIOS).index(name))
        alpha, beta, p = rng.random(60), rng.random(60) * BETA_MAX, rng.random(60)
        if name in NON_X_SCENARIOS:
            beta[::2], p[1::2] = 0.0, 1.0
        s = numeric_batch(name, alpha, beta, p, ("S",))["S"]
        assert np.isfinite(s).all()
        for point, value in zip(zip(alpha, beta, p), s):
            assert abs(value - svetlichny_bound_oracle(name, *point)) <= 1e-12, point

    @pytest.mark.parametrize(
        "name, alpha, beta, p, f_wins",
        [
            ("ABC_I", ALPHA_GHZ, 0.3, 0.2, True),
            ("AB_II_C_II", 0.9, 0.5, 0.1, True),
            ("AB_I_C_I", 0.3, 0.2, 0.8, False),
            ("AB_I_B_II", 0.6, 0.0, 0.4, False),
            ("AC_I_C_II", 0.6, 0.5, 1.0, False),
        ],
    )
    def test_each_branch_attains_the_bound(self, name, alpha, beta, p, f_wins):
        f_branch, n_branch = svetlichny_branches(damped_scenario_state(name, alpha, beta, p))
        assert (f_branch > n_branch) == f_wins
        s = numeric_batch(name, alpha, beta, p, ("S",))["S"]
        assert abs(s - svetlichny_bound_oracle(name, alpha, beta, p)) <= 1e-12


#: The law grid: 9 alphas x 101 betas x 201 ps, in every scenario.
LAW_ALPHAS = np.array([0.0, 0.1, 0.3, 0.5, 0.6, ALPHA_GHZ, 0.8, 0.9, 1.0])[:, None, None]
LAW_BETAS = np.linspace(0.0, BETA_MAX, 101)[:, None]
LAW_PS = np.linspace(0.0, 1.0, 201)


@pytest.fixture(scope="module")
def law_grid() -> dict[str, dict[str, np.ndarray]]:
    return {name: numeric_batch(name, LAW_ALPHAS, LAW_BETAS, LAW_PS) for name in SCENARIOS}


class TestResourceHierarchy:
    """S > 4 certifies genuine tripartite nonlocality, which needs genuine
    entanglement, which needs coherence: S > 4 implies E > 0 implies C > 0
    at every X point. The 1e-12 slack covers S = 4 + O(1e-15) rounding at
    p = 1 and alpha = 1, where no entanglement is left."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_nonlocality_implies_entanglement_implies_coherence(self, law_grid, name):
        s, e, c = (law_grid[name][m] for m in ("S", "E", "C"))
        x = np.isfinite(s)
        assert x.any()
        assert not (x & (s > 4.0 + 1e-12) & ~(e > 0.0)).any()
        assert not (x & (e > 0.0) & ~(c > 0.0)).any()


class TestGhzWeightFactorization:
    """Qubit A is never expanded or damped, so every d_i is proportional to
    alpha^2, every e_i to 1 - alpha^2 and every f_i to alpha sqrt(1 - alpha^2):
    on the X scenarios, E and C divided by that weight depend on (beta, p)
    alone. S does not factor. The spread over alpha is at most 4.9e-15 on
    the law grid's interior alphas."""

    @pytest.mark.parametrize("name", X_SCENARIOS)
    def test_e_and_c_over_the_weight_do_not_depend_on_alpha(self, law_grid, name):
        alphas = LAW_ALPHAS[1:-1]
        weight = alphas * np.sqrt(1.0 - alphas * alphas)
        for measure in ("E", "C"):
            scaled = law_grid[name][measure][1:-1] / weight
            assert np.ptp(scaled, axis=0).max() <= 1e-13, measure


class TestBobCharlieSymmetry:
    """Bob and Charlie accelerate with the same beta and are damped alike,
    so swapping their roles maps one scenario's surfaces onto another's."""

    def test_mixed_wedge_scenarios_agree(self, law_grid):
        a, b = law_grid["AB_I_C_II"], law_grid["AB_II_C_I"]
        for measure in MEASURES:
            assert np.max(np.abs(a[measure] - b[measure])) <= 1e-15, measure

    def test_same_observer_scenarios_agree(self, law_grid):
        a, b = law_grid["AB_I_B_II"], law_grid["AC_I_C_II"]
        assert np.max(np.abs(a["C"] - b["C"])) <= 1e-15
        assert np.array_equal(np.isnan(a["S"]), np.isnan(b["S"]))
