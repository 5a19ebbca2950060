"""Exact spot values at two Pythagorean points, with only the stdlib.

At alpha = 3/5 and (cos beta, sin beta) = (4/5, 3/5) every amplitude is
rational, since sqrt(1 - alpha^2) = 4/5. So is every reduced and damped
entry at p = 16/25, where sqrt(1 - p) = 3/5, and near full damping at
p = 1 - 2^-30, where sqrt(1 - p) = 2^-15. There C is 2e-5 (one damped mode)
to 3e-10 (two) against a trace of 1, so a C that subtracted the trace from
the total of all magnitudes would lose its low digits.
`fractions.Fraction` builds each scenario's matrices here from the GHZ
amplitudes, the wedge map, the partial trace and the damping block map,
with no code of the package and no numpy. In binary64, beta = atan2(3, 4)
has cos and sin exactly 0.8 and 0.6, so the engine gets the floats nearest
the exact inputs, and its error is bounded in ulps of the exact values. S
and E involve square roots; they are bracketed between rationals 2^-200
apart, so every comparison below is exact.
"""
from __future__ import annotations

import math
from fractions import Fraction

import pytest

from ghzsim import SCENARIOS, damped_scenario_state, numeric_batch
from conftest import expanded_from_name, modes_from_name

ALPHA, COS, SIN = Fraction(3, 5), Fraction(4, 5), Fraction(3, 5)
#: (p, sqrt(1 - p)) at each point.
DAMPINGS = [
    (Fraction(16, 25), Fraction(3, 5)),
    (1 - Fraction(1, 2**30), Fraction(1, 2**15)),
]
NON_X = ("AB_I_B_II", "AC_I_C_II")

damping = pytest.mark.parametrize("damping", DAMPINGS, ids=["p=16/25", "p=1-2^-30"])


def point(p: Fraction) -> tuple[float, float, float]:
    """The engine's (alpha, beta, p) at damping p."""
    return 0.6, math.atan2(3.0, 4.0), float(p)


def exact_reduced(name: str) -> list[list[Fraction]]:
    """The scenario's reduced 8x8 matrix at the point, as Fractions."""
    register = ["A", "B", "C"]
    state = {(0, 0, 0): ALPHA, (1, 1, 1): Fraction(4, 5)}  # basis bits -> amplitude
    for t in expanded_from_name(name):
        pos = register.index(t)
        expanded = {}
        for bits, amp in state.items():
            images = [((0, 0), COS), ((1, 1), SIN)] if bits[pos] == 0 else [((1, 0), 1)]
            for pair, weight in images:
                key = bits[:pos] + pair + bits[pos + 1 :]
                expanded[key] = expanded.get(key, 0) + amp * weight
        state = expanded
        register[pos : pos + 1] = [t + "_I", t + "_II"]
    kept = [register.index(m) for m in modes_from_name(name)]
    traced = [i for i in range(len(register)) if i not in kept]
    rho = [[Fraction(0)] * 8 for _ in range(8)]
    for row_bits, row_amp in state.items():
        for col_bits, col_amp in state.items():
            if all(row_bits[i] == col_bits[i] for i in traced):
                r = sum(row_bits[k] << (2 - n) for n, k in enumerate(kept))
                c = sum(col_bits[k] << (2 - n) for n, k in enumerate(kept))
                rho[r][c] += row_amp * col_amp
    return rho


def exact_damped(name: str, damping) -> list[list[Fraction]]:
    """The reduced matrix with the block map applied to each kept wedge mode
    at damping = (p, sqrt(1-p)): r00 + p r11, sqrt(1-p) r01, sqrt(1-p) r10,
    (1-p) r11."""
    p, root = damping
    rho = exact_reduced(name)
    for pos, mode in enumerate(modes_from_name(name)):
        if "_" not in mode:
            continue
        bit = 4 >> pos
        rho = [
            [
                (1 - p) * rho[i][j] if i & j & bit
                else root * rho[i][j] if (i | j) & bit
                else rho[i][j] + p * rho[i | bit][j | bit]
                for j in range(8)
            ]
            for i in range(8)
        ]
    return rho


def exact_coherence(name: str, damping) -> Fraction:
    """C of the damped matrix: the sum of its off-diagonal magnitudes."""
    rho = exact_damped(name, damping)
    return sum(abs(rho[i][j]) for i in range(8) for j in range(8) if i != j)


def sqrt_bounds(q: Fraction, bits: int = 200) -> tuple[Fraction, Fraction]:
    """Rationals lo <= sqrt(q) <= hi with hi - lo = 2^-bits."""
    root = math.isqrt(q.numerator * 4**bits // q.denominator)
    return Fraction(root, 2**bits), Fraction(root + 1, 2**bits)


def slots(rho):
    """(d, e, f) of an X matrix: d_i and e_i on mirrored diagonal places,
    f_i = |rho[i][7 - i]|."""
    d = [rho[i][i] for i in range(4)]
    e = [rho[7 - i][7 - i] for i in range(4)]
    f = [abs(rho[i][7 - i]) for i in range(4)]
    return d, e, f


def svetlichny_n(d, e) -> Fraction:
    (d1, d2, d3, d4), (e1, e2, e3, e4) = d, e
    return d1 - d2 - d3 + d4 - e4 + e3 + e2 - e1


def ulps(x: float, exact: Fraction) -> Fraction:
    """|x - exact| in ulps of the exact value."""
    return abs(Fraction(x) - exact) / Fraction(math.ulp(float(exact)))


def assert_within_ulps(x: float, lo: Fraction, hi: Fraction, n: int, where) -> None:
    """x lies within n ulps (of x) of every value in [lo, hi]."""
    slack = n * Fraction(math.ulp(x))
    assert Fraction(x) - slack <= lo and hi <= Fraction(x) + slack, (where, x, float(lo))


@damping
def test_the_point_is_pythagorean_in_binary64(damping):
    alpha, beta, p = point(damping[0])
    assert (math.cos(beta), math.sin(beta)) == (float(COS), float(SIN))
    assert (alpha, p) == (float(ALPHA), float(damping[0]))


def test_near_full_damping_is_exact_in_binary64():
    """At p = 1 - 2^-30 the engine's p, 1 - p and sqrt(1 - p) are exact."""
    p, root = DAMPINGS[1]
    assert Fraction(float(p)) == p
    assert Fraction(math.sqrt(1.0 - float(p))) == root


@pytest.mark.parametrize("name", sorted(SCENARIOS))
class TestExactSpotValues:
    def test_reduced_entries_within_4_ulp(self, name):
        got = damped_scenario_state(name, *point(0)).tolist()
        exact = exact_reduced(name)
        for i in range(8):
            for j in range(8):
                assert ulps(got[i][j], exact[i][j]) <= 4, (name, i, j)

    @damping
    def test_damped_entries_within_4_ulp(self, name, damping):
        got = damped_scenario_state(name, *point(damping[0])).tolist()
        exact = exact_damped(name, damping)
        for i in range(8):
            for j in range(8):
                assert ulps(got[i][j], exact[i][j]) <= 4, (name, i, j)

    @damping
    def test_coherence_within_16_ulp(self, name, damping):
        got = float(numeric_batch(name, *point(damping[0]))["C"])
        assert ulps(got, exact_coherence(name, damping)) <= 16

    @damping
    def test_s_and_e_are_nan_exactly_where_off_pattern_entries_are_nonzero(self, name, damping):
        exact = exact_damped(name, damping)
        off = [exact[i][j] for i in range(8) for j in range(8) if i != j and i + j != 7]
        got = numeric_batch(name, *point(damping[0]))
        assert any(off) == (name in NON_X)
        assert math.isnan(got["S"]) == math.isnan(got["E"]) == (name in NON_X)


@pytest.mark.parametrize("name", sorted(set(SCENARIOS) - set(NON_X)))
class TestExactXMeasures:
    """S and E, which are defined on the six X scenarios only."""

    @damping
    def test_s_below_4_decided_exactly(self, name, damping):
        """S = max(8 sqrt(2) max f, 4|N|) < 4 exactly when 8 f^2 < 1 for
        every f and |N| < 1."""
        d, e, f = slots(exact_damped(name, damping))
        n = svetlichny_n(d, e)
        assert 8 * max(f) ** 2 < 1 and abs(n) < 1
        s = float(numeric_batch(name, *point(damping[0]))["S"])
        assert s < 4.0
        # S^2 = max(128 f^2, 16 N^2) is rational, so S is bracketed exactly.
        assert_within_ulps(s, *sqrt_bounds(max(128 * max(f) ** 2, 16 * n * n)), 8, name)

    @damping
    def test_e_bracketed_exactly(self, name, damping):
        """E = 2 max(0, max_i (f_i - sum_{j != i} sqrt(d_j e_j))), with each
        square root bracketed, so E > 0 and E = 0 are decided exactly."""
        d, e, f = slots(exact_damped(name, damping))
        roots = [sqrt_bounds(dj * ej) for dj, ej in zip(d, e)]
        lo = 2 * max(0, max(f[i] - sum(r[1] for j, r in enumerate(roots) if j != i) for i in range(4)))
        hi = 2 * max(0, max(f[i] - sum(r[0] for j, r in enumerate(roots) if j != i) for i in range(4)))
        assert (lo > 0) == (hi > 0)
        assert_within_ulps(float(numeric_batch(name, *point(damping[0]))["E"]), lo, hi, 8, name)


@damping
def test_fourth_coherence_relation_holds_exactly(damping):
    """C(AB_I_C_I)^2 + C(AB_II_C_II)^2 + (1-a^2)(C(AB_I_B_II)^2 + C(AC_I_C_II)^2)
    = 4(1-p)^2 a^2 (1-a^2) - 2 sin^2(2 beta)(1-p)^2 a^2 (1-a^2)^2, in
    Fractions at the point."""
    def c(name):
        return exact_coherence(name, damping)

    a2, q2, sin_2b = ALPHA**2, (1 - damping[0]) ** 2, 2 * SIN * COS
    lhs = c("AB_I_C_I") ** 2 + c("AB_II_C_II") ** 2 + (1 - a2) * (
        c("AB_I_B_II") ** 2 + c("AC_I_C_II") ** 2
    )
    assert lhs == 4 * q2 * a2 * (1 - a2) - 2 * sin_2b**2 * q2 * a2 * (1 - a2) ** 2
