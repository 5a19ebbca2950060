"""Hand-derived analytic expressions for every scenario measure.

These are transcripts of the closed forms derived alongside the scenario
matrices, kept verbatim (suspected slips included) so the audit can arbitrate
them against the numeric engine. This module never corrects an expression;
where the two engines disagree, the numeric pipeline is authoritative and the
audit records the difference.

The coherences of the Bob-and-Charlie scenarios follow from the damped
antidiagonal entry of each reduced matrix via C = 2|f'|. The two region
combinations not listed explicitly (AB_II_C_I and AC_I_C_II) reuse their
Bob<->Charlie symmetric partner's expressions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable


class CoverageError(KeyError):
    """No catalog entry exists for the requested (scenario, measure)."""


def _ghz_weight(alpha: float) -> float:
    return alpha * math.sqrt(max(1.0 - alpha * alpha, 0.0))


_SQRT2_8 = 8.0 * math.sqrt(2.0)


# --- Charlie accelerated, accessible wedge kept -----------------------------

def _s_abc_i(a: float, b: float, p: float) -> float:
    f_branch = _SQRT2_8 * math.sqrt(1.0 - p) * _ghz_weight(a) * math.cos(b)
    cb2, sb2 = math.cos(b) ** 2, math.sin(b) ** 2
    n_branch = 4.0 * (
        a * a * cb2 + 2.0 * p * a * a * sb2 - a * a * sb2 + (2.0 * p - 1.0) * (1.0 - a * a)
    )
    return max(f_branch, n_branch)


def _e_abc_i(a: float, b: float, p: float) -> float:
    lead = math.sqrt(1.0 - p) * _ghz_weight(a) * math.cos(b)
    # Single radical over the product (1-p) * a^2 sin^2(b) * p * (1-a^2).
    cross = math.sqrt(max((1.0 - p) * a * a * math.sin(b) ** 2 * p * (1.0 - a * a), 0.0))
    return 2.0 * max(0.0, lead - cross)


def _c_abc_i(a: float, b: float, p: float) -> float:
    return 2.0 * math.sqrt(1.0 - p) * _ghz_weight(a) * math.cos(b)


# --- Charlie accelerated, inaccessible wedge kept ---------------------------

def _s_abc_ii(a: float, b: float, p: float) -> float:
    f_branch = _SQRT2_8 * math.sqrt(1.0 - p) * _ghz_weight(a) * math.sin(b)
    cb2, sb2 = math.cos(b) ** 2, math.sin(b) ** 2
    n_branch = 4.0 * (a * a * cb2 + 2.0 * p * a * a * sb2 + (1.0 - a * a) - a * a * sb2)
    return max(f_branch, n_branch)


def _e_abc_ii(a: float, b: float, p: float) -> float:
    return 2.0 * math.sqrt(1.0 - p) * _ghz_weight(a) * math.sin(b)


_c_abc_ii = _e_abc_ii  # the E = C identity for this combination


# --- Bob and Charlie accelerated --------------------------------------------

def _s_ab_i_c_i(a: float, b: float, p: float) -> float:
    f_branch = _SQRT2_8 * math.sqrt(1.0 - p) * _ghz_weight(a) * math.cos(b)
    cb, sb = math.cos(b), math.sin(b)
    q = 1.0 - 2.0 * p + 2.0 * p * p
    # The quartic bracket is read with q multiplying sin^4(b); that is the
    # only reading consistent with the p = 0 limit of the same expression.
    n_branch = 4.0 * (
        a * a * (cb ** 4 - 2.0 * sb ** 2 * cb ** 2 + q * sb ** 4) - q * (1.0 - a * a)
    )
    return max(f_branch, n_branch)


def _e_ab_i_c_i(a: float, b: float, p: float) -> float:
    cb, sb = math.cos(b), math.sin(b)
    lead = (1.0 - p) * _ghz_weight(a) * cb ** 2
    mid = a * sb * math.sqrt(max((1.0 - p) * cb ** 2 - (1.0 - p) * p * sb ** 2, 0.0))
    tail = (1.0 - p) * a * sb ** 2 * math.sqrt(max(p * (1.0 - a * a), 0.0))
    return 2.0 * max(0.0, lead - mid - tail)


def _c_ab_i_c_i(a: float, b: float, p: float) -> float:
    return 2.0 * (1.0 - p) * _ghz_weight(a) * math.cos(b) ** 2


def _s_ab_i_c_ii(a: float, b: float, p: float) -> float:
    f_branch = _SQRT2_8 * (1.0 - p) * _ghz_weight(a) * math.sin(b) * math.cos(b)
    cb2, sb2 = math.cos(b) ** 2, math.sin(b) ** 2
    n_branch = 4.0 * (a * a * (cb2 - sb2) ** 2 + (1.0 - 2.0 * p) * (1.0 - a * a))
    return max(f_branch, n_branch)


def _e_ab_i_c_ii(a: float, b: float, p: float) -> float:
    lead = (1.0 - p) * _ghz_weight(a) * math.sin(b) * math.cos(b)
    tail = (1.0 - p) * a * math.sin(b) ** 2 * math.sqrt(max(p * (1.0 - a * a), 0.0))
    return 2.0 * max(0.0, lead - tail)


def _c_ab_i_c_ii(a: float, b: float, p: float) -> float:
    return 2.0 * (1.0 - p) * _ghz_weight(a) * math.sin(b) * math.cos(b)


def _s_ab_ii_c_ii(a: float, b: float, p: float) -> float:
    f_branch = _SQRT2_8 * (1.0 - p) * _ghz_weight(a) * math.sin(b) ** 2
    cb2, sb2 = math.cos(b) ** 2, math.sin(b) ** 2
    n_branch = 4.0 * (a * a * (cb2 - sb2) ** 2 - (1.0 - a * a))
    return max(f_branch, n_branch)


def _e_ab_ii_c_ii(a: float, b: float, p: float) -> float:
    return 2.0 * max(0.0, (1.0 - p) * _ghz_weight(a) * math.sin(b) ** 2)


def _c_ab_ii_c_ii(a: float, b: float, p: float) -> float:
    return 2.0 * (1.0 - p) * _ghz_weight(a) * math.sin(b) ** 2


def _s_ab_i_b_ii(a: float, b: float, p: float) -> float:
    f_branch = _SQRT2_8 * (1.0 - p) * a * a * math.sin(b) * math.cos(b)
    cb2, sb2 = math.cos(b) ** 2, math.sin(b) ** 2
    n_branch = 4.0 * (
        a * a * (cb2 + (2.0 * p + 2.0 * p * p - 1.0) * sb2) + (1.0 - p) * (1.0 - a * a)
    )
    return max(f_branch, n_branch)


def _e_ab_i_b_ii(a: float, b: float, p: float) -> float:
    return 2.0 * max(0.0, (1.0 - p) * a * a * math.sin(b) * math.cos(b))


def _c_ab_i_b_ii(a: float, b: float, p: float) -> float:
    return 2.0 * (1.0 - p) * a * a * math.sin(b) * math.cos(b)


CatalogFn = Callable[[float, float, float], float]

CATALOG: dict[tuple[str, str], CatalogFn] = {
    ("ABC_I", "S"): _s_abc_i,
    ("ABC_I", "E"): _e_abc_i,
    ("ABC_I", "C"): _c_abc_i,
    ("ABC_II", "S"): _s_abc_ii,
    ("ABC_II", "E"): _e_abc_ii,
    ("ABC_II", "C"): _c_abc_ii,
    ("AB_I_C_I", "S"): _s_ab_i_c_i,
    ("AB_I_C_I", "E"): _e_ab_i_c_i,
    ("AB_I_C_I", "C"): _c_ab_i_c_i,
    ("AB_I_C_II", "S"): _s_ab_i_c_ii,
    ("AB_I_C_II", "E"): _e_ab_i_c_ii,
    ("AB_I_C_II", "C"): _c_ab_i_c_ii,
    # Bob<->Charlie symmetric partners share expressions.
    ("AB_II_C_I", "S"): _s_ab_i_c_ii,
    ("AB_II_C_I", "E"): _e_ab_i_c_ii,
    ("AB_II_C_I", "C"): _c_ab_i_c_ii,
    ("AB_II_C_II", "S"): _s_ab_ii_c_ii,
    ("AB_II_C_II", "E"): _e_ab_ii_c_ii,
    ("AB_II_C_II", "C"): _c_ab_ii_c_ii,
    ("AB_I_B_II", "S"): _s_ab_i_b_ii,
    ("AB_I_B_II", "E"): _e_ab_i_b_ii,
    ("AB_I_B_II", "C"): _c_ab_i_b_ii,
    ("AC_I_C_II", "S"): _s_ab_i_b_ii,
    ("AC_I_C_II", "E"): _e_ab_i_b_ii,
    ("AC_I_C_II", "C"): _c_ab_i_b_ii,
}


def cf_eval(scenario_name: str, measure: str, alpha: float, beta: float, p: float) -> float:
    """Evaluate one catalog expression."""
    try:
        fn = CATALOG[(scenario_name, measure)]
    except KeyError:
        raise CoverageError(f"no closed form for ({scenario_name}, {measure})") from None
    return fn(alpha, beta, p)


@dataclass(frozen=True)
class SumRule:
    """One coherence relation: lhs is a combination of scenario coherences,
    rhs a closed expression in (alpha, p). `asserted` marks relations the
    numeric engine is expected to satisfy exactly; the remaining one is
    evaluated and reported only."""

    name: str
    asserted: bool
    lhs: Callable[[Callable[[str], float], float], float]
    rhs: Callable[[float, float], float]


def _lhs_charlie_pair_sq(c: Callable[[str], float], alpha: float) -> float:
    return c("ABC_I") ** 2 + c("ABC_II") ** 2


def _lhs_matched_wedges(c: Callable[[str], float], alpha: float) -> float:
    return c("AB_I_C_I") + c("AB_II_C_II")


def _lhs_bc_wedges_sq(c: Callable[[str], float], alpha: float) -> float:
    return (
        c("AB_I_C_I") ** 2
        + c("AB_II_C_II") ** 2
        + c("AB_I_C_II") ** 2
        + c("AB_II_C_I") ** 2
    )


def _lhs_same_observer_weighted(c: Callable[[str], float], alpha: float) -> float:
    return (
        c("AB_I_C_I") ** 2
        + c("AB_II_C_II") ** 2
        + (1.0 - alpha * alpha) * (c("AB_I_B_II") ** 2 + c("AC_I_C_II") ** 2)
    )


SUM_RULES: tuple[SumRule, ...] = (
    SumRule(
        "charlie_pair_coherence_sq",
        asserted=True,
        lhs=_lhs_charlie_pair_sq,
        rhs=lambda a, p: 4.0 * (1.0 - p) * a * a * (1.0 - a * a),
    ),
    SumRule(
        "matched_wedge_coherence_sum",
        asserted=True,
        lhs=_lhs_matched_wedges,
        rhs=lambda a, p: 2.0 * (1.0 - p) * _ghz_weight(a),
    ),
    SumRule(
        "bc_wedge_coherence_sq",
        asserted=True,
        lhs=_lhs_bc_wedges_sq,
        rhs=lambda a, p: 4.0 * (1.0 - p) ** 2 * a * a * (1.0 - a * a),
    ),
    SumRule(
        "same_observer_weighted_sq",
        asserted=False,
        lhs=_lhs_same_observer_weighted,
        rhs=lambda a, p: 4.0 * (1.0 - p) ** 2 * a * a * (1.0 - a * a),
    ),
)
