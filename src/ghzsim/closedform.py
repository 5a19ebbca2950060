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

Every expression is a numpy array expression, so `cf_eval` maps
broadcastable (alpha, beta, p) to an array of the broadcast shape, like the
numeric engine. Powers use `np.float_power` (libm `pow`, as float `**` does):
array `**` multiplies instead and would move some values in the last digit.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class CoverageError(KeyError):
    """No catalog entry exists for the requested (scenario, measure)."""


def _ghz_weight(alpha: np.ndarray) -> np.ndarray:
    return alpha * np.sqrt(np.maximum(1.0 - alpha * alpha, 0.0))


_SQRT2_8 = 8.0 * np.sqrt(2.0)

#: libm `pow`, as Python's float `**` (see the module docstring).
_pow = np.float_power


# --- Charlie accelerated, accessible wedge kept -----------------------------

def _s_abc_i(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    f_branch = _SQRT2_8 * np.sqrt(1.0 - p) * _ghz_weight(a) * np.cos(b)
    cb2, sb2 = _pow(np.cos(b), 2), _pow(np.sin(b), 2)
    n_branch = 4.0 * (
        a * a * cb2 + 2.0 * p * a * a * sb2 - a * a * sb2 + (2.0 * p - 1.0) * (1.0 - a * a)
    )
    return np.maximum(f_branch, n_branch)


def _e_abc_i(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    lead = np.sqrt(1.0 - p) * _ghz_weight(a) * np.cos(b)
    # Single radical over the product (1-p) * a^2 sin^2(b) * p * (1-a^2).
    cross = np.sqrt(np.maximum((1.0 - p) * a * a * _pow(np.sin(b), 2) * p * (1.0 - a * a), 0.0))
    return 2.0 * np.maximum(0.0, lead - cross)


def _c_abc_i(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    return 2.0 * np.sqrt(1.0 - p) * _ghz_weight(a) * np.cos(b)


# --- Charlie accelerated, inaccessible wedge kept ---------------------------

def _s_abc_ii(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    f_branch = _SQRT2_8 * np.sqrt(1.0 - p) * _ghz_weight(a) * np.sin(b)
    cb2, sb2 = _pow(np.cos(b), 2), _pow(np.sin(b), 2)
    n_branch = 4.0 * (a * a * cb2 + 2.0 * p * a * a * sb2 + (1.0 - a * a) - a * a * sb2)
    return np.maximum(f_branch, n_branch)


def _e_abc_ii(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    return 2.0 * np.sqrt(1.0 - p) * _ghz_weight(a) * np.sin(b)


_c_abc_ii = _e_abc_ii  # the E = C identity for this combination


# --- Bob and Charlie accelerated --------------------------------------------

def _s_ab_i_c_i(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    f_branch = _SQRT2_8 * np.sqrt(1.0 - p) * _ghz_weight(a) * np.cos(b)
    cb, sb = np.cos(b), np.sin(b)
    q = 1.0 - 2.0 * p + 2.0 * p * p
    # The quartic bracket is read with q multiplying sin^4(b); that is the
    # only reading consistent with the p = 0 limit of the same expression.
    n_branch = 4.0 * (
        a * a * (_pow(cb, 4) - 2.0 * _pow(sb, 2) * _pow(cb, 2) + q * _pow(sb, 4))
        - q * (1.0 - a * a)
    )
    return np.maximum(f_branch, n_branch)


def _e_ab_i_c_i(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    cb, sb = np.cos(b), np.sin(b)
    lead = (1.0 - p) * _ghz_weight(a) * _pow(cb, 2)
    mid = a * sb * np.sqrt(np.maximum((1.0 - p) * _pow(cb, 2) - (1.0 - p) * p * _pow(sb, 2), 0.0))
    tail = (1.0 - p) * a * _pow(sb, 2) * np.sqrt(np.maximum(p * (1.0 - a * a), 0.0))
    return 2.0 * np.maximum(0.0, lead - mid - tail)


def _c_ab_i_c_i(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    return 2.0 * (1.0 - p) * _ghz_weight(a) * _pow(np.cos(b), 2)


def _s_ab_i_c_ii(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    f_branch = _SQRT2_8 * (1.0 - p) * _ghz_weight(a) * np.sin(b) * np.cos(b)
    cb2, sb2 = _pow(np.cos(b), 2), _pow(np.sin(b), 2)
    n_branch = 4.0 * (a * a * _pow(cb2 - sb2, 2) + (1.0 - 2.0 * p) * (1.0 - a * a))
    return np.maximum(f_branch, n_branch)


def _e_ab_i_c_ii(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    lead = (1.0 - p) * _ghz_weight(a) * np.sin(b) * np.cos(b)
    tail = (1.0 - p) * a * _pow(np.sin(b), 2) * np.sqrt(np.maximum(p * (1.0 - a * a), 0.0))
    return 2.0 * np.maximum(0.0, lead - tail)


def _c_ab_i_c_ii(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    return 2.0 * (1.0 - p) * _ghz_weight(a) * np.sin(b) * np.cos(b)


def _s_ab_ii_c_ii(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    f_branch = _SQRT2_8 * (1.0 - p) * _ghz_weight(a) * _pow(np.sin(b), 2)
    cb2, sb2 = _pow(np.cos(b), 2), _pow(np.sin(b), 2)
    n_branch = 4.0 * (a * a * _pow(cb2 - sb2, 2) - (1.0 - a * a))
    return np.maximum(f_branch, n_branch)


def _e_ab_ii_c_ii(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    return 2.0 * np.maximum(0.0, (1.0 - p) * _ghz_weight(a) * _pow(np.sin(b), 2))


def _c_ab_ii_c_ii(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    return 2.0 * (1.0 - p) * _ghz_weight(a) * _pow(np.sin(b), 2)


def _s_ab_i_b_ii(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    f_branch = _SQRT2_8 * (1.0 - p) * a * a * np.sin(b) * np.cos(b)
    cb2, sb2 = _pow(np.cos(b), 2), _pow(np.sin(b), 2)
    n_branch = 4.0 * (
        a * a * (cb2 + (2.0 * p + 2.0 * p * p - 1.0) * sb2) + (1.0 - p) * (1.0 - a * a)
    )
    return np.maximum(f_branch, n_branch)


def _e_ab_i_b_ii(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    return 2.0 * np.maximum(0.0, (1.0 - p) * a * a * np.sin(b) * np.cos(b))


def _c_ab_i_b_ii(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    return 2.0 * (1.0 - p) * a * a * np.sin(b) * np.cos(b)


CatalogFn = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]

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


def cf_eval(scenario_name: str, measure: str, alpha, beta, p) -> np.ndarray:
    """Evaluate one catalog expression at every point of the broadcast of
    (alpha, beta, p); the result has the broadcast shape."""
    try:
        fn = CATALOG[(scenario_name, measure)]
    except KeyError:
        raise CoverageError(f"no closed form for ({scenario_name}, {measure})") from None
    return fn(*np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (alpha, beta, p))))


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
        rhs=lambda a, p: 4.0 * _pow(1.0 - p, 2) * a * a * (1.0 - a * a),
    ),
    SumRule(
        "same_observer_weighted_sq",
        asserted=False,
        lhs=_lhs_same_observer_weighted,
        rhs=lambda a, p: 4.0 * _pow(1.0 - p, 2) * a * a * (1.0 - a * a),
    ),
)
