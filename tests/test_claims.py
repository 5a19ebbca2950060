"""The abstract's claims, checked on the numeric engine.

All on one grid of 100 beta > 0 by 1000 p < 1 at three values of alpha.

- "The genuine tripartite entanglement and the quantum coherence may suffer
  sudden death": entanglement does die before full damping in one scenario
  and not in another, but coherence stays positive everywhere in all eight,
  up to the last float below p = 1: its sudden death does not reproduce.
- "Decoherence and the Unruh effect act differently": coherence falls with
  the damping p everywhere, but with the acceleration beta it falls in two
  scenarios and rises in the other six.
- "Coherence is the most robust, nonlocality the most fragile": wherever S
  exceeds 4, E is positive, and wherever E is positive, so is C."""
from __future__ import annotations

import math

import numpy as np
import pytest

from ghzsim import BETA_MAX, SCENARIOS, numeric_batch

ALPHAS = np.array([0.3, 1.0 / math.sqrt(2.0), 0.9])[:, None, None]
BETAS = np.linspace(0.0, BETA_MAX, 101)[1:, None]
PS = np.linspace(0.0, 1.0, 1001)[:-1]


def grid(name: str, measure: str) -> np.ndarray:
    """(alpha, beta, p) values of one measure over the claim grid."""
    return numeric_batch(name, ALPHAS, BETAS, PS, (measure,))[measure]


@pytest.mark.parametrize("name, zeros", [("AB_I_C_I", 30_395), ("ABC_I", 0)])
def test_entanglement_sudden_death(name, zeros):
    """E reaches exactly 0 before full damping at 30,395 points per alpha
    when Bob and Charlie both accelerate, and never when only Charlie does."""
    assert (grid(name, "E") == 0.0).sum(axis=(1, 2)).tolist() == [zeros] * 3


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_coherence_never_dies(name):
    assert (grid(name, "C") > 0.0).all()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_coherence_never_dies_at_the_edge_of_the_domain(name):
    """At the last float below p = 1, C is down to 1e-11 with one damped mode
    and to 4e-21 with two, against a trace of 1; it is still positive at
    every alpha and beta > 0 of the grid."""
    c = numeric_batch(name, ALPHAS, BETAS, np.nextafter(1.0, 0.0), ("C",))["C"]
    assert (c > 0.0).all()


#: Scenarios whose coherence falls as the observers accelerate.
C_FALLS_WITH_BETA = ("ABC_I", "AB_I_C_I")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_decoherence_and_the_unruh_effect_act_differently(name):
    """C strictly falls with p in every scenario; with beta it strictly falls
    in two and strictly rises in the other six. The smallest steps are about
    3.5e-8 in p, 1.1e-7 where C falls with beta and 1.1e-8 where it rises."""
    c = grid(name, "C")
    assert np.diff(c, axis=2).max() <= -3e-8
    by_beta = np.diff(c, axis=1)
    if name in C_FALLS_WITH_BETA:
        assert by_beta.max() <= -1e-7
    else:
        assert by_beta.min() >= 1e-8


#: X scenario -> the number of points per alpha where S > 4, E > 0 and C > 0.
ROBUSTNESS_COUNTS = {
    "ABC_I": ([0, 36_141, 7_276], 100_000, 100_000),
    "AB_I_C_I": ([0, 14_760, 2_690], 69_605, 100_000),
    **{name: ([0, 0, 0], 100_000, 100_000)
       for name in ("ABC_II", "AB_I_C_II", "AB_II_C_I", "AB_II_C_II")},
}


@pytest.mark.parametrize("name", sorted(ROBUSTNESS_COUNTS))
def test_coherence_most_robust_nonlocality_most_fragile(name):
    """Nonlocality (S > 4) needs entanglement (E > 0), which needs coherence
    (C > 0); only two scenarios are ever nonlocal on the grid, and only at
    two of the three alphas."""
    nonlocal_points = grid(name, "S") > 4.0
    entangled = grid(name, "E") > 0.0
    coherent = grid(name, "C") > 0.0
    assert not (nonlocal_points & ~entangled).any()
    assert not (entangled & ~coherent).any()
    s_counts, e_count, c_count = ROBUSTNESS_COUNTS[name]
    assert nonlocal_points.sum(axis=(1, 2)).tolist() == s_counts
    assert entangled.sum(axis=(1, 2)).tolist() == [e_count] * 3
    assert coherent.sum(axis=(1, 2)).tolist() == [c_count] * 3
