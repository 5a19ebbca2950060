"""The abstract's sudden-death claims, checked on the numeric engine.

The abstract says that "the genuine tripartite entanglement and the quantum
coherence may suffer sudden death". On a grid of 100 beta > 0 by 1000 p < 1
at three values of alpha, entanglement does die before full damping in one
scenario and not in another, but coherence stays positive everywhere in all
eight: its sudden death does not reproduce."""
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
