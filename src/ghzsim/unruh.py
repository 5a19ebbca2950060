"""GHZ-like state preparation and the single-mode expansion seen by
uniformly accelerated observers.

An accelerated observer's qubit mode splits into a pair of wedge modes:
the accessible one (suffix _I) and the inaccessible one (suffix _II).
For a fermionic field the vacuum and excited states map as

    |0>  ->  cos(beta)|0>_I|0>_II + sin(beta)|1>_I|1>_II
    |1>  ->  |1>_I|0>_II

with beta in [0, pi/4]; beta = 0 is the inertial limit and beta = pi/4 the
infinite-acceleration limit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .qcore import (
    DensityOperator,
    LabelError,
    ModeLabel,
    ModeRegister,
    ParameterError,
    PureState,
    partial_trace,
)

BETA_MAX = math.pi / 4
#: Slack on the upper beta limit, so that pi/4 computed another way passes.
#: Every beta range check uses it: a beta accepted anywhere is accepted by
#: the pipeline.
BETA_TOL = 1e-15


@dataclass(frozen=True)
class GhzParams:
    """Amplitude of the |000> component of alpha|000> + sqrt(1-alpha^2)|111>."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ParameterError(f"alpha={self.alpha} outside [0, 1]")


@dataclass(frozen=True)
class UnruhParams:
    """Acceleration angle in radians."""

    beta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta <= BETA_MAX + BETA_TOL:
            raise ParameterError(f"beta={self.beta} outside [0, pi/4]")


class ScenarioKind(Enum):
    CHARLIE_ACCELERATED = "charlie_accelerated"
    BOB_CHARLIE_ACCELERATED = "bob_charlie_accelerated"


@dataclass(frozen=True)
class Scenario:
    """Which observers accelerate, and which three modes are kept."""

    name: str
    kind: ScenarioKind
    regions: tuple[ModeLabel, ...]

    def __post_init__(self) -> None:
        allowed = (
            {ModeLabel.A, ModeLabel.B, ModeLabel.C_I, ModeLabel.C_II}
            if self.kind is ScenarioKind.CHARLIE_ACCELERATED
            else {ModeLabel.A, ModeLabel.B_I, ModeLabel.B_II, ModeLabel.C_I, ModeLabel.C_II}
        )
        if len(self.regions) != 3 or set(self.regions) - allowed:
            raise LabelError(f"regions {self.regions} inconsistent with scenario kind {self.kind}")

    @property
    def damped_modes(self) -> tuple[ModeLabel, ...]:
        """Kept modes that belong to an accelerated observer; these are the
        ones coupled to the amplitude-damping environment."""
        return tuple(m for m in self.regions if m.is_wedge_mode)


def _make_scenarios() -> dict[str, Scenario]:
    L = ModeLabel
    single = ScenarioKind.CHARLIE_ACCELERATED
    double = ScenarioKind.BOB_CHARLIE_ACCELERATED
    table = {
        "ABC_I": (single, (L.A, L.B, L.C_I)),
        "ABC_II": (single, (L.A, L.B, L.C_II)),
        "AB_I_C_I": (double, (L.A, L.B_I, L.C_I)),
        "AB_I_C_II": (double, (L.A, L.B_I, L.C_II)),
        "AB_II_C_I": (double, (L.A, L.B_II, L.C_I)),
        "AB_II_C_II": (double, (L.A, L.B_II, L.C_II)),
        "AB_I_B_II": (double, (L.A, L.B_I, L.B_II)),
        "AC_I_C_II": (double, (L.A, L.C_I, L.C_II)),
    }
    return {name: Scenario(name, kind, regions) for name, (kind, regions) in table.items()}


SCENARIOS: dict[str, Scenario] = _make_scenarios()


def scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ParameterError(
            f"unknown scenario {name!r}; expected one of {sorted(SCENARIOS)}"
        ) from None


def build_ghz(params: GhzParams) -> PureState:
    """alpha|000> + sqrt(1-alpha^2)|111> over the register (A, B, C)."""
    register = ModeRegister((ModeLabel.A, ModeLabel.B, ModeLabel.C))
    alpha = params.alpha
    return PureState.from_amplitudes(
        register, {"000": alpha, "111": math.sqrt(1.0 - alpha * alpha)}
    )


_WEDGE_PAIRS = {
    ModeLabel.B: (ModeLabel.B_I, ModeLabel.B_II),
    ModeLabel.C: (ModeLabel.C_I, ModeLabel.C_II),
}


def unruh_expand(state: PureState, target: ModeLabel, params: UnruhParams) -> PureState:
    """Replace `target` by its wedge-mode pair, in place in the register.

    The accessible mode takes the target's original position and the
    inaccessible mode is inserted immediately after it.
    """
    target = ModeLabel(target)
    if target not in _WEDGE_PAIRS:
        raise LabelError(f"mode {target.value} has no wedge-mode expansion")
    mode_i, mode_ii = _WEDGE_PAIRS[target]
    if mode_i in state.register or mode_ii in state.register:
        raise LabelError(f"mode {target.value} already expanded in register {state.register}")
    pos = state.register.position(target)

    old_modes = state.register.modes
    new_modes = old_modes[:pos] + (mode_i, mode_ii) + old_modes[pos + 1 :]
    new_register = ModeRegister(new_modes)

    n = state.register.n_modes
    cos_b, sin_b = math.cos(params.beta), math.sin(params.beta)
    vec = np.zeros(new_register.dim, dtype=complex)
    for idx in np.flatnonzero(state.vector):
        amp = state.vector[idx]
        bits = format(idx, f"0{n}b")
        prefix, bit, suffix = bits[:pos], bits[pos], bits[pos + 1 :]
        if bit == "0":
            vec[int(prefix + "00" + suffix, 2)] += amp * cos_b
            vec[int(prefix + "11" + suffix, 2)] += amp * sin_b
        else:
            vec[int(prefix + "10" + suffix, 2)] += amp
    return PureState(new_register, vec)


def scenario_reduced_state(
    ghz: GhzParams, unruh: UnruhParams, scen: Scenario
) -> DensityOperator:
    """Three-mode reduced density operator for one scenario.

    Charlie's mode is always expanded; Bob's is expanded too when both
    observers accelerate (same beta for both). The inaccessible complement
    of the kept regions is traced out.
    """
    state = build_ghz(ghz)
    if scen.kind is ScenarioKind.BOB_CHARLIE_ACCELERATED:
        state = unruh_expand(state, ModeLabel.B, unruh)
    state = unruh_expand(state, ModeLabel.C, unruh)
    return partial_trace(state.to_density(), scen.regions)
