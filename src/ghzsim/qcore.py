"""The package's error class, the domain of its float parameters and the
tables the CLI parser is built from: the scenario table (`Scenario`,
`SCENARIOS`, `scenario`), the figure table `FIGURES` and the engine names
`ENGINES`. `sweep` imports them from here, so `ghzsim.cli` builds its
parser without numpy. Public functions take a scenario by name and look its
row up with `scenario`. The CLI exits 2 for a `ConfigError` and lets every
other exception propagate. `checked` is the one range check of alpha, beta,
p and tol, and the one rule that reads -0.0 as 0.0."""
from __future__ import annotations

import math
import sys
from typing import NamedTuple


class ConfigError(ValueError):
    """An invalid parameter, scenario or measure: the CLI exits 2 for it."""


BETA_MAX = math.pi / 4

#: name -> (upper limit, as shown in messages) of each float parameter, all
#: from 0. Beta's has a slack of 1e-15, so pi/4 computed another way passes;
#: a tolerance may be 0 (bisection stops at float spacing) but not infinite.
_DOMAIN = {"alpha": (1.0, "1"), "beta": (BETA_MAX + 1e-15, "pi/4"), "p": (1.0, "1"),
           "tol": (sys.float_info.max, repr(sys.float_info.max))}


def checked(name: str, values):
    """`values` of float parameter `name` (a float for a scalar, else a new
    array) with -0.0 read as 0.0, which changes no other value's bits; a
    ConfigError names the first value outside its domain, NaN included."""
    import numpy as np

    upper, shown = _DOMAIN[name]
    values = np.asarray(values, dtype=float)
    bad = ~((values >= 0.0) & (values <= upper))
    if bad.any():
        raise ConfigError(f"{name}={values[bad][0]} outside [0, {shown}]")
    values = values + 0.0
    return values if values.ndim else float(values)


class Scenario(NamedTuple):
    """Which observers accelerate, and which three modes are kept, as plain
    mode names. `expanded` lists the observers whose mode splits into its
    wedge pair, Bob before Charlie. `regions` lists the kept modes in
    register order, so they are the reduced register, and the reduced
    matrices use the big-endian basis: the first kept mode is the most
    significant bit."""

    name: str
    expanded: tuple[str, ...]
    regions: tuple[str, ...]

    @property
    def damped_modes(self) -> tuple[str, ...]:
        """Kept modes that belong to an accelerated observer; these are the
        ones coupled to the amplitude-damping environment."""
        return tuple(m for m in self.regions if "_" in m)


#: The paper's eight scenarios: name, observers expanded, kept modes.
#: `expanded` is not read off the kept modes: AC_I_C_II keeps neither of
#: Bob's modes, yet Bob accelerates, and that fixes the rounding of its
#: traced sums.
SCENARIOS: dict[str, Scenario] = {
    name: Scenario(name, tuple(expanded), tuple(regions.split()))
    for name, expanded, regions in (
        ("ABC_I", "C", "A B C_I"),
        ("ABC_II", "C", "A B C_II"),
        ("AB_I_C_I", "BC", "A B_I C_I"),
        ("AB_I_C_II", "BC", "A B_I C_II"),
        ("AB_II_C_I", "BC", "A B_II C_I"),
        ("AB_II_C_II", "BC", "A B_II C_II"),
        ("AB_I_B_II", "BC", "A B_I B_II"),
        ("AC_I_C_II", "BC", "A C_I C_II"),
    )
}


def scenario(name: str) -> Scenario:
    """The `SCENARIOS` row of `name`; anything else is a ConfigError."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; expected one of {sorted(SCENARIOS)}"
        ) from None


#: figure id -> (scenario, measures). All panels are drawn at alpha = 1/sqrt(2).
FIGURES: dict[int, tuple[str, tuple[str, ...]]] = {
    1: ("ABC_I", ("S",)),
    2: ("ABC_I", ("E", "C")),
    3: ("ABC_II", ("S", "E")),
    4: ("AB_I_C_I", ("S", "E")),
    5: ("AB_I_C_II", ("S", "E")),
    6: ("AB_II_C_II", ("S", "E")),
    7: ("AB_I_B_II", ("S", "E")),
}

ENGINES = ("numeric", "closedform", "both")
