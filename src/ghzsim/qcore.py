"""The package's error classes and the tables the CLI parser is built from:
the scenario table (`Scenario`, `SCENARIOS`, `scenario`), the figure table
`FIGURES` and the engine names `ENGINES`. `sweep` imports them from here, so
`ghzsim.cli` builds its parser without numpy. Public functions take a
scenario by name and look its row up with `scenario`. The CLI exits 2 for a
`ConfigError` and lets every other exception propagate."""
from __future__ import annotations

from typing import NamedTuple


class ConfigError(ValueError):
    """A configuration value is invalid: the CLI exits 2 for it."""


class ParameterError(ConfigError):
    """A parameter outside its range, or a scenario or measure no table holds."""


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
    """The `SCENARIOS` row of `name`; anything else is a ParameterError."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ParameterError(
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
