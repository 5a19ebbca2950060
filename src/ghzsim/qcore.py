"""The package's error class, its tables (the measure names `MEASURES`, the
scenario table `Scenario` and `SCENARIOS`, the figure table `FIGURES`, the
engine names `ENGINES`, the boundary rule table `BOUNDARY_RULES` and `CHOICES`,
the one table of choices of every named parameter, the CLI's `format` too) and
`checked`, the one check of every parameter, numeric or named, which the CLI
applies to each named flag before numpy loads. Public functions take a
scenario by name and look its row up once `checked` has passed it. The CLI
exits 2 for a `ConfigError` and lets every other exception propagate.
`checked` is also the one rule that reads -0.0 as 0.0."""
from __future__ import annotations

import math
import operator
import sys
from typing import NamedTuple


class ConfigError(ValueError):
    """An invalid parameter, scenario or measure: the CLI exits 2 for it."""


BETA_MAX = math.pi / 4

MEASURES = ("S", "E", "C")


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

#: boundary measure -> (threshold, slack): the scan finds the first value <=
#: threshold + slack; bisection keeps its lower end while the value exceeds
#: the threshold. S falls to the classical bound 4; E reaches exactly 0.
BOUNDARY_RULES = {"S": (4.0, 1e-12), "E": (0.0, 0.0)}

#: name -> (low end, high end, high end as messages show it) of each numeric
#: parameter. Beta's high end has a slack of 1e-15, so pi/4 computed another
#: way passes; a tolerance may be 0 (bisection stops at float spacing) but not
#: infinite. A count's low end is an int and it has no high end (None): a
#: seed may be any int that `random.Random` takes.
_DOMAIN = {"alpha": (0.0, 1.0, "1"), "beta": (0.0, BETA_MAX + 1e-15, "pi/4"),
           "p": (0.0, 1.0, "1"), "tol": (0.0, sys.float_info.max, repr(sys.float_info.max)),
           "beta_steps": (1, None, "inf"), "p_steps": (1, None, "inf"),
           "resolution": (16, None, "inf"), "samples": (1, None, "inf"),
           "seed": (0, None, "inf")}

#: name -> the values of each named parameter, the CLI's `format` included, in
#: the order messages list them; `measures` takes a nonempty tuple with no repeats.
CHOICES = {"scenario": tuple(sorted(SCENARIOS)), "measure": tuple(BOUNDARY_RULES),
           "measures": MEASURES, "engine": ENGINES, "figure": tuple(FIGURES),
           "format": ("csv", "json")}


def checked(name: str, values):
    """`values` of parameter `name`. A named parameter's value comes back
    unchanged, with no numpy loaded. A numeric one's comes back as a count,
    an int by `operator.index` (an int is itself), or as floats (a float for a
    scalar, else a new array) with -0.0 read as 0.0, which changes no other
    value's bits. A ConfigError names a value that is no choice, or a count
    that is no int (a bool is none), as `name=value not in (choices)` or
    `name=value is not an int`, with the value's repr, and the first numeric
    value outside the domain, NaN included, as `name=value outside [low,
    high]`."""
    if (choices := CHOICES.get(name)) is not None:
        listed = values if name == "measures" else (values,)
        if not (isinstance(listed, tuple) and listed and all(v in choices for v in listed)
                and len(set(listed)) == len(listed)):
            raise ConfigError(f"{name}={values!r} not in {choices}")
        return values
    import numpy as np

    low, high, shown = _DOMAIN[name]
    if isinstance(low, int):  # a count: one int of any size
        try:
            values = operator.index(None if isinstance(values, bool) else values)
        except TypeError:
            raise ConfigError(f"{name}={values!r} is not an int") from None
        bad = [values] if values < low else []
    else:
        values = np.asarray(values, dtype=float) + 0.0
        bad = values[~((values >= low) & (values <= high))]
        values = values if values.ndim else float(values)
    if len(bad):
        raise ConfigError(f"{name}={bad[0]} outside [{low:g}, {shown}]")
    return values
