"""The one check of every parameter: the numeric domains with their -0.0
rule, the counts read as ints, and the choices of the named parameters."""
from __future__ import annotations

import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghzsim
from ghzsim import BETA_MAX, SCENARIOS, ConfigError, run_audit, run_sweep, sum_rule_samples
from ghzsim.qcore import BOUNDARY_RULES, ENGINES, FIGURES, MEASURES, checked
from ghzsim.sweep import json_text

#: Each count and its low end.
COUNTS = [("beta_steps", 1), ("p_steps", 1), ("resolution", 16), ("samples", 1), ("seed", 0)]


class TestChecked:
    @pytest.mark.parametrize(
        "name, hi", [("alpha", 1.0), ("beta", BETA_MAX), ("p", 1.0), ("tol", sys.float_info.max)]
    )
    def test_domain_ends_are_valid_and_pass_unchanged(self, name, hi):
        assert checked(name, 0.0) == 0.0
        assert checked(name, hi) == hi

    @pytest.mark.parametrize("name", ["alpha", "beta", "p", "tol"])
    def test_negative_zero_reads_as_zero(self, name):
        assert math.copysign(1.0, checked(name, -0.0)) == 1.0
        values = checked(name, np.array([0.25, -0.0]))
        assert values.tolist() == [0.25, 0.0] and math.copysign(1.0, values[1]) == 1.0

    def test_a_scalar_gives_a_float_and_an_array_a_fresh_array(self):
        assert type(checked("alpha", 0.5)) is float
        given = np.array([[0.1], [0.2]])
        values = checked("alpha", given)
        assert values.shape == (2, 1) and values is not given
        assert values.tobytes() == given.tobytes()

    @pytest.mark.parametrize(
        "name, bad",
        [("alpha", 1.5), ("beta", BETA_MAX + 1e-13), ("p", -1e-300), ("tol", math.inf),
         ("tol", -math.inf), ("p", math.nan)],
    )
    def test_first_value_outside_is_a_config_error(self, name, bad):
        with pytest.raises(ConfigError, match=f"^{name}={bad} outside \\[0, "):
            checked(name, [0.0, bad, 2.0])

    @pytest.mark.parametrize("name, low", COUNTS)
    def test_a_count_from_its_low_end_passes_as_given(self, name, low):
        """A count has no high end: its low end and any larger int, a seed
        past 64 bits included, come back as the same int."""
        for value in (low, low + 1, 2**70):
            assert checked(name, value) is value
        with pytest.raises(ConfigError, match=f"^{name}={low - 1} outside \\[{low}, inf\\]$"):
            checked(name, low - 1)


class TestCounts:
    """A count is read with `operator.index`: any integer type gives a Python
    int, and a value that is no integer, a bool included, is one ConfigError
    line."""

    @pytest.mark.parametrize("name, low", COUNTS)
    def test_a_numpy_int_comes_back_a_python_int(self, name, low):
        for value in (np.int64(low), np.uint8(low + 1)):
            got = checked(name, value)
            assert type(got) is int and got == value
        with pytest.raises(ConfigError, match=f"^{name}={low - 1} outside \\[{low}, inf\\]$"):
            checked(name, np.int64(low - 1))

    @pytest.mark.parametrize("name", [name for name, _ in COUNTS])
    @pytest.mark.parametrize(
        "bad", [3.0, math.nan, np.float64(3.0), "3", None, True, False],
        ids=["float", "nan", "np-float", "str", "none", "true", "false"],
    )
    def test_a_count_that_is_no_int_is_a_config_error(self, name, bad):
        message = f"{name}={bad!r} is not an int"
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
            checked(name, bad)

    def test_workflows_read_numpy_ints_as_ints(self):
        """A seed of numpy's type draws Python's stream as the int does, and
        an audit echoes a numpy step count as a JSON number."""
        assert sum_rule_samples(samples=2, seed=np.int64(3)) == sum_rule_samples(samples=2, seed=3)
        report = run_audit(beta_steps=np.int64(3), p_steps=2, samples=2, scenario="ABC_I")
        config = json.loads(json_text(report))["config"]
        assert config["beta_range"] == [0.0, BETA_MAX, 3] and config["p_range"] == [0.0, 1.0, 2]

    def test_a_float_step_count_is_a_config_error(self):
        with pytest.raises(ConfigError, match=r"^beta_steps=3\.0 is not an int$"):
            run_sweep(beta_steps=3.0)


#: Each named parameter's choices, in the order its message lists them.
NAMED = {
    "scenario": tuple(sorted(SCENARIOS)),
    "measure": tuple(BOUNDARY_RULES),
    "measures": MEASURES,
    "engine": ENGINES,
    "figure": tuple(FIGURES),
    "format": ("csv", "json"),
}


class TestNamedDomains:
    @pytest.mark.parametrize("name", [n for n in NAMED if n != "measures"])
    def test_every_choice_passes_unchanged(self, name):
        for choice in NAMED[name]:
            assert checked(name, choice) is choice

    def test_every_measures_tuple_passes_unchanged(self):
        """Any nonempty ordering of distinct measures, the order kept."""
        for k in range(1, len(MEASURES) + 1):
            for wanted in itertools.permutations(MEASURES, k):
                assert checked("measures", wanted) is wanted

    @settings(max_examples=50, deadline=None)
    @given(name=st.sampled_from(sorted(NAMED)), text=st.text())
    def test_drawn_text_that_is_no_choice_is_a_config_error(self, name, text):
        """A text is a choice only of the rows of texts; for `measures` no
        text is one, as it takes a tuple."""
        if name != "measures" and text in NAMED[name]:
            assert checked(name, text) is text
            return
        message = f"{name}={text!r} not in {NAMED[name]}"
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
            checked(name, text)

    @pytest.mark.parametrize("row", SCENARIOS.values(), ids=list(SCENARIOS))
    def test_a_scenario_row_is_no_name(self, row):
        with pytest.raises(ConfigError, match="^" + re.escape(f"scenario={row!r} not in (")):
            checked("scenario", row)

    @pytest.mark.parametrize(
        "measures",
        [(), ("S", "S"), ("S", "E", "S"), ("Q",), ("S", "Q"), ("s",), ["S"], "S"],
        ids=["empty", "repeat", "repeat-apart", "unknown", "one-unknown", "lower-case",
             "list", "text"],
    )
    def test_measures_is_a_nonempty_tuple_of_distinct_measures(self, measures):
        message = f"measures={measures!r} not in ('S', 'E', 'C')"
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
            checked("measures", measures)

    def test_a_name_check_loads_no_numpy(self):
        code = (
            "import sys\n"
            "from ghzsim.qcore import checked\n"
            "checked('scenario', 'ABC_I')\n"
            "checked('measures', ('S', 'E'))\n"
            "sys.exit('numpy' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(ghzsim.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
