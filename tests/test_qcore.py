"""The one range check of the numeric parameters and its -0.0 rule."""
from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from ghzsim import BETA_MAX, ConfigError
from ghzsim.qcore import checked


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

    @pytest.mark.parametrize(
        "name, low",
        [("beta_steps", 1), ("p_steps", 1), ("resolution", 16), ("samples", 1), ("seed", 0)],
    )
    def test_a_count_from_its_low_end_passes_as_given(self, name, low):
        """A count has no high end: its low end and any larger int, a seed
        past 64 bits included, come back as the same int."""
        for value in (low, low + 1, 2**70):
            assert checked(name, value) is value
        with pytest.raises(ConfigError, match=f"^{name}={low - 1} outside \\[{low}, inf\\]$"):
            checked(name, low - 1)
