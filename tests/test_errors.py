import math
from fractions import Fraction

import numpy as np
import pytest

from speds.errors import InvalidInput, number


class TestNumber:
    @pytest.mark.parametrize(
        "value,kwargs",
        [(0.5, {}), (-3, {}), (1, {"low": 1}), (1.0, {"high": 1.0}), (2, {"above": 1}),
         (0.0, {"below": 1e-300}), (np.float64(0.25), {"above": 0.0, "high": 1.0}),
         (np.int64(7), {"low": 0, "integer": True}), (Fraction(1, 3), {"below": 1})],
        ids=repr,
    )
    def test_a_number_in_range_is_returned_as_it_is(self, value, kwargs):
        assert number(value, "k", **kwargs) is value

    @pytest.mark.parametrize(
        "value,kwargs,message",
        [
            (True, {}, "k must be a finite number, got True"),
            ("1", {}, "k must be a finite number, got '1'"),
            ([], {}, "k must be a finite number, got []"),
            ({}, {}, "k must be a finite number, got {}"),
            (None, {}, "k must be a finite number, got None"),
            (1j, {}, "k must be a finite number, got 1j"),
            (math.nan, {}, "k must be a finite number, got nan"),
            (-math.inf, {}, "k must be a finite number, got -inf"),
            (math.inf, {"low": 0.0}, "k must be a finite number >= 0, got inf"),
            (2.0, {"integer": True}, "k must be an integer, got 2.0"),
            (False, {"integer": True}, "k must be an integer, got False"),
            (0.0, {"above": 0.0, "high": 1.0}, "k must be a finite number > 0 and <= 1, got 0.0"),
            (1.0, {"low": 0.0, "below": 1.0}, "k must be a finite number >= 0 and < 1, got 1.0"),
            (-1, {"low": 0, "high": 100, "integer": True},
             "k must be an integer >= 0 and <= 100, got -1"),
        ],
        ids=repr,
    )
    def test_anything_else_is_rejected_naming_the_key(self, value, kwargs, message):
        with pytest.raises(InvalidInput) as info:
            number(value, "k", **kwargs)
        assert str(info.value) == message

    def test_an_int_is_rejected_only_if_too_large_for_a_float(self):
        assert number(10**308, "k", integer=True) == 10**308
        with pytest.raises(InvalidInput, match=r"^k must be an integer, got 1000+$"):
            number(10**309, "k", integer=True)
