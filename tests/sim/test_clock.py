"""Tests for the time-span checks every time-stepping layer shares."""

import math

import pytest

from repro.sim import check_duration, check_interval


class TestCheckInterval:
    @pytest.mark.parametrize(
        "interval",
        [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf],
        ids=["zero", "negative-zero", "negative", "nan", "inf", "-inf"],
    )
    def test_rejects_non_positive_or_non_finite(self, interval):
        with pytest.raises(ValueError, match="interval must be positive and finite"):
            check_interval(interval)

    @pytest.mark.parametrize(
        "interval", [1e-9, 0.1, 10.0, 3600], ids=["tiny", "sub-second", "ten", "int"]
    )
    def test_accepts_positive_finite(self, interval):
        assert check_interval(interval) is None

    def test_message_names_the_rejected_value(self):
        with pytest.raises(ValueError, match=r"got -2\.5"):
            check_interval(-2.5)


class TestCheckDuration:
    @pytest.mark.parametrize(
        "duration",
        [-1.0, -1e-12, math.nan, math.inf, -math.inf],
        ids=["negative", "barely-negative", "nan", "inf", "-inf"],
    )
    def test_rejects_negative_or_non_finite(self, duration):
        with pytest.raises(ValueError, match="duration must be non-negative and finite"):
            check_duration(duration)

    @pytest.mark.parametrize(
        "duration",
        [0.0, -0.0, 0.5, 915.0, 60],
        ids=["zero", "negative-zero", "half", "long", "int"],
    )
    def test_accepts_non_negative_finite(self, duration):
        # A zero-length run is legal: it simply observes no interval.
        assert check_duration(duration) is None

    def test_message_names_the_rejected_value(self):
        with pytest.raises(ValueError, match="got nan"):
            check_duration(math.nan)
