"""Tests for token buckets, rate limiters and the TCAM model."""

import math

import pytest
from hypothesis import given

from fuzz.strategies import (
    offered_volumes,
    shaping_intervals,
    shaping_rates,
    tcam_allocation_sequences,
    token_amount_sequences,
    token_bursts,
    token_rates,
)
from repro.ixp import RateLimiter, TcamExhaustedError, TcamModel, TcamStatus, TokenBucket


class TestTokenBucket:
    def test_starts_full(self):
        bucket = TokenBucket(rate=1.0, burst=5.0)
        assert bucket.tokens == 5.0

    def test_consume_within_burst(self):
        bucket = TokenBucket(rate=1.0, burst=5.0)
        assert bucket.ready_at(5.0, now=0.0) == 0.0
        bucket.spend(5.0, now=0.0)
        assert bucket.ready_at(1.0, now=0.0) == 1.0

    def test_refill_over_time(self):
        bucket = TokenBucket(rate=2.0, burst=4.0)
        bucket.spend(4.0, now=0.0)
        assert bucket.ready_at(1.0, now=0.1) == pytest.approx(0.5)
        assert bucket.ready_at(2.0, now=1.0) == 1.0

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=3.0)
        bucket.spend(1.0, now=0.0)
        bucket.spend(0.0, now=100.0)
        assert bucket.tokens == 3.0

    def test_an_amount_over_the_burst_is_spent_as_it_arrives(self):
        bucket = TokenBucket(rate=2.0, burst=3.0)
        assert bucket.ready_at(7.0, now=0.0) == 2.0
        bucket.spend(7.0, now=2.0)
        assert bucket.tokens == 0.0

    def test_reading_does_not_spend(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        for _ in range(3):
            assert bucket.ready_at(2.0, now=0.0) == 0.0
        assert bucket.tokens == 2.0

    def test_zero_rate_never_refills(self):
        bucket = TokenBucket(rate=0.0, burst=1.0)
        bucket.spend(1.0, now=0.0)
        assert bucket.ready_at(1.0, now=10.0) == math.inf
        assert bucket.tokens == 0.0

    def test_time_cannot_move_backwards(self):
        bucket = TokenBucket(rate=1.0, burst=1.0)
        bucket.spend(1.0, now=5.0)
        with pytest.raises(ValueError):
            bucket.ready_at(0.0, now=1.0)
        with pytest.raises(ValueError):
            bucket.spend(0.0, now=1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=-1.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=1.0).ready_at(-1.0, now=0.0)

    @pytest.mark.parametrize(
        "rate,burst",
        [
            (math.nan, 1.0),
            (math.inf, 1.0),
            (1.0, math.nan),
            (1.0, math.inf),
        ],
    )
    def test_rejects_non_finite_rate_and_burst(self, rate, burst):
        # A NaN rate refilled the bucket to its burst on every call.
        with pytest.raises(ValueError):
            TokenBucket(rate=rate, burst=burst)

    @given(token_amount_sequences, token_rates, token_bursts)
    def test_property_consumption_never_exceeds_refill_plus_burst(self, amounts, rate, burst):
        bucket = TokenBucket(rate=rate, burst=burst)
        consumed = 0.0
        now = 0.0
        for amount in amounts:
            now += 1.0
            # Spend whatever is ready by now; wait for nothing.
            if bucket.ready_at(amount, now=now) == now:
                bucket.spend(amount, now=now)
                consumed += amount
        assert consumed <= burst + rate * now + 1e-6


class TestRateLimiter:
    def test_passes_up_to_rate(self):
        shaper = RateLimiter(rate_bps=100.0)
        passed, dropped = shaper.shape(offered_bits=2000.0, interval=10.0)
        assert passed == 1000.0
        assert dropped == 1000.0

    def test_under_offered_passes_everything(self):
        shaper = RateLimiter(rate_bps=100.0)
        passed, dropped = shaper.shape(offered_bits=500.0, interval=10.0)
        assert passed == 500.0
        assert dropped == 0.0

    def test_burst_credit_carries_over(self):
        shaper = RateLimiter(rate_bps=100.0, burst_bits=200.0)
        shaper.shape(offered_bits=0.0, interval=1.0)
        passed, _ = shaper.shape(offered_bits=400.0, interval=1.0)
        assert passed == pytest.approx(300.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RateLimiter(rate_bps=-1.0)
        with pytest.raises(ValueError):
            RateLimiter(rate_bps=1.0).shape(-1.0, 1.0)
        with pytest.raises(ValueError):
            RateLimiter(rate_bps=1.0).shape(1.0, 0.0)

    @given(offered_volumes, shaping_rates, shaping_intervals)
    def test_property_conservation(self, offered, rate, interval):
        passed, dropped = RateLimiter(rate_bps=rate).shape(offered, interval)
        assert passed + dropped == pytest.approx(offered)
        assert passed <= rate * interval + 1e-6


class TestTcamModel:
    def test_allocation_accounting(self):
        tcam = TcamModel(mac_filter_capacity=10, l3l4_criteria_capacity=20)
        tcam.allocate(port_id=1, mac_filters=3, l3l4_criteria=5)
        assert tcam.mac_filters_used == 3
        assert tcam.l3l4_criteria_used == 5
        assert tcam.usage_for_port(1) == (3, 5)

    def test_check_f1_takes_precedence(self):
        tcam = TcamModel(mac_filter_capacity=1, l3l4_criteria_capacity=1)
        assert tcam.check(mac_filters=5, l3l4_criteria=5) is TcamStatus.F1

    def test_check_f2_when_only_mac_exceeded(self):
        tcam = TcamModel(mac_filter_capacity=1, l3l4_criteria_capacity=100)
        assert tcam.check(mac_filters=5, l3l4_criteria=5) is TcamStatus.F2

    def test_check_ok(self):
        tcam = TcamModel(mac_filter_capacity=10, l3l4_criteria_capacity=10)
        assert tcam.check(1, 1) is TcamStatus.OK

    def test_allocate_raises_on_exhaustion(self):
        tcam = TcamModel(mac_filter_capacity=2, l3l4_criteria_capacity=2)
        tcam.allocate(1, 2, 2)
        with pytest.raises(TcamExhaustedError) as excinfo:
            tcam.allocate(2, 1, 1)
        assert excinfo.value.status is TcamStatus.F1

    def test_release(self):
        tcam = TcamModel(mac_filter_capacity=10, l3l4_criteria_capacity=10)
        tcam.allocate(1, 2, 3)
        tcam.release(1, 1, 1)
        assert tcam.usage_for_port(1) == (1, 2)

    def test_release_more_than_allocated_rejected(self):
        tcam = TcamModel(mac_filter_capacity=10, l3l4_criteria_capacity=10)
        tcam.allocate(1, 1, 1)
        with pytest.raises(ValueError):
            tcam.release(1, 2, 0)

    def test_release_port(self):
        tcam = TcamModel(mac_filter_capacity=10, l3l4_criteria_capacity=10)
        tcam.allocate(1, 2, 2)
        tcam.allocate(2, 2, 2)
        tcam.release_port(1)
        assert tcam.mac_filters_used == 2

    def test_negative_amounts_rejected(self):
        tcam = TcamModel(mac_filter_capacity=10, l3l4_criteria_capacity=10)
        with pytest.raises(ValueError):
            tcam.check(-1, 0)
        with pytest.raises(ValueError):
            tcam.release(1, -1, 0)

    def test_invalid_capacities(self):
        with pytest.raises(ValueError):
            TcamModel(mac_filter_capacity=0, l3l4_criteria_capacity=1)

    @given(tcam_allocation_sequences)
    def test_property_usage_never_exceeds_capacity(self, allocations):
        tcam = TcamModel(mac_filter_capacity=40, l3l4_criteria_capacity=40)
        for port, (mac, l3l4) in enumerate(allocations):
            try:
                tcam.allocate(port, mac, l3l4)
            except TcamExhaustedError:
                pass
        assert tcam.mac_filters_used <= 40
        assert tcam.l3l4_criteria_used <= 40
