"""Tests for the analysis helpers (stats, collateral, policy control, time series)."""

import numpy as np
import pytest

from repro.analysis import (
    AttackTimeSeries,
    cdf_quantile,
    collateral_damage,
    fine_grained_filter_potential,
    fraction_below,
    linear_regression,
    mean_confidence_interval,
    policy_control_distribution,
    port_share_timeseries,
    welch_t_test,
)
from oracle import trace as reference
from oracle.records import FiveTuple, FlowRecord, from_records
from repro.bgp import PolicyControl
from repro.mitigation import MitigationOutcome
from repro.traffic import IpProtocol, TrafficTrace


def make_flow(src_port=11211, bytes_=1000, is_attack=True, start=0.0, protocol=IpProtocol.UDP,
              dst_port=40000, ingress=65001):
    return FlowRecord(
        key=FiveTuple("23.1.1.1", "100.10.10.10", protocol, src_port, dst_port),
        start=start,
        duration=60.0,
        bytes=bytes_,
        packets=1,
        ingress_member_asn=ingress,
        egress_member_asn=64500,
        is_attack=is_attack,
    )


class TestWelchTest:
    def test_detects_clear_difference(self):
        rng = np.random.default_rng(1)
        high = rng.normal(0.3, 0.02, size=50)
        low = rng.normal(0.01, 0.005, size=50)
        result = welch_t_test(high, low, alpha=0.02)
        assert result.significant
        assert result.p_value < 0.02

    def test_no_difference_not_significant(self):
        rng = np.random.default_rng(2)
        a = rng.normal(0.1, 0.02, size=50)
        b = rng.normal(0.1, 0.02, size=50)
        assert not welch_t_test(a, b, alpha=0.02).significant

    def test_requires_two_observations(self):
        with pytest.raises(ValueError):
            welch_t_test([1.0], [1.0, 2.0])

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            welch_t_test([1.0, 2.0], [1.0, 2.0], alpha=1.5)

    def test_str_rendering(self):
        result = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert "p=" in str(result)


class TestConfidenceInterval:
    def test_interval_brackets_mean(self):
        interval = mean_confidence_interval([1.0, 2.0, 3.0, 4.0, 5.0])
        assert interval.lower < interval.mean < interval.upper
        assert interval.mean == 3.0
        assert interval.half_width > 0

    def test_single_observation_collapses(self):
        interval = mean_confidence_interval([2.0])
        assert interval.lower == interval.upper == 2.0

    def test_constant_sample_collapses(self):
        interval = mean_confidence_interval([2.0, 2.0, 2.0])
        assert interval.half_width == 0.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([])

    def test_invalid_confidence(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([1.0, 2.0], confidence=1.5)


class TestCdfHelpers:
    def test_quantile_and_fraction(self):
        sample = list(range(100))
        assert cdf_quantile(sample, 0.95) == pytest.approx(94.05)
        assert fraction_below(sample, 49) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cdf_quantile([], 0.5)
        with pytest.raises(ValueError):
            fraction_below([], 1.0)

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            cdf_quantile([1.0], 1.5)


class TestLinearRegression:
    def test_recovers_known_line(self):
        x = np.linspace(0, 10, 50)
        y = 2.0 + 3.0 * x
        fit = linear_regression(x, y)
        assert fit.slope == pytest.approx(3.0)
        assert fit.intercept == pytest.approx(2.0)
        assert fit.predict(4.0) == pytest.approx(14.0)
        assert fit.solve_for_x(14.0) == pytest.approx(4.0)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            linear_regression([1.0], [1.0, 2.0])

    def test_solve_for_x_zero_slope(self):
        fit = linear_regression([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
        with pytest.raises(ZeroDivisionError):
            fit.solve_for_x(6.0)


class TestCollateralAnalysis:
    def test_collateral_damage_report(self):
        outcome = MitigationOutcome(
            delivered_table=from_records([make_flow(is_attack=True, bytes_=100)]),
            discarded_table=from_records(
                [
                    make_flow(is_attack=False, bytes_=50),
                    make_flow(is_attack=True, bytes_=300),
                ]
            ),
        )
        report = collateral_damage(outcome)
        assert report.collateral_damage_fraction == 1.0
        assert report.attack_removed_fraction == pytest.approx(0.75)

    def test_empty_outcome(self):
        report = collateral_damage(MitigationOutcome())
        assert report.collateral_damage_fraction == 0.0
        assert report.attack_removed_fraction == 0.0

    def test_fine_grained_filter_potential(self):
        flows = [
            make_flow(src_port=11211, is_attack=True, bytes_=900),
            make_flow(src_port=443, is_attack=False, bytes_=100, protocol=IpProtocol.TCP),
        ]
        potential = fine_grained_filter_potential(
            from_records(flows), IpProtocol.UDP, 11211
        )
        assert potential["attack_removed_fraction"] == 1.0
        assert potential["legitimate_removed_fraction"] == 0.0
        assert potential["total_removed_fraction"] == 0.9
        # A trace is read through its table.
        trace = TrafficTrace(from_records(flows))
        assert fine_grained_filter_potential(trace, IpProtocol.UDP, 11211) == potential

    def test_port_share_timeseries(self):
        flows = [
            make_flow(src_port=443, protocol=IpProtocol.TCP, is_attack=False, start=0.0),
            make_flow(src_port=11211, start=60.0, bytes_=9000),
            make_flow(src_port=123, start=90.0, bytes_=1000),
        ]
        trace = TrafficTrace(from_records(flows))
        snapshots = port_share_timeseries(trace, interval=60.0, top_ports=(443, 11211))
        assert snapshots == reference.port_share_timeseries(flows, 60.0, (443, 11211))
        assert snapshots[0].share_of(443) == 1.0
        assert snapshots[1].shares == {11211: 0.9, -1: 0.1}
        # The 11211 flow ends at 120 s, so the last window sees only port 123,
        # folded into "others" under -1 (not under a wrapped uint16 port).
        assert snapshots[2].shares == {-1: 1.0}

    @pytest.mark.parametrize("interval", [0.0, -1.0, float("nan"), float("inf")])
    def test_port_share_timeseries_invalid_interval(self, interval):
        trace = TrafficTrace(from_records([make_flow()]))
        with pytest.raises(ValueError):
            port_share_timeseries(trace, interval, ())


class TestComplianceAnalysis:
    def test_policy_control_distribution(self):
        controls = [PolicyControl()] * 9 + [PolicyControl(except_asns=frozenset({1}))]
        distribution = policy_control_distribution(controls)
        assert distribution.total == 10
        assert distribution.share_of("All") == pytest.approx(0.9)
        assert distribution.share_of("All-1") == pytest.approx(0.1)
        assert distribution.share_of("missing") == 0.0

    def test_category_ordering(self):
        controls = [
            PolicyControl(),
            PolicyControl(except_asns=frozenset({1})),
            PolicyControl(except_asns=frozenset({1, 2, 3, 4, 5})),
            PolicyControl(announce_to_all=False, only_asns=frozenset(range(20))),
        ]
        ordered = policy_control_distribution(controls).categories_sorted()
        assert ordered == ["All-5", "All-1", "All", "20"]


class TestAttackTimeSeries:
    def _series(self):
        series = AttackTimeSeries()
        series.record(0.0, delivered_mbps=10.0, peer_count=2)
        series.record(10.0, delivered_mbps=1000.0, peer_count=40, attack_delivered_mbps=990.0)
        series.record(20.0, delivered_mbps=700.0, peer_count=30, extra_metric=1.0)
        return series

    def test_record_and_query(self):
        series = self._series()
        assert len(series) == 3
        assert series.peak_mbps() == 1000.0
        assert series.value_at(15.0) == 1000.0
        assert series.value_at(-5.0) == 10.0

    def test_monotonic_time_required(self):
        series = self._series()
        with pytest.raises(ValueError):
            series.record(5.0, delivered_mbps=1.0, peer_count=1)

    def test_window_and_means(self):
        series = self._series()
        window = series.window(5.0, 25.0)
        assert len(window) == 2
        assert series.mean_mbps(10.0, 30.0) == pytest.approx(850.0)
        assert series.mean_peers(10.0, 30.0) == pytest.approx(35.0)

    def test_empty_series_behaviour(self):
        series = AttackTimeSeries()
        assert series.peak_mbps() == 0.0
        assert series.mean_mbps(0, 10) == 0.0
        with pytest.raises(ValueError):
            series.value_at(1.0)

    def test_extra_series_preserved_in_window(self):
        series = self._series()
        window = series.window(15.0, 25.0)
        assert window.extra["extra_metric"] == [1.0]
