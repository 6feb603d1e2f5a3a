"""Tests for the QoS data plane, member ports and the control-plane CPU model."""

import math

import pytest

from fuzz.strategies import single_port_fabric
from oracle.records import FiveTuple, FlowRecord, from_records, record_matches
from oracle.reference import display_utilisation, first_match, precedence, utilisation
from repro.bgp import Prefix
from repro.ixp import (
    ControlPlaneCpuModel,
    FilterAction,
    FlowMatch,
    IxpMember,
    PortQosPolicy,
    QosRule,
    RateLimiter,
    SwitchingFabric,
    default_mac,
)
from repro.traffic import FlowTable, IpProtocol
from repro.traffic.flowtable import derived_mac


def make_flow(src_port=123, protocol=IpProtocol.UDP, bytes_=10_000, dst_ip="100.10.10.10",
              ingress=65001, is_attack=True, dst_port=40000):
    return FlowRecord(
        key=FiveTuple("23.1.1.1", dst_ip, protocol, src_port, dst_port),
        start=0.0,
        duration=10.0,
        bytes=bytes_,
        packets=10,
        ingress_member_asn=ingress,
        egress_member_asn=64500,
        is_attack=is_attack,
    )


def deliver_report(flows, rules=(), capacity=1e9, interval_start=0.0):
    """One 10 s interval through a single port holding ``rules``."""
    fabric, port = single_port_fabric(port_capacity_bps=capacity)
    for rule in rules:
        port.qos.install(rule)
    return port, fabric.deliver(from_records(flows), 10.0, interval_start)


def deliver(flows, rules=(), capacity=1e9, interval_start=0.0):
    port, report = deliver_report(flows, rules, capacity, interval_start)
    return port, report.results_by_member[port.asn]


def matches(match, flow):
    """The columnar verdict for one flow, checked against the scalar one."""
    verdict = bool(match.matches_table(from_records([flow]))[0])
    assert verdict == record_matches(match, flow)
    return verdict


class TestFlowMatch:
    def test_resource_footprint(self):
        match = FlowMatch(
            dst_prefix=Prefix.parse("100.10.10.10/32"),
            protocol=IpProtocol.UDP,
            src_port=123,
        )
        assert match.l3l4_criteria == 3
        assert match.mac_filter_entries == 0
        mac_match = FlowMatch(src_mac="02:00:00:00:00:01")
        assert mac_match.mac_filter_entries == 1
        assert mac_match.l3l4_criteria == 0

    def test_matching_by_fields(self):
        match = FlowMatch(
            dst_prefix=Prefix.parse("100.10.10.0/24"), protocol=IpProtocol.UDP, src_port=123
        )
        assert matches(match, make_flow())
        assert not matches(match, make_flow(src_port=53))
        assert not matches(match, make_flow(protocol=IpProtocol.TCP))
        assert not matches(match, make_flow(dst_ip="9.9.9.9"))

    def test_mac_matching_case_insensitive(self):
        match = FlowMatch(src_mac=derived_mac(65001).upper())
        assert matches(match, make_flow(ingress=65001))
        assert not matches(match, make_flow(ingress=65002))
        flows = [make_flow(ingress=asn) for asn in (65001, 65002, 65001)]
        assert match.matches_table(from_records(flows)).tolist() == [True, False, True]

    def test_dst_port_and_src_prefix(self):
        match = FlowMatch(src_prefix=Prefix.parse("23.0.0.0/8"), dst_port=40000)
        assert matches(match, make_flow())
        assert not matches(match, make_flow(dst_port=53))

    def test_specificity_ordering(self):
        broad = FlowMatch(dst_prefix=Prefix.parse("100.10.10.0/24"))
        narrow = FlowMatch(
            dst_prefix=Prefix.parse("100.10.10.10/32"), protocol=IpProtocol.UDP, src_port=123
        )
        assert narrow.specificity > broad.specificity

    def test_invalid_port(self):
        with pytest.raises(ValueError):
            FlowMatch(src_port=-1)


class TestQosRule:
    def test_shape_requires_rate(self):
        with pytest.raises(ValueError):
            QosRule(match=FlowMatch(), action=FilterAction.SHAPE)

    def test_non_shape_must_not_have_rate(self):
        with pytest.raises(ValueError):
            QosRule(match=FlowMatch(), action=FilterAction.DROP, shape_rate_bps=100)


class TestPortQosPolicy:
    def test_default_forwarding_subject_to_port_capacity(self):
        flows = [make_flow(bytes_=10_000_000)]  # 80 Mbit in 10 s >> 1 Mbps port
        _, result = deliver(flows, capacity=1e6)
        assert result.delivered_bits == pytest.approx(1e7)  # capacity * interval
        assert result.congestion_dropped_bits > 0

    def test_drop_rule_removes_matching_traffic(self):
        rule = QosRule(
            match=FlowMatch(protocol=IpProtocol.UDP, src_port=123),
            action=FilterAction.DROP,
            rule_id="r1",
        )
        _, result = deliver([make_flow(), make_flow(src_port=53)], rules=[rule])
        assert len(result.dropped_table) == 1
        assert len(result.forwarded_table) == 1

    def test_shape_rule_limits_aggregate(self):
        rule = QosRule(
            match=FlowMatch(protocol=IpProtocol.UDP, src_port=123),
            action=FilterAction.SHAPE,
            shape_rate_bps=1000.0,
            rule_id="shape",
        )
        flows = [make_flow(bytes_=100_000), make_flow(bytes_=100_000)]
        _, result = deliver(flows, rules=[rule])
        assert result.shaped_passed_bits == pytest.approx(10_000.0)
        assert result.shaped_dropped_bits == pytest.approx(1_600_000 - 10_000)

    def test_most_specific_rule_wins(self):
        rules = [
            QosRule(
                match=FlowMatch(protocol=IpProtocol.UDP), action=FilterAction.DROP, rule_id="udp"
            ),
            QosRule(
                match=FlowMatch(protocol=IpProtocol.UDP, src_port=123),
                action=FilterAction.SHAPE,
                shape_rate_bps=1e6,
                rule_id="ntp",
            ),
        ]
        _, result = deliver([make_flow()], rules=rules)
        assert len(result.shaped_table) == 1
        assert len(result.dropped_table) == 0

    def test_install_replaces_rule_with_same_id(self):
        policy = PortQosPolicy(port_capacity_bps=1e9)
        policy.install(QosRule(match=FlowMatch(src_port=1), action=FilterAction.DROP, rule_id="x"))
        policy.install(QosRule(match=FlowMatch(src_port=2), action=FilterAction.DROP, rule_id="x"))
        assert len(policy) == 1
        assert policy.rules()[0].match.src_port == 2

    def test_remove_rule(self):
        policy = PortQosPolicy(port_capacity_bps=1e9)
        policy.install(QosRule(match=FlowMatch(src_port=1), action=FilterAction.DROP, rule_id="x"))
        assert policy.remove("x")
        assert not policy.remove("x")
        assert len(policy) == 0

    def test_the_empty_id_names_no_rule(self):
        # Anonymous DROP rules carry the empty id; removing "" must not
        # take them all out (they leave only through clear()).
        policy = PortQosPolicy(port_capacity_bps=1e9)
        for port in (1, 2):
            policy.install(QosRule(match=FlowMatch(src_port=port), action=FilterAction.DROP))
        version = policy.rules_version
        assert policy.rule_for("") is None
        assert policy.remove("") is False
        assert len(policy) == 2
        assert policy.rules_version == version

    def test_classify_returns_none_without_match(self):
        policy = PortQosPolicy(port_capacity_bps=1e9)
        policy.install(QosRule(match=FlowMatch(src_port=1), action=FilterAction.DROP))
        assert first_match(precedence(policy), make_flow()) == -1
        table = from_records([make_flow()])
        assert policy.compiled_index().assign(table).tolist() == [-1]

    def test_conservation_of_bits(self):
        rule = QosRule(match=FlowMatch(src_port=123), action=FilterAction.DROP, rule_id="d")
        flows = [make_flow(), make_flow(src_port=53), make_flow(src_port=80)]
        offered = sum(flow.bits for flow in flows)
        _, result = deliver(flows, rules=[rule])
        dropped = result.dropped_bits + result.shaped_dropped_bits + result.congestion_dropped_bits
        accounted = result.delivered_bits + dropped
        assert accounted == pytest.approx(offered)

    def test_invalid_interval_and_capacity(self):
        with pytest.raises(ValueError):
            PortQosPolicy(port_capacity_bps=0)
        fabric, _ = single_port_fabric()
        with pytest.raises(ValueError):
            fabric.deliver(FlowTable.empty(), 0)


NAN = math.nan
SHAPE_ALL = FlowMatch()


@pytest.mark.parametrize(
    "entry_point",
    [
        lambda: QosRule(SHAPE_ALL, FilterAction.SHAPE, shape_rate_bps=NAN),
        lambda: PortQosPolicy(NAN),
        lambda: SwitchingFabric(platform_capacity_bps=NAN),
        lambda: RateLimiter(rate_bps=NAN),
        lambda: single_port_fabric()[0].deliver(FlowTable.empty(), NAN),
    ],
    ids=["shape_rate", "port_capacity", "platform_capacity", "rate_limiter", "interval"],
)
def test_non_finite_values_are_rejected(entry_point):
    """NaN used to pass every `<= 0` check (and silently disable congestion)."""
    with pytest.raises(ValueError):
        entry_point()


def test_zero_rate_limiter_stays_legal():
    assert RateLimiter(rate_bps=0).shape(100.0, 10.0) == (0.0, 100.0)


class TestIxpMember:
    def test_defaults(self):
        member = IxpMember(asn=64500)
        assert member.name == "AS64500"
        assert member.mac == default_mac(64500)
        assert not member.honors_rtbh

    def test_validation(self):
        with pytest.raises(ValueError):
            IxpMember(asn=0)
        with pytest.raises(ValueError):
            IxpMember(asn=1, port_capacity_bps=0)

    def test_default_mac_is_deterministic_and_unique(self):
        assert default_mac(64500) == default_mac(64500)
        assert default_mac(64500) != default_mac(64501)
        with pytest.raises(ValueError):
            default_mac(-1)


class TestMemberPort:
    def test_deliver_updates_counters(self):
        port, result = deliver([make_flow(bytes_=1000)], interval_start=5.0)
        assert port.counters.offered_bits == 8000
        assert port.counters.delivered_bits == result.delivered_bits

    def test_utilisation_reports_true_oversubscription(self):
        # 80 Mbit of demand against a 10 Mbit interval budget: the port is
        # 8x oversubscribed and utilisation must say so (the old behaviour
        # clamped to 1.0, hiding the overload from the paper-scale views).
        port, report = deliver_report([make_flow(bytes_=10_000_000)], capacity=1e6)
        result = report.results_by_member[port.asn]
        assert report.port_utilisation().tolist() == [pytest.approx(8.0)]
        assert utilisation(port, result, 10.0) == pytest.approx(8.0)
        assert display_utilisation(port, result, 10.0) == pytest.approx(1.0)

    def test_utilisation_below_capacity(self):
        port, report = deliver_report([make_flow(bytes_=625_000)], capacity=1e6)
        result = report.results_by_member[port.asn]
        assert report.port_utilisation().tolist() == [pytest.approx(0.5)]
        assert utilisation(port, result, 10.0) == pytest.approx(0.5)
        assert display_utilisation(port, result, 10.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            utilisation(port, result, 0.0)

    def test_dropped_bits_counter(self):
        rule = QosRule(match=FlowMatch(src_port=123), action=FilterAction.DROP, rule_id="d")
        port, _ = deliver([make_flow(bytes_=1000)], rules=[rule])
        assert port.counters.dropped_bits == 8000


class TestControlPlaneCpuModel:
    def test_linear_expected_usage(self):
        model = ControlPlaneCpuModel(base_percent=1.0, percent_per_update=2.0, noise_std=0.0)
        assert model.expected_usage(0) == 1.0
        assert model.expected_usage(3) == 7.0

    def test_max_update_rate_matches_paper_default(self):
        model = ControlPlaneCpuModel()
        assert model.max_update_rate() == pytest.approx(4.33, abs=0.05)

    def test_measurements_are_clipped_and_noisy(self):
        model = ControlPlaneCpuModel(seed=1)
        values = [model.measure_usage(3.0) for _ in range(100)]
        assert all(0 <= value <= 100 for value in values)
        assert len(set(values)) > 1

    def test_measure_series_shape(self):
        model = ControlPlaneCpuModel(seed=1)
        observations = model.measure_series([1.0, 2.0], samples_per_rate=5)
        assert len(observations) == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            ControlPlaneCpuModel(base_percent=-1)
        with pytest.raises(ValueError):
            ControlPlaneCpuModel(cpu_limit_percent=0)
        with pytest.raises(ValueError):
            ControlPlaneCpuModel().expected_usage(-1)
        with pytest.raises(ValueError):
            ControlPlaneCpuModel().measure_series([1.0], samples_per_rate=0)

    def test_budget_below_base_gives_zero_rate(self):
        model = ControlPlaneCpuModel(base_percent=5.0, percent_per_update=1.0)
        assert model.max_update_rate(cpu_limit_percent=4.0) == 0.0
