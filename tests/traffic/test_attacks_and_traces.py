"""Tests for amplification vectors, attack models, traces and IPFIX."""

import pytest

# Absolute import: pytest puts this directory on sys.path (there are no
# test packages), so the relative form would fail at collection time.
from test_flows_and_profiles import make_flow, service_port_shares

from oracle import trace as reference
from oracle.records import from_records, to_records
from repro.traffic import (
    AMPLIFICATION_PRONE_PORTS,
    AmplificationAttack,
    BenignTrafficSource,
    BooterAttack,
    IpProtocol,
    IpfixCollector,
    IpfixExporter,
    IxpTraceGenerator,
    MemberAttackScenarioGenerator,
    RtbhEvent,
    TrafficTrace,
    get_vector,
    ip_to_int,
)


class TestAmplificationCatalogue:
    def test_known_vectors_present(self):
        for name in ("ntp", "dns", "memcached", "ldap", "chargen"):
            vector = get_vector(name)
            assert vector.amplification_factor > 1 or name == "fragments"

    def test_lookup_is_case_insensitive(self):
        assert get_vector("NTP").source_port == 123

    def test_unknown_vector_raises(self):
        with pytest.raises(KeyError):
            get_vector("quic-flood")

    def test_memcached_has_largest_factor(self):
        factors = {
            name: get_vector(name).amplification_factor for name in ("ntp", "dns", "memcached")
        }
        assert factors["memcached"] == max(factors.values())

    def test_response_bytes(self):
        vector = get_vector("ntp")
        assert vector.response_bytes == int(
            round(vector.request_bytes * vector.amplification_factor)
        )

    def test_prone_ports_match_paper(self):
        assert AMPLIFICATION_PRONE_PORTS == (0, 123, 389, 11211, 53, 19)


class TestAmplificationAttack:
    def _attack(self, **kwargs):
        defaults = dict(
            victim_ip="100.10.10.10",
            vector=get_vector("ntp"),
            peak_rate_bps=1e9,
            start=100.0,
            duration=600.0,
            ingress_member_asns=[65001, 65002, 65003],
            victim_member_asn=64500,
            reflector_count=30,
            ramp_seconds=20.0,
            seed=1,
        )
        defaults.update(kwargs)
        return AmplificationAttack(**defaults)

    def test_rate_outside_window_is_zero(self):
        attack = self._attack()
        assert attack.rate_at(50.0) == 0.0
        assert attack.rate_at(800.0) == 0.0

    def test_rate_ramps_up(self):
        attack = self._attack()
        assert attack.rate_at(105.0) < attack.rate_at(130.0)
        assert attack.rate_at(130.0) == pytest.approx(1e9)

    def test_flows_total_volume_matches_rate(self):
        attack = self._attack(ramp_seconds=0.0)
        table = attack.flow_table(200.0, 10.0)
        assert table.total_bits == pytest.approx(1e9 * 10.0, rel=0.05)

    def test_flows_use_vector_source_port(self):
        table = self._attack().flow_table(200.0, 10.0)
        assert set(table.src_port.tolist()) == {123}
        assert set(table.protocol.tolist()) == {int(IpProtocol.UDP)}
        assert table.is_attack.all()
        assert set(table.egress_asn.tolist()) == {64500}

    def test_flows_outside_window_empty(self):
        assert len(self._attack().flow_table(0.0, 10.0)) == 0
        assert len(self._attack().flow_table(800.0, 10.0)) == 0

    def test_flows_are_deterministic_per_seed(self):
        a = self._attack(seed=5).flow_table(200.0, 10.0)
        b = self._attack(seed=5).flow_table(200.0, 10.0)
        assert a.bytes.tolist() == b.bytes.tolist()

    def test_ingress_members_subset(self):
        peers = set(self._attack().flow_table(200.0, 10.0).ingress_asn.tolist())
        assert peers <= {65001, 65002, 65003}

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            self._attack(peak_rate_bps=0)
        with pytest.raises(ValueError):
            self._attack(duration=0)
        with pytest.raises(ValueError):
            self._attack(ingress_member_asns=[])
        with pytest.raises(ValueError):
            self._attack(reflector_count=0)

    @pytest.mark.parametrize("field", ["peak_rate_bps", "duration"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rate_and_duration_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            self._attack(**{field: value})


class TestBooterAttack:
    def test_peer_spread(self):
        booter = BooterAttack(
            victim_ip="100.10.10.10",
            victim_member_asn=64500,
            peer_member_asns=[65000 + i for i in range(40)],
            start=100,
            duration=600,
            seed=3,
        )
        peers = set(booter.flow_table(300.0, 10.0).ingress_asn.tolist())
        assert len(peers) >= 35

    def test_requires_peers(self):
        with pytest.raises(ValueError):
            BooterAttack(victim_ip="1.2.3.4", victim_member_asn=1, peer_member_asns=[])

    def test_traffic_only_inside_its_window(self):
        booter = BooterAttack(
            victim_ip="1.2.3.4", victim_member_asn=1, peer_member_asns=[2], start=100, duration=100
        )
        assert len(booter.flow_table(150.0, 10.0)) > 0
        assert len(booter.flow_table(200.0, 10.0)) == 0


class TestBenignTrafficSource:
    def test_rate_matches_target(self):
        source = BenignTrafficSource(
            dst_ip="100.10.10.10",
            egress_member_asn=64500,
            ingress_member_asns=[65001, 65002],
            rate_bps=1e8,
            seed=1,
        )
        table = source.flow_table(0.0, 10.0)
        assert table.total_bits == pytest.approx(1e9, rel=0.05)
        assert not table.is_attack.any()

    def test_zero_rate_produces_no_flows(self):
        source = BenignTrafficSource(
            dst_ip="1.2.3.4", egress_member_asn=1, ingress_member_asns=[2], rate_bps=0.0
        )
        assert len(source.flow_table(0.0, 10.0)) == 0

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -1.0])
    def test_negative_or_non_finite_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="rate_bps"):
            BenignTrafficSource(
                dst_ip="1.2.3.4", egress_member_asn=1, ingress_member_asns=[2], rate_bps=rate
            )

    def test_web_ports_dominate(self):
        source = BenignTrafficSource(
            dst_ip="100.10.10.10",
            egress_member_asn=64500,
            ingress_member_asns=[65001],
            rate_bps=1e9,
            client_count=200,
            seed=2,
        )
        shares = service_port_shares(source.flow_table(0.0, 60.0))
        web_share = shares.get(443, 0) + shares.get(80, 0) + shares.get(8080, 0)
        assert web_share > 0.6


class TestTrafficTrace:
    """Hand-computed answers, each also checked against the reference."""

    def _flows(self):
        return [
            make_flow(src_port=11211, bytes_=8000, is_attack=True, start=0),
            make_flow(
                src_port=50000, dst_port=443, protocol=IpProtocol.TCP, bytes_=2000, start=0
            ),
            make_flow(
                src_port=50001, dst_port=80, protocol=IpProtocol.TCP, bytes_=1000, start=30
            ),
        ]

    def _trace(self):
        return TrafficTrace(from_records(self._flows()))

    def test_totals_and_bounds(self):
        trace, flows = self._trace(), self._flows()
        assert trace.table.total_bytes == 11000
        assert trace.start == 0.0 == reference.trace_start(flows)
        assert trace.end == 40.0 == reference.trace_end(flows)
        assert len(trace) == 3

    def test_filters(self):
        trace, flows = self._trace(), self._flows()
        assert to_records(trace.attack_flows().table) == reference.attack_flows(flows)
        assert to_records(trace.benign_flows().table) == reference.benign_flows(flows)
        assert to_records(trace.towards("100.10.10.10").table) == flows
        towards_other = to_records(trace.towards("8.8.8.8").table)
        assert towards_other == reference.towards(flows, "8.8.8.8") == []
        assert to_records(trace.towards("not-an-ip").table) == []
        between = to_records(trace.between(25, 50).table)
        assert between == reference.between(flows, 25, 50) == [flows[2]]

    def test_byte_groupings(self):
        trace, flows = self._trace(), self._flows()
        assert trace.bytes_by_protocol() == reference.bytes_by_protocol(flows)
        assert trace.distinct_ingress_members() == reference.ingress_members(flows)

    def test_share_by_protocol(self):
        shares = self._trace().share_by_protocol()
        assert shares[IpProtocol.UDP] == 8000 / 11000

    def test_empty_trace_shares(self):
        assert TrafficTrace().share_by_protocol() == {}

    def test_record_lists_are_rejected(self):
        with pytest.raises(TypeError, match="FlowTable"):
            TrafficTrace(self._flows())


class TestGenerators:
    def test_member_attack_scenario_port_shift(self):
        generator = MemberAttackScenarioGenerator(
            victim_ip="100.10.10.10",
            victim_member_asn=64500,
            peer_member_asns=[65000 + i for i in range(10)],
            duration=1200.0,
            interval=60.0,
            attack_start=600.0,
            benign_rate_bps=1e9,
            attack_rate_bps=20e9,
            seed=1,
        )
        trace = generator.generate()
        before = service_port_shares(trace.between(0, 600).table)
        during = service_port_shares(trace.between(720, 1200).table)
        assert before.get(11211, 0.0) == 0.0
        assert during.get(11211, 0.0) > 0.8

    def test_ixp_trace_generator_marks_blackholed_traffic(self):
        generator = IxpTraceGenerator(
            member_asns=[65000 + i for i in range(10)],
            duration=600.0,
            interval=60.0,
            regular_rate_bps=1e9,
            blackholed_rate_bps=5e8,
            flows_per_interval=50,
            seed=2,
        )
        generator.rtbh_events = [
            RtbhEvent(
                victim_ip="104.20.1.1", victim_member_asn=65001, start=0, duration=600, rate_bps=5e8
            )
        ]
        trace = generator.generate()
        attack = trace.attack_flows()
        assert len(attack) > 0
        assert attack.share_by_protocol()[IpProtocol.UDP] > 0.95
        assert (attack.table.dst_ip == ip_to_int("104.20.1.1")).all()

    def test_ixp_trace_generator_validation(self):
        with pytest.raises(ValueError):
            IxpTraceGenerator(member_asns=[1], duration=10, interval=1)

    def test_default_events_are_within_duration(self):
        generator = IxpTraceGenerator(
            member_asns=[65000, 65001], duration=1000.0, interval=100.0, seed=3
        )
        events = generator.default_events(5)
        assert len(events) == 5
        assert all(0 <= event.start < 1000.0 for event in events)


def exported_records(batch):
    return to_records(batch.table)


class TestIpfix:
    def test_exporter_without_sampling_exports_everything(self):
        exporter = IpfixExporter(exporter_id="edge-1")
        flows = [make_flow() for _ in range(10)]
        batch = exporter.export(from_records(flows), export_time=1.0)
        assert exported_records(batch) == flows
        assert exporter.observed_count == exporter.exported_count == 10

    def test_sampling_scales_bytes_back_up(self):
        exporter = IpfixExporter(exporter_id="edge-1", sampling_rate=10, seed=1)
        flows = [make_flow(bytes_=1000) for _ in range(5000)]
        batch = exporter.export(from_records(flows), export_time=0.0)
        assert 0 < len(batch) < 5000
        assert batch.table.total_bytes == pytest.approx(5_000_000, rel=0.15)

    def test_collector_aggregates_by_exporter(self):
        collector = IpfixCollector()
        for name in ("edge-1", "edge-2"):
            exporter = IpfixExporter(exporter_id=name)
            table = from_records([make_flow(bytes_=500)])
            collector.receive(exporter.export(table, export_time=0.0))
        assert collector.bytes_by_exporter() == {"edge-1": 500, "edge-2": 500}
        assert len(collector) == 2

    def test_invalid_sampling_rate(self):
        with pytest.raises(ValueError):
            IpfixExporter(exporter_id="x", sampling_rate=0)


class TestIpfixSamplingParity:
    """The exporter's one ``rng.random(n)`` draw against per-flow draws.

    The columnar draw consumes the generator exactly like n scalar draws,
    so equal seeds must keep the same flows as the scalar reference
    sampler, scaled by the same rate; and the estimator stays byte-unbiased.
    """

    def _flows(self, count=4000, bytes_=1500):
        return [make_flow(bytes_=bytes_, src_port=1000 + i % 3000) for i in range(count)]

    @pytest.mark.parametrize("sampling_rate", [1, 2, 8])
    def test_same_seed_keeps_the_reference_flows(self, sampling_rate):
        flows = self._flows()
        exporter = IpfixExporter(exporter_id="tab", sampling_rate=sampling_rate, seed=11)
        batch = exporter.export(from_records(flows), export_time=0.0)
        assert exported_records(batch) == reference.ipfix_sample(flows, sampling_rate, 11)
        assert exporter.exported_count == len(batch)

    def test_sampling_is_byte_unbiased(self):
        true_total = 4000 * 1500
        table = from_records(self._flows())
        estimates = [
            IpfixExporter(exporter_id="tab", sampling_rate=10, seed=seed)
            .export(table, export_time=0.0)
            .table.total_bytes
            for seed in range(8)
        ]
        assert sum(estimates) / len(estimates) == pytest.approx(true_total, rel=0.1)

    def test_sampled_batch_scales_counters_by_rate(self):
        flows = self._flows(count=1000, bytes_=1000)
        exporter = IpfixExporter(exporter_id="tab", sampling_rate=4, seed=5)
        batch = exporter.export(from_records(flows), export_time=0.0)
        assert exporter.observed_count == 1000
        assert batch.sampling_rate == 4
        if len(batch):
            assert int(batch.table.bytes[0]) == 4000
