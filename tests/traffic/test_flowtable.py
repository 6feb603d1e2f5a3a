"""Tests for the columnar FlowTable and the vectorized generation path.

Two families of guarantees:

* **reference parity** — the columnar aggregations match the per-record
  references in ``tests/oracle`` on the same flows;
* **statistical parity** — the vectorized generators preserve the
  paper-reported traffic structure the original per-flow generators
  targeted (§2.3): TCP ≈ 87 % of regular traffic, amplification-prone
  source ports dominating blackholed traffic, and per-interval total-bytes
  conservation against the configured rates.
"""

import numpy as np
import pytest

from test_flows_and_profiles import make_flow, profile_share, service_port_shares

from fuzz.strategies import single_port_fabric
from oracle import trace as reference
from oracle.records import from_records, to_records
from oracle.reference import ReferenceFabric
from repro.ixp import FilterAction, FlowMatch, QosRule
from repro.traffic import (
    AMPLIFICATION_PRONE_PORTS,
    AmplificationAttack,
    BenignTrafficSource,
    FlowTable,
    IpProtocol,
    IxpTraceGenerator,
    MemberAttackScenarioGenerator,
    RtbhEvent,
    get_vector,
    ip_to_int,
    ints_to_ips,
)
from repro.traffic.flowtable import group_sum


class TestIpConversion:
    def test_round_trip(self):
        for address in ("0.0.0.0", "23.1.2.3", "100.64.0.1", "255.255.255.255"):
            assert ints_to_ips(np.array([ip_to_int(address)]))[0] == address

    def test_rejects_ipv6(self):
        with pytest.raises(ValueError):
            ip_to_int("2001:db8::1")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            ip_to_int("not-an-ip")


class TestRoundTrip:
    def _records(self):
        return [
            make_flow(src_port=11211, bytes_=8000, is_attack=True, start=0),
            make_flow(src_port=50000, dst_port=443, protocol=IpProtocol.TCP, bytes_=2000),
            make_flow(src_port=0, dst_port=4000, bytes_=500, ingress=65002),
        ]

    def test_select_and_concat(self):
        table = from_records(self._records())
        attack = table.select(table.is_attack)
        benign = table.select(~table.is_attack)
        assert len(attack) == 1 and len(benign) == 2
        rebuilt = FlowTable.concat([attack, benign])
        assert rebuilt.total_bytes == table.total_bytes
        assert len(rebuilt) == len(table)

    def test_service_ports_match_scalar_helper(self):
        records = [
            make_flow(src_port=11211, dst_port=43210),
            make_flow(src_port=51000, dst_port=443, protocol=IpProtocol.TCP),
            make_flow(src_port=0, dst_port=4000),
            make_flow(src_port=50001, dst_port=60001),
        ]
        table = from_records(records)
        expected = [reference.service_port(flow) for flow in records]
        assert table.service_ports().tolist() == expected

    def test_scaled_matches_record_scaling(self):
        records = [make_flow(bytes_=1001), make_flow(bytes_=4)]
        table = from_records(records).scaled(0.5)
        expected = [flow.scaled(0.5) for flow in records]
        assert table.bytes.tolist() == [flow.bytes for flow in expected]
        assert table.packets.tolist() == [flow.packets for flow in expected]
        zeroed = from_records(records).scaled(0.0)
        assert zeroed.bytes.tolist() == [0, 0]
        assert zeroed.packets.tolist() == [0, 0]


class TestTraceAgainstReference:
    """A generator trace answers every query like the per-record reference."""

    def _trace(self):
        generator = IxpTraceGenerator(
            member_asns=[65000 + i for i in range(10)],
            duration=600.0,
            interval=60.0,
            regular_rate_bps=1e9,
            blackholed_rate_bps=5e8,
            flows_per_interval=50,
            seed=9,
        )
        generator.rtbh_events = [
            RtbhEvent(
                victim_ip="104.20.1.1",
                victim_member_asn=65001,
                start=0,
                duration=600,
                rate_bps=5e8,
            )
        ]
        trace = generator.generate()
        return trace, to_records(trace.table)

    def test_aggregations_agree(self):
        trace, flows = self._trace()
        assert trace.table.total_bytes == sum(flow.bytes for flow in flows)
        assert trace.bytes_by_protocol() == reference.bytes_by_protocol(flows)
        assert trace.distinct_ingress_members() == reference.ingress_members(flows)

    def test_filters_agree(self):
        trace, flows = self._trace()
        assert to_records(trace.attack_flows().table) == reference.attack_flows(flows)
        towards = to_records(trace.towards("104.20.1.1").table)
        assert towards == reference.towards(flows, "104.20.1.1")
        assert to_records(trace.between(60, 180).table) == reference.between(flows, 60, 180)


class TestPackedDtypes:
    """Port and ASN columns use packed dtypes without losing range."""

    def test_column_dtypes_are_packed(self):
        table = from_records([make_flow()])
        assert table.src_ip.dtype == np.uint32
        assert table.dst_ip.dtype == np.uint32
        assert table.protocol.dtype == np.uint8
        assert table.src_port.dtype == np.uint16
        assert table.dst_port.dtype == np.uint16
        assert table.ingress_asn.dtype == np.int32
        assert table.egress_asn.dtype == np.int32

    def test_packed_dtypes_survive_concat_and_select(self):
        # The radix-bin pre-pass shifts the uint32 address columns and the
        # exact-group packer masks the uint8/uint16 lanes; both rely on
        # the packed dtypes surviving every table transformation.
        table = FlowTable.concat(
            [from_records([make_flow()]), from_records([make_flow()])]
        )
        subset = table.select(np.array([0], dtype=np.int64))
        for view in (table, subset):
            assert view.src_ip.dtype == np.uint32
            assert view.dst_ip.dtype == np.uint32
            assert view.protocol.dtype == np.uint8

    def test_extreme_values_round_trip(self):
        flow = make_flow(src_port=65535, dst_port=0, ingress=4_200_000_000 // 2)
        table = from_records([flow])
        restored = to_records(table)[0]
        assert restored.key.src_port == 65535
        assert restored.key.dst_port == 0
        assert restored.ingress_member_asn == flow.ingress_member_asn

    def test_packed_columns_still_aggregate(self):
        from repro.traffic.flowtable import member_mask

        table = from_records(
            [make_flow(src_port=53, ingress=65001), make_flow(src_port=53, ingress=65002)]
        )
        assert table.bytes[member_mask(table.ingress_asn, [65001])].sum() > 0
        assert 53 in set(np.unique(table.service_ports()))


class TestStreamingIntervals:
    """iter_interval_tables streams exactly what generate() materializes."""

    def _generator(self, seed=21, **overrides):
        params = dict(
            member_asns=[65000 + i for i in range(12)],
            duration=300.0,
            interval=60.0,
            regular_rate_bps=2e9,
            blackholed_rate_bps=4e8,
            flows_per_interval=80,
            seed=seed,
        )
        params.update(overrides)
        return IxpTraceGenerator(**params)

    def test_chunked_totals_match_monolithic(self):
        streamed = list(self._generator().iter_interval_tables())
        trace = self._generator().generate()
        assert [start for start, _ in streamed] == [0.0, 60.0, 120.0, 180.0, 240.0]
        total = sum(int(table.bytes.sum()) for _, table in streamed)
        assert total == trace.table.total_bytes
        combined = FlowTable.concat([table for _, table in streamed])
        assert len(combined) == len(trace.table)
        assert np.array_equal(combined.bytes, trace.table.bytes)
        assert np.array_equal(combined.start, trace.table.start)

    def test_each_interval_stays_in_window(self):
        for start, table in self._generator().iter_interval_tables():
            if len(table):
                assert table.start.min() >= start
                assert table.start.max() < start + 60.0

    def test_egress_restriction_only_narrows_egress(self):
        allowed = [65003, 65007]
        restricted = self._generator(egress_member_asns=allowed)
        for _, table in restricted.iter_interval_tables():
            if len(table):
                assert set(np.unique(table.egress_asn)) <= set(allowed)
                # Ingress still draws from the whole membership.
        assert restricted._egress_arr is not restricted._members_arr

    def test_default_egress_pool_keeps_rng_stream(self):
        default = self._generator().generate()
        explicit = self._generator(
            egress_member_asns=[65000 + i for i in range(12)]
        ).generate()
        assert default.table.total_bytes == explicit.table.total_bytes
        assert np.array_equal(default.table.egress_asn, explicit.table.egress_asn)

    def test_empty_egress_pool_rejected(self):
        with pytest.raises(ValueError):
            self._generator(egress_member_asns=[])


class TestStatisticalParity:
    """The vectorized generators keep the §2.3 traffic structure."""

    def test_regular_traffic_is_tcp_dominated(self):
        generator = IxpTraceGenerator(
            member_asns=[65000 + i for i in range(20)],
            duration=1800.0,
            interval=60.0,
            regular_rate_bps=10e9,
            flows_per_interval=400,
            seed=3,
        )
        shares = generator.generate().benign_flows().share_by_protocol()
        # The paper reports TCP-dominated non-blackholed traffic (≈ 87 %);
        # the generated byte share must match the configured profile mass.
        from repro.traffic import other_traffic_profile

        expected = profile_share(other_traffic_profile(), protocol=IpProtocol.TCP)
        assert shares[IpProtocol.TCP] == pytest.approx(expected, abs=0.02)
        assert shares[IpProtocol.TCP] > 0.75

    def test_blackholed_traffic_source_port_dominance(self):
        generator = IxpTraceGenerator(
            member_asns=[65000 + i for i in range(10)],
            duration=1800.0,
            interval=60.0,
            regular_rate_bps=1e9,
            blackholed_rate_bps=1e9,
            flows_per_interval=200,
            seed=5,
        )
        generator.rtbh_events = [
            RtbhEvent(
                victim_ip="104.20.9.9",
                victim_member_asn=65003,
                start=0,
                duration=1800,
                rate_bps=1e9,
            )
        ]
        attack = generator.generate().attack_flows()
        shares = attack.share_by_protocol()
        assert shares[IpProtocol.UDP] > 0.98
        by_port = group_sum(attack.table.src_port, attack.table.bytes)
        total = sum(by_port.values())
        prone_share = sum(by_port.get(port, 0) for port in AMPLIFICATION_PRONE_PORTS) / total
        # Ports 0/123/389/11211/53/19 carry the bulk of blackholed bytes
        # (≈ 88 % of the profile mass).
        assert prone_share > 0.8

    def test_interval_bytes_conservation(self):
        rate = 2e9
        interval = 60.0
        generator = IxpTraceGenerator(
            member_asns=[65000, 65001, 65002],
            duration=600.0,
            interval=interval,
            regular_rate_bps=rate,
            flows_per_interval=300,
            seed=11,
        )
        trace = generator.generate()
        expected = rate * interval / 8
        for i in range(int(600.0 / interval)):
            window = trace.between(i * interval, (i + 1) * interval)
            # int() truncation loses at most one byte per flow.
            assert window.table.total_bytes == pytest.approx(expected, rel=0.01)

    def test_amplification_source_port_dominates_member_scenario(self):
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
        during = service_port_shares(trace.between(720, 1200).table)
        assert during.get(11211, 0.0) > 0.8

    def test_benign_source_volume_conservation(self):
        source = BenignTrafficSource(
            dst_ip="100.10.10.10",
            egress_member_asn=64500,
            ingress_member_asns=[65001, 65002],
            rate_bps=1e9,
            seed=4,
        )
        table = source.flow_table(0.0, 10.0)
        assert table.total_bits == pytest.approx(1e10, rel=0.05)


class TestColumnarQosParity:
    """Delivering a generated table equals the naive record-by-record reference."""

    def _fabric(self, shape_id="shape-udp"):
        fabric, port = single_port_fabric(port_capacity_bps=10e9)
        port.qos.install(
            QosRule(
                match=FlowMatch(protocol=IpProtocol.UDP, src_port=123),
                action=FilterAction.DROP,
                rule_id="drop-ntp",
            )
        )
        port.qos.install(
            QosRule(
                match=FlowMatch(protocol=IpProtocol.UDP),
                action=FilterAction.SHAPE,
                shape_rate_bps=1e6,
                rule_id=shape_id,
            )
        )
        return fabric

    def _deliver(self, table, shape_id="shape-udp"):
        """The port's result and the reference's expected member report."""
        fabric = self._fabric(shape_id)
        oracle = ReferenceFabric(fabric)
        report = fabric.deliver(table, 10.0)
        expected = oracle.deliver(table, 10.0)
        assert report.to_dict() == expected
        return report.results_by_member[64500], oracle.verdicts[64500]

    def _flows(self):
        attack = AmplificationAttack(
            victim_ip="100.10.10.10",
            vector=get_vector("ntp"),
            peak_rate_bps=1e9,
            start=0.0,
            duration=600.0,
            ingress_member_asns=[65001, 65002],
            victim_member_asn=64500,
            reflector_count=50,
            seed=2,
        )
        benign = BenignTrafficSource(
            dst_ip="100.10.10.10",
            egress_member_asn=64500,
            ingress_member_asns=[65001, 65002],
            rate_bps=5e8,
            seed=3,
        )
        return FlowTable.concat(
            [attack.flow_table(100.0, 10.0), benign.flow_table(100.0, 10.0)]
        )

    def test_bit_accounting_matches(self):
        result, (forwarded, dropped, shaped) = self._deliver(self._flows())
        assert result.dropped_bits > 0 and result.shaped_dropped_bits > 0
        assert to_records(result.forwarded_table) == forwarded
        assert to_records(result.dropped_table) == dropped
        assert to_records(result.shaped_table) == shaped

    def test_rule_stats_match(self):
        result, _ = self._deliver(self._flows())
        assert set(result.rule_stats) == {"drop-ntp", "shape-udp"}

    def test_anonymous_shape_rule_actually_shapes(self):
        table = self._flows()
        assert float(table.total_bits) > 1e6 * 10.0  # the shaper has something to cut
        result, _ = self._deliver(table, shape_id="")
        assert result.shaped_passed_bits == pytest.approx(1e6 * 10.0, rel=0.05)
        assert result.shaped_dropped_bits > 0

    def test_delivered_summaries_match(self):
        result, (forwarded, _, shaped) = self._deliver(self._flows())
        peers = {r.ingress_member_asn for r in forwarded if r.ingress_member_asn}
        peers |= {r.ingress_member_asn for r in shaped if r.ingress_member_asn and r.bytes > 0}
        assert result.delivered_peer_asns() == peers
        attack_bits = sum(r.bits for r in forwarded + shaped if r.is_attack)
        assert result.delivered_attack_bits() == attack_bits
