"""Shard-plan invariants and per-shard report merging.

The sharded pipeline's correctness rests on three structural facts tested
here: every connected member lands in exactly one shard (partition), a
shard owns whole PoPs whose routers rebuild identically from
``pop_indices`` (placement parity), and per-shard interval reports reduce
losslessly into the platform report (merge).
"""

import numpy as np
import pytest

from oracle.shard import merge_interval_reports
from repro.ixp import (
    ShardPlanner,
    build_multi_pop_fabric,
    columns_to_report_dict,
    make_member_population,
    merge_interval_columns,
)
from repro.ixp.fabric import MEMBER_REPORT_FIELDS
from repro.ixp.shard import pop_index
from repro.sim.rng import make_rng
from repro.traffic import FlowTable


def make_platform(member_count=60, pop_count=4, seed=11):
    members = make_member_population(member_count, pop_count=pop_count, seed=seed)
    fabric = build_multi_pop_fabric(pop_count=pop_count, seed=seed, members=members)
    return fabric, members


class TestPopIndex:
    def test_parses_labels(self):
        assert pop_index("pop-1") == 1
        assert pop_index("pop-12") == 12

    @pytest.mark.parametrize("label", ["pop", "pop-", "pop-x", "site-1", "1"])
    def test_rejects_non_pop_labels(self, label):
        with pytest.raises(ValueError):
            pop_index(label)


class TestPlanPartition:
    def test_every_member_in_exactly_one_shard(self):
        fabric, members = make_platform()
        plan = ShardPlanner.for_fabric(fabric).plan()
        seen = [asn for spec in plan for asn in spec.member_asns]
        assert len(seen) == len(set(seen)) == len(members)
        assert set(seen) == {member.asn for member in members}

    def test_shards_own_disjoint_whole_pops(self):
        fabric, _ = make_platform()
        plan = ShardPlanner.for_fabric(fabric).plan()
        pops = [pop for spec in plan for pop in spec.pops]
        assert len(pops) == len(set(pops))
        # Each member's PoP is owned by the member's shard.
        for spec in plan:
            for asn in spec.member_asns:
                assert fabric.router_for_member(asn).pop in spec.pops

    def test_fewer_shards_pack_whole_pops(self):
        fabric, members = make_platform(pop_count=6)
        planner = ShardPlanner.for_fabric(fabric)
        full = planner.plan()
        packed = planner.plan(2)
        assert len(packed) == 2
        assert {asn for spec in packed for asn in spec.member_asns} == {
            member.asn for member in members
        }
        assert sorted(pop for spec in packed for pop in spec.pops) == sorted(
            pop for spec in full for pop in spec.pops
        )
        # LPT keeps the packing balanced: no shard more than ~2x the other.
        sizes = sorted(len(spec) for spec in packed)
        assert sizes[0] > 0

    def test_empty_pop_contributes_no_shard(self):
        planner = ShardPlanner({"pop-1": [65001, 65002], "pop-2": [], "pop-3": [65003]})
        plan = planner.plan()
        assert [spec.pops for spec in plan] == [("pop-1",), ("pop-3",)]
        assert [spec.index for spec in plan] == [0, 1]

    def test_empty_fabric_plans_to_zero_shards(self):
        fabric = build_multi_pop_fabric(pop_count=3, seed=5)
        assert ShardPlanner.for_fabric(fabric).plan() == []

    def test_invalid_shard_count(self):
        fabric, _ = make_platform()
        with pytest.raises(ValueError):
            ShardPlanner.for_fabric(fabric).plan(0)


class TestForMembers:
    def test_matches_for_fabric_placement(self):
        fabric, members = make_platform()
        by_fabric = ShardPlanner.for_fabric(fabric).plan()
        by_members = ShardPlanner.for_members(members, 4).plan()
        assert by_fabric == by_members

    def test_rejects_out_of_range_pop(self):
        members = make_member_population(10, pop_count=6, seed=2)
        with pytest.raises(ValueError):
            ShardPlanner.for_members(members, 3)

    def test_plan_is_deterministic(self):
        members = make_member_population(50, pop_count=5, seed=9)
        planner = ShardPlanner.for_members(members, 5)
        assert planner.plan(3) == planner.plan(3)


class TestSubsetFabricParity:
    def test_shard_fabric_places_members_on_identical_routers(self):
        fabric, members = make_platform(member_count=40, pop_count=4, seed=13)
        plan = ShardPlanner.for_fabric(fabric).plan(2)
        by_asn = {member.asn: member for member in members}
        for spec in plan:
            shard_fabric = build_multi_pop_fabric(
                pop_count=4, seed=13, pop_indices=spec.pop_indices
            )
            for asn in spec.member_asns:
                shard_fabric.connect_member(by_asn[asn])
                assert (
                    shard_fabric.router_for_member(asn).name
                    == fabric.router_for_member(asn).name
                )


def report(interval_start=0.0, interval=10.0, members=(), **totals):
    payload = {
        "interval_start": interval_start,
        "interval": interval,
        "offered_bits": 0.0,
        "delivered_bits": 0.0,
        "filtered_bits": 0.0,
        "congestion_dropped_bits": 0.0,
    }
    payload.update(totals)
    payload["members"] = {
        str(asn): {"forwarded_bits": float(asn)} for asn in members
    }
    return payload


class TestMergeIntervalReports:
    def test_totals_sum_and_members_union_sorted(self):
        merged = merge_interval_reports(
            [
                report(members=[65002, 65010], offered_bits=10.0, delivered_bits=4.0),
                report(members=[65001], offered_bits=2.5, filtered_bits=1.0),
            ]
        )
        assert merged["offered_bits"] == 12.5
        assert merged["delivered_bits"] == 4.0
        assert merged["filtered_bits"] == 1.0
        assert list(merged["members"]) == ["65001", "65002", "65010"]
        assert merged["members"]["65010"] == {"forwarded_bits": 65010.0}

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            merge_interval_reports([])

    def test_rejects_interval_mismatch(self):
        with pytest.raises(ValueError):
            merge_interval_reports([report(interval_start=0.0), report(interval_start=10.0)])

    def test_rejects_member_overlap(self):
        with pytest.raises(ValueError):
            merge_interval_reports([report(members=[65001]), report(members=[65001])])


def columns(interval_start=0.0, interval=10.0, members=(), rule_stats=None, **totals):
    """A synthetic columnar shard payload (the to_columns() shape)."""
    payload_totals = {
        "offered_bits": 0.0,
        "delivered_bits": 0.0,
        "filtered_bits": 0.0,
        "congestion_dropped_bits": 0.0,
    }
    payload_totals.update(totals)
    asns = np.array(sorted(members), dtype=np.int64)
    return {
        "interval_start": interval_start,
        "interval": interval,
        "totals": payload_totals,
        "member_asns": asns,
        "member_fields": {
            name: (
                asns.astype(np.float64)
                if name == "forwarded_bits"
                else np.zeros(len(asns), dtype=np.float64)
            )
            for name in MEMBER_REPORT_FIELDS
        },
        "rule_stats": dict(rule_stats or {}),
    }


class TestMergeIntervalColumns:
    def test_totals_sum_and_members_union_sorted(self):
        merged = merge_interval_columns(
            [
                columns(members=[65002, 65010], offered_bits=10.0, delivered_bits=4.0),
                columns(members=[65001], offered_bits=2.5, filtered_bits=1.0),
            ]
        )
        assert merged["totals"]["offered_bits"] == 12.5
        assert merged["totals"]["delivered_bits"] == 4.0
        assert merged["totals"]["filtered_bits"] == 1.0
        assert merged["member_asns"].tolist() == [65001, 65002, 65010]
        assert merged["member_fields"]["forwarded_bits"].tolist() == [
            65001.0,
            65002.0,
            65010.0,
        ]

    def test_bridge_parity_with_dict_merge(self):
        # The columnar reduce followed by the dict bridge must equal the
        # reference dict-by-dict merge of the same shard payloads.
        payloads = [
            columns(
                members=[65004, 65002],
                offered_bits=7.0,
                rule_stats={"65002": {"drop-ntp": {"dropped": 5.0}}},
            ),
            columns(members=[65001, 65009], delivered_bits=3.0),
            columns(members=[65003], filtered_bits=1.5),
        ]
        via_columns = columns_to_report_dict(merge_interval_columns(payloads))
        via_dicts = merge_interval_reports(
            [columns_to_report_dict(payload) for payload in payloads]
        )
        assert via_columns == via_dicts

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            merge_interval_columns([])

    def test_rejects_interval_mismatch(self):
        with pytest.raises(ValueError):
            merge_interval_columns(
                [columns(interval_start=0.0), columns(interval_start=10.0)]
            )

    def test_rejects_member_overlap(self):
        with pytest.raises(ValueError, match="multiple shards"):
            merge_interval_columns(
                [columns(members=[65001, 65002]), columns(members=[65001])]
            )

    def test_single_payload_roundtrip(self):
        payload = columns(
            members=[65001, 65002],
            offered_bits=4.0,
            rule_stats={"65001": {"r": {"dropped": 1.0}}},
        )
        merged = merge_interval_columns([payload])
        assert merged["member_asns"].tolist() == [65001, 65002]
        report_dict = columns_to_report_dict(merged)
        assert report_dict["offered_bits"] == 4.0
        assert report_dict["members"]["65001"]["rule_stats"] == {"r": {"dropped": 1.0}}
        assert report_dict["members"]["65002"]["rule_stats"] == {}


class TestColumnsRoundtrip:
    def test_real_report_to_columns_bridges_to_to_dict(self):
        # A delivered interval's columnar view converts back to the exact
        # to_dict() payload — the bit-for-bit contract the sharded runner
        # digests rely on.
        fabric, members = make_platform(member_count=12, pop_count=2, seed=3)
        rng = make_rng(7)
        n = 800
        asns = np.array([member.asn for member in members], dtype=np.int64)
        table = FlowTable(
            src_ip=rng.integers(0x0B000000, 0xDF000000, size=n).astype(np.uint32),
            dst_ip=rng.integers(0x0B000000, 0xDF000000, size=n).astype(np.uint32),
            protocol=rng.choice([6, 17], size=n).astype(np.uint8),
            src_port=rng.choice([19, 123, 50000], size=n).astype(np.int32),
            dst_port=rng.integers(1024, 65536, size=n).astype(np.int32),
            start=np.zeros(n),
            duration=np.full(n, 10.0),
            bytes=rng.integers(100, 20000, size=n).astype(np.int64),
            packets=np.ones(n, dtype=np.int64),
            ingress_asn=rng.choice(asns, size=n),
            egress_asn=rng.choice(asns, size=n),
            is_attack=np.zeros(n, dtype=bool),
        )
        report = fabric.deliver(table, 10.0, 0.0)
        assert columns_to_report_dict(report.to_columns()) == report.to_dict()
