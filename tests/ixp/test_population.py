"""The columnar member population and the batch connect, against the oracle.

``make_member_population`` returns columns and ``connect_population``
places a whole population with array operations; ``tests/oracle/topology``
keeps the per-member builder they replace and works out, as plain data,
where connecting the members one at a time puts each.  These properties
pin the two together with ``==``: the same members, on the same routers,
ports and counter slots, and lazily built ports that read back like ports
built as their member connects.
"""

import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle.topology import expected_placement, make_member_objects, placement
from repro.experiments import city_scale
from repro.experiments.city_scale import CityScaleConfig, run_city_scale_experiment
from repro.ixp import (
    EdgeRouter,
    FilterAction,
    FlowMatch,
    HardwareProfile,
    IxpMember,
    MemberPopulation,
    PortSpeedMix,
    QosRule,
    ShardPlanner,
    SwitchingFabric,
    build_multi_pop_fabric,
    default_mac,
    make_member_population,
)
from repro.traffic import IpProtocol, SharedMemberTable

PROFILE = HardwareProfile(
    name="population-test",
    port_count=400,
    mac_filter_capacity=4096,
    l3l4_criteria_capacity=4096,
)


@st.composite
def population_args(draw) -> dict:
    return {
        "member_count": draw(st.integers(min_value=1, max_value=60)),
        "pop_count": draw(st.integers(min_value=1, max_value=6)),
        "base_asn": draw(st.integers(min_value=1, max_value=4_000_000)),
        "port_mix": draw(
            st.sampled_from(
                [None, PortSpeedMix(speeds_bps=(1e9, 40e9), weights=(0.7, 0.3))]
            )
        ),
        "honors_rtbh_fraction": draw(st.floats(min_value=0.0, max_value=1.0)),
        "seed": draw(st.integers(min_value=0, max_value=2**31 - 1)),
    }


@given(population_args())
def test_columns_equal_the_per_member_builder(args):
    population = make_member_population(**args)
    oracle = make_member_objects(**args)
    assert len(population) == len(oracle)
    assert population.asns.tolist() == [member.asn for member in oracle]
    assert population.port_capacity_bps.tolist() == [
        member.port_capacity_bps for member in oracle
    ]
    assert [f"pop-{pop}" for pop in population.pops.tolist()] == [
        member.pop for member in oracle
    ]
    assert population.honors_rtbh.tolist() == [member.honors_rtbh for member in oracle]
    # Every attribute, name and MAC included, through the row objects.
    assert list(population) == oracle
    assert [member.name for member in population] == [member.name for member in oracle]
    assert [member.mac for member in population] == [
        default_mac(member.asn) for member in oracle
    ]


@st.composite
def layouts(draw) -> dict:
    """Routers per PoP (0 = a PoP with no router), members and a victim."""
    pop_count = draw(st.integers(min_value=1, max_value=4))
    routers = draw(
        st.lists(
            st.integers(min_value=0, max_value=3), min_size=pop_count, max_size=pop_count
        ).filter(any)
    )
    member_pops = draw(st.integers(min_value=1, max_value=pop_count + 1))
    return {
        "routers": routers,
        "member_count": draw(st.integers(min_value=1, max_value=40)),
        # Members may leave PoPs empty, or declare a PoP with no router.
        "member_pops": member_pops,
        "preloaded": draw(st.integers(min_value=0, max_value=4)),
        "victim_asn": draw(st.sampled_from([64500, 65003, 70000])),
        "victim_pop": draw(st.integers(min_value=1, max_value=member_pops)),
        "split": draw(st.floats(min_value=0.0, max_value=1.0)),
        "seed": draw(st.integers(min_value=0, max_value=2**31 - 1)),
    }


def router_layout(routers) -> list[tuple[str, str]]:
    """``(name, pop)`` of each router, in the order they are added."""
    return [
        (f"edge-{pop}-{index}", f"pop-{pop}")
        for pop, count in enumerate(routers, start=1)
        for index in range(1, count + 1)
    ]


def make_fabric(routers) -> SwitchingFabric:
    fabric = SwitchingFabric(name="population-ixp")
    for name, pop in router_layout(routers):
        fabric.add_edge_router(EdgeRouter(name, profile=PROFILE, pop=pop))
    return fabric


@given(layouts())
def test_batch_connect_places_like_one_at_a_time(layout):
    population = make_member_population(
        layout["member_count"], pop_count=layout["member_pops"], seed=layout["seed"]
    )
    victim = IxpMember(
        asn=layout["victim_asn"],
        name="experimental-as",
        port_capacity_bps=100e9,
        prefixes=["100.10.10.0/24"],
        pop=f"pop-{layout['victim_pop']}",
    )
    if victim.asn in population.asns:
        population = population.take(population.asns != victim.asn)
    preloaded, rest = population[: layout["preloaded"]], population[layout["preloaded"]:]
    split = int(layout["split"] * len(rest))
    # The victim sits inside the batch, between two runs of generated rows.
    batch = MemberPopulation.concat(
        [rest[:split], MemberPopulation.from_members([victim]), rest[split:]]
    )
    late = IxpMember(asn=90000, pop="pop-1")

    fabric = make_fabric(layout["routers"])
    fabric.connect_population(preloaded)
    version = fabric.membership_version
    fabric.connect_population(batch)
    assert fabric.membership_version == version + (len(batch) > 0)
    fabric.connect_member(late)

    connected = [*preloaded, *batch, late]
    assert placement(fabric) == expected_placement(router_layout(layout["routers"]), connected)
    assert fabric.member(victim.asn) is victim
    assert {asn: fabric.member(asn) for asn in fabric.member_asns} == {
        member.asn: member for member in connected
    }


@given(population_args(), st.data())
def test_lazy_ports_read_back_like_eager_ones(args, data):
    args = {**args, "pop_count": min(args["pop_count"], 3)}
    population = make_member_population(**args)
    lazy = build_multi_pop_fabric(pop_count=3, members=population)
    eager = build_multi_pop_fabric(pop_count=3)
    # Each port is built as its member connects.
    for member in make_member_objects(**args):
        eager.connect_member(member)
    # Nothing is built until looked up.
    assert lazy.built_ports() == {}
    assert lazy.connected_capacity_bps == eager.connected_capacity_bps

    asn = int(data.draw(st.sampled_from(population.asns.tolist())))
    rule = QosRule(
        match=FlowMatch(protocol=IpProtocol.UDP, src_port=123),
        action=FilterAction.DROP,
        rule_id="r",
    )
    for fabric in (lazy, eager):
        fabric.router_for_member(asn).install_rule(asn, rule)
    lazy_port, eager_port = lazy.port_for_member(asn), eager.port_for_member(asn)
    assert list(lazy.built_ports()) == [asn]
    assert lazy_port.capacity_bps == eager_port.capacity_bps
    assert lazy_port.qos.port_capacity_bps == eager_port.qos.port_capacity_bps
    assert lazy_port.member == eager_port.member
    assert (
        lazy.router_for_member(asn).tcam.usage_for_port(lazy_port.port_id)
        == eager.router_for_member(asn).tcam.usage_for_port(eager_port.port_id)
    )
    assert lazy.rules_version_total() == eager.rules_version_total()
    assert lazy.connected_capacity_bps == eager.connected_capacity_bps
    assert lazy.rule_epoch == 1


class TestPopRange:
    def test_build_rejects_a_pop_outside_the_platform(self):
        population = make_member_population(30, pop_count=5, seed=2)
        with pytest.raises(ValueError, match="outside 1..3"):
            build_multi_pop_fabric(pop_count=3, members=population)

    def test_planner_rejects_a_pop_outside_the_platform(self):
        population = make_member_population(30, pop_count=5, seed=2)
        with pytest.raises(ValueError, match="outside 1..3"):
            ShardPlanner.for_members(population, 3)

    def test_population_rejects_pop_zero(self):
        with pytest.raises(ValueError):
            MemberPopulation(
                asns=[65000], port_capacity_bps=[1e9], pops=[0], honors_rtbh=[False]
            )


class TestBatchConnectRejects:
    def test_repeated_asn_in_the_batch(self):
        fabric = build_multi_pop_fabric(pop_count=2)
        population = make_member_population(4, pop_count=2, seed=1)
        with pytest.raises(ValueError, match="repeats"):
            fabric.connect_population(MemberPopulation.concat([population, population[:1]]))
        assert fabric.member_asns == set()
        assert fabric.membership_version == 0

    def test_asn_already_connected(self):
        fabric = build_multi_pop_fabric(pop_count=2)
        population = make_member_population(4, pop_count=2, seed=1)
        fabric.connect_population(population[:2])
        with pytest.raises(ValueError, match="already connected"):
            fabric.connect_population(population[1:])
        assert fabric.member_asns == set(population.asns[:2].tolist())
        assert fabric.membership_version == 1

    def test_router_overflow_connects_nothing(self):
        fabric = SwitchingFabric()
        fabric.add_edge_router(
            EdgeRouter(
                "er-1",
                profile=HardwareProfile(
                    name="tiny", port_count=2, mac_filter_capacity=8,
                    l3l4_criteria_capacity=8,
                ),
            )
        )
        with pytest.raises(RuntimeError, match="no free ports"):
            fabric.connect_population(make_member_population(3, pop_count=1, seed=1))
        assert fabric.member_asns == set()
        assert fabric.edge_routers()[0].member_count == 0


def _shm_entries() -> set[str]:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def test_failed_city_run_leaves_no_shared_memory(monkeypatch):
    created: list[SharedMemberTable] = []
    original = SharedMemberTable.from_members

    def recording_from_members(members, **kwargs):
        handle = original(members, **kwargs)
        created.append(handle)
        return handle

    def failing_pipeline(*args, **kwargs):
        raise RuntimeError("pipeline failed")

    monkeypatch.setattr(SharedMemberTable, "from_members", recording_from_members)
    monkeypatch.setattr(city_scale, "iter_shard_intervals", failing_pipeline)
    before = _shm_entries()
    config = CityScaleConfig(
        duration=60.0, interval=30.0, member_count=300, pop_count=3,
        attack_peer_count=10, execution="serial",
    )
    with pytest.raises(RuntimeError, match="pipeline failed"):
        run_city_scale_experiment(config)
    assert len(created) == 1
    assert created[0].shm_name is None
    assert not (_shm_entries() - before)


def test_population_rows_and_slices():
    population = make_member_population(10, pop_count=2, seed=4)
    assert population[3] == make_member_objects(10, pop_count=2, seed=4)[3]
    assert population[-1].asn == 65009
    assert population[2:5].asns.tolist() == [65002, 65003, 65004]
    with pytest.raises(IndexError):
        population[10]
    assert np.array_equal(population.take([4, 1]).pops, population.pops[[4, 1]])
