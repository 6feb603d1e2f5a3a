"""Batched fabric delivery cost at platform scale.

:class:`~repro.ixp.delivery.FabricDeliveryPlan` carries an interval across
the platform in one group-by + classification pass, so its cost must grow
far slower than the member count (a per-member loop would pay
O(members × flows) in Python per interval).

* ``test_bench_batched_speedup_240_members`` delivers ~30k-flow intervals
  (240 members across 4 PoPs / 8 edge routers, drop + shape rules on the
  victim port), records the absolute time in ``BENCH_fabric.json``, and
  asserts it stays within 4× of the same-sized interval at 60 members.
* ``test_bench_member_count_scaling`` prints the cost curve over the
  member count and asserts 480 members cost at most 4× what 60 do.

Functional parity with the naive reference in ``tests/oracle`` is pinned
in ``tests/ixp/test_fabric_delivery.py``; here only the clock matters.
"""

import time

from bench_utils import print_table, write_bench_json

from repro.bgp import Prefix
from repro.ixp import (
    FilterAction,
    FlowMatch,
    IxpMember,
    QosRule,
    build_multi_pop_fabric,
    make_member_population,
)
from repro.traffic import BooterAttack, FlowTable, IxpTraceGenerator

VICTIM_ASN = 64500
VICTIM_IP = "100.10.10.10"
INTERVAL = 10.0
SEED = 5


def build_fabric(member_count: int):
    """A 4-PoP / 8-router fabric with rules on the victim port."""
    fabric = build_multi_pop_fabric(pop_count=4, routers_per_pop=2, seed=SEED)
    victim = IxpMember(asn=VICTIM_ASN, port_capacity_bps=10e9, pop="pop-1")
    members = make_member_population(member_count - 1, pop_count=4, seed=SEED)
    fabric.connect_member(victim)
    for member in members:
        fabric.connect_member(member)
    router = fabric.router_for_member(VICTIM_ASN)
    router.install_rule(
        VICTIM_ASN,
        QosRule(
            match=FlowMatch(dst_prefix=Prefix.parse(f"{VICTIM_IP}/32"), src_port=123),
            action=FilterAction.DROP,
            rule_id="drop-ntp",
        ),
    )
    router.install_rule(
        VICTIM_ASN,
        QosRule(
            match=FlowMatch(dst_prefix=Prefix.parse(f"{VICTIM_IP}/32"), src_port=53),
            action=FilterAction.SHAPE,
            shape_rate_bps=1e6,
            rule_id="shape-dns",
        ),
    )
    return fabric, [victim, *members]


def build_interval(members, flows_per_interval: int = 30_000) -> FlowTable:
    """One observation interval: booter attack + platform background mesh."""
    member_asns = [member.asn for member in members]
    attack = BooterAttack(
        victim_ip=VICTIM_IP,
        victim_member_asn=VICTIM_ASN,
        peer_member_asns=member_asns[1:61],
        peak_rate_bps=40e9,
        start=0.0,
        duration=120.0,
        seed=SEED,
    )
    background = IxpTraceGenerator(
        member_asns=member_asns,
        duration=INTERVAL,
        interval=INTERVAL,
        regular_rate_bps=1e12,
        flows_per_interval=flows_per_interval,
        seed=SEED + 1,
    )
    return FlowTable.concat(
        [attack.flow_table(30.0, INTERVAL), background.interval_table(30.0)]
    )


#: Member count every scaling assertion compares against.
BASELINE_MEMBERS = 60

#: Largest allowed cost ratio against :data:`BASELINE_MEMBERS` on a
#: same-sized interval (measured ~2.6× at 480 members).
MAX_SCALING = 4.0


def time_delivery(
    member_count: int, table: FlowTable, rounds: int = 3, repeats: int = 2
) -> float:
    """Best-of-``repeats`` wall clock of ``rounds`` intervals, fresh fabric each.

    The minimum over repeats is the standard microbenchmark estimator:
    it discards GC pauses and scheduler noise that would otherwise make
    the scaling assertions flaky on loaded CI runners.
    """
    best = float("inf")
    for _ in range(repeats):
        fabric, _ = build_fabric(member_count)
        start = time.perf_counter()
        for step in range(rounds):
            fabric.deliver(table, INTERVAL, step * INTERVAL)
        best = min(best, time.perf_counter() - start)
    return best


def timed_interval(member_count: int, flows_per_interval: int, rounds: int) -> tuple:
    """``(flow_count, seconds)`` for a fresh interval at ``member_count``."""
    _, members = build_fabric(member_count)
    table = build_interval(members, flows_per_interval=flows_per_interval)
    return len(table), time_delivery(member_count, table, rounds=rounds)


def test_bench_batched_speedup_240_members(benchmark):
    member_count = 240
    _, members = build_fabric(member_count)
    table = build_interval(members)
    assert len(table) >= 25_000, f"interval has only {len(table)} flows"

    batched_seconds = time_delivery(member_count, table)
    _, baseline_seconds = timed_interval(BASELINE_MEMBERS, 30_000, rounds=3)

    fabric, _ = build_fabric(member_count)

    def batched_pass():
        fabric.deliver(table, INTERVAL, 0.0)

    benchmark.pedantic(batched_pass, rounds=1)

    ratio = batched_seconds / baseline_seconds
    print_table(
        f"Fabric delivery, {len(table)} flows (3 intervals)",
        [
            ("members", "seconds", "vs baseline"),
            (str(BASELINE_MEMBERS), f"{baseline_seconds:.3f}", "1.0x"),
            (str(member_count), f"{batched_seconds:.3f}", f"{ratio:.1f}x"),
        ],
    )
    write_bench_json(
        "fabric",
        {
            "member_count": member_count,
            "flow_count": len(table),
            "intervals": 3,
            "batched_seconds": batched_seconds,
            "baseline_member_count": BASELINE_MEMBERS,
            "baseline_seconds": baseline_seconds,
        },
    )
    assert ratio <= MAX_SCALING, (
        f"batched delivery at {member_count} members took {ratio:.1f}x its time at "
        f"{BASELINE_MEMBERS} members (limit {MAX_SCALING}x)"
    )


def test_bench_member_count_scaling(benchmark):
    counts = (BASELINE_MEMBERS, 120, 240, 480)
    points = [
        (member_count, *timed_interval(member_count, 20_000, rounds=1))
        for member_count in counts
    ]

    def batched_largest():
        fabric, members = build_fabric(counts[-1])
        fabric.deliver(build_interval(members, flows_per_interval=20_000), INTERVAL, 0.0)

    benchmark.pedantic(batched_largest, rounds=1)

    rows = [("members", "flows", "batched [ms]", "vs baseline")]
    for member_count, flows, seconds in points:
        rows.append(
            (
                str(member_count),
                str(flows),
                f"{seconds * 1e3:.2f}",
                f"{seconds / points[0][2]:.1f}x",
            )
        )
    print_table("Fabric delivery scaling over member count", rows)
    # One platform-wide pass: 8x the members on a same-sized interval
    # must not cost anywhere near 8x.
    ratio = points[-1][2] / points[0][2]
    assert ratio <= MAX_SCALING, (
        f"batched delivery at {counts[-1]} members took {ratio:.1f}x its time at "
        f"{counts[0]} members (limit {MAX_SCALING}x)"
    )
