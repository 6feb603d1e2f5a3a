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
* ``test_bench_shape_scatter_vs_drop`` puts 1,000 rules on one port, all
  claiming a 60k-flow interval, once as SHAPE and once as DROP rules.
  Shaping adds one stateful shaper call per claimed rule on top of the
  drop accounting, so SHAPE must stay within 2.5× of DROP; the absolute
  seconds go into ``BENCH_fabric.json``.
* ``test_bench_retained_report_bytes`` records, with ``tracemalloc``, the
  bytes one retained report of that SHAPE interval holds, in total and
  per claimed rule row, in ``BENCH_fabric.json`` (no bound: the memory
  guard is ``tests/ixp/test_report_memory.py``).
* ``test_bench_fabric_traced_bytes`` delivers fresh SHAPE intervals
  through that default fabric, dropping each report, and records in
  ``BENCH_fabric.json`` the bytes the fabric still holds after them (no
  bound: the flat-memory guard is ``tests/ixp/test_report_memory.py``).

Functional parity with the naive reference in ``tests/oracle`` is pinned
in ``tests/ixp/test_fabric_delivery.py``; here only the clock matters.
"""

import gc
import json
import os
import time
import tracemalloc
from pathlib import Path

import numpy as np
from bench_utils import print_table, write_bench_json

from repro.bgp import Prefix
from repro.ixp import (
    EdgeRouter,
    FilterAction,
    FlowMatch,
    IxpMember,
    QosRule,
    SwitchingFabric,
    build_multi_pop_fabric,
    make_member_population,
)
from repro.traffic import BooterAttack, FlowTable, IpProtocol, IxpTraceGenerator
from repro.traffic.flowtable import COLUMNS, ip_to_int

VICTIM_ASN = 64500
VICTIM_IP = "100.10.10.10"
INTERVAL = 10.0
SEED = 5


def build_fabric(member_count: int):
    """A 4-PoP / 8-router fabric with rules on the victim port."""
    fabric = build_multi_pop_fabric(pop_count=4, routers_per_pop=2)
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


#: Rules on the single filtered port, and the interval they all claim.
SCATTER_RULES = 1_000
SCATTER_FLOWS = 60_000

#: Largest allowed SHAPE/DROP cost ratio (one shaper call per claimed
#: rule is the only work SHAPE adds).
MAX_SHAPE_OVER_DROP = 2.5


def single_port_fabric(action: FilterAction) -> SwitchingFabric:
    """The victim port with :data:`SCATTER_RULES` rules of one action."""
    fabric = SwitchingFabric(name="scatter", platform_capacity_bps=1e12)
    fabric.add_edge_router(EdgeRouter("edge-1"))
    fabric.connect_member(IxpMember(asn=VICTIM_ASN, port_capacity_bps=100e9))
    rate = {"shape_rate_bps": 5e6} if action is FilterAction.SHAPE else {}
    fabric.router_for_member(VICTIM_ASN).install_rules(
        VICTIM_ASN,
        [
            QosRule(
                match=FlowMatch(
                    dst_prefix=Prefix.parse(f"{VICTIM_IP}/32"),
                    protocol=IpProtocol.UDP,
                    src_port=1024 + index,
                ),
                action=action,
                rule_id=f"rule-{index}",
                **rate,
            )
            for index in range(SCATTER_RULES)
        ],
    )
    return fabric


def scatter_interval() -> FlowTable:
    """Victim-bound UDP flows spread evenly over every rule's source port."""
    rng = np.random.default_rng(SEED)
    n = SCATTER_FLOWS
    return FlowTable(
        src_ip=rng.integers(0, 2**32, n, dtype=np.uint32),
        dst_ip=np.full(n, ip_to_int(VICTIM_IP), dtype=np.uint32),
        protocol=np.full(n, int(IpProtocol.UDP)),
        src_port=1024 + np.arange(n) % SCATTER_RULES,
        dst_port=rng.integers(1024, 60000, n),
        start=np.zeros(n),
        duration=np.full(n, INTERVAL),
        bytes=rng.integers(100, 10_000, n),
        packets=np.ones(n, dtype=np.int64),
        ingress_asn=np.full(n, 65001),
        egress_asn=np.full(n, VICTIM_ASN),
        is_attack=np.ones(n, dtype=bool),
    )


def best_of(fabric: SwitchingFabric, table: FlowTable, repeats: int = 5) -> float:
    """Best-of-``repeats`` seconds of one interval (the plan compiled first)."""
    fabric.deliver(table, INTERVAL, 0.0)
    best = float("inf")
    for step in range(1, repeats + 1):
        start = time.perf_counter()
        fabric.deliver(table, INTERVAL, step * INTERVAL)
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_shape_scatter_vs_drop(benchmark):
    table = scatter_interval()
    shape_fabric = single_port_fabric(FilterAction.SHAPE)
    drop_fabric = single_port_fabric(FilterAction.DROP)
    report = shape_fabric.deliver(table, INTERVAL, 0.0)
    lo, hi = report.rule_columns.span(VICTIM_ASN)
    assert hi - lo == SCATTER_RULES

    shape_seconds = best_of(shape_fabric, table)
    drop_seconds = best_of(drop_fabric, table)
    benchmark.pedantic(lambda: shape_fabric.deliver(table, INTERVAL, 0.0), rounds=1)

    ratio = shape_seconds / drop_seconds
    print_table(
        f"Verdict scatter, {SCATTER_RULES} claimed rules, {len(table)} flows",
        [
            ("action", "ms", "vs DROP"),
            ("DROP", f"{drop_seconds * 1e3:.1f}", "1.0x"),
            ("SHAPE", f"{shape_seconds * 1e3:.1f}", f"{ratio:.1f}x"),
        ],
    )
    # Merge into the member-scaling record rather than clobbering it.
    path = Path(os.environ.get("BENCH_OUTPUT_DIR", ".")) / "BENCH_fabric.json"
    payload = json.loads(path.read_text()) if path.exists() else {}
    payload["shape_scatter"] = {
        "rule_count": SCATTER_RULES,
        "flow_count": len(table),
        "shape_seconds": shape_seconds,
        "drop_seconds": drop_seconds,
    }
    write_bench_json("fabric", payload)
    assert ratio <= MAX_SHAPE_OVER_DROP, (
        f"SHAPE scatter took {ratio:.1f}x the DROP scatter over {SCATTER_RULES} "
        f"claimed rules (limit {MAX_SHAPE_OVER_DROP}x)"
    )


def test_bench_retained_report_bytes():
    table = scatter_interval()
    fabric = single_port_fabric(FilterAction.SHAPE)
    fabric.deliver(table, INTERVAL, 0.0)  # compile the plan and the index
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = fabric.deliver(table, INTERVAL, INTERVAL)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    rows = len(report.rule_columns.member_asns)
    assert rows == SCATTER_RULES
    print_table(
        f"Retained report, {rows} claimed rules, {len(table)} flows",
        [("bytes", "bytes per rule row"), (f"{held}", f"{held / rows:.0f}")],
    )
    path = Path(os.environ.get("BENCH_OUTPUT_DIR", ".")) / "BENCH_fabric.json"
    payload = json.loads(path.read_text()) if path.exists() else {}
    payload["retained_report"] = {
        "rule_rows": rows,
        "flow_count": len(table),
        "bytes": held,
        "bytes_per_rule_row": held / rows,
    }
    write_bench_json("fabric", payload)


#: Intervals delivered for the fabric's traced-bytes record.
TRACED_INTERVALS = 8


def test_bench_fabric_traced_bytes():
    fabric = single_port_fabric(FilterAction.SHAPE)
    fabric.deliver(scatter_interval(), INTERVAL, 0.0)  # compile the plan and the index
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for step in range(1, TRACED_INTERVALS + 1):
            table = scatter_interval()
            table_bytes = sum(getattr(table, name).nbytes for name in COLUMNS)
            fabric.deliver(table, INTERVAL, step * INTERVAL)
            del table
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    print_table(
        f"Fabric memory after {TRACED_INTERVALS} fresh {SCATTER_FLOWS}-flow intervals",
        [("bytes held", "one table [bytes]"), (f"{held}", f"{table_bytes}")],
    )
    path = Path(os.environ.get("BENCH_OUTPUT_DIR", ".")) / "BENCH_fabric.json"
    payload = json.loads(path.read_text()) if path.exists() else {}
    payload["fabric_traced"] = {
        "intervals": TRACED_INTERVALS,
        "flow_count": SCATTER_FLOWS,
        "table_bytes": table_bytes,
        "bytes": held,
    }
    write_bench_json("fabric", payload)
