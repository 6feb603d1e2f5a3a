"""Memory guards: what a report holds, and what a fabric keeps.

At the paper's fine-grained rule load (§5, Table 1) each interval report
carries thousands of claimed rules.  Stored as columns — member ASN, rule
id reference and four float64 counters — a claimed rule row costs under
50 bytes; one small dict per rule would cost several times that.  The
first guard measures with ``tracemalloc`` the bytes one report still
holds after delivery, on a fabric whose rules claim every flow, minus
those of the same interval on the same fabric without rules.  That
difference is everything the report keeps because rules claimed bits:
the rule statistics and whatever the verdict scatter retains for the
tables built on lookup.

A report holds its interval's table for those lookups, so a fabric that
kept its reports, or the tables its IPFIX collector received, would grow
by a table per interval.  The second guard delivers fresh intervals
through a default fabric and checks that, once the caller drops each
report, the fabric's memory stays flat.
"""

import gc
import tracemalloc

import numpy as np

from repro.experiments.fine_grained import FineGrainedTrafficSource
from repro.experiments.scenario import build_fine_grained_scenario
from repro.traffic import FlowTable, IpProtocol
from repro.traffic.flowtable import COLUMNS

INTERVAL = 10.0
#: Bytes a retained report may hold per claimed rule row.
MAX_BYTES_PER_ROW = 96


def scenario(rules_per_member):
    """Four protected ports of 20 members, ``rules_per_member`` rules each
    (every tenth a SHAPE rule), on one edge router."""
    return build_fine_grained_scenario(
        member_count=20,
        pop_count=1,
        routers_per_pop=1,
        protected_member_count=4,
        rules_per_member=rules_per_member,
        hosts_per_member=50,
        mac_rules_per_member=0,
    )


def covering_table(covered_pairs, peer_asn, flows_per_pair=2):
    """``flows_per_pair`` UDP flows on every rule's (host, source port)."""
    dst, src_port, egress = (
        np.repeat(np.array(column, dtype=np.int64), flows_per_pair)
        for column in zip(*covered_pairs)
    )
    n = len(dst)
    return FlowTable(
        src_ip=np.full(n, 0x0B000001, dtype=np.uint32),
        dst_ip=dst.astype(np.uint32),
        protocol=np.full(n, int(IpProtocol.UDP), dtype=np.uint8),
        src_port=src_port.astype(np.int32),
        dst_port=np.full(n, 40000, dtype=np.int32),
        start=np.zeros(n),
        duration=np.full(n, INTERVAL),
        bytes=np.arange(n, dtype=np.int64) % 1400 + 100,
        packets=np.ones(n, dtype=np.int64),
        ingress_asn=np.full(n, peer_asn, dtype=np.int64),
        egress_asn=egress,
        is_attack=np.ones(n, dtype=bool),
    )


def retained_bytes(fabric, table):
    """The report of a third interval and the bytes it holds."""
    for step in range(2):  # warm the plan, the match indexes, the shapers
        fabric.deliver(table, INTERVAL, step * INTERVAL)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = fabric.deliver(table, INTERVAL, 2 * INTERVAL)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return report, held


def test_a_retained_report_holds_few_bytes_per_rule_row():
    filtered = scenario(rules_per_member=600)
    bare = scenario(rules_per_member=0)
    table = covering_table(filtered.covered_pairs, int(filtered.members.asns[-1]))
    report, held = retained_bytes(filtered.fabric, table)
    _, baseline = retained_bytes(bare.fabric, table)
    rows = len(report.rule_columns.member_asns)
    assert rows == 2400  # every rule claimed its flows
    per_row = (held - baseline) / rows
    assert per_row < MAX_BYTES_PER_ROW, f"{per_row:.0f} B per rule row"


def test_a_default_fabric_keeps_no_interval_traffic():
    """Intervals 3-8 of fresh 60k-row tables leave the fabric flat."""
    built = build_fine_grained_scenario()
    source = FineGrainedTrafficSource(
        built,
        flows_per_interval=60_000,
        targeted_fraction=0.5,
        late_fraction=0.02,
        interval=INTERVAL,
        seed=8,
    )
    fabric = built.fabric
    protected = int(built.protected.asns[0])
    traced = []
    gc.collect()
    tracemalloc.start()
    try:
        for step in range(8):
            table = source.interval_table(step * INTERVAL)
            nbytes = sum(getattr(table, name).nbytes for name in COLUMNS)
            report = fabric.deliver(table, INTERVAL, step * INTERVAL)
            assert report.results_by_member[protected].dropped_bits > 0
            del report, table
            gc.collect()
            traced.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    growth = traced[-1] - traced[2]
    assert growth < nbytes, f"{growth} B over intervals 3-8 (one table: {nbytes} B)"
    assert fabric.reports == []
