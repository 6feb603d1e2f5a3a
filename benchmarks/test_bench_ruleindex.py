"""Compiled rule-match index cost at paper-claim scale.

The claim of the rule-match index: classification must stay fast with
*tens of thousands* of fine-grained blackholing rules (Table 1 / §5 of
the paper), where one vectorized whole-table scan per rule would cost
O(rules × flows).  The index's cost must therefore barely move with the
installed rule count.

* ``test_bench_indexed_speedup_10k_rules`` installs 12 000 rules in the
  dominant Stellar shape (host dst /32 + UDP + src_port, plus shape rules)
  on one port, classifies a ≥50 000-flow interval, records the absolute
  time in ``BENCH_ruleindex.json``, and asserts it stays within 3× of a
  1 000-rule policy on a same-sized interval.
* ``test_bench_rule_count_scaling`` prints the cost curve over the rule
  count and asserts 30 000 rules cost at most 3× what 1 000 do.
* ``test_bench_incremental_install_latency`` times absorbing one install,
  and one 16-rule ``install_many`` span, through the change journal
  against a full compile, and asserts both win ≥10× at 12 000 rules.

Functional parity with the naive reference in ``tests/oracle`` (verdicts,
rule_stats, precedence) is pinned in ``tests/ixp/test_ruleindex.py``;
here only the clock matters.
"""

import time

import numpy as np
from bench_utils import print_table, write_bench_json

from repro.core.rules import BlackholingRule
from repro.ixp import PortQosPolicy
from repro.sim.rng import make_rng
from repro.traffic import FlowTable

INTERVAL = 10.0
SEED = 11
VICTIM_ASN = 64500

#: Reflection source ports the fine-grained rules pin.
PORTS = (19, 53, 111, 123, 137, 161, 389, 520, 1900, 11211, 3702, 17185)


#: Rule count every scaling assertion compares against.
BASELINE_RULES = 1_000

#: Largest allowed cost ratio against :data:`BASELINE_RULES` (measured
#: ~1.4× at 30 000 rules).
MAX_SCALING = 3.0

#: Rules in the install-latency bench's coalesced span: one
#: ``install_many`` batch kept as journal deltas (under the policy's
#: ``_BATCH_DELTA_LIMIT``), so ``compiled_index()`` patches it.
SPAN_RULES = 16


def build_policy(rule_count: int) -> PortQosPolicy:
    """One port policy loaded with ``rule_count`` fine-grained rules."""
    hosts_needed = (rule_count + len(PORTS) - 1) // len(PORTS)
    hosts = [
        f"10.{1 + (i >> 16)}.{(i >> 8) & 255}.{i & 255}" for i in range(hosts_needed)
    ]
    rules = BlackholingRule.fine_grained_set(
        owner_asn=VICTIM_ASN,
        hosts=hosts,
        source_ports=PORTS,
        count=rule_count,
        shape_every=10,
        shape_rate_bps=5e6,
    )
    policy = PortQosPolicy(port_capacity_bps=100e9)
    policy.install_many([rule.to_qos_rule() for rule in rules])
    return policy


def build_interval(rule_count: int, flow_count: int) -> FlowTable:
    """A ≥``flow_count``-flow interval, half aimed at rule-covered pairs."""
    rng = make_rng(SEED)
    n_targeted = flow_count // 2
    n_background = flow_count - n_targeted
    rule_index = rng.integers(0, rule_count, size=n_targeted)
    host_index = rule_index // len(PORTS)
    dst_targeted = (
        (np.uint32(10) << 24)
        | ((1 + (host_index >> 16)).astype(np.uint32) << 16)
        | (((host_index >> 8) & 255).astype(np.uint32) << 8)
        | (host_index & 255).astype(np.uint32)
    )
    ports = np.asarray(PORTS, dtype=np.int32)
    dst_ip = np.concatenate(
        [dst_targeted, rng.integers(0x0B000000, 0xDF000000, size=n_background)]
    ).astype(np.uint32)
    src_port = np.concatenate(
        [ports[rule_index % len(PORTS)], rng.integers(49152, 65536, size=n_background)]
    ).astype(np.int32)
    protocol = np.concatenate(
        [np.full(n_targeted, 17), rng.choice([6, 17], size=n_background)]
    ).astype(np.uint8)
    n = flow_count
    return FlowTable(
        src_ip=rng.integers(0x0B000000, 0xDF000000, size=n).astype(np.uint32),
        dst_ip=dst_ip,
        protocol=protocol,
        src_port=src_port,
        dst_port=rng.integers(1024, 65536, size=n).astype(np.int32),
        start=np.zeros(n),
        duration=np.full(n, INTERVAL),
        bytes=rng.integers(200, 40000, size=n).astype(np.int64),
        packets=np.ones(n, dtype=np.int64),
        ingress_asn=np.full(n, 65001, dtype=np.int64),
        egress_asn=np.full(n, VICTIM_ASN, dtype=np.int64),
        is_attack=np.zeros(n, dtype=bool),
    )


def time_classification(
    policy: PortQosPolicy, table: FlowTable, rounds: int = 3, repeats: int = 2
) -> float:
    """Best-of-``repeats`` wall clock of ``rounds`` classification passes.

    Measures the cached steady state — a warm-up pass absorbs the one-off
    index compilation, which is what the data plane runs every interval;
    the minimum over repeats discards GC/scheduler noise, as in the
    fabric bench.
    """
    policy.assign_table(table)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(rounds):
            policy.assign_table(table)
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_indexed_speedup_10k_rules(benchmark):
    rule_count, flow_count = 12_000, 60_000
    table = build_interval(rule_count, flow_count)
    assert len(table) >= 50_000

    indexed = build_policy(rule_count)
    assert len(indexed) >= 10_000
    indexed_seconds = time_classification(indexed, table, rounds=1, repeats=3)
    # The baseline runs on its own interval of the same size and shape
    # (half the flows aimed at its rules), as in the scaling sweep.
    baseline_seconds = time_classification(
        build_policy(BASELINE_RULES),
        build_interval(BASELINE_RULES, flow_count),
        rounds=1,
        repeats=3,
    )

    def indexed_pass():
        indexed.assign_table(table)

    benchmark.pedantic(indexed_pass, rounds=1)

    ratio = indexed_seconds / baseline_seconds
    print_table(
        f"Rule-match index, {len(table)} flows (1 interval)",
        [
            ("rules", "seconds", "vs baseline"),
            (str(BASELINE_RULES), f"{baseline_seconds:.4f}", "1.0x"),
            (str(rule_count), f"{indexed_seconds:.4f}", f"{ratio:.1f}x"),
        ],
    )
    write_bench_json(
        "ruleindex",
        {
            "rule_count": rule_count,
            "flow_count": len(table),
            "indexed_seconds": indexed_seconds,
            "baseline_rule_count": BASELINE_RULES,
            "baseline_seconds": baseline_seconds,
            "index": indexed.compiled_index().describe(),
        },
    )
    assert ratio <= MAX_SCALING, (
        f"indexed classification at {rule_count} rules took {ratio:.1f}x its time "
        f"at {BASELINE_RULES} rules (limit {MAX_SCALING}x)"
    )


def test_bench_rule_count_scaling(benchmark):
    counts = (BASELINE_RULES, 3_000, 10_000, 30_000)
    flow_count = 50_000
    points = []
    for rule_count in counts:
        table = build_interval(rule_count, flow_count)
        seconds = time_classification(build_policy(rule_count), table, rounds=2, repeats=2) / 2
        points.append((rule_count, seconds))

    def indexed_largest():
        policy = build_policy(counts[-1])
        policy.assign_table(build_interval(counts[-1], flow_count))

    benchmark.pedantic(indexed_largest, rounds=1)

    rows = [("rules", "indexed [ms]", "vs baseline")]
    for rule_count, seconds in points:
        rows.append((str(rule_count), f"{seconds * 1e3:.2f}", f"{seconds / points[0][1]:.1f}x"))
    print_table(f"Rule-index scaling over rule count ({flow_count} flows)", rows)
    # 30x the rules on a same-sized interval must not cost anywhere
    # near 30x: the exact groups resolve whole intervals per lookup.
    ratio = points[-1][1] / points[0][1]
    assert ratio <= MAX_SCALING, (
        f"indexed classification at {counts[-1]} rules took {ratio:.1f}x its time "
        f"at {counts[0]} rules (limit {MAX_SCALING}x)"
    )


def test_bench_incremental_install_latency(benchmark):
    """Rule-install latency: journal-patched snapshots vs full recompiles.

    Before the incremental compile, every mutation paid a from-scratch
    ``RuleMatchIndex`` build on the next classification — O(rules) Python
    work per install.  The delta path splices one signature group, so the
    cost of absorbing a single install must stay roughly flat while the
    full compile grows with the rule count.  Asserts the >= 10x win at
    12 000 rules and records the 1k/12k/30k trajectory in
    ``BENCH_ruleindex.json`` (merged into the classification record).

    The span row does the same for a coalesced batch: a
    :data:`SPAN_RULES`-rule ``install_many`` at 12 000 rules, absorbed by
    one ``compiled_index()`` call (one journal span, one
    ``RuleMatchIndex.with_changes`` pass), must also beat the full
    compile >= 10x.
    """
    import json
    import os
    from pathlib import Path

    from repro.bgp import Prefix
    from repro.ixp import FilterAction, FlowMatch, QosRule, RuleMatchIndex
    from repro.ixp.qos import _BATCH_DELTA_LIMIT
    from repro.traffic.packet import IpProtocol

    assert SPAN_RULES <= _BATCH_DELTA_LIMIT  # journalled, not re-sorted

    counts = (1_000, 12_000, 30_000)
    installs = 16
    points = []
    span_seconds = float("inf")
    for rule_count in counts:
        policy = build_policy(rule_count)
        policy.compiled_index()  # warm snapshot: installs below patch it
        fresh = [
            QosRule(
                match=FlowMatch(
                    dst_prefix=Prefix.parse(f"172.16.{i // 256}.{i % 256}/32"),
                    protocol=IpProtocol.UDP,
                    src_port=123,
                ),
                action=FilterAction.DROP,
                rule_id=f"hot-{i}",
            )
            for i in range(installs)
        ]
        start = time.perf_counter()
        for rule in fresh:
            policy.install(rule)
            policy.compiled_index()
        incremental_seconds = (time.perf_counter() - start) / installs

        if rule_count == 12_000:
            for attempt in range(3):
                batch = [
                    QosRule(
                        match=FlowMatch(
                            dst_prefix=Prefix.parse(f"172.17.{attempt}.{i}/32"),
                            protocol=IpProtocol.UDP,
                            src_port=53,
                        ),
                        action=FilterAction.DROP,
                        rule_id=f"span-{attempt}-{i}",
                    )
                    for i in range(SPAN_RULES)
                ]
                start = time.perf_counter()
                policy.install_many(batch)
                policy.compiled_index()
                span_seconds = min(span_seconds, time.perf_counter() - start)

        # What each of those installs used to cost: a from-scratch
        # compile of the now-current rule list.
        rules = policy.sorted_rules()
        full_seconds = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            RuleMatchIndex(rules)
            full_seconds = min(full_seconds, time.perf_counter() - start)

        points.append((rule_count, incremental_seconds, full_seconds))

    # The patched snapshot is the compile, structurally (spot-check at
    # the smallest size; the fuzz suite pins it exhaustively).
    check = build_policy(counts[0])
    check.compiled_index()
    check.install(fresh[0])
    assert (
        check.compiled_index().structure()
        == RuleMatchIndex(check.sorted_rules()).structure()
    )

    def hot_install():
        policy.install(
            QosRule(
                match=FlowMatch(
                    dst_prefix=Prefix.parse("172.31.0.1/32"),
                    protocol=IpProtocol.UDP,
                    src_port=123,
                ),
                action=FilterAction.DROP,
                rule_id="hot-bench",
            )
        )
        policy.compiled_index()

    benchmark.pedantic(hot_install, rounds=1)

    rows = [("rules", "incremental [ms]", "full compile [ms]", "speedup")]
    trajectory = []
    for rule_count, incremental_seconds, full_seconds in points:
        speedup = full_seconds / incremental_seconds
        rows.append(
            (
                str(rule_count),
                f"{incremental_seconds * 1e3:.3f}",
                f"{full_seconds * 1e3:.1f}",
                f"{speedup:.0f}x",
            )
        )
        trajectory.append(
            {
                "rule_count": rule_count,
                "incremental_install_seconds": incremental_seconds,
                "full_compile_seconds": full_seconds,
                "speedup": speedup,
            }
        )
    full_at_12k = next(point[2] for point in points if point[0] == 12_000)
    span_speedup = full_at_12k / span_seconds
    rows.append(
        (
            f"12000, {SPAN_RULES}-rule span",
            f"{span_seconds * 1e3:.3f}",
            f"{full_at_12k * 1e3:.1f}",
            f"{span_speedup:.0f}x",
        )
    )
    print_table("Install latency: incremental snapshot patch vs full compile", rows)

    # Merge into the classification record rather than clobbering it.
    path = Path(os.environ.get("BENCH_OUTPUT_DIR", ".")) / "BENCH_ruleindex.json"
    payload = json.loads(path.read_text()) if path.exists() else {}
    payload["install_latency"] = trajectory
    payload["span_install_latency"] = {
        "rule_count": 12_000,
        "span_rules": SPAN_RULES,
        "span_seconds": span_seconds,
        "full_compile_seconds": full_at_12k,
        "speedup": span_speedup,
    }
    write_bench_json("ruleindex", payload)

    at_12k = next(point for point in trajectory if point["rule_count"] == 12_000)
    assert at_12k["speedup"] >= 10.0, (
        f"expected >= 10x incremental install win at 12k rules, "
        f"got {at_12k['speedup']:.1f}x"
    )
    assert span_speedup >= 10.0, (
        f"expected >= 10x win absorbing a {SPAN_RULES}-rule span at 12k rules, "
        f"got {span_speedup:.1f}x"
    )
