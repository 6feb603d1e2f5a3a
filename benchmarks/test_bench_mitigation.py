"""Scaling of the columnar mitigation data plane.

Two benches check that applying all five strategies (RTBH, ACL, Flowspec,
scrubbing, combined) stays linear in the interval's flow count, each
against a smaller interval timed the same way on the same machine:

* ``test_bench_columnar_speedup_100k`` times a ~107k-flow interval
  against a ~10.7k-flow one (10x the flows).
* ``test_bench_mitigation_sweep_16pt`` runs a 16-point reflector-count x
  attack-rate grid (the shape an operator sweep produces) and compares
  the 53k-flow row with the 6.7k-flow row (8x the flows).

Both assert that the CPU time per flow grows at most ``PER_FLOW_GROWTH``
times from the small to the large interval — 12x the time for 10x the
flows.  Fixed per-call overhead keeps the measured growth under 1
(0.81-0.93 for the 10x pair on a 2-core Xeon, also with both cores
busy with other work), so only a super-linear regression trips it.
Correctness is checked elsewhere, against the naive references in
``tests/oracle/mitigation.py``.
"""

import time

from bench_utils import print_table

from repro.bgp.flowspec import drop_rule, rate_limit_rule
from repro.core.rules import BlackholingRule
from repro.mitigation import (
    AccessControlList,
    AclMitigation,
    CombinedMitigation,
    FlowspecMitigation,
    FlowspecService,
    RtbhMitigation,
    RtbhService,
    ScrubbingMitigation,
)
from repro.traffic import (
    AmplificationAttack,
    BenignTrafficSource,
    FlowTable,
    IpProtocol,
    get_vector,
)

VICTIM_IP = "100.10.10.10"
VICTIM_PREFIX = f"{VICTIM_IP}/32"
VICTIM_ASN = 64500
PEER_ASNS = [65000 + i for i in range(40)]
INTERVAL = 10.0


def build_interval_table(reflector_count: int, attack_rate_bps: float, seed: int = 3):
    """One observation interval of amplification + benign traffic."""
    attack = AmplificationAttack(
        victim_ip=VICTIM_IP,
        vector=get_vector("ntp"),
        peak_rate_bps=attack_rate_bps,
        start=0.0,
        duration=60.0,
        ingress_member_asns=PEER_ASNS,
        victim_member_asn=VICTIM_ASN,
        reflector_count=reflector_count,
        ramp_seconds=0.0,
        seed=seed,
    )
    benign = BenignTrafficSource(
        dst_ip=VICTIM_IP,
        egress_member_asn=VICTIM_ASN,
        ingress_member_asns=PEER_ASNS[:5],
        rate_bps=attack_rate_bps / 20,
        client_count=max(50, reflector_count // 3),
        seed=seed + 1,
    )
    return FlowTable.concat(
        [attack.flow_table(30.0, INTERVAL), benign.flow_table(30.0, INTERVAL)]
    )


def strategy_factories(seed: int = 9):
    """``(name, factory)`` pairs; each call builds a fresh, equally-seeded
    instance, so every timed pass does the same work."""

    def rtbh():
        service = RtbhService(ixp_asn=64700, compliance_rate=0.3, seed=seed)
        service.request_blackhole(VICTIM_ASN, VICTIM_PREFIX, PEER_ASNS)
        return RtbhMitigation(service)

    def acl():
        entries = AccessControlList()
        entries.deny(VICTIM_PREFIX, protocol=IpProtocol.UDP, src_port=123)
        return AclMitigation(entries)

    def flowspec():
        service = FlowspecService(acceptance_rate=0.5, seed=seed)
        service.announce_rule(
            drop_rule(VICTIM_PREFIX, source_port=123, ip_protocol=int(IpProtocol.UDP)),
            PEER_ASNS,
        )
        service.announce_rule(rate_limit_rule(VICTIM_PREFIX, 1e6), PEER_ASNS)
        return FlowspecMitigation(service)

    def scrubbing():
        return ScrubbingMitigation(active_since=-1e9, seed=seed)

    def combined():
        rules = [
            BlackholingRule.drop_udp_source_port(VICTIM_ASN, VICTIM_PREFIX, 123),
            BlackholingRule.shape_udp_source_port(
                VICTIM_ASN, VICTIM_PREFIX, 53, rate_bps=1e6
            ),
        ]
        return CombinedMitigation(rules, ScrubbingMitigation(active_since=-1e9, seed=seed))

    return [
        ("RTBH", rtbh),
        ("ACL", acl),
        ("Flowspec", flowspec),
        ("Scrubbing", scrubbing),
        ("Combined", combined),
    ]


#: Allowed growth of the cost per flow from the small to the large interval.
PER_FLOW_GROWTH = 1.2


def time_strategies(table):
    """Per-strategy CPU time of ``apply`` on ``table`` (fresh instances).

    Process CPU time, not wall time: on a loaded machine a 25 ms pass is
    preempted far more often than a 3 ms one, which would skew the ratio.
    """
    timings = []
    for name, factory in strategy_factories():
        mitigation = factory()
        start = time.process_time()
        mitigation.apply(table, INTERVAL)
        timings.append((name, time.process_time() - start))
    return timings


def best_totals(tables, rounds=5):
    """Best-of-``rounds`` total time of all strategies, per table.

    The tables are interleaved within each round, so a burst of load on a
    shared machine hits every table alike.
    """
    best = [float("inf")] * len(tables)
    for _ in range(rounds):
        for index, table in enumerate(tables):
            total = sum(seconds for _, seconds in time_strategies(table))
            best[index] = min(best[index], total)
    return best


def assert_linear(small_flows, small_seconds, large_flows, large_seconds):
    growth = (large_seconds / large_flows) / (small_seconds / small_flows)
    assert growth <= PER_FLOW_GROWTH, (
        f"cost per flow grew {growth:.2f}x from {small_flows} to {large_flows} flows "
        f"({small_seconds * 1e3:.1f} ms -> {large_seconds * 1e3:.1f} ms); "
        f"bound {PER_FLOW_GROWTH}x"
    )


def test_bench_columnar_speedup_100k(benchmark):
    large = build_interval_table(reflector_count=80_000, attack_rate_bps=40e9)
    small = build_interval_table(reflector_count=8_000, attack_rate_bps=4e9)
    assert len(large) >= 100_000, f"interval has only {len(large)} flows"

    def columnar_pass():
        for _, factory in strategy_factories():
            factory().apply(large, INTERVAL)

    benchmark.pedantic(columnar_pass, rounds=1)

    small_seconds, large_seconds = best_totals([small, large])
    rows = [("strategy", f"{len(small)} flows [ms]", f"{len(large)} flows [ms]")]
    for (name, small_time), (_, large_time) in zip(
        time_strategies(small), time_strategies(large)
    ):
        rows.append((name, f"{small_time * 1e3:.2f}", f"{large_time * 1e3:.2f}"))
    rows.append(("TOTAL (best of 5)", f"{small_seconds * 1e3:.2f}", f"{large_seconds * 1e3:.2f}"))
    print_table("Columnar mitigation, 10x the flows", rows)

    assert_linear(len(small), small_seconds, len(large), large_seconds)


def test_bench_mitigation_sweep_16pt(benchmark):
    # A 4 x 4 operator-style grid: attack size x attack rate.
    grid = [
        (reflectors, rate)
        for reflectors in (5_000, 10_000, 20_000, 40_000)
        for rate in (5e9, 10e9, 20e9, 40e9)
    ]
    points = [
        (reflectors, rate, build_interval_table(reflectors, rate, seed=3 + index))
        for index, (reflectors, rate) in enumerate(grid)
    ]

    def columnar_sweep():
        for _, _, table in points:
            for _, factory in strategy_factories():
                factory().apply(table, INTERVAL)

    benchmark.pedantic(columnar_sweep, rounds=1)

    seconds = best_totals([table for _, _, table in points], rounds=3)
    rows = [("point", "flows", "table [ms]", "per flow [us]")]
    for (reflectors, rate, table), point_seconds in zip(points, seconds):
        rows.append(
            (
                f"{reflectors // 1000}k x {rate / 1e9:.0f}G",
                str(len(table)),
                f"{point_seconds * 1e3:.2f}",
                f"{point_seconds * 1e6 / len(table):.3f}",
            )
        )
    print_table("16-point mitigation sweep, columnar", rows)

    # The smallest and the largest attack size, each summed over its four rates.
    small_flows = sum(len(table) for _, _, table in points[:4])
    large_flows = sum(len(table) for _, _, table in points[-4:])
    assert_linear(small_flows, sum(seconds[:4]), large_flows, sum(seconds[-4:]))
