"""Property test: every ``TrafficTrace`` query against the per-record reference.

A generated :func:`fuzz.strategies.flow_tables` interval is re-timed with
seeded starts and durations (zero-duration flows included), so filters,
rate bins and port-share windows see flows that straddle, touch and miss
their boundaries.  Every query and ``port_share_timeseries`` must equal
the naive model in ``tests/oracle/trace.py`` with ``==``.
"""

import numpy as np
from hypothesis import given, strategies as st

from fuzz.strategies import HOSTS, PORT_POOL, flow_tables
from oracle import trace as reference
from oracle.records import to_records
from repro.analysis import port_share_timeseries
from repro.traffic import FlowTable, TrafficTrace
from repro.traffic.flowtable import COLUMNS

EGRESS_POOL = (64500, 64501, 64502)


def retimed(table, seed):
    """``table`` with seeded starts in [0, 60) s and durations in [0, 30) s."""
    rng = np.random.default_rng(seed)
    n = len(table)
    columns = {name: getattr(table, name) for name in COLUMNS}
    columns["start"] = np.round(rng.uniform(0.0, 60.0, n), 1)
    columns["duration"] = np.where(
        rng.random(n) < 0.2, 0.0, np.round(rng.uniform(0.1, 30.0, n), 1)
    )
    return FlowTable(**columns)


@given(
    table=flow_tables(egress_pool=EGRESS_POOL),
    timing_seed=st.integers(min_value=0, max_value=2**31 - 1),
    bin_seconds=st.sampled_from([0.7, 5.0, 30.0]),
    window=st.tuples(st.floats(0.0, 60.0), st.floats(0.0, 60.0)),
    top_ports=st.sets(st.sampled_from(PORT_POOL)),
    host=st.sampled_from(HOSTS),
    member=st.sampled_from(EGRESS_POOL),
)
def test_trace_queries_match_reference(
    table, timing_seed, bin_seconds, window, top_ports, host, member
):
    trace = TrafficTrace(retimed(table, timing_seed))
    flows = to_records(trace.table)
    low, high = sorted(window)

    assert len(trace) == len(flows)
    assert trace.total_bytes == sum(flow.bytes for flow in flows)
    assert trace.start == reference.trace_start(flows)
    assert trace.end == reference.trace_end(flows)

    by_port = reference.bytes_by_service_port(flows)
    assert trace.bytes_by_service_port() == by_port
    assert trace.bytes_by_protocol() == reference.bytes_by_protocol(flows)
    assert trace.bytes_by_source_port() == reference.bytes_by_source_port(flows)
    assert trace.distinct_ingress_members() == reference.ingress_members(flows)
    total = sum(by_port.values())
    assert trace.share_by_service_port() == (
        {port: volume / total for port, volume in by_port.items()} if total else {}
    )

    assert to_records(trace.towards(host).table) == reference.towards(flows, host)
    assert to_records(trace.towards_member(member).table) == reference.towards_member(flows, member)
    assert to_records(trace.attack_flows().table) == reference.attack_flows(flows)
    assert to_records(trace.benign_flows().table) == reference.benign_flows(flows)
    assert to_records(trace.between(low, high).table) == reference.between(flows, low, high)

    assert trace.rate_timeseries(bin_seconds) == reference.rate_timeseries(
        flows, bin_seconds
    )
    assert trace.rate_timeseries(bin_seconds, low, high) == reference.rate_timeseries(
        flows, bin_seconds, low, high
    )
    assert port_share_timeseries(trace, bin_seconds, top_ports) == (
        reference.port_share_timeseries(flows, bin_seconds, top_ports)
    )
