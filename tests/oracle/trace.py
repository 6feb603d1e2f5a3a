"""Naive per-record models of the ``TrafficTrace`` queries and IPFIX sampling.

Every function takes a plain list of :class:`~oracle.records.FlowRecord`
(``to_records(trace.table)``) and answers the query flow by flow with the
scalar record helpers (``FlowRecord.overlaps``, ``.end``, ``.scaled``),
none of the column masks or group-bys of :mod:`repro.traffic`.  Byte
totals are Python ints, so they compare with ``==``.  The IPFIX sampler
rebuilds the exporter's RNG from the same seed and draws once per flow,
in row order.
"""

from repro.analysis.collateral import PortShareSnapshot
from repro.sim.rng import make_rng
from repro.traffic.packet import IpProtocol

#: L4 ports below this are "registered" when picking a service port.
WELL_KNOWN_LIMIT = 49152


def service_port(flow):
    """The port naming the flow's application.

    Amplification replies carry the abused service as the *source* port,
    web requests carry it as the *destination* port: the smaller
    registered-range port wins, and port 0 (fragments) is its own class.
    """
    src, dst = flow.src_port, flow.dst_port
    if src == 0 or dst == 0:
        return 0
    candidates = [port for port in (src, dst) if port < WELL_KNOWN_LIMIT]
    if not candidates:
        return min(src, dst)
    return min(candidates)


def _bytes_by(flows, key):
    totals = {}
    for flow in flows:
        totals[key(flow)] = totals.get(key(flow), 0) + flow.bytes
    return totals


def bytes_by_protocol(flows):
    return _bytes_by(flows, lambda flow: IpProtocol(flow.protocol))


def ingress_members(flows):
    return {flow.ingress_member_asn for flow in flows if flow.ingress_member_asn}


def trace_start(flows):
    return min((flow.start for flow in flows), default=0.0)


def trace_end(flows):
    return max((flow.end for flow in flows), default=0.0)


# ----------------------------------------------------------------------
# Filters
# ----------------------------------------------------------------------
def towards(flows, dst_ip):
    return [flow for flow in flows if flow.dst_ip == dst_ip]


def attack_flows(flows):
    return [flow for flow in flows if flow.is_attack]


def benign_flows(flows):
    return [flow for flow in flows if not flow.is_attack]


def between(flows, start, end):
    return [flow for flow in flows if flow.overlaps(start, end)]


def port_share_timeseries(flows, interval, top_ports, start=None, end=None):
    """Per-window byte shares of ``top_ports``; every other port counts as -1."""
    first = trace_start(flows) if start is None else start
    last = trace_end(flows) if end is None else end
    snapshots = []
    t = first
    while t < last:
        totals = {}
        for flow in between(flows, t, t + interval):
            port = service_port(flow)
            key = port if port in top_ports else -1
            totals[key] = totals.get(key, 0) + flow.bytes
        grand_total = sum(totals.values())
        shares = (
            {port: volume / grand_total for port, volume in totals.items()}
            if grand_total
            else {}
        )
        snapshots.append(
            PortShareSnapshot(interval_start=t, shares=shares, total_bytes=grand_total)
        )
        t += interval
    return snapshots


# ----------------------------------------------------------------------
# IPFIX sampling
# ----------------------------------------------------------------------
def ipfix_sample(flows, sampling_rate, seed):
    """The flows a 1-in-``sampling_rate`` exporter keeps, scaled back up.

    One scalar uniform draw per flow decides; the exporter's single
    ``rng.random(n)`` call consumes the stream exactly like these draws.
    """
    if sampling_rate == 1:
        return list(flows)
    rng = make_rng(seed)
    return [
        flow.scaled(sampling_rate)
        for flow in flows
        if rng.random() < 1.0 / sampling_rate
    ]
