#!/usr/bin/env python3
"""Quickstart: deploy Stellar at a small IXP and mitigate an NTP reflection attack.

The script builds a minimal IXP (one edge router, a victim member and a few
peers), launches a ~1 Gbps NTP amplification attack towards one of the
victim's IP addresses, and shows the before/after effect of signalling a
single Advanced Blackholing rule (drop UDP source port 123) via BGP.

Run with::

    python examples/quickstart.py
"""

from repro.core import BlackholingRule, Stellar
from repro.ixp import EdgeRouter, IxpMember, SwitchingFabric
from repro.traffic import AmplificationAttack, BenignTrafficSource, FlowTable, get_vector

IXP_ASN = 64700
VICTIM_ASN = 64500
VICTIM_IP = "100.10.10.10"


def build_ixp() -> tuple[Stellar, list[IxpMember]]:
    """Create the IXP fabric, the Stellar deployment and the members."""
    fabric = SwitchingFabric(name="demo-ixp")
    fabric.add_edge_router(EdgeRouter("edge-1"))
    stellar = Stellar(ixp_asn=IXP_ASN, fabric=fabric)

    victim = IxpMember(
        asn=VICTIM_ASN,
        name="web-hoster",
        port_capacity_bps=1e9,  # a 1 Gbps port that the attack will congest
        prefixes=["100.10.10.0/24"],
    )
    peers = [IxpMember(asn=65001 + i, name=f"peer-{i}") for i in range(8)]
    stellar.add_member(victim)
    stellar.add_members(peers)
    return stellar, peers


def traffic_sources(peers: list[IxpMember]):
    """A 1 Gbps NTP reflection attack plus 300 Mbps of legitimate web traffic."""
    attack = AmplificationAttack(
        victim_ip=VICTIM_IP,
        vector=get_vector("ntp"),
        peak_rate_bps=1e9,
        start=0.0,
        duration=600.0,
        ingress_member_asns=[peer.asn for peer in peers],
        victim_member_asn=VICTIM_ASN,
        ramp_seconds=0.0,
        seed=1,
    )
    benign = BenignTrafficSource(
        dst_ip=VICTIM_IP,
        egress_member_asn=VICTIM_ASN,
        ingress_member_asns=[peer.asn for peer in peers[:3]],
        rate_bps=300e6,
        seed=2,
    )
    return attack, benign


def deliver(stellar: Stellar, attack, benign, t: float, interval: float = 10.0):
    """Push one observation interval through the IXP and summarise it."""
    flows = FlowTable.concat([attack.flow_table(t, interval), benign.flow_table(t, interval)])
    report = stellar.deliver_traffic(flows, interval, interval_start=t)
    result = report.fabric_report.results_by_member[VICTIM_ASN]
    # Traffic that passed the QoS policy, before the egress queue; the egress
    # queue (port capacity) then trims it proportionally, so scale the split.
    passed = FlowTable.concat([result.forwarded_table, result.shaped_table])
    passed_bits = passed.total_bits or 1
    scale = result.delivered_bits / passed_bits
    attack_bits = int(passed.bytes[passed.is_attack].sum()) * 8
    attack_mbps = attack_bits * scale / interval / 1e6
    benign_mbps = (passed.total_bits - attack_bits) * scale / interval / 1e6
    congestion_mbps = result.congestion_dropped_bits / interval / 1e6
    return attack_mbps, benign_mbps, congestion_mbps


def main() -> None:
    stellar, peers = build_ixp()
    attack, benign = traffic_sources(peers)

    print("Phase 1 — attack without mitigation (the 1 Gbps port congests):")
    attack_mbps, benign_mbps, congestion = deliver(stellar, attack, benign, t=0.0)
    print(f"  delivered attack traffic : {attack_mbps:7.1f} Mbps")
    print(f"  delivered benign traffic : {benign_mbps:7.1f} Mbps")
    print(f"  lost to port congestion  : {congestion:7.1f} Mbps")

    print("\nPhase 2 — the victim signals one Advanced Blackholing rule via BGP")
    rule = BlackholingRule.drop_udp_source_port(VICTIM_ASN, f"{VICTIM_IP}/32", 123)
    result = stellar.request_mitigation(rule, via="bgp")
    print(f"  signal accepted: {result.accepted} (extended community, single announcement)")
    stellar.process_control_plane(now=15.0)
    print(f"  rules installed on the victim's egress port: {stellar.installed_rule_count()}")

    attack_mbps, benign_mbps, congestion = deliver(stellar, attack, benign, t=20.0)
    print(f"  delivered attack traffic : {attack_mbps:7.1f} Mbps")
    print(f"  delivered benign traffic : {benign_mbps:7.1f} Mbps")
    print(f"  lost to port congestion  : {congestion:7.1f} Mbps")

    telemetry = stellar.telemetry_report(VICTIM_ASN)
    print("\nTelemetry available to the victim:")
    print(f"  filtered so far: {telemetry.total_filtered_bits / 1e9:.2f} Gbit "
          f"across {telemetry.active_rule_count} rule(s)")


if __name__ == "__main__":
    main()
