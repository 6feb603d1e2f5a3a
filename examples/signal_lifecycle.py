#!/usr/bin/env python3
"""Signal lifecycle: walk a victim through every way it can signal Stellar.

The IXP is the quickstart's (one edge router, a web hoster under a ~1 Gbps
NTP reflection attack and eight peers) with two differences: the route
server checks every signal against the IRR and RPKI (paper §4.3), and the
edge router is a small switch whose TCAM holds 12 L3-L4 match criteria
(a /32 UDP source-port rule takes three: prefix, protocol and port).  The
victim, AS64500 with 100.10.10.0/24, then

1. sees a peer refused when it tries to blackhole the victim's prefix
   (IRR), and a member refused whose IRR object RPKI contradicts;
2. shapes the attack to 100 Mbit/s, reads its telemetry and escalates to
   a drop of the same traffic;
3. references an IXP template by its id, and a custom rule of its own,
   which it then deletes from the portal;
4. signals a rule through the portal API and withdraws it there;
5. announces a classic RTBH route, which the controller turns into a
   drop-all rule, and withdraws it over BGP;
6. signals more rules than the TCAM holds;
7. is refused rules the Stellar communities cannot carry;
8. withdraws its NTP drop over BGP once the attack is over.

Run with::

    python examples/signal_lifecycle.py
"""

from dataclasses import replace

from repro.bgp import ImportPolicy, announcement, rtbh_community
from repro.core import BlackholingRule, RuleTemplate, SignalRejectedError, Stellar
from repro.ixp import EdgeRouter, FlowMatch, HardwareProfile, IxpMember, SwitchingFabric
from repro.traffic import AmplificationAttack, IpProtocol, get_vector

IXP_ASN = 64700
VICTIM_ASN = 64500
VICTIM_IP = "100.10.10.10"
HOST = f"{VICTIM_IP}/32"
INTERVAL = 10.0


def build_ixp() -> tuple[Stellar, list[IxpMember]]:
    """The quickstart IXP behind an IRR/RPKI-checking route server."""
    policy = ImportPolicy()
    # The victim's ROA lets it announce host routes out of its /24.
    policy.rpki.add_roa("100.10.10.0/24", VICTIM_ASN, max_length=32)
    # peer-1 keeps an IRR route object for 100.21.0.0/24, but the ROA
    # names another AS: RPKI says the object is stale.
    policy.rpki.add_roa("100.21.0.0/24", 64999, max_length=32)
    small_switch = HardwareProfile(
        name="small-switch", port_count=16, mac_filter_capacity=16, l3l4_criteria_capacity=12
    )
    fabric = SwitchingFabric(name="demo-ixp")
    fabric.add_edge_router(EdgeRouter("edge-1", profile=small_switch))
    stellar = Stellar(ixp_asn=IXP_ASN, fabric=fabric, policy=policy)
    victim = IxpMember(
        asn=VICTIM_ASN, name="web-hoster", port_capacity_bps=1e9, prefixes=["100.10.10.0/24"]
    )
    peers = [
        IxpMember(asn=65001 + i, name=f"peer-{i}", prefixes=[f"100.{20 + i}.0.0/24"])
        for i in range(8)
    ]
    stellar.add_member(victim)
    stellar.add_members(peers)
    return stellar, peers


def ntp_attack(peers: list[IxpMember]) -> AmplificationAttack:
    return AmplificationAttack(
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


def deliver(stellar: Stellar, attack: AmplificationAttack) -> None:
    """Push the next interval of attack traffic through the IXP."""
    start = stellar.now
    report = stellar.deliver_traffic(attack.flow_table(start, INTERVAL), INTERVAL, start)
    result = report.fabric_report.results_by_member[VICTIM_ASN]
    print(
        f"  [{start:4.0f} s] attack delivered to the victim's port: "
        f"{result.delivered_bits / INTERVAL / 1e6:6.1f} Mbps "
        f"({result.congestion_dropped_bits / INTERVAL / 1e6:.1f} Mbps lost to congestion)"
    )


def apply(stellar: Stellar, seconds: float = 1.0) -> None:
    """Run the control plane ``seconds`` on and print each change it resolved."""
    for request, response in stellar.advance(now=stellar.now + seconds):
        rule_id = request.rules[0].rule_id if request.op == "install" else request.rule_id
        outcome = response.status + (f" ({response.reason})" if response.reason else "")
        print(f"    {request.op} {rule_id}: {outcome}")


def show_active(stellar: Stellar) -> None:
    active = stellar.active_rules()
    installed = stellar.installed_rule_count()
    print(f"    active rules: {len(active)}, installed on the router: {installed}")
    for rule in active:
        print(f"      {rule}")


def signal(stellar: Stellar, rule: BlackholingRule, via: str = "bgp") -> None:
    """Signal a rule and print what the signalling layer answers."""
    try:
        result = stellar.request_mitigation(rule, via=via)
    except SignalRejectedError as error:
        print(f"    refused: {error}")
        return
    print(f"    accepted={result.accepted} via {result.via} {result.detail}".rstrip())


def main() -> None:
    stellar, peers = build_ixp()
    attack = ntp_attack(peers)

    print("1. Authorisation: only a prefix's holder may blackhole it (IRR, RPKI)")
    print("  peer-0 tries to drop NTP towards the victim's host:")
    signal(stellar, BlackholingRule.drop_udp_source_port(peers[0].asn, HOST, 123))
    print("  peer-1 signals for its own IRR-registered 100.21.0.0/24, which RPKI contradicts:")
    signal(stellar, BlackholingRule.drop_udp_source_port(peers[1].asn, "100.21.0.7/32", 123))
    show_active(stellar)

    print("\n2. Shape, read the telemetry, then drop")
    deliver(stellar, attack)
    print("  the victim shapes UDP source port 123 to 100 Mbit/s via BGP:")
    signal(stellar, BlackholingRule.shape_udp_source_port(VICTIM_ASN, HOST, 123, 100e6))
    apply(stellar, seconds=0.0)
    deliver(stellar, attack)
    (telemetry,) = stellar.telemetry_report(VICTIM_ASN).rules
    print(
        f"  telemetry for {telemetry.rule_id}: matched {telemetry.matched_bits / 1e9:.1f} Gbit, "
        f"passed {telemetry.shaped_passed_bits / 1e9:.1f} Gbit, "
        f"discarded {telemetry.shaped_dropped_bits / 1e9:.1f} Gbit"
    )
    print("  the sample is all NTP: the victim re-announces the rule as a drop,")
    print("  and the controller updates the installed rule in place:")
    signal(stellar, BlackholingRule.drop_udp_source_port(VICTIM_ASN, HOST, 123))
    apply(stellar, seconds=0.0)
    deliver(stellar, attack)

    print("\n3. Rules from the customer portal, referenced by id")
    print("  IXP template 3 (drop-memcached) for 100.10.10.11:")
    result = stellar.request_predefined_mitigation(VICTIM_ASN, "100.10.10.11/32", 3)
    print(f"    accepted={result.accepted} via {result.via}")
    custom = stellar.portal.define_custom_rule(
        VICTIM_ASN,
        RuleTemplate(
            name="drop-tcp-80",
            match=FlowMatch(protocol=IpProtocol.TCP, dst_port=80),
            description="a SYN flood on the victim's web server",
        ),
    )
    print(f"  the victim's own rule {custom} (drop TCP port 80) for 100.10.10.12:")
    result = stellar.request_predefined_mitigation(VICTIM_ASN, "100.10.10.12/32", custom)
    print(f"    accepted={result.accepted} via {result.via}")
    apply(stellar)
    removed = stellar.portal.remove_custom_rule(VICTIM_ASN, custom)
    print(f"  the victim deletes rule {custom} from the portal (removed={removed});")
    print("  the signal it already sent was decoded on arrival and keeps its rule:")
    show_active(stellar)

    print("\n4. A rule through the portal API, then its API withdrawal")
    signal(stellar, BlackholingRule.drop_udp_source_port(VICTIM_ASN, HOST, 53), via="api")
    apply(stellar)
    result = stellar.withdraw_mitigation(VICTIM_ASN, HOST, via="api")
    print(f"  API withdrawal of {HOST}: {result.detail} (the BGP-signalled NTP drop stays)")
    apply(stellar)

    print("\n5. A classic RTBH announcement for 100.10.10.20, then its BGP withdrawal")
    plain = announcement("100.10.10.20/32", VICTIM_ASN, next_hop="203.0.113.1")
    rtbh = replace(plain, attributes=plain.attributes.with_communities(rtbh_community(IXP_ASN)))
    outcome = stellar.route_server.announce(rtbh)
    (seen,) = stellar.route_server.session_for(peers[0].asn).updates[-1].announcements
    print(
        f"    route server: {outcome.action.value}; peer-0 learns {seen.prefix} "
        f"with next hop {seen.attributes.next_hop} (the IXP's blackhole)"
    )
    print("  the controller turns it into a drop-all rule on the victim's port:")
    apply(stellar)
    result = stellar.withdraw_mitigation(VICTIM_ASN, "100.10.10.20/32", via="bgp")
    print(f"  BGP withdrawal: {result.detail}")
    apply(stellar)

    print("\n6. The TCAM of the small switch holds 12 L3-L4 criteria")
    for port in (123, 19):
        signal(
            stellar,
            BlackholingRule.drop_udp_source_port(VICTIM_ASN, "100.10.10.13/32", port),
            via="api",
        )
    apply(stellar)
    print("  the install the TCAM refused leaves the active rules:")
    show_active(stellar)

    print("\n7. Rules the Stellar communities cannot carry are refused out loud")
    print("  drop NTP from peer-3's router only (a source MAC):")
    narrowed = BlackholingRule.create(
        VICTIM_ASN,
        replace(
            BlackholingRule.drop_udp_source_port(VICTIM_ASN, HOST, 123).qos.match,
            src_mac=peers[3].mac,
        ),
    )
    signal(stellar, narrowed, via="api")
    print("  shape NTP to 500 kbit/s:")
    signal(stellar, BlackholingRule.shape_udp_source_port(VICTIM_ASN, HOST, 123, 5e5))

    print("\n8. The attack is over: the victim withdraws its NTP drop over BGP")
    result = stellar.withdraw_mitigation(VICTIM_ASN, HOST, via="bgp")
    print(f"  BGP withdrawal of {HOST}: {result.detail}")
    print("  the space it frees takes the install the TCAM refused, sent again:")
    apply(stellar)
    show_active(stellar)


if __name__ == "__main__":
    main()
