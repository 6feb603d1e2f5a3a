"""Scenario builders shared by the experiment drivers.

The attack experiments (Fig. 3(c), Fig. 10(c), the §5.2 functionality
validation) all run on the same shape of scenario: an IXP with one victim
member (the experimental AS of the paper) and a population of peer members
through which attack and legitimate traffic arrives.  :func:`build_attack_scenario`
assembles the fabric, the Stellar deployment and the traffic sources so the
drivers only differ in which mitigation they trigger and when.

``attack_kind`` selects the traffic generator: the paper's controlled
``"booter"`` experiment, or one of the scenario-diversity variants from
:mod:`repro.traffic.attack_variants` (``"pulse"``, ``"carpet"``,
``"multivector"``), each sharing the same IXP/member/benign scaffolding so
every mitigation driver can run against every attack shape.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Optional, Union

from ..analysis.timeseries import AttackTimeSeries, record_delivery
from ..core.stellar import Stellar
from ..ixp.edge_router import EdgeRouter
from ..ixp.fabric import SwitchingFabric
from ..ixp.hardware_profiles import l_ixp_edge_router_profile
from ..ixp.member import IxpMember, MemberPopulation
from ..ixp.topology import (
    PortSpeedMix,
    build_multi_pop_fabric,
    make_member_population,
)
from ..mitigation.base import MitigationTechnique
from ..mitigation.rtbh import BlackholeEvent, RtbhService
from ..traffic.attack_variants import (
    CarpetBombingAttack,
    MultiVectorAttack,
    PulseAttack,
)
from ..traffic.attacks import BenignTrafficSource, BooterAttack
from ..traffic.flowtable import FlowTable
from ..traffic.generator import IxpTraceGenerator
from .victim import DEFAULT_VICTIM_ASN, DEFAULT_VICTIM_IP

#: ASN used for the IXP's route server / management AS (a 16-bit private ASN
#: so the extended-community encoding applies).
DEFAULT_IXP_ASN = 64700


#: Any of the attack generators a scenario can carry; all expose the same
#: ``flow_table`` interface.
AttackSource = Union[BooterAttack, PulseAttack, CarpetBombingAttack, MultiVectorAttack]

#: Attack kinds :func:`build_attack_scenario` knows how to build.
ATTACK_KINDS = ("booter", "pulse", "carpet", "multivector")


@dataclass
class AttackScenario:
    """Everything an attack experiment needs."""

    stellar: Stellar
    fabric: SwitchingFabric
    victim: IxpMember
    peers: list[IxpMember]
    attack: AttackSource
    benign: BenignTrafficSource
    rtbh: RtbhService
    victim_ip: str = DEFAULT_VICTIM_IP

    @property
    def peer_asns(self) -> list[int]:
        return [peer.asn for peer in self.peers]


def signal_host_blackhole(
    scenario: AttackScenario, time: float = 0.0
) -> BlackholeEvent:
    """The victim's classic reflex: an RTBH /32 for the attacked host.

    Shared by every RTBH-reacting driver (fig3c, pulse, carpet) so the
    signalling convention lives in one place.
    """
    return scenario.rtbh.request_blackhole(
        victim_asn=scenario.victim.asn,
        prefix=f"{scenario.victim_ip}/32",
        peer_asns=scenario.peer_asns,
        time=time,
    )


def make_delivery_step(
    scenario: AttackScenario,
    mitigation: MitigationTechnique,
    series: AttackTimeSeries,
    on_attack_table: Optional[Callable[[FlowTable], None]] = None,
) -> Callable[[float, float], None]:
    """The shared per-interval data-plane step of the baseline attack drivers.

    Generates one columnar batch (attack + benign), applies ``mitigation``
    to it, and records the outcome's delivery accounting.
    ``on_attack_table`` lets a driver observe the raw attack batch (e.g.
    carpet bombing's target-spread bookkeeping) before mitigation.
    """

    def step(t: float, interval: float) -> None:
        attack_table = scenario.attack.flow_table(t, interval)
        if on_attack_table is not None:
            on_attack_table(attack_table)
        flows = FlowTable.concat(
            [attack_table, scenario.benign.flow_table(t, interval)]
        )
        outcome = mitigation.apply(flows, interval)
        record_delivery(
            series,
            time=t,
            interval=interval,
            delivered_bits=outcome.delivered_bits,
            attack_bits=outcome.delivered_attack_bits,
            peer_count=len(outcome.delivered_peers),
            discarded_bits=outcome.discarded_bits,
        )

    return step


@dataclass
class PaperScaleScenario:
    """A platform-scale deployment: one victim inside a large population.

    Unlike :class:`AttackScenario` (a single edge router, traffic only
    towards the victim), the paper-scale scenario carries platform-wide
    background traffic between *all* members across a multi-PoP fabric —
    the regime the §4.5 egress-filtering argument is actually about.
    """

    stellar: Stellar
    fabric: SwitchingFabric
    victim: IxpMember
    members: list[IxpMember]
    #: Members the booter attack arrives through.
    attack_peers: list[IxpMember]
    attack: BooterAttack
    benign: BenignTrafficSource
    #: Platform-wide cross-member background load (one batch per interval).
    background: IxpTraceGenerator
    victim_ip: str = DEFAULT_VICTIM_IP


def build_paper_scale_scenario(
    member_count: int = 800,
    pop_count: int = 4,
    routers_per_pop: int = 2,
    attack_peer_count: int = 60,
    victim_port_capacity_bps: float = 10e9,
    attack_peak_bps: float = 80e9,
    attack_start: float = 120.0,
    attack_duration: float = 360.0,
    background_rate_bps: float = 2e12,
    background_flows_per_interval: int = 3000,
    interval: float = 10.0,
    benign_rate_bps: float = 200e6,
    benign_peer_count: int = 5,
    vector_name: str = "ntp",
    port_mix: Optional[PortSpeedMix] = None,
    platform_capacity_bps: float = 25e12,
    ixp_asn: int = DEFAULT_IXP_ASN,
    victim_asn: int = DEFAULT_VICTIM_ASN,
    victim_ip: str = DEFAULT_VICTIM_IP,
    seed: int = 7,
) -> PaperScaleScenario:
    """Build the paper-scale multi-PoP scenario (§4.5, footnote 1).

    ``member_count`` members (including the victim) spread over
    ``pop_count`` PoPs with ``routers_per_pop`` edge routers each and a
    DE-CIX-class port-capacity mix.  The victim receives a booter attack
    through ``attack_peer_count`` ingress peers while every member
    exchanges ``background_rate_bps`` of regular §2.3-mix traffic across
    the platform — the load that makes egress filtering a real capacity
    question.
    """
    if member_count < max(2, attack_peer_count + 1):
        raise ValueError(
            "member_count must cover the victim plus the attack peers "
            f"(got {member_count} members, {attack_peer_count} peers)"
        )
    fabric = build_multi_pop_fabric(
        pop_count=pop_count,
        routers_per_pop=routers_per_pop,
        platform_capacity_bps=platform_capacity_bps,
        seed=seed,
    )
    stellar = Stellar(ixp_asn=ixp_asn, fabric=fabric)

    victim = IxpMember(
        asn=victim_asn,
        name="experimental-as",
        port_capacity_bps=victim_port_capacity_bps,
        prefixes=["100.10.10.0/24"],
        honors_rtbh=True,
        pop="pop-1",
    )
    members = make_member_population(
        member_count - 1,
        pop_count=pop_count,
        port_mix=port_mix,
        seed=seed,
    )
    stellar.add_member(victim)
    stellar.add_members(members)

    attack_peers = members[:attack_peer_count]
    peer_asns = attack_peers.asns.tolist()
    attack = BooterAttack(
        victim_ip=victim_ip,
        victim_member_asn=victim_asn,
        peer_member_asns=peer_asns,
        peak_rate_bps=attack_peak_bps,
        start=attack_start,
        duration=attack_duration,
        vector_name=vector_name,
        seed=seed,
    )
    benign = BenignTrafficSource(
        dst_ip=victim_ip,
        egress_member_asn=victim_asn,
        ingress_member_asns=peer_asns[: max(1, benign_peer_count)],
        rate_bps=benign_rate_bps,
        seed=seed + 1,
    )
    background = IxpTraceGenerator(
        member_asns=[victim.asn, *members.asns.tolist()],
        duration=interval,
        interval=interval,
        regular_rate_bps=background_rate_bps,
        flows_per_interval=background_flows_per_interval,
        seed=seed + 2,
    )
    return PaperScaleScenario(
        stellar=stellar,
        fabric=fabric,
        victim=victim,
        members=[victim, *members],
        attack_peers=list(attack_peers),
        attack=attack,
        benign=benign,
        background=background,
        victim_ip=victim_ip,
    )


@dataclass
class FineGrainedScenario:
    """A platform with tens of thousands of installed fine-grained rules.

    The regime of the paper's scalability claim (Table 1, §5): many
    members each hold a large set of Stellar drop/shape rules in the
    dominant ``dst host + UDP + src_port`` shape (plus a few MAC
    policy-control rules per member, which exercise the index's masked
    fallback path), and every interval carries a mix of rule-targeted
    reflection traffic and platform background across the multi-PoP
    fabric.
    """

    fabric: SwitchingFabric
    members: MemberPopulation
    #: The members holding fine-grained rule sets, in install order.
    protected: MemberPopulation
    #: Every installed blackholing rule, per protected member ASN.
    rules_by_member: "dict[int, list]"
    #: All (dst_ip int, src_port, egress ASN) triples covered by a rule.
    covered_pairs: "tuple"
    #: The (dst_ip int, src_port, egress ASN) of the late-install rule.
    late_pair: "tuple"

    @property
    def installed_rule_count(self) -> int:
        return sum(len(rules) for rules in self.rules_by_member.values())


#: UDP source ports of well-known reflection/amplification services, the
#: ports fine-grained drop rules pin (NTP, DNS, SSDP, memcached, ...).
REFLECTION_PORTS = (19, 53, 111, 123, 137, 161, 389, 520, 1900, 11211, 3702, 17185)


def build_fine_grained_scenario(
    member_count: int = 200,
    pop_count: int = 4,
    routers_per_pop: int = 2,
    protected_member_count: int = 20,
    rules_per_member: int = 600,
    hosts_per_member: int = 50,
    shape_every: int = 10,
    shape_rate_bps: float = 5e6,
    mac_rules_per_member: int = 2,
    platform_capacity_bps: float = 25e12,
    seed: int = 7,
) -> FineGrainedScenario:
    """Build the fine-grained rule-load scenario.

    ``protected_member_count`` members each own a /16 and install
    ``rules_per_member`` Stellar rules over ``hosts_per_member`` hosts ×
    the :data:`REFLECTION_PORTS` pool (every ``shape_every``-th rule a
    SHAPE telemetry rule), plus ``mac_rules_per_member`` MAC
    policy-control drops.  Rules are staged through the routers' bulk
    :meth:`~repro.ixp.edge_router.EdgeRouter.install_rules` path — the
    scenario models the steady state *after* signalling, which is what
    the classification data plane has to sustain every interval.

    The edge routers use a QoS-pipeline hardware profile sized for the
    requested rule count: the whole point of the paper's §4.5 design is
    that egress QoS classification is not bounded by the pre-filtering
    ACL/TCAM limits Fig. 9 charts for RTBH-style deployments.
    """
    from dataclasses import replace as dc_replace

    from ..bgp.prefix import parse_prefix
    from ..core.rules import BlackholingRule
    from ..ixp.hardware_profiles import l_ixp_edge_router_profile
    from ..traffic.flowtable import derived_mac, ip_to_int

    if protected_member_count >= member_count:
        raise ValueError("protected_member_count must be below member_count")
    if protected_member_count < 1:
        raise ValueError("need at least one protected member")
    if rules_per_member > hosts_per_member * len(REFLECTION_PORTS):
        raise ValueError(
            f"rules_per_member {rules_per_member} exceeds the "
            f"{hosts_per_member} x {len(REFLECTION_PORTS)} (host, port) pairs"
        )

    total_rules = protected_member_count * (rules_per_member + mac_rules_per_member)
    base = l_ixp_edge_router_profile()
    profile = dc_replace(
        base,
        name="l-ixp-edge-qos",
        # Chassis-wide pools sized for the fine-grained load (each rule
        # holds at most 3 L3-L4 criteria + possibly one MAC entry).
        mac_filter_capacity=max(base.mac_filter_capacity, total_rules + 1024),
        l3l4_criteria_capacity=max(base.l3l4_criteria_capacity, 3 * total_rules + 1024),
    )
    members = make_member_population(member_count, pop_count=pop_count, seed=seed)
    fabric = build_multi_pop_fabric(
        pop_count=pop_count,
        routers_per_pop=routers_per_pop,
        platform_capacity_bps=platform_capacity_bps,
        profile=profile,
        seed=seed,
        members=members,
    )

    protected = members[:protected_member_count]
    peer_asns = members.asns[protected_member_count:].tolist()
    rules_by_member: dict[int, list] = {}
    covered: list[tuple] = []
    for index, member_asn in enumerate(protected.asns.tolist()):
        hosts = [
            f"10.{index + 1}.{host >> 8}.{host & 255}"
            for host in range(hosts_per_member)
        ]
        rules = BlackholingRule.fine_grained_set(
            owner_asn=member_asn,
            hosts=hosts,
            source_ports=REFLECTION_PORTS,
            count=rules_per_member,
            shape_every=shape_every,
            shape_rate_bps=shape_rate_bps,
        )
        # A few RTBH-policy-control style rules: drop everything a named
        # peer sends towards the member's prefix.  MAC criteria force the
        # index's masked fallback path, so the scenario exercises both
        # compiled strategies every interval.
        for mac_index in range(mac_rules_per_member):
            peer_asn = peer_asns[(index + mac_index) % len(peer_asns)]
            rules.append(
                BlackholingRule(
                    owner_asn=member_asn,
                    dst_prefix=parse_prefix(f"10.{index + 1}.0.0/16"),
                    src_mac=derived_mac(peer_asn),
                )
            )
        router = fabric.router_for_member(member_asn)
        router.install_rules(member_asn, [rule.to_qos_rule() for rule in rules])
        rules_by_member[member_asn] = rules
        for rule in rules[:rules_per_member]:
            covered.append(
                (rule.dst_prefix.int_bounds[0], rule.src_port, member_asn)
            )

    # The late-install rule's (host, port) pair: a port outside the
    # reflection pool towards the first protected member, so its traffic
    # forwards until the mid-run install proves cache invalidation.
    late_pair = (ip_to_int("10.1.0.0"), 6666, int(protected.asns[0]))
    return FineGrainedScenario(
        fabric=fabric,
        members=members,
        protected=protected,
        rules_by_member=rules_by_member,
        covered_pairs=tuple(covered),
        late_pair=late_pair,
    )


def build_attack_scenario(
    peer_count: int = 40,
    victim_port_capacity_bps: float = 10e9,
    attack_peak_bps: float = 1e9,
    attack_start: float = 100.0,
    attack_duration: float = 600.0,
    benign_rate_bps: float = 50e6,
    benign_peer_count: int = 5,
    vector_name: str = "ntp",
    rtbh_compliance_rate: float = 0.30,
    ixp_asn: int = DEFAULT_IXP_ASN,
    victim_asn: int = DEFAULT_VICTIM_ASN,
    victim_ip: str = DEFAULT_VICTIM_IP,
    seed: int = 7,
    attack_kind: str = "booter",
    pulse_period_seconds: float = 60.0,
    pulse_duty_cycle: float = 0.5,
    victim_prefix: str = "100.10.10.0/24",
    attack_vectors: "Sequence[str] | str" = ("ntp", "memcached", "chargen"),
) -> AttackScenario:
    """Build the controlled attack scenario of §2.4 / §5.3.

    The victim is the paper's experimental AS: it peers with every other
    member via the route server, owns a /24 (with the attacked /32 inside),
    and has a ``victim_port_capacity_bps`` port at the IXP.

    ``attack_kind`` swaps the attack generator while keeping the IXP and
    benign scaffolding identical: ``"booter"`` (the paper's experiment),
    ``"pulse"`` (on/off bursts, configured by ``pulse_period_seconds`` /
    ``pulse_duty_cycle``), ``"carpet"`` (destinations spread over
    ``victim_prefix``) or ``"multivector"`` (one amplification source per
    name in ``attack_vectors``).
    """
    if peer_count < 2:
        raise ValueError("the scenario needs at least two peers")
    if attack_kind not in ATTACK_KINDS:
        raise ValueError(
            f"unknown attack_kind {attack_kind!r}; known: {', '.join(ATTACK_KINDS)}"
        )

    fabric = SwitchingFabric(name="l-ixp")
    fabric.add_edge_router(
        EdgeRouter("edge-1", profile=l_ixp_edge_router_profile(), seed=seed)
    )
    stellar = Stellar(ixp_asn=ixp_asn, fabric=fabric)

    victim = IxpMember(
        asn=victim_asn,
        name="experimental-as",
        port_capacity_bps=victim_port_capacity_bps,
        prefixes=["100.10.10.0/24"],
        honors_rtbh=True,
    )
    peers = [
        IxpMember(asn=65000 + i, name=f"peer-{i}", port_capacity_bps=10e9)
        for i in range(peer_count)
    ]
    stellar.add_member(victim)
    stellar.add_members(peers)

    peer_asns = [peer.asn for peer in peers]
    attack: AttackSource
    if attack_kind == "pulse":
        attack = PulseAttack(
            victim_ip=victim_ip,
            victim_member_asn=victim_asn,
            ingress_member_asns=peer_asns,
            peak_rate_bps=attack_peak_bps,
            start=attack_start,
            duration=attack_duration,
            period_seconds=pulse_period_seconds,
            duty_cycle=pulse_duty_cycle,
            vector_name=vector_name,
            seed=seed,
        )
    elif attack_kind == "carpet":
        attack = CarpetBombingAttack(
            victim_prefix=victim_prefix,
            victim_member_asn=victim_asn,
            ingress_member_asns=peer_asns,
            peak_rate_bps=attack_peak_bps,
            start=attack_start,
            duration=attack_duration,
            vector_name=vector_name,
            seed=seed,
        )
    elif attack_kind == "multivector":
        attack = MultiVectorAttack(
            victim_ip=victim_ip,
            victim_member_asn=victim_asn,
            ingress_member_asns=peer_asns,
            peak_rate_bps=attack_peak_bps,
            start=attack_start,
            duration=attack_duration,
            vectors=attack_vectors,
            seed=seed,
        )
    else:
        attack = BooterAttack(
            victim_ip=victim_ip,
            victim_member_asn=victim_asn,
            peer_member_asns=peer_asns,
            peak_rate_bps=attack_peak_bps,
            start=attack_start,
            duration=attack_duration,
            vector_name=vector_name,
            seed=seed,
        )
    benign = BenignTrafficSource(
        dst_ip=victim_ip,
        egress_member_asn=victim_asn,
        ingress_member_asns=[peer.asn for peer in peers[: max(1, benign_peer_count)]],
        rate_bps=benign_rate_bps,
        seed=seed + 1,
    )
    rtbh = RtbhService(
        ixp_asn=ixp_asn,
        route_server=None,
        compliance_rate=rtbh_compliance_rate,
        seed=seed + 2,
    )
    return AttackScenario(
        stellar=stellar,
        fabric=fabric,
        victim=victim,
        peers=peers,
        attack=attack,
        benign=benign,
        rtbh=rtbh,
        victim_ip=victim_ip,
    )
