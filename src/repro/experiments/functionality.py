"""§5.2 functionality validation: the drop/shape/forward queue behaviour.

The lab validation drives a hardware traffic generator at 10 Gbps towards a
member port of 1 Gbps capacity and verifies that

* flows redirected to a dropping queue are not forwarded,
* flows redirected to a shaping queue share the shaping queue's rate limit,
* forwarded flows share the forwarding queue's (port-capacity) rate limit,
* redirecting the attack vectors (NTP, DNS) leaves the benign traffic
  untouched, for every targeted IP address.

The experiment reproduces this with the flow-level data plane.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Optional

from ..core.rules import BlackholingRule
from ..core.stellar import Stellar
from ..ixp.edge_router import EdgeRouter
from ..ixp.fabric import SwitchingFabric
from ..ixp.member import IxpMember
from ..traffic.amplification import get_vector
from ..traffic.attacks import AmplificationAttack, BenignTrafficSource
from ..traffic.flowtable import FlowTable, ip_to_int
from ..traffic.packet import WellKnownPort
from .harness import SteppedExperiment
from .results import JsonResultMixin


@dataclass
class FunctionalityConfig:
    """Parameters of the lab functionality validation."""

    victim_port_capacity_bps: float = 1e9
    generator_rate_bps: float = 10e9
    benign_rate_bps: float = 400e6
    shape_rate_bps: float = 100e6
    interval: float = 10.0
    #: Target IPs 100.10.10.10 onwards, inside the victim's /24.
    target_ip_count: int = 3
    peer_count: int = 4
    seed: int = 3

    def __post_init__(self) -> None:
        if not 1 <= self.target_ip_count <= 245:
            raise ValueError(
                f"target_ip_count must be within [1, 245], got {self.target_ip_count}"
            )
        if self.peer_count < 1:
            raise ValueError(f"peer_count must be >= 1, got {self.peer_count}")


@dataclass
class FunctionalityResult(JsonResultMixin):
    """Per-phase delivery rates (bps) towards the member."""

    config: FunctionalityConfig
    #: Delivered rate with no rules installed (congested port).
    baseline_delivered_bps: float
    #: Delivered rate per target IP after installing drop rules for NTP/DNS.
    dropped_phase_delivered_bps: dict[str, float]
    #: Attack traffic delivered per target IP after the drop rules.
    dropped_phase_attack_bps: dict[str, float]
    #: Delivered rate per target IP with shaping rules instead of drops.
    shaped_phase_delivered_bps: dict[str, float]
    #: Attack traffic delivered per target IP in the shaping phase.
    shaped_phase_attack_bps: dict[str, float]
    #: Phase transitions recorded by the harnesses: ``(time, kind, details)``.
    events: list[tuple[float, str, dict]] = field(default_factory=list)

    def summary(self) -> dict[str, float]:
        summary = {"baseline_delivered_mbps": self.baseline_delivered_bps / 1e6}
        for ip, rate in self.dropped_phase_attack_bps.items():
            summary[f"drop_attack_mbps_{ip}"] = rate / 1e6
        for ip, rate in self.shaped_phase_attack_bps.items():
            summary[f"shape_attack_mbps_{ip}"] = rate / 1e6
        return summary


def _build_system(config: FunctionalityConfig):
    fabric = SwitchingFabric(name="lab")
    fabric.add_edge_router(EdgeRouter("lab-er"))
    stellar = Stellar(ixp_asn=64700, fabric=fabric)
    victim = IxpMember(
        asn=64500,
        port_capacity_bps=config.victim_port_capacity_bps,
        prefixes=["100.10.10.0/24"],
    )
    peers = [IxpMember(asn=65000 + i) for i in range(config.peer_count)]
    stellar.add_member(victim)
    stellar.add_members(peers)
    return stellar, victim, peers


def _traffic_for(
    config: FunctionalityConfig, targets: list[str], peers: list[IxpMember], t: float
) -> FlowTable:
    """10 Gbps of NTP + DNS attack traffic plus benign web traffic."""
    tables = []
    per_target_attack = config.generator_rate_bps / (2 * len(targets))
    for index, ip in enumerate(targets):
        for vector_index, vector_name in enumerate(("ntp", "dns")):
            attack = AmplificationAttack(
                victim_ip=ip,
                vector=get_vector(vector_name),
                peak_rate_bps=per_target_attack,
                start=0.0,
                duration=1e9,
                ingress_member_asns=[peer.asn for peer in peers],
                victim_member_asn=64500,
                reflector_count=20,
                ramp_seconds=0.0,
                seed=config.seed + index * 10 + vector_index,
            )
            tables.append(attack.flow_table(t, config.interval))
        benign = BenignTrafficSource(
            dst_ip=ip,
            egress_member_asn=64500,
            ingress_member_asns=[peer.asn for peer in peers],
            rate_bps=config.benign_rate_bps / len(targets),
            seed=config.seed + 100 + index,
        )
        tables.append(benign.flow_table(t, config.interval))
    return FlowTable.concat(tables)


def _per_target_rates(
    result, targets: list[str], interval: float
) -> tuple[dict[str, float], dict[str, float]]:
    """Delivered and attack-only rates (bps) per target IP for one phase.

    The byte sums are integers, so the rates do not depend on row order.
    """
    passed = FlowTable.concat([result.forwarded_table, result.shaped_table])
    delivered: dict[str, float] = {}
    attack: dict[str, float] = {}
    for ip in targets:
        towards = passed.dst_ip == ip_to_int(ip)
        delivered[ip] = int(passed.bytes[towards].sum()) * 8 / interval
        attack[ip] = int(passed.bytes[towards & passed.is_attack].sum()) * 8 / interval
    return delivered, attack


def _run_phase(
    config: FunctionalityConfig,
    targets: list[str],
    phase: str,
    rule_for: Optional[Callable[[int, str, int], BlackholingRule]] = None,
):
    """Run one lab phase on a fresh system, driven through the harness.

    The generator is always on.  With rules to install, the install fires
    one interval in (followed by a control-plane pass, matching the lab's
    reconfiguration pause) and the measurement interval starts one interval
    later.  The baseline phase measures immediately.
    """
    stellar, victim, peers = _build_system(config)
    harness = SteppedExperiment(duration=3 * config.interval, interval=config.interval)
    measured: dict[str, object] = {}

    def install_rules() -> None:
        # Stamp the signals with the install time, so the control plane
        # sees them arrive now rather than at the system's last interval.
        stellar.advance_to(harness.now)
        for ip in targets:
            for port in (int(WellKnownPort.NTP), int(WellKnownPort.DNS)):
                stellar.request_mitigation(rule_for(victim.asn, ip, port), via="api")
        stellar.advance()

    measure_time = 0.0
    if rule_for is not None:
        harness.at(config.interval, install_rules, name=f"{phase}-install")
        measure_time = 2 * config.interval

    def measure() -> None:
        table = _traffic_for(config, targets, peers, t=harness.now)
        report = stellar.deliver_traffic(
            table, config.interval, interval_start=harness.now
        )
        measured["result"] = report.fabric_report.results_by_member[victim.asn]

    harness.at(measure_time, measure, name=f"{phase}-measure")
    harness.run()
    return measured["result"], harness.events()


def run_functionality_experiment(
    config: FunctionalityConfig | None = None,
) -> FunctionalityResult:
    """Run the three validation phases (baseline, drop, shape)."""
    config = config if config is not None else FunctionalityConfig()
    targets = [f"100.10.10.{10 + i}" for i in range(config.target_ip_count)]
    events: list[tuple[float, str, dict]] = []

    # Phase 1: no rules — the 1 Gbps port is congested by the 10 Gbps load.
    baseline_result, phase_events = _run_phase(config, targets, "baseline")
    baseline = baseline_result.delivered_bits / config.interval
    events.extend(phase_events)

    # Phase 2: drop NTP and DNS per target IP.
    drop_result, phase_events = _run_phase(
        config,
        targets,
        "drop",
        lambda asn, ip, port: BlackholingRule.drop_udp_source_port(
            asn, f"{ip}/32", port
        ),
    )
    dropped_delivered, dropped_attack = _per_target_rates(
        drop_result, targets, config.interval
    )
    events.extend(phase_events)

    # Phase 3: shape NTP and DNS per target IP instead of dropping.
    shape_result, phase_events = _run_phase(
        config,
        targets,
        "shape",
        lambda asn, ip, port: BlackholingRule.shape_udp_source_port(
            asn, f"{ip}/32", port, rate_bps=config.shape_rate_bps
        ),
    )
    shaped_delivered, shaped_attack = _per_target_rates(
        shape_result, targets, config.interval
    )
    events.extend(phase_events)

    return FunctionalityResult(
        config=config,
        baseline_delivered_bps=baseline,
        dropped_phase_delivered_bps=dropped_delivered,
        dropped_phase_attack_bps=dropped_attack,
        shaped_phase_delivered_bps=shaped_delivered,
        shaped_phase_attack_bps=shaped_attack,
        events=events,
    )
