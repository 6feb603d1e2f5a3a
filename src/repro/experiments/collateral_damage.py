"""Fig. 2(c): collateral damage of RTBH during a memcached attack.

The case study of §2.3: an IXP member hosting a web service (ports 443, 80,
8080, 1935 dominant) is hit by a memcached amplification attack at
20:21 CET.  UDP source port 11211 suddenly dominates the member's traffic
share.  RTBH would drop *all* traffic to the IP — including the remaining
legitimate web traffic — whereas a fine-grained "UDP source port 11211"
filter would remove essentially the whole attack with no collateral damage.

The experiment generates the member-facing trace, computes the per-port
traffic-share time series (the figure), and quantifies the collateral
damage of RTBH vs. the fine-grained filter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..analysis.collateral import (
    CollateralDamageReport,
    PortShareSnapshot,
    collateral_damage,
    fine_grained_filter_potential,
    port_share_timeseries,
)
from ..mitigation.base import MitigationOutcome
from ..mitigation.rtbh import RtbhMitigation, RtbhService
from ..traffic.generator import MemberAttackScenarioGenerator
from ..traffic.packet import IpProtocol, WellKnownPort
from ..traffic.trace import TrafficTrace
from .harness import SteppedExperiment
from .results import JsonResultMixin

#: Ports shown explicitly in Fig. 2(c) (everything else is "others").
FIG2C_PORTS = (
    int(WellKnownPort.MEMCACHED),
    int(WellKnownPort.HTTP_ALT),
    int(WellKnownPort.RTMP),
    int(WellKnownPort.HTTPS),
    int(WellKnownPort.HTTP),
)


@dataclass
class CollateralDamageConfig:
    """Parameters of the Fig. 2(c) experiment."""

    duration: float = 3600.0
    interval: float = 60.0
    attack_start: float = 1260.0
    benign_rate_bps: float = 2e9
    attack_rate_bps: float = 40e9
    peer_count: int = 30
    victim_ip: str = "100.10.10.10"
    victim_member_asn: int = 64500
    vector_name: str = "memcached"
    seed: int = 5


@dataclass
class CollateralDamageResult(JsonResultMixin):
    """Time series plus RTBH-vs-fine-grained comparison."""

    #: The raw member-facing trace is an input artifact, not a result — it is
    #: excluded from ``to_dict()`` to keep serialized results bounded.
    _json_exclude = ("trace",)

    config: CollateralDamageConfig
    trace: TrafficTrace
    port_shares: list[PortShareSnapshot]
    rtbh_report: CollateralDamageReport
    fine_grained_potential: dict[str, float]
    #: Phase transitions recorded by the harness: ``(time, kind, details)``.
    events: list[tuple[float, str, dict]] = field(default_factory=list)

    # ------------------------------------------------------------------
    def share_before_attack(self, port: int) -> float:
        """Mean traffic share of a port before the attack starts."""
        before = [
            snapshot
            for snapshot in self.port_shares
            if snapshot.interval_start < self.config.attack_start and snapshot.total_bytes
        ]
        if not before:
            return 0.0
        return sum(snapshot.share_of(port) for snapshot in before) / len(before)

    def share_during_attack(self, port: int) -> float:
        """Mean traffic share of a port while the attack is running."""
        during = [
            snapshot
            for snapshot in self.port_shares
            if snapshot.interval_start >= self.config.attack_start + 2 * self.config.interval
            and snapshot.total_bytes
        ]
        if not during:
            return 0.0
        return sum(snapshot.share_of(port) for snapshot in during) / len(during)

    def summary(self) -> dict[str, float]:
        memcached = int(WellKnownPort.MEMCACHED)
        https = int(WellKnownPort.HTTPS)
        return {
            "memcached_share_before": self.share_before_attack(memcached),
            "memcached_share_during": self.share_during_attack(memcached),
            "https_share_before": self.share_before_attack(https),
            "https_share_during": self.share_during_attack(https),
            "rtbh_collateral_damage_fraction": self.rtbh_report.collateral_damage_fraction,
            "rtbh_attack_removed_fraction": self.rtbh_report.attack_removed_fraction,
            "fine_grained_attack_removed_fraction": self.fine_grained_potential[
                "attack_removed_fraction"
            ],
            "fine_grained_collateral_fraction": self.fine_grained_potential[
                "legitimate_removed_fraction"
            ],
        }


def run_collateral_damage_experiment(
    config: CollateralDamageConfig | None = None,
    trace: TrafficTrace | None = None,
) -> CollateralDamageResult:
    """Run the Fig. 2(c) experiment."""
    config = config if config is not None else CollateralDamageConfig()
    if trace is None:
        generator = MemberAttackScenarioGenerator(
            victim_ip=config.victim_ip,
            victim_member_asn=config.victim_member_asn,
            peer_member_asns=[65000 + i for i in range(config.peer_count)],
            duration=config.duration,
            interval=config.interval,
            benign_rate_bps=config.benign_rate_bps,
            attack_rate_bps=config.attack_rate_bps,
            attack_start=config.attack_start,
            vector_name=config.vector_name,
            seed=config.seed,
        )
        trace = generator.generate()

    victim_trace = trace.towards(config.victim_ip)
    shares = port_share_timeseries(
        victim_trace, interval=config.interval, top_ports=FIG2C_PORTS
    )

    # The phase structure (attack onset, the operator's worst-case RTBH
    # response) is a scheduled timeline on the harness; the per-interval
    # port shares above stay vectorized over the whole pre-generated trace.
    harness = SteppedExperiment(duration=config.duration, interval=config.interval)
    rtbh_service = RtbhService(ixp_asn=64700, compliance_rate=1.0, seed=config.seed)
    state: dict[str, object] = {}

    def start_attack() -> None:
        pass  # log-only: the generator already embeds the attack in the trace

    def signal_blackhole(start: Optional[float] = None) -> None:
        # RTBH during the attack: a fully honoured /32 blackhole drops every
        # flow, which is the worst-case collateral damage the figure motivates.
        if start is None:
            start = harness.now
        attack_window = victim_trace.between(start, config.duration)
        peer_asns = sorted(attack_window.distinct_ingress_members())
        rtbh_service.request_blackhole(
            victim_asn=config.victim_member_asn,
            prefix=f"{config.victim_ip}/32",
            peer_asns=peer_asns,
        )
        state["attack_window"] = attack_window

    harness.at(config.attack_start, start_attack, name="attack-start")
    harness.at(config.attack_start, signal_blackhole, name="rtbh-blackhole")
    harness.run()

    if "attack_window" not in state:
        # Attack scheduled past the end of the timeline: analyse the (empty)
        # window directly, as the flag-polling driver effectively did.
        signal_blackhole(start=config.attack_start)
    attack_window = state["attack_window"]
    window_table = attack_window.table
    outcome: MitigationOutcome = RtbhMitigation(rtbh_service).apply(
        window_table, config.interval
    )
    rtbh_report = collateral_damage(outcome)

    from ..traffic.amplification import get_vector

    vector = get_vector(config.vector_name)
    potential = fine_grained_filter_potential(
        window_table, protocol=IpProtocol.UDP, src_port=vector.source_port
    )
    return CollateralDamageResult(
        config=config,
        trace=victim_trace,
        port_shares=shares,
        rtbh_report=rtbh_report,
        fine_grained_potential=potential,
        events=harness.events(),
    )
