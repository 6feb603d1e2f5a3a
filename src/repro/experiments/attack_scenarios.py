"""Scenario-diversity experiments: pulse, carpet-bombing, multi-vector.

The paper's controlled experiments (Fig. 3(c), Fig. 10(c)) study one
attack shape — a steady single-victim booter attack.  These drivers run
the same IXP scaffolding against the attack variants of
:mod:`repro.traffic.attack_variants`, each probing a weakness of a
different mitigation style:

* ``pulse`` — an on/off burst attack against classic RTBH: every interval
  alternates full-rate bursts with silence, so threshold-based reaction
  either lags the bursts or blackholes during the gaps.
* ``carpet`` — carpet bombing over a whole prefix against a host-route
  (/32) blackhole: the single-host reflex covers only a sliver of the
  spread attack, quantifying why prefix-granular RTBH fails here.
* ``multivector`` — a composite amplification attack against Stellar:
  the victim signals one fine-grained drop rule per vector, staggered in
  time, and the delivered rate steps down as each signature is removed.
* ``paper_scale`` — the platform-scale regime of §4.5: ~800 members
  across a multi-PoP fabric exchanging Tbps of background traffic while
  one member is attacked and mitigates via Stellar; runs on the batched
  fabric delivery engine and reports platform load and per-port
  oversubscription.

All of them run entirely on the columnar data plane: per interval one
:class:`~repro.traffic.flowtable.FlowTable` batch is generated and pushed
through ``MitigationTechnique.apply`` (baselines) or the Stellar fabric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..analysis.timeseries import AttackTimeSeries, record_delivery
from ..core.rules import BlackholingRule
from ..mitigation.rtbh import RtbhMitigation
from ..traffic.flowtable import FlowTable, ip_to_int
from .harness import SteppedExperiment
from .results import JsonResultMixin
from .scenario import (
    AttackScenario,
    PaperScaleScenario,
    build_attack_scenario,
    build_paper_scale_scenario,
    make_delivery_step,
    signal_host_blackhole,
)


# ----------------------------------------------------------------------
# Pulse-wave attack vs. RTBH
# ----------------------------------------------------------------------
@dataclass
class PulseAttackConfig:
    """Parameters of the pulse-wave scenario."""

    duration: float = 900.0
    interval: float = 10.0
    attack_start: float = 100.0
    attack_duration: float = 600.0
    attack_peak_bps: float = 1e9
    period_seconds: float = 60.0
    duty_cycle: float = 0.5
    peer_count: int = 40
    blackhole_time: float = 380.0
    compliance_rate: float = 0.30
    benign_rate_bps: float = 50e6
    seed: int = 7


@dataclass
class PulseAttackResult(JsonResultMixin):
    """Time series and burst/gap summary of the pulse scenario."""

    config: PulseAttackConfig
    series: AttackTimeSeries
    #: Interval starts observed while a burst was firing (pre-mitigation).
    burst_times: list[float]
    #: Interval starts observed inside silent gaps (pre-mitigation).
    gap_times: list[float]
    events: list[tuple[float, str, dict]] = field(default_factory=list)

    @property
    def burst_mbps(self) -> float:
        """Mean delivered rate over burst intervals before mitigation."""
        values = [self.series.value_at(t) for t in self.burst_times]
        return sum(values) / len(values) if values else 0.0

    @property
    def gap_mbps(self) -> float:
        """Mean delivered rate over silent-gap intervals before mitigation."""
        values = [self.series.value_at(t) for t in self.gap_times]
        return sum(values) / len(values) if values else 0.0

    @property
    def residual_mbps(self) -> float:
        """Mean delivered rate after the RTBH signal (while the attack runs)."""
        return self.series.mean_mbps(
            self.config.blackhole_time + 2 * self.config.interval,
            self.config.attack_start + self.config.attack_duration,
        )

    def summary(self) -> dict[str, float]:
        burst = self.burst_mbps
        gap = self.gap_mbps
        return {
            "burst_mbps": burst,
            "gap_mbps": gap,
            # Denominator floored at 1 Mbps so a dead-silent gap (e.g.
            # benign_rate_bps=0) stays finite and JSON-serializable.
            "burst_over_gap": burst / max(gap, 1.0),
            "residual_mbps": self.residual_mbps,
            "duty_cycle": self.config.duty_cycle,
        }


def run_pulse_attack_experiment(
    config: PulseAttackConfig | None = None,
    scenario: AttackScenario | None = None,
) -> PulseAttackResult:
    """Run the pulse-wave scenario: on/off bursts against classic RTBH."""
    config = config if config is not None else PulseAttackConfig()
    if scenario is None:
        scenario = build_attack_scenario(
            peer_count=config.peer_count,
            attack_peak_bps=config.attack_peak_bps,
            attack_start=config.attack_start,
            attack_duration=config.attack_duration,
            benign_rate_bps=config.benign_rate_bps,
            rtbh_compliance_rate=config.compliance_rate,
            seed=config.seed,
            attack_kind="pulse",
            pulse_period_seconds=config.period_seconds,
            pulse_duty_cycle=config.duty_cycle,
        )
    attack = scenario.attack
    series = AttackTimeSeries()
    harness = SteppedExperiment(duration=config.duration, interval=config.interval)
    burst_times: list[float] = []
    gap_times: list[float] = []

    harness.at(
        config.blackhole_time,
        lambda: signal_host_blackhole(scenario, time=harness.now),
        name="rtbh-signalled",
    )
    delivery_step = make_delivery_step(scenario, RtbhMitigation(scenario.rtbh), series)

    def step(t: float, interval: float) -> None:
        delivery_step(t, interval)
        # Classify pre-mitigation intervals as burst vs. gap using the
        # generator's pulse envelope over the whole window.
        if attack.start <= t and t + interval <= min(attack.end, config.blackhole_time):
            on = attack.on_seconds(t, t + interval)
            (burst_times if on > 0 else gap_times).append(t)

    harness.run(step)
    return PulseAttackResult(
        config=config,
        series=series,
        burst_times=burst_times,
        gap_times=gap_times,
        events=harness.events(),
    )


# ----------------------------------------------------------------------
# Carpet bombing vs. host-route blackholing
# ----------------------------------------------------------------------
@dataclass
class CarpetBombingConfig:
    """Parameters of the carpet-bombing scenario."""

    duration: float = 900.0
    interval: float = 10.0
    attack_start: float = 100.0
    attack_duration: float = 600.0
    attack_peak_bps: float = 1e9
    victim_prefix: str = "100.10.10.0/24"
    peer_count: int = 40
    blackhole_time: float = 380.0
    #: Compliance is set high on purpose: the point is that even perfectly
    #: honoured /32 blackholing barely dents a prefix-spread attack.
    compliance_rate: float = 1.0
    benign_rate_bps: float = 50e6
    seed: int = 7


@dataclass
class CarpetBombingResult(JsonResultMixin):
    """Time series plus host-blackhole coverage of the spread attack."""

    config: CarpetBombingConfig
    series: AttackTimeSeries
    #: Distinct destination addresses the attack hit inside the prefix.
    distinct_target_count: int
    #: Share of attack bits towards the single blackholed host (/32).
    host_coverage_fraction: float
    events: list[tuple[float, str, dict]] = field(default_factory=list)

    @property
    def peak_attack_mbps(self) -> float:
        return self.series.window(
            self.config.attack_start, self.config.blackhole_time
        ).peak_mbps()

    @property
    def residual_mbps(self) -> float:
        """Mean delivered rate after the /32 blackhole (attack still on)."""
        return self.series.mean_mbps(
            self.config.blackhole_time + 2 * self.config.interval,
            self.config.attack_start + self.config.attack_duration,
        )

    def summary(self) -> dict[str, float]:
        peak = self.peak_attack_mbps
        residual = self.residual_mbps
        return {
            "peak_attack_mbps": peak,
            "residual_mbps": residual,
            "traffic_reduction_fraction": (peak - residual) / peak if peak else 0.0,
            "distinct_target_count": float(self.distinct_target_count),
            "host_coverage_fraction": self.host_coverage_fraction,
        }


def run_carpet_bombing_experiment(
    config: CarpetBombingConfig | None = None,
    scenario: AttackScenario | None = None,
) -> CarpetBombingResult:
    """Run the carpet-bombing scenario: prefix-spread attack vs. /32 RTBH."""
    config = config if config is not None else CarpetBombingConfig()
    if scenario is None:
        scenario = build_attack_scenario(
            peer_count=config.peer_count,
            attack_peak_bps=config.attack_peak_bps,
            attack_start=config.attack_start,
            attack_duration=config.attack_duration,
            benign_rate_bps=config.benign_rate_bps,
            rtbh_compliance_rate=config.compliance_rate,
            seed=config.seed,
            attack_kind="carpet",
            victim_prefix=config.victim_prefix,
        )
    series = AttackTimeSeries()
    harness = SteppedExperiment(duration=config.duration, interval=config.interval)
    targets: set = set()
    bits_totals = {"attack": 0.0, "host": 0.0}
    host_ip_int = ip_to_int(scenario.victim_ip)

    # The operator's classic reflex: blackhole the loudest host (/32).
    harness.at(
        config.blackhole_time,
        lambda: signal_host_blackhole(scenario, time=harness.now),
        name="rtbh-host-blackhole",
    )

    def track_spread(attack_table: FlowTable) -> None:
        if not len(attack_table):
            return
        targets.update(np.unique(attack_table.dst_ip).tolist())
        bits = attack_table.bits
        bits_totals["attack"] += float(bits.sum())
        bits_totals["host"] += float(bits[attack_table.dst_ip == host_ip_int].sum())

    harness.run(
        make_delivery_step(
            scenario, RtbhMitigation(scenario.rtbh), series, on_attack_table=track_spread
        )
    )
    return CarpetBombingResult(
        config=config,
        series=series,
        distinct_target_count=len(targets),
        host_coverage_fraction=(
            bits_totals["host"] / bits_totals["attack"] if bits_totals["attack"] else 0.0
        ),
        events=harness.events(),
    )


# ----------------------------------------------------------------------
# Multi-vector attack vs. Stellar (one rule per vector)
# ----------------------------------------------------------------------
@dataclass
class MultiVectorConfig:
    """Parameters of the multi-vector scenario."""

    duration: float = 900.0
    interval: float = 10.0
    attack_start: float = 100.0
    attack_duration: float = 600.0
    attack_peak_bps: float = 1.5e9
    #: Comma-separated amplification vector names (one Stellar rule each).
    vectors: str = "ntp,memcached,chargen"
    peer_count: int = 40
    #: When the first per-vector drop rule is signalled.
    first_rule_time: float = 300.0
    #: Delay between successive per-vector rules.
    rule_stagger_seconds: float = 100.0
    benign_rate_bps: float = 50e6
    seed: int = 11


@dataclass
class MultiVectorResult(JsonResultMixin):
    """Time series and per-stage residuals of the multi-vector scenario."""

    config: MultiVectorConfig
    series: AttackTimeSeries
    #: The abused source port of each vector, in signalling order.
    vector_ports: list[int]
    events: list[tuple[float, str, dict]] = field(default_factory=list)

    @property
    def peak_attack_mbps(self) -> float:
        return self.series.window(
            self.config.attack_start, self.config.first_rule_time
        ).peak_mbps()

    def stage_mbps(self, stage: int) -> float:
        """Mean delivered rate after ``stage`` vectors have been dropped."""
        start = (
            self.config.first_rule_time
            + (stage - 1) * self.config.rule_stagger_seconds
            + 2 * self.config.interval
        )
        end = min(
            self.config.first_rule_time + stage * self.config.rule_stagger_seconds,
            self.config.attack_start + self.config.attack_duration,
        )
        return self.series.mean_mbps(start, end)

    @property
    def final_residual_mbps(self) -> float:
        """Mean delivered rate once every vector's rule is installed."""
        stages = len(self.vector_ports)
        start = (
            self.config.first_rule_time
            + (stages - 1) * self.config.rule_stagger_seconds
            + 2 * self.config.interval
        )
        return self.series.mean_mbps(
            start, self.config.attack_start + self.config.attack_duration
        )

    def summary(self) -> dict[str, float]:
        summary = {
            "peak_attack_mbps": self.peak_attack_mbps,
            "vector_count": float(len(self.vector_ports)),
            "final_residual_mbps": self.final_residual_mbps,
        }
        for stage in range(1, len(self.vector_ports) + 1):
            summary[f"stage{stage}_mbps"] = self.stage_mbps(stage)
        return summary


def run_multi_vector_experiment(
    config: MultiVectorConfig | None = None,
    scenario: AttackScenario | None = None,
) -> MultiVectorResult:
    """Run the multi-vector scenario: one Stellar drop rule per vector."""
    config = config if config is not None else MultiVectorConfig()
    if scenario is None:
        scenario = build_attack_scenario(
            peer_count=config.peer_count,
            attack_peak_bps=config.attack_peak_bps,
            attack_start=config.attack_start,
            attack_duration=config.attack_duration,
            benign_rate_bps=config.benign_rate_bps,
            seed=config.seed,
            attack_kind="multivector",
            attack_vectors=config.vectors,
        )
    stellar = scenario.stellar
    victim_asn = scenario.victim.asn
    victim_prefix = f"{scenario.victim_ip}/32"
    vector_ports = list(scenario.attack.vector_source_ports())
    series = AttackTimeSeries()
    harness = SteppedExperiment(duration=config.duration, interval=config.interval)

    def signal_drop(port: int) -> None:
        # Signal via the portal API: one BGP announcement can only carry one
        # rule per prefix, while the API stacks concurrent per-vector rules.
        rule = BlackholingRule.drop_udp_source_port(victim_asn, victim_prefix, port)
        stellar.request_mitigation(rule, via="api")

    for index, port in enumerate(vector_ports):
        harness.at(
            config.first_rule_time + index * config.rule_stagger_seconds,
            partial(signal_drop, port),
            name=f"stellar-drop-port-{port}",
        )

    def step(t: float, interval: float) -> None:
        flows = FlowTable.concat(
            [
                scenario.attack.flow_table(t, interval),
                scenario.benign.flow_table(t, interval),
            ]
        )
        report = stellar.deliver_traffic(flows, interval, interval_start=t)
        result = report.fabric_report.results_by_member.get(victim_asn)
        if result is None:
            series.record(time=t, delivered_mbps=0.0, peer_count=0)
            return
        record_delivery(
            series,
            time=t,
            interval=interval,
            delivered_bits=result.delivered_bits,
            attack_bits=result.delivered_attack_bits(),
            peer_count=len(result.delivered_peer_asns()),
            filtered_bits=report.filtered_bits,
        )

    harness.run(step)
    return MultiVectorResult(
        config=config,
        series=series,
        vector_ports=vector_ports,
        events=harness.events(),
    )


# ----------------------------------------------------------------------
# Paper-scale multi-PoP platform vs. Stellar
# ----------------------------------------------------------------------
@dataclass
class PaperScaleConfig:
    """Parameters of the paper-scale multi-PoP scenario."""

    duration: float = 600.0
    interval: float = 10.0
    member_count: int = 800
    pop_count: int = 4
    routers_per_pop: int = 2
    attack_peer_count: int = 60
    attack_start: float = 120.0
    attack_duration: float = 360.0
    attack_peak_bps: float = 80e9
    victim_port_capacity_bps: float = 10e9
    #: Platform-wide regular cross-member traffic (bits/second).
    background_rate_bps: float = 2e12
    background_flows_per_interval: int = 3000
    benign_rate_bps: float = 200e6
    #: When the victim signals the Stellar drop rule for the attack vector.
    mitigation_time: float = 300.0
    vector_name: str = "ntp"
    seed: int = 7


@dataclass
class PaperScaleResult(JsonResultMixin):
    """Victim time series plus platform-level load and port accounting."""

    config: PaperScaleConfig
    series: AttackTimeSeries
    #: Peak platform load observed across the run (bits/second).
    platform_peak_bps: float
    platform_capacity_bps: float
    connected_capacity_bps: float
    #: (port, interval) pairs whose egress demand exceeded the port
    #: capacity — the oversubscription the true utilisation ratio exposes.
    oversubscribed_port_intervals: int
    #: Highest per-interval port utilisation seen anywhere on the fabric.
    peak_port_utilisation: float
    member_count: int
    router_count: int
    pop_count: int
    events: list[tuple[float, str, dict]] = field(default_factory=list)

    @property
    def peak_attack_mbps(self) -> float:
        return self.series.window(
            self.config.attack_start, self.config.mitigation_time
        ).peak_mbps()

    @property
    def residual_mbps(self) -> float:
        """Mean delivered rate after the Stellar rule (attack still firing)."""
        return self.series.mean_mbps(
            self.config.mitigation_time + 2 * self.config.interval,
            self.config.attack_start + self.config.attack_duration,
        )

    def summary(self) -> dict[str, float]:
        return {
            "peak_attack_mbps": self.peak_attack_mbps,
            "residual_mbps": self.residual_mbps,
            "platform_peak_tbps": self.platform_peak_bps / 1e12,
            "platform_load_fraction": self.platform_peak_bps
            / self.platform_capacity_bps,
            "connected_capacity_tbps": self.connected_capacity_bps / 1e12,
            "oversubscribed_port_intervals": float(self.oversubscribed_port_intervals),
            "peak_port_utilisation": self.peak_port_utilisation,
            "member_count": float(self.member_count),
            "router_count": float(self.router_count),
        }


def run_paper_scale_experiment(
    config: PaperScaleConfig | None = None,
    scenario: PaperScaleScenario | None = None,
) -> PaperScaleResult:
    """Run the paper-scale scenario: a booter attack on one member of a
    multi-PoP, DE-CIX-class platform carrying Tbps of background load.

    Every interval crosses the platform in one batched delivery pass, and
    the Stellar mitigation is signalled through the portal API mid-attack,
    as in Fig. 10(c), so the victim series steps down while the platform
    keeps carrying the background mesh.
    """
    config = config if config is not None else PaperScaleConfig()
    if scenario is None:
        scenario = build_paper_scale_scenario(
            member_count=config.member_count,
            pop_count=config.pop_count,
            routers_per_pop=config.routers_per_pop,
            attack_peer_count=config.attack_peer_count,
            victim_port_capacity_bps=config.victim_port_capacity_bps,
            attack_peak_bps=config.attack_peak_bps,
            attack_start=config.attack_start,
            attack_duration=config.attack_duration,
            background_rate_bps=config.background_rate_bps,
            background_flows_per_interval=config.background_flows_per_interval,
            interval=config.interval,
            benign_rate_bps=config.benign_rate_bps,
            vector_name=config.vector_name,
            seed=config.seed,
        )
    stellar = scenario.stellar
    fabric = scenario.fabric
    victim_asn = scenario.victim.asn
    series = AttackTimeSeries()
    harness = SteppedExperiment(duration=config.duration, interval=config.interval)
    tracker = {
        "platform_peak_bps": 0.0,
        "oversubscribed": 0,
        "peak_utilisation": 0.0,
    }

    def signal_stellar_drop() -> None:
        rule = BlackholingRule.drop_udp_source_port(
            victim_asn,
            f"{scenario.victim_ip}/32",
            scenario.attack.vector.source_port,
        )
        stellar.request_mitigation(rule, via="api")

    harness.at(config.mitigation_time, signal_stellar_drop, name="stellar-drop")

    def step(t: float, interval: float) -> None:
        flows = FlowTable.concat(
            [
                scenario.attack.flow_table(t, interval),
                scenario.benign.flow_table(t, interval),
                scenario.background.interval_table(t),
            ]
        )
        report = stellar.deliver_traffic(flows, interval, interval_start=t)
        fabric_report = report.fabric_report
        tracker["platform_peak_bps"] = max(
            tracker["platform_peak_bps"], fabric_report.platform_load_bps
        )
        # Port-level oversubscription scan: one pass over the report's
        # per-member columns, so no verdict table is materialised here.
        utilisation = fabric_report.port_utilisation()
        tracker["peak_utilisation"] = max(
            tracker["peak_utilisation"], float(np.max(utilisation, initial=0.0))
        )
        tracker["oversubscribed"] += int(np.count_nonzero(utilisation > 1.0))
        victim_result = fabric_report.results_by_member.get(victim_asn)
        if victim_result is None:
            series.record(time=t, delivered_mbps=0.0, peer_count=0)
            return
        record_delivery(
            series,
            time=t,
            interval=interval,
            delivered_bits=victim_result.delivered_bits,
            attack_bits=victim_result.delivered_attack_bits(),
            peer_count=len(victim_result.delivered_peer_asns()),
            filtered_bits=report.filtered_bits,
        )

    harness.run(step)
    return PaperScaleResult(
        config=config,
        series=series,
        platform_peak_bps=tracker["platform_peak_bps"],
        platform_capacity_bps=fabric.platform_capacity_bps,
        connected_capacity_bps=fabric.connected_capacity_bps,
        oversubscribed_port_intervals=tracker["oversubscribed"],
        peak_port_utilisation=tracker["peak_utilisation"],
        # Topology facts come from the fabric that actually ran, so a
        # caller-supplied scenario can't disagree with the report.
        member_count=len(scenario.members),
        router_count=len(fabric.edge_routers()),
        pop_count=len({router.pop for router in fabric.edge_routers()}),
        events=harness.events(),
    )
