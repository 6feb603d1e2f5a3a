"""Concurrent rule churn through the control-plane service, under attack.

Every earlier scenario installs its mitigation rules from a script via
direct router calls.  This one puts the control plane itself under load:
thousands of members issue Poisson-arriving ``install`` / ``remove`` /
``clear`` / ``telemetry`` requests against the running fabric *through*
the :class:`~repro.ixp.service.ControlPlaneService` — per-router FIFO
queues, coalesced ``install_many`` batches, per-member change budgets at
the paper's ~4.33 updates/s (§5.1) — while a booter attack fires and the
victim's Stellar drop rule is itself submitted through the service like
any other member request.

Measured: rule-propagation latency percentiles (virtual control-plane
seconds from request arrival to data-plane apply), recompile
amortization (``rules_version`` bumps and data-plane calls vs. the
number of rule operations applied), admission outcomes (budget and
backpressure rejections with their ``retry_after``), and the usual
victim delivery series.

Each interval the run enqueues the interval's requests in arrival order
(:meth:`~repro.ixp.service.ControlPlaneService.enqueue`), advances the
service's virtual clock to the interval start
(:meth:`~repro.ixp.service.ControlPlaneService.advance`), so the interval
sees exactly the rules in force at its first instant, and delivers the
interval's traffic.  The reference in ``tests/oracle`` replays the run's
applied-change log *one rule at a time* through direct router calls on a
freshly built fabric; it must reproduce every interval's
``FabricIntervalReport.to_dict()`` byte for byte — proving the service's
batching is pure amortization, never a semantic change.

The churn stream is open-loop and a pure function of the config: request
arrivals, members, ops and rule contents never depend on service
responses, so the same config always offers the identical workload to
the service and to the replay.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

from ..analysis.timeseries import AttackTimeSeries, record_delivery
from ..core.rules import BlackholingRule
from ..ixp.hardware_profiles import HardwareProfile, l_ixp_edge_router_profile
from ..ixp.member import IxpMember, MemberPopulation
from ..ixp.qos import FilterAction, FlowMatch, QosRule
from ..ixp.report_encoding import report_json
from ..ixp.service import (
    AppliedChange,
    ChangeRequest,
    ControlPlaneService,
    ServiceResponse,
)
from ..bgp.prefix import parse_prefix
from ..ixp.fabric import SwitchingFabric
from ..ixp.topology import build_multi_pop_fabric, make_member_population
from ..sim.clock import check_duration, check_interval
from ..sim.rng import derive_seed, make_rng
from ..traffic.amplification import get_vector
from ..traffic.attacks import BenignTrafficSource, BooterAttack
from ..traffic.flowtable import FlowTable
from ..traffic.generator import IxpTraceGenerator
from ..traffic.packet import IpProtocol
from .heap import frozen_heap
from .results import JsonResultMixin
from .victim import DEFAULT_VICTIM_ASN, DEFAULT_VICTIM_IP

#: Reflection-prone source ports the churn rules filter on.
_CHURN_SOURCE_PORTS = (19, 53, 123, 389, 11211)

#: Rule id of the victim's mitigation request.
MITIGATION_RULE_ID = "stellar-churn-drop"


@dataclass
class RuleChurnConfig:
    """Parameters of the concurrent rule-churn scenario."""

    duration: float = 600.0
    interval: float = 10.0
    member_count: int = 10_000
    pop_count: int = 8
    routers_per_pop: int = 2
    # -- churn workload (open-loop Poisson, pure function of the seed)
    #: Fraction of (non-victim) members that ever issue churn requests.
    churn_member_fraction: float = 0.2
    #: Aggregate member-event arrival rate (events/second, Poisson).
    churn_events_per_second: float = 4.0
    #: Installs per burst event (uniform in [burst_min, burst_max]).
    burst_min: int = 4
    burst_max: int = 24
    #: Share of events that remove a previously issued rule id.
    remove_fraction: float = 0.25
    #: Share of events that wipe the member's whole policy.
    clear_fraction: float = 0.02
    #: Share of events that only read telemetry (free, never queued).
    telemetry_fraction: float = 0.10
    #: Share of installed rules that SHAPE (telemetry sample) vs. DROP.
    shape_fraction: float = 0.15
    #: Probability an install reuses an already-issued id (replacement).
    replace_fraction: float = 0.30
    # -- service knobs
    coalesce: bool = True
    max_queue_depth: int = 512
    max_coalesce: int = 256
    budget_window: float = 10.0
    #: Per-member sustained ops/second; 0 derives the deterministic CPU
    #: model's ``max_update_rate(15 %) ≈ 4.33/s``.
    member_update_rate: float = 0.0
    # -- attack riding alongside the churn
    attack_peer_count: int = 50
    attack_start: float = 60.0
    attack_duration: float = 420.0
    attack_peak_bps: float = 100e9
    victim_port_capacity_bps: float = 100e9
    background_rate_bps: float = 2e12
    background_flows_per_interval: int = 20_000
    benign_rate_bps: float = 500e6
    #: When the victim *submits* its drop rule (propagation adds latency).
    mitigation_time: float = 180.0
    vector_name: str = "ntp"
    seed: int = 23


@dataclass
class RuleChurnResult(JsonResultMixin):
    """Latency, amortization and admission outcomes of one churn run."""

    _json_exclude = ("request_log",)

    config: RuleChurnConfig
    member_count: int
    router_count: int
    churn_member_count: int
    intervals: int
    #: The service's order-independent counters (see ``ServiceStats``).
    stats: dict[str, int]
    #: Rule-propagation latency percentiles (virtual seconds).
    latency: dict[str, float]
    #: Propagation latency of the victim's mitigation install (None if
    #: it was rejected or never completed within the run).
    mitigation_latency: Optional[float]
    #: Platform-wide ``rules_version`` bumps — each one is a match-index
    #: recompile trigger; coalescing exists to keep this low.
    rules_version_bumps: int
    #: Rules still installed across the platform at the end of the run.
    installed_rules_final: int
    #: Applied rule operations per data-plane call (the amortization).
    ops_per_data_plane_call: float
    series: AttackTimeSeries
    #: SHA-256 over every interval's ``FabricIntervalReport.to_dict()``
    #: layout (canonical JSON encoded from the report's columns, time
    #: order) — the parity contract with the replay oracle.
    report_digest: str
    #: SHA-256 over the canonical applied-change log.
    request_log_digest: str
    #: The applied-change log itself, canonical order (in-memory only —
    #: excluded from ``to_dict()``; what the replay oracle re-applies).
    request_log: list[AppliedChange] = field(default_factory=list)

    @property
    def peak_attack_mbps(self) -> float:
        return self.series.window(
            self.config.attack_start,
            self.config.attack_start + self.config.attack_duration,
        ).peak_mbps()

    def summary(self) -> dict[str, float]:
        return {
            "requests_submitted": float(self.stats["submitted"]),
            "applied_requests": float(self.stats["applied_requests"]),
            "rejected_budget": float(self.stats["rejected_budget"]),
            "rejected_backpressure": float(self.stats["rejected_backpressure"]),
            "latency_p50_s": self.latency["p50"],
            "latency_p99_s": self.latency["p99"],
            "mitigation_latency_s": (
                -1.0 if self.mitigation_latency is None else self.mitigation_latency
            ),
            "rules_version_bumps": float(self.rules_version_bumps),
            "ops_per_data_plane_call": self.ops_per_data_plane_call,
            "peak_attack_mbps": self.peak_attack_mbps,
            "member_count": float(self.member_count),
            "intervals": float(self.intervals),
        }


# ----------------------------------------------------------------------
# Deterministic construction
# ----------------------------------------------------------------------
def _router_profile(config: RuleChurnConfig) -> HardwareProfile:
    """Router hardware sized for the configured member density."""
    expected = config.member_count / (config.pop_count * config.routers_per_pop)
    return l_ixp_edge_router_profile(
        port_count=max(350, int(math.ceil(expected * 1.5)) + 50)
    )


def _build_platform(
    config: RuleChurnConfig,
) -> tuple[SwitchingFabric, IxpMember, MemberPopulation]:
    """Fabric + membership, identical for live runs and replays.

    The victim and the drawn population connect in one call, victim
    first; no port is built until the service configures it.
    """
    victim = IxpMember(
        asn=DEFAULT_VICTIM_ASN,
        name="experimental-as",
        port_capacity_bps=config.victim_port_capacity_bps,
        prefixes=["100.10.10.0/24"],
        honors_rtbh=True,
        pop="pop-1",
    )
    members = make_member_population(
        config.member_count - 1,
        pop_count=config.pop_count,
        seed=config.seed,
    )
    fabric = build_multi_pop_fabric(
        pop_count=config.pop_count,
        routers_per_pop=config.routers_per_pop,
        profile=_router_profile(config),
        collect_ipfix=False,
        members=MemberPopulation.concat([MemberPopulation.from_members([victim]), members]),
    )
    return fabric, victim, members


def _traffic_sources(
    config: RuleChurnConfig, victim: IxpMember, members: MemberPopulation
) -> tuple[BooterAttack, BenignTrafficSource, IxpTraceGenerator]:
    peer_asns = members.asns[: config.attack_peer_count].tolist()
    attack = BooterAttack(
        victim_ip=DEFAULT_VICTIM_IP,
        victim_member_asn=victim.asn,
        peer_member_asns=peer_asns,
        peak_rate_bps=config.attack_peak_bps,
        start=config.attack_start,
        duration=config.attack_duration,
        vector_name=config.vector_name,
        seed=config.seed,
    )
    benign = BenignTrafficSource(
        dst_ip=DEFAULT_VICTIM_IP,
        egress_member_asn=victim.asn,
        ingress_member_asns=peer_asns[:5],
        rate_bps=config.benign_rate_bps,
        seed=config.seed + 1,
    )
    background = IxpTraceGenerator(
        member_asns=[victim.asn, *members.asns.tolist()],
        duration=config.duration,
        interval=config.interval,
        regular_rate_bps=config.background_rate_bps,
        flows_per_interval=config.background_flows_per_interval,
        seed=derive_seed(config.seed, 777),
    )
    return attack, benign, background


def churn_member_asns(config: RuleChurnConfig, member_asns: Sequence[int]) -> list[int]:
    """The deterministic churn population (a prefix of the member ASNs)."""
    count = max(1, int(round(config.churn_member_fraction * len(member_asns))))
    return [int(asn) for asn in member_asns[:count]]


def _member_host(member_asn: int, host_index: int) -> str:
    """A member-specific /32 the member's churn rules filter towards."""
    index = member_asn % 10_000
    return f"10.{index // 256}.{index % 256}.{host_index}"


def generate_churn_requests(
    config: RuleChurnConfig, churn_asns: Sequence[int]
) -> list[list[dict]]:
    """Per-interval request descriptors — a pure function of the config.

    Each descriptor is ``{"member_asn", "op", "rules", "rule_id", "at"}``
    in arrival order; burst events expand into one single-rule install
    request per rule (the shape the service's coalescing amortizes).
    The victim's mitigation install is spliced into its interval.
    """
    if config.burst_min < 1 or config.burst_max < config.burst_min:
        raise ValueError("need 1 <= burst_min <= burst_max")
    step_count = int(config.duration / config.interval + 1e-9)
    issued: dict[int, list[str]] = {asn: [] for asn in churn_asns}
    counters: dict[int, int] = {asn: 0 for asn in churn_asns}
    per_interval: list[list[dict]] = []
    for index in range(step_count):
        interval_start = index * config.interval
        rng = make_rng(derive_seed(config.seed, 50_000 + index))
        descriptors: list[dict] = []
        event_count = int(
            rng.poisson(config.churn_events_per_second * config.interval)
        )
        arrivals = interval_start + rng.uniform(0.0, config.interval, event_count)
        for arrival in sorted(arrivals.tolist()):
            member_asn = int(churn_asns[int(rng.integers(len(churn_asns)))])
            roll = float(rng.random())
            if roll < config.telemetry_fraction:
                descriptors.append(
                    {"member_asn": member_asn, "op": "telemetry", "at": arrival}
                )
            elif (
                roll < config.telemetry_fraction + config.remove_fraction
                and issued[member_asn]
            ):
                ids = issued[member_asn]
                rule_id = ids.pop(int(rng.integers(len(ids))))
                descriptors.append(
                    {
                        "member_asn": member_asn,
                        "op": "remove",
                        "rule_id": rule_id,
                        "at": arrival,
                    }
                )
            elif (
                roll
                < config.telemetry_fraction
                + config.remove_fraction
                + config.clear_fraction
            ):
                issued[member_asn].clear()
                descriptors.append(
                    {"member_asn": member_asn, "op": "clear", "at": arrival}
                )
            else:
                burst = int(rng.integers(config.burst_min, config.burst_max + 1))
                for offset in range(burst):
                    ids = issued[member_asn]
                    if ids and float(rng.random()) < config.replace_fraction:
                        rule_id = ids[int(rng.integers(len(ids)))]
                    else:
                        counters[member_asn] += 1
                        rule_id = f"c{member_asn}-{counters[member_asn]}"
                        ids.append(rule_id)
                    host = _member_host(member_asn, int(rng.integers(2, 10)))
                    src_port = int(
                        _CHURN_SOURCE_PORTS[
                            int(rng.integers(len(_CHURN_SOURCE_PORTS)))
                        ]
                    )
                    match = FlowMatch(
                        dst_prefix=parse_prefix(f"{host}/32"),
                        protocol=IpProtocol.UDP,
                        src_port=src_port,
                    )
                    if float(rng.random()) < config.shape_fraction:
                        rule = QosRule(
                            match=match,
                            action=FilterAction.SHAPE,
                            shape_rate_bps=float(rng.integers(1, 20)) * 1e6,
                            rule_id=rule_id,
                        )
                    else:
                        rule = QosRule(
                            match=match, action=FilterAction.DROP, rule_id=rule_id
                        )
                    descriptors.append(
                        {
                            "member_asn": member_asn,
                            "op": "install",
                            "rules": (rule,),
                            "at": arrival + offset * 1e-3,
                        }
                    )
        per_interval.append(descriptors)

    # The victim's mitigation request rides the same service as everyone
    # else's churn — spliced into its interval in arrival order.
    mitigation_index = int(config.mitigation_time / config.interval)
    if mitigation_index < step_count:
        rule = BlackholingRule.drop_udp_source_port(
            DEFAULT_VICTIM_ASN,
            f"{DEFAULT_VICTIM_IP}/32",
            get_vector(config.vector_name).source_port,
            rule_id=MITIGATION_RULE_ID,
        )
        descriptor = {
            "member_asn": DEFAULT_VICTIM_ASN,
            "op": "install",
            "rules": (rule.qos,),
            "at": config.mitigation_time,
            "mitigation": True,
        }
        bucket = per_interval[mitigation_index]
        position = next(
            (
                i
                for i, existing in enumerate(bucket)
                if existing["at"] > config.mitigation_time
            ),
            len(bucket),
        )
        bucket.insert(position, descriptor)
    return per_interval


def _make_service(config: RuleChurnConfig, fabric: SwitchingFabric) -> ControlPlaneService:
    # Without coalescing every install request is its own batch.
    return ControlPlaneService(
        fabric,
        max_queue_depth=config.max_queue_depth,
        max_coalesce=config.max_coalesce if config.coalesce else 1,
        budget_window=config.budget_window,
        member_update_rate=(
            None if config.member_update_rate <= 0 else config.member_update_rate
        ),
    )


def _request_from_descriptor(
    service: ControlPlaneService, descriptor: dict
) -> ChangeRequest:
    return service.make_request(
        descriptor["member_asn"],
        descriptor["op"],
        rules=descriptor.get("rules", ()),
        rule_id=descriptor.get("rule_id", ""),
        at=descriptor["at"],
    )


def request_log_digest(entries: Sequence[AppliedChange]) -> str:
    """SHA-256 over the canonical JSON encoding of an applied-change log.

    Rules are encoded through their dataclass ``repr`` — deterministic
    (frozen dataclasses of prefixes, enums and scalars) and
    collision-safe enough to pin the exact sequence of applied changes.
    """
    digest = hashlib.sha256()
    for entry in entries:
        payload = {
            "member_asn": entry.member_asn,
            "op": entry.op,
            "rules": [repr(rule) for rule in entry.rules],
            "rule_id": entry.rule_id,
            "applied_at": round(entry.applied_at, 9),
            "tcam_exhausted": entry.tcam_exhausted,
        }
        digest.update(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
        )
    return digest.hexdigest()


class _IntervalAccounting:
    """Per-interval delivery + accounting of one run (or replay)."""

    def __init__(
        self, config: RuleChurnConfig, fabric: SwitchingFabric, victim: IxpMember
    ) -> None:
        self.config = config
        self.fabric = fabric
        self.victim = victim
        self.series = AttackTimeSeries()
        self.digest = hashlib.sha256()
        self.intervals = 0

    def deliver(
        self,
        interval_start: float,
        attack: BooterAttack,
        benign: BenignTrafficSource,
        background: IxpTraceGenerator,
    ) -> None:
        config = self.config
        table = FlowTable.concat(
            [
                attack.flow_table(interval_start, config.interval),
                benign.flow_table(interval_start, config.interval),
                background.interval_table(interval_start),
            ]
        )
        report = self.fabric.deliver(
            table, config.interval, interval_start=interval_start
        )
        self.digest.update(report_json(report.to_columns()))
        victim_result = report.results_by_member.get(self.victim.asn)
        if victim_result is None:
            self.series.record(time=interval_start, delivered_mbps=0.0, peer_count=0)
        else:
            record_delivery(
                self.series,
                time=interval_start,
                interval=config.interval,
                delivered_bits=victim_result.delivered_bits,
                attack_bits=float(victim_result.delivered_attack_bits()),
                peer_count=len(victim_result.delivered_peer_asns()),
                filtered_bits=report.filtered_bits,
            )
        self.intervals += 1


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def _finish(
    config: RuleChurnConfig,
    fabric: SwitchingFabric,
    service: ControlPlaneService,
    accounting: _IntervalAccounting,
    responses: list[ServiceResponse],
    members: MemberPopulation,
    churn_asns: list[int],
) -> RuleChurnResult:
    mitigation_latency: Optional[float] = None
    for response in responses:
        if (
            response.accepted
            and response.member_asn == DEFAULT_VICTIM_ASN
            and response.op == "install"
        ):
            mitigation_latency = response.latency
            break
    log = service.sorted_log()
    stats = service.stats.to_dict()
    calls = stats["data_plane_calls"]
    return RuleChurnResult(
        config=config,
        member_count=config.member_count,
        router_count=config.pop_count * config.routers_per_pop,
        churn_member_count=len(churn_asns),
        intervals=accounting.intervals,
        stats=stats,
        latency=service.latency_percentiles((50.0, 90.0, 99.0)),
        mitigation_latency=mitigation_latency,
        rules_version_bumps=fabric.rules_version_total(),
        installed_rules_final=sum(
            len(port.qos) for port in fabric.built_ports().values()
        ),
        ops_per_data_plane_call=(stats["applied_ops"] / calls) if calls else 0.0,
        series=accounting.series,
        report_digest=accounting.digest.hexdigest(),
        request_log_digest=request_log_digest(log),
        request_log=log,
    )


def run_rule_churn_experiment(
    config: RuleChurnConfig | None = None,
) -> RuleChurnResult:
    """Run the concurrent rule-churn scenario."""
    config = config if config is not None else RuleChurnConfig()
    if config.member_count < max(2, config.attack_peer_count + 1):
        raise ValueError(
            "member_count must cover the victim plus the attack peers "
            f"(got {config.member_count} members, {config.attack_peer_count} peers)"
        )
    check_interval(config.interval)
    check_duration(config.duration)
    fabric, victim, members = _build_platform(config)
    churn_asns = churn_member_asns(config, members.asns)
    stream = generate_churn_requests(config, churn_asns)
    step_count = int(config.duration / config.interval + 1e-9)
    times = [index * config.interval for index in range(step_count)]

    attack, benign, background = _traffic_sources(config, victim, members)
    accounting = _IntervalAccounting(config, fabric, victim)
    service = _make_service(config, fabric)
    responses: list[ServiceResponse] = []
    with frozen_heap():
        for index, interval_start in enumerate(times):
            for descriptor in stream[index]:
                immediate = service.enqueue(_request_from_descriptor(service, descriptor))
                if immediate is not None:
                    responses.append(immediate)
            # Apply every change completing by the interval's start, so
            # the interval observes exactly the rules in force at its
            # first instant.
            responses.extend(response for _, response in service.advance(interval_start))
            accounting.deliver(interval_start, attack, benign, background)
        # Changes completing within the final interval still count.
        responses.extend(response for _, response in service.advance(config.duration))
        service.close()
    return _finish(config, fabric, service, accounting, responses, members, churn_asns)
