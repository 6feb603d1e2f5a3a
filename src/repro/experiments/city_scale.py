"""The city-scale streaming scenario on the sharded interval pipeline.

``paper_scale`` (~800 members) runs one process; this scenario models the
platform the paper actually describes — a city IXP with 10k+ members
across tens of PoPs carrying multi-Tbps sustained load for an hour — by
decomposing the fabric along its PoP boundary
(:class:`~repro.ixp.shard.ShardPlanner`) and running every shard's
generation → classification → delivery loop in its own worker process
(:mod:`repro.experiments.parallel`).

The decomposition is *by construction* independent of how many workers
execute it:

* the shard plan is a pure function of the member population (seeded),
* each shard's background generator draws from its own
  :func:`~repro.sim.rng.derive_seed` stream and egresses only through
  that shard's members, so no RNG stream ever crosses a shard boundary,
* the attack, benign source and mitigation rule live entirely in the
  victim's shard,
* per-interval reports cross as columnar payloads and merge in fixed
  shard order (:func:`~repro.ixp.shard.merge_interval_columns`).

``execution="serial"`` therefore runs the *identical* shard runtimes
in-process and produces a bit-for-bit identical result — the parity
oracle the tests compare against — while ``"sharded"`` only adds
processes and shared-memory transport.  Memory stays bounded at any
duration: generators stream interval-by-interval, fabrics run with
report and IPFIX retention off, and flow tables cross processes as
:class:`~repro.traffic.sharedtable.SharedFlowTable` views.

Set-up works on columns.  The parent draws the population once, as a
:class:`~repro.ixp.member.MemberPopulation`, plans the shards from its
PoP column and packs it into one
:class:`~repro.traffic.sharedtable.SharedMemberTable`; each shard runtime
reads its rows back as a population and connects them in one
:func:`~repro.ixp.topology.build_multi_pop_fabric` call.  Only the ports
that get a rule or a lookup (the victim's) are ever built as objects.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..analysis.timeseries import AttackTimeSeries, record_delivery
from ..core.rules import BlackholingRule
from ..ixp.hardware_profiles import HardwareProfile, l_ixp_edge_router_profile
from ..ixp.member import IxpMember, MemberPopulation
from ..ixp.qos import QosRule
from ..ixp.shard import ShardPlanner, ShardSpec, merge_interval_columns
from ..ixp.topology import build_multi_pop_fabric, make_member_population
from ..sim.clock import check_duration, check_interval
from ..sim.rng import derive_seed
from ..traffic.amplification import get_vector
from ..traffic.attacks import BenignTrafficSource, BooterAttack
from ..traffic.flowtable import FlowTable, group_sum
from ..traffic.generator import IxpTraceGenerator
from ..traffic.sharedtable import SharedMemberTable
from .parallel import EXECUTION_MODES, iter_shard_intervals
from .results import JsonResultMixin
from .victim import DEFAULT_VICTIM_ASN, DEFAULT_VICTIM_IP


@dataclass
class CityScaleConfig:
    """Parameters of the city-scale sharded scenario."""

    duration: float = 3600.0
    interval: float = 30.0
    member_count: int = 10_000
    pop_count: int = 10
    routers_per_pop: int = 2
    attack_peer_count: int = 100
    attack_start: float = 600.0
    attack_duration: float = 1800.0
    attack_peak_bps: float = 300e9
    victim_port_capacity_bps: float = 100e9
    #: Platform-wide regular cross-member traffic (bits/second); each
    #: shard generates its member-count share of it.
    background_rate_bps: float = 8e12
    background_flows_per_interval: int = 20_000
    benign_rate_bps: float = 500e6
    #: When the victim's Stellar drop rule reaches its egress port.
    mitigation_time: float = 1200.0
    vector_name: str = "ntp"
    #: ``"sharded"`` runs one worker process per shard slot;
    #: ``"serial"`` runs the identical shard runtimes in-process (the
    #: bit-for-bit parity oracle).
    execution: str = "sharded"
    #: Worker processes for the sharded mode.  Concurrency only — the
    #: result is identical at any worker count.
    workers: int = 4
    #: Shards to plan (whole PoPs each); 0 means one shard per PoP.
    shard_count: int = 0
    #: Intervals per worker task (amortises task dispatch overhead).
    chunk_intervals: int = 8
    #: Ship each shard's interval table to the parent through shared
    #: memory for platform-level flow analysis (service-port shares).
    collect_tables: bool = True
    seed: int = 20


@dataclass
class CityScaleResult(JsonResultMixin):
    """Victim series, platform accounting and the shard-parity digest."""

    config: CityScaleConfig
    series: AttackTimeSeries
    platform_peak_bps: float
    platform_capacity_bps: float
    connected_capacity_bps: float
    oversubscribed_port_intervals: int
    peak_port_utilisation: float
    member_count: int
    router_count: int
    pop_count: int
    shard_count: int
    intervals: int
    #: SHA-256 over every interval's merged platform report (canonical
    #: JSON, time order).  Bit-for-bit equality of two runs' digests
    #: means every per-member number of every interval matched.
    report_digest: str
    #: Top service ports by offered bytes across the whole run
    #: (platform-level flow analysis over the shared-memory tables).
    top_service_ports: dict[str, int] = field(default_factory=dict)
    events: list[tuple[float, str, dict]] = field(default_factory=list)

    @property
    def peak_attack_mbps(self) -> float:
        return self.series.window(
            self.config.attack_start, self.config.mitigation_time
        ).peak_mbps()

    @property
    def residual_mbps(self) -> float:
        """Mean delivered rate after mitigation (attack still firing)."""
        return self.series.mean_mbps(
            self.config.mitigation_time + 2 * self.config.interval,
            self.config.attack_start + self.config.attack_duration,
        )

    def summary(self) -> dict[str, float]:
        return {
            "peak_attack_mbps": self.peak_attack_mbps,
            "residual_mbps": self.residual_mbps,
            "platform_peak_tbps": self.platform_peak_bps / 1e12,
            "connected_capacity_tbps": self.connected_capacity_bps / 1e12,
            "oversubscribed_port_intervals": float(self.oversubscribed_port_intervals),
            "peak_port_utilisation": self.peak_port_utilisation,
            "member_count": float(self.member_count),
            "shard_count": float(self.shard_count),
            "intervals": float(self.intervals),
        }


# ----------------------------------------------------------------------
# Deterministic shared construction (parent and every worker)
# ----------------------------------------------------------------------
def _router_profile(config: CityScaleConfig) -> HardwareProfile:
    """Router hardware sized for the configured member density.

    The default 350-port profile caps out below 10k members; size ports
    to 1.5x the uniform per-router expectation (plus slack for the
    random PoP draw) so placement never overflows.  Parent and workers
    derive the same profile from the same config.
    """
    expected = config.member_count / (config.pop_count * config.routers_per_pop)
    return l_ixp_edge_router_profile(
        port_count=max(350, int(math.ceil(expected * 1.5)) + 50)
    )


def _city_victim(config: CityScaleConfig) -> IxpMember:
    """The experimental (victim) AS — the one non-generated member."""
    return IxpMember(
        asn=DEFAULT_VICTIM_ASN,
        name="experimental-as",
        port_capacity_bps=config.victim_port_capacity_bps,
        prefixes=["100.10.10.0/24"],
        honors_rtbh=True,
        pop="pop-1",
    )


def _city_population(config: CityScaleConfig) -> MemberPopulation:
    """The seeded member population besides the victim (pure in ``config``)."""
    return make_member_population(
        config.member_count - 1,
        pop_count=config.pop_count,
        seed=config.seed,
    )


def _mitigation_events(
    config: CityScaleConfig,
) -> tuple[tuple[float, int, QosRule], ...]:
    """The pre-scheduled configuration changes, as picklable QoS rules.

    Built once in the parent with an explicit ``rule_id``: the default
    ids come from a process-global counter, which would differ between
    parent, workers and repeat runs and break report parity.
    """
    rule = BlackholingRule.drop_udp_source_port(
        DEFAULT_VICTIM_ASN,
        f"{DEFAULT_VICTIM_IP}/32",
        get_vector(config.vector_name).source_port,
    )
    rule = dataclasses.replace(rule, rule_id="stellar-city-drop")
    return ((config.mitigation_time, DEFAULT_VICTIM_ASN, rule.to_qos_rule()),)


class _ShardRuntime:
    """One shard's self-contained slice of the platform simulation.

    Owns the shard-local fabric (whole PoPs, identical routers and seeds
    to the full platform), the shard's seeded background generator, the
    attack/benign sources when the victim lives here, and the pending
    configuration events.  All cross-interval state (token buckets,
    counters, delivery-plan caches) lives inside this object — which is
    why the worker pool pins each shard to one process.
    """

    def __init__(
        self,
        config: CityScaleConfig,
        spec: ShardSpec,
        events: tuple[tuple[float, int, QosRule], ...],
        member_table: SharedMemberTable,
    ) -> None:
        self.config = config
        self.spec = spec
        victim = _city_victim(config)
        self.victim_asn = victim.asn
        self.has_victim = victim.asn in spec.member_asns
        # The parent packed the generated population once; this runtime
        # reads its own shard's rows (plus the ingress/peer ASNs) straight
        # off the mapping.
        population_asns = member_table.asn_array()
        shard_members = member_table.members_for(
            [asn for asn in spec.member_asns if asn != victim.asn]
        )
        all_asns = [victim.asn, *population_asns.tolist()]
        peer_asns = population_asns[: config.attack_peer_count].tolist()
        if self.has_victim:
            shard_members = MemberPopulation.concat(
                [MemberPopulation.from_members([victim]), shard_members]
            )
        # Ascending-ASN connect order — the same relative order the full
        # platform would use, so within-PoP load balancing places every
        # member on the same router either way.
        shard_members = shard_members.take(np.argsort(shard_members.asns, kind="stable"))
        self.fabric = build_multi_pop_fabric(
            pop_count=config.pop_count,
            routers_per_pop=config.routers_per_pop,
            profile=_router_profile(config),
            seed=config.seed,
            pop_indices=spec.pop_indices,
            collect_ipfix=False,
            retain_reports=False,
            members=shard_members,
        )
        self.attack: Optional[BooterAttack] = None
        self.benign: Optional[BenignTrafficSource] = None
        if self.has_victim:
            self.attack = BooterAttack(
                victim_ip=DEFAULT_VICTIM_IP,
                victim_member_asn=victim.asn,
                peer_member_asns=peer_asns,
                peak_rate_bps=config.attack_peak_bps,
                start=config.attack_start,
                duration=config.attack_duration,
                vector_name=config.vector_name,
                seed=config.seed,
            )
            self.benign = BenignTrafficSource(
                dst_ip=DEFAULT_VICTIM_IP,
                egress_member_asn=victim.asn,
                ingress_member_asns=peer_asns[:5],
                rate_bps=config.benign_rate_bps,
                seed=config.seed + 1,
            )
        # The shard generates its member share of the platform background
        # from its own derived seed; ingress draws from the whole
        # membership (cross-PoP traffic), egress only from this shard.
        share = len(spec.member_asns) / config.member_count
        self.background = IxpTraceGenerator(
            member_asns=all_asns,
            duration=config.duration,
            interval=config.interval,
            regular_rate_bps=config.background_rate_bps * share,
            flows_per_interval=max(
                1, round(config.background_flows_per_interval * share)
            ),
            egress_member_asns=list(spec.member_asns),
            seed=derive_seed(config.seed, spec.index),
        )
        self._background_iter = self.background.iter_interval_tables()
        self._events = sorted(
            (event for event in events if event[1] in spec.member_asns),
            key=lambda event: event[0],
        )
        self._next_event = 0

    # ------------------------------------------------------------------
    def run_interval(self, interval_start: float, interval: float) -> dict:
        """Generate, deliver and account one observation interval."""
        # Apply due configuration changes before delivering (the same
        # fire-then-step order as SteppedExperiment).
        while (
            self._next_event < len(self._events)
            and self._events[self._next_event][0] <= interval_start
        ):
            _, member_asn, rule = self._events[self._next_event]
            self.fabric.router_for_member(member_asn).install_rule(member_asn, rule)
            self._next_event += 1

        streamed = next(self._background_iter, None)
        if streamed is None or abs(streamed[0] - interval_start) > 1e-9:
            raise RuntimeError(
                f"shard {self.spec.index}: background stream out of step at "
                f"t={interval_start} (got {streamed and streamed[0]})"
            )
        tables = []
        if self.attack is not None and self.benign is not None:
            tables.append(self.attack.flow_table(interval_start, interval))
            tables.append(self.benign.flow_table(interval_start, interval))
        tables.append(streamed[1])
        table = FlowTable.concat(tables)
        report = self.fabric.deliver(table, interval, interval_start=interval_start)

        utilisation = report.port_utilisation()
        payload: dict = {
            "report": report.to_columns(),
            "peak_utilisation": float(np.max(utilisation, initial=0.0)),
            "oversubscribed": int(np.count_nonzero(utilisation > 1.0)),
            "victim": None,
        }
        if self.has_victim:
            victim_result = report.results_by_member.get(self.victim_asn)
            if victim_result is not None:
                payload["victim"] = {
                    "delivered_bits": victim_result.delivered_bits,
                    "attack_bits": float(victim_result.delivered_attack_bits()),
                    "peer_count": len(victim_result.delivered_peer_asns()),
                }
        if self.config.collect_tables:
            payload["table"] = table
        return payload


def _build_shard_runtime(
    config: CityScaleConfig,
    spec: ShardSpec,
    events: tuple[tuple[float, int, QosRule], ...],
    member_table: SharedMemberTable,
) -> _ShardRuntime:
    """Module-level runtime factory (pickled by reference under spawn)."""
    return _ShardRuntime(config, spec, events, member_table)


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
def _digest_payload(merged: dict) -> dict:
    """JSON-ready view of a merged columnar interval report.

    Covers every number the merge carries — totals plus each member's
    accounting and rule stats — so digest equality between two runs still
    means every per-member value of every interval matched, exactly as
    with the old dict-shaped payloads.
    """
    return {
        "interval_start": merged["interval_start"],
        "interval": merged["interval"],
        "totals": merged["totals"],
        "member_asns": merged["member_asns"].tolist(),
        "member_fields": {
            name: array.tolist() for name, array in merged["member_fields"].items()
        },
        "rule_stats": merged["rule_stats"],
    }


def plan_city_shards(
    config: CityScaleConfig, population: MemberPopulation
) -> list[ShardSpec]:
    """The scenario's shard plan, from ``population``: the config's drawn
    population (:func:`_city_population`), so a pure function of the config.
    """
    planner = ShardPlanner.for_members(
        MemberPopulation.concat(
            [MemberPopulation.from_members([_city_victim(config)]), population]
        ),
        config.pop_count,
    )
    return planner.plan(config.shard_count if config.shard_count > 0 else None)


def run_city_scale_experiment(
    config: CityScaleConfig | None = None,
) -> CityScaleResult:
    """Run the city-scale scenario on the sharded (or serial) pipeline."""
    config = config if config is not None else CityScaleConfig()
    if config.member_count < max(2, config.attack_peer_count + 1):
        raise ValueError(
            "member_count must cover the victim plus the attack peers "
            f"(got {config.member_count} members, {config.attack_peer_count} peers)"
        )
    if config.execution not in EXECUTION_MODES:
        raise ValueError(
            f"unknown execution mode {config.execution!r}; "
            f"known: {', '.join(EXECUTION_MODES)}"
        )
    if config.workers < 1:
        raise ValueError(f"workers must be >= 1, got {config.workers}")
    check_interval(config.interval)
    check_duration(config.duration)

    victim = _city_victim(config)
    population = _city_population(config)
    plan = plan_city_shards(config, population)
    events = _mitigation_events(config)
    step_count = int(config.duration / config.interval + 1e-9)
    times = [index * config.interval for index in range(step_count)]
    series = AttackTimeSeries()
    digest = hashlib.sha256()
    service_bytes: dict[int, int] = {}
    platform_peak_bps = 0.0
    peak_utilisation = 0.0
    oversubscribed = 0
    intervals = 0

    # The generated population crosses to the workers once, as a
    # shared-memory table every shard runtime maps zero-copy; only the
    # victim (one member) still travels by value inside the config.  The
    # block is released on every way out of the run.
    member_table = SharedMemberTable.from_members(population)
    try:
        shard_kwargs = [
            {
                "config": config,
                "spec": spec,
                "events": events,
                "member_table": member_table,
            }
            for spec in plan
        ]
        for interval_start, payloads in iter_shard_intervals(
            _build_shard_runtime,
            shard_kwargs,
            times,
            config.interval,
            execution=config.execution,
            workers=config.workers,
            chunk_intervals=config.chunk_intervals,
        ):
            merged = merge_interval_columns(
                [payload["report"] for payload in payloads]
            )
            digest.update(
                json.dumps(
                    _digest_payload(merged), sort_keys=True, separators=(",", ":")
                ).encode("utf-8")
            )
            platform_peak_bps = max(
                platform_peak_bps, merged["totals"]["offered_bits"] / config.interval
            )
            for payload in payloads:
                peak_utilisation = max(peak_utilisation, payload["peak_utilisation"])
                oversubscribed += payload["oversubscribed"]
                flows = payload.get("table")
                if flows is not None and len(flows):
                    for port, total in group_sum(
                        flows.service_ports(), flows.bytes
                    ).items():
                        service_bytes[port] = service_bytes.get(port, 0) + total
            victim_payload = next(
                (
                    payload["victim"]
                    for payload in payloads
                    if payload.get("victim") is not None
                ),
                None,
            )
            if victim_payload is None:
                series.record(time=interval_start, delivered_mbps=0.0, peer_count=0)
            else:
                record_delivery(
                    series,
                    time=interval_start,
                    interval=config.interval,
                    delivered_bits=victim_payload["delivered_bits"],
                    attack_bits=victim_payload["attack_bits"],
                    peer_count=victim_payload["peer_count"],
                    filtered_bits=merged["totals"]["filtered_bits"],
                )
            intervals += 1
    finally:
        member_table.release()

    top_ports = dict(
        sorted(service_bytes.items(), key=lambda item: (-item[1], item[0]))[:10]
    )
    return CityScaleResult(
        config=config,
        series=series,
        platform_peak_bps=platform_peak_bps,
        platform_capacity_bps=25e12,
        connected_capacity_bps=float(
            sum([victim.port_capacity_bps, *population.port_capacity_bps.tolist()])
        ),
        oversubscribed_port_intervals=oversubscribed,
        peak_port_utilisation=peak_utilisation,
        member_count=config.member_count,
        router_count=config.pop_count * config.routers_per_pop,
        pop_count=config.pop_count,
        shard_count=len(plan),
        intervals=intervals,
        report_digest=digest.hexdigest(),
        top_service_ports={str(port): total for port, total in top_ports.items()},
        events=[
            (
                time,
                "stellar-city-drop",
                {"member_asn": member_asn, "rule_id": rule.rule_id},
            )
            for time, member_asn, rule in events
        ],
    )
