"""Synthetic IXP trace generation.

The paper's measurement study (§2.3) analyses two weeks of IPFIX data from
L-IXP.  Production traces are obviously unavailable, so this module
generates synthetic traces whose statistical structure matches the
properties the paper reports:

* :class:`IxpTraceGenerator` — a whole-IXP trace with "regular" traffic
  (port/protocol mix from :func:`~repro.traffic.profiles.other_traffic_profile`)
  and a set of RTBH events whose traffic follows
  :func:`~repro.traffic.profiles.blackholed_traffic_profile`.
* :class:`MemberAttackScenarioGenerator` — the Fig. 2(c) single-member
  scenario: steady web traffic to one member IP plus a memcached
  amplification attack that starts mid-trace.

Generation is columnar: each interval's flow population is drawn with a
handful of vectorized RNG calls (Dirichlet volume split, class sampling,
port/address draws) straight into a
:class:`~repro.traffic.flowtable.FlowTable`, and the per-interval tables
are concatenated into a table-backed :class:`TrafficTrace`.  This is what
lets ``flows_per_interval`` scale into the thousands without the per-flow
Python object churn the original implementation paid.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..sim.clock import check_interval
from ..sim.rng import make_rng
from .amplification import get_vector
from .attacks import AmplificationAttack, BenignTrafficSource, _PUBLIC_FIRST_OCTETS
from .flowtable import FlowTable, ip_to_int
from .packet import IpProtocol
from .profiles import (
    TrafficProfile,
    blackholed_traffic_profile,
    other_traffic_profile,
)
from .trace import TrafficTrace


def _check_timing(interval: float, duration: float) -> None:
    """A generated trace needs a valid interval and at least some duration."""
    check_interval(interval)
    if not (math.isfinite(duration) and duration > 0):
        raise ValueError(f"duration must be positive and finite, got {duration!r}")


@dataclass(frozen=True)
class RtbhEvent:
    """One blackholing event in the synthetic IXP trace."""

    victim_ip: str
    victim_member_asn: int
    start: float
    duration: float
    rate_bps: float


@dataclass
class IxpTraceGenerator:
    """Generate a whole-IXP synthetic trace with RTBH events.

    The trace contains two flow populations:

    * *other* traffic — regular inter-member traffic whose port/protocol mix
      follows the non-blackholed distribution of §2.3 (TCP ≈ 87 %),
    * *blackholed* traffic — traffic towards prefixes under RTBH, dominated
      by UDP amplification-prone source ports.

    Flows towards RTBH victims are marked ``is_attack=True``, which
    is the ground truth the Fig. 3(a) analysis groups by.
    """

    member_asns: Sequence[int]
    duration: float = 3600.0
    interval: float = 60.0
    #: Aggregate regular traffic rate across the IXP (bits/second).
    regular_rate_bps: float = 50e9
    #: Aggregate rate towards blackholed prefixes during events.
    blackholed_rate_bps: float = 5e9
    rtbh_events: Sequence[RtbhEvent] = field(default_factory=tuple)
    flows_per_interval: int = 400
    #: When set, regular traffic only *egresses* through these members
    #: (ingress still draws from the full ``member_asns``).  The sharded
    #: pipeline uses this to give each shard a generator whose traffic
    #: leaves exclusively through that shard's members — classification
    #: happens at egress, so partitioning by egress partitions the work.
    egress_member_asns: Optional[Sequence[int]] = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if len(self.member_asns) < 2:
            raise ValueError("an IXP trace needs at least two members")
        _check_timing(self.interval, self.duration)
        self._rng = make_rng(self.seed)
        self._members_arr = np.asarray(list(self.member_asns), dtype=np.int64)
        if self.egress_member_asns is None:
            self._egress_arr = self._members_arr
        else:
            if not len(self.egress_member_asns):
                raise ValueError("egress_member_asns must be non-empty when given")
            self._egress_arr = np.asarray(list(self.egress_member_asns), dtype=np.int64)
        self._other_profile = other_traffic_profile()

    # ------------------------------------------------------------------
    def default_events(self, count: int = 20) -> list[RtbhEvent]:
        """Create ``count`` randomly placed RTBH events."""
        events = []
        members = list(self.member_asns)
        for i in range(count):
            member = members[int(self._rng.integers(0, len(members)))]
            start = float(self._rng.uniform(0, self.duration * 0.8))
            duration = float(self._rng.uniform(self.duration * 0.05, self.duration * 0.3))
            events.append(
                RtbhEvent(
                    victim_ip=f"100.{64 + i % 128}.{int(self._rng.integers(1, 254))}."
                    f"{int(self._rng.integers(1, 254))}",
                    victim_member_asn=member,
                    start=start,
                    duration=duration,
                    rate_bps=float(self._rng.uniform(0.2, 1.5)) * self.blackholed_rate_bps,
                )
            )
        return events

    # ------------------------------------------------------------------
    def _profile_table(
        self,
        profile: TrafficProfile,
        total_bytes: float,
        count: int,
        interval_start: float,
        is_attack: bool,
        dst_ip: Optional[str] = None,
        egress_member: Optional[int] = None,
    ) -> FlowTable:
        """Spread ``total_bytes`` over ``count`` flows drawn from ``profile``.

        All draws are vectorized: one Dirichlet call splits the interval's
        volume, one categorical draw assigns traffic classes, and the
        address/port columns come from batched ``integers``/``choice`` calls.
        """
        if total_bytes < 1 or count < 1:
            return FlowTable.empty()
        rng = self._rng
        weights = rng.dirichlet(np.ones(count) * 1.2)
        flow_bytes = (total_bytes * weights).astype(np.int64)
        protocols, class_ports = profile.sample_classes(rng, count)
        ingress = self._members_arr[rng.integers(0, len(self._members_arr), size=count)]
        if egress_member is not None:
            egress = np.full(count, egress_member, dtype=np.int64)
        else:
            egress = self._egress_arr[rng.integers(0, len(self._egress_arr), size=count)]
        if dst_ip is not None:
            dst = np.full(count, ip_to_int(dst_ip), dtype=np.uint32)
        else:
            dst = (
                (np.int64(100) << 24)
                | (rng.integers(64, 127, size=count) << 16)
                | (rng.integers(1, 254, size=count) << 8)
                | rng.integers(1, 254, size=count)
            ).astype(np.uint32)
        src = (
            (rng.choice(_PUBLIC_FIRST_OCTETS[:6], size=count).astype(np.int64) << 24)
            | (rng.integers(1, 254, size=count) << 16)
            | (rng.integers(1, 254, size=count) << 8)
            | rng.integers(1, 254, size=count)
        ).astype(np.uint32)
        # Amplification traffic has the abused port as *source*; regular
        # client/server traffic as *destination* for TCP classes.
        ephemeral = rng.integers(1024, 65535, size=count)
        tcp_client = (protocols == int(IpProtocol.TCP)) & (not is_attack)
        src_ports = np.where(tcp_client, ephemeral, class_ports)
        dst_ports = np.where(tcp_client, class_ports, ephemeral)

        keep = flow_bytes > 0
        flow_bytes = flow_bytes[keep]
        n = len(flow_bytes)
        return FlowTable(
            src_ip=src[keep],
            dst_ip=dst[keep],
            protocol=protocols[keep],
            src_port=src_ports[keep],
            dst_port=dst_ports[keep],
            start=np.full(n, interval_start),
            duration=np.full(n, self.interval),
            bytes=flow_bytes,
            packets=np.maximum(1, flow_bytes // 1000),
            ingress_asn=ingress[keep],
            egress_asn=egress[keep],
            is_attack=np.full(n, is_attack, dtype=bool),
        )

    def interval_table(self, interval_start: float) -> FlowTable:
        """One observation interval of regular cross-member traffic.

        The public per-interval entry point for stepped drivers (the
        paper-scale scenario draws its platform-wide background load this
        way): ``regular_rate_bps`` worth of §2.3-mix traffic with random
        ingress *and* egress members, as a columnar batch.
        """
        return self._profile_table(
            self._other_profile,
            self.regular_rate_bps * self.interval / 8,
            self.flows_per_interval,
            interval_start,
            is_attack=False,
        )

    def iter_interval_tables(self):
        """Stream the trace one observation interval at a time.

        Yields ``(interval_start, table)`` pairs in time order, drawing
        each interval's flow population lazily — the bounded-memory entry
        point for hour-long city-scale runs, where materialising the whole
        trace at once would hold every interval in RAM.  :meth:`generate`
        consumes this same iterator, so the streamed tables concatenate to
        exactly the monolithic trace (same RNG draw order, same rows).
        """
        other_profile = self._other_profile
        blackholed_profile = blackholed_traffic_profile()
        events = list(self.rtbh_events)
        intervals = int(self.duration / self.interval)
        for i in range(intervals):
            interval_start = i * self.interval
            regular_bytes = self.regular_rate_bps * self.interval / 8
            tables = [
                self._profile_table(
                    other_profile,
                    regular_bytes,
                    self.flows_per_interval,
                    interval_start,
                    is_attack=False,
                )
            ]
            for event in events:
                if not (event.start <= interval_start < event.start + event.duration):
                    continue
                event_bytes = event.rate_bps * self.interval / 8
                tables.append(
                    self._profile_table(
                        blackholed_profile,
                        event_bytes,
                        max(20, self.flows_per_interval // 10),
                        interval_start,
                        is_attack=True,
                        dst_ip=event.victim_ip,
                        egress_member=event.victim_member_asn,
                    )
                )
            yield interval_start, FlowTable.concat(tables)

    def generate(self) -> TrafficTrace:
        """Generate the full trace (table-backed)."""
        return TrafficTrace(
            FlowTable.concat([table for _, table in self.iter_interval_tables()])
        )


@dataclass
class MemberAttackScenarioGenerator:
    """The Fig. 2(c) scenario: a web-hosting member hit by an amplification attack.

    Before the attack the member's IP receives web traffic (443/80/8080/1935
    dominant); at ``attack_start`` a memcached (or other vector) attack
    begins and quickly dominates the port share.
    """

    victim_ip: str
    victim_member_asn: int
    peer_member_asns: Sequence[int]
    duration: float = 3600.0
    interval: float = 60.0
    benign_rate_bps: float = 2e9
    attack_rate_bps: float = 40e9
    attack_start: float = 1260.0  # 21 minutes in, mirroring the 20:21 onset.
    attack_duration: Optional[float] = None
    vector_name: str = "memcached"
    seed: int | None = None

    def __post_init__(self) -> None:
        _check_timing(self.interval, self.duration)
        if not self.peer_member_asns:
            raise ValueError("at least one peer member is required")

    def generate(self) -> TrafficTrace:
        """Generate the member-facing trace (table-backed)."""
        attack_duration = (
            self.duration - self.attack_start
            if self.attack_duration is None
            else self.attack_duration
        )
        benign = BenignTrafficSource(
            dst_ip=self.victim_ip,
            egress_member_asn=self.victim_member_asn,
            ingress_member_asns=list(self.peer_member_asns),
            rate_bps=self.benign_rate_bps,
            seed=self.seed,
        )
        attack = AmplificationAttack(
            victim_ip=self.victim_ip,
            vector=get_vector(self.vector_name),
            peak_rate_bps=self.attack_rate_bps,
            start=self.attack_start,
            duration=attack_duration,
            ingress_member_asns=list(self.peer_member_asns),
            victim_member_asn=self.victim_member_asn,
            ramp_seconds=2 * self.interval,
            seed=self.seed,
        )
        intervals = int(self.duration / self.interval)
        tables: list[FlowTable] = []
        for i in range(intervals):
            interval_start = i * self.interval
            tables.append(benign.flow_table(interval_start, self.interval))
            tables.append(attack.flow_table(interval_start, self.interval))
        return TrafficTrace(FlowTable.concat(tables))
