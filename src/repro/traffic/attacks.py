"""Attack models.

Two attack abstractions feed the experiments:

* :class:`AmplificationAttack` — a volumetric reflection attack towards a
  single victim IP, characterised by the abused vector (NTP, memcached, …),
  a peak rate, a start time and a duration.  It produces a flow table per
  observation interval with the reflected traffic spread across many
  reflector sources entering the IXP through many member ports.
* :class:`BooterAttack` — the controlled booter-service experiment of
  §2.4 / §5.3: a short attack of roughly 1 Gbps arriving from a few dozen
  peers, used for Fig. 3(c) and Fig. 10(c).

Both are deterministic given a seed.  Each source's :meth:`flow_table`
returns one observation interval as a columnar
:class:`~repro.traffic.flowtable.FlowTable` built with vectorized RNG draws.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..sim.rng import make_rng
from .amplification import AmplificationVector, get_vector
from .flowtable import FlowTable, ip_to_int

#: Documentation-free public /8 first octets used for synthetic sources.
_PUBLIC_FIRST_OCTETS = np.array([23, 45, 62, 80, 93, 104, 130, 151, 178, 203])


def _draw_source_ips(rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` pseudo-random public-looking source IPs (uint32)."""
    # Avoid the 10/8, 127/8, 192.168/16 etc. ranges by sticking to a few
    # documentation-free public /8s.  One address at a time: batching the
    # draws would change the RNG stream and every digest built on it.
    addresses = []
    for _ in range(count):
        first_octet = int(rng.choice(_PUBLIC_FIRST_OCTETS))
        b, c, d = rng.integers(1, 254, size=3).tolist()
        addresses.append((first_octet << 24) | (b << 16) | (c << 8) | d)
    return np.array(addresses, dtype=np.uint32)


def _ramp_factor(elapsed: float, ramp_seconds: float) -> float:
    """Linear attack ramp-up factor in [0, 1]."""
    if ramp_seconds <= 0:
        return 1.0
    return min(1.0, max(0.0, elapsed / ramp_seconds))


@dataclass
class AmplificationAttack:
    """A reflection/amplification attack against a single victim IP."""

    victim_ip: str
    vector: AmplificationVector
    peak_rate_bps: float
    start: float
    duration: float
    #: Member ASNs (ingress ports) the reflected traffic arrives through.
    ingress_member_asns: Sequence[int]
    #: Member ASN that owns the victim (egress port).
    victim_member_asn: int
    #: Number of distinct reflector source IPs.
    reflector_count: int = 200
    #: Seconds over which the attack ramps up to its peak rate.
    ramp_seconds: float = 20.0
    seed: int | None = None
    _rng: np.random.Generator = field(init=False, repr=False)
    _reflector_ips: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.peak_rate_bps) and self.peak_rate_bps > 0):
            raise ValueError("peak_rate_bps must be positive and finite")
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValueError("duration must be positive and finite")
        if not self.ingress_member_asns:
            raise ValueError("at least one ingress member is required")
        if self.reflector_count < 1:
            raise ValueError("reflector_count must be >= 1")
        self._rng = make_rng(self.seed)
        # Reflector i enters through ingress member i mod the member count.
        self._reflector_ips = _draw_source_ips(self._rng, self.reflector_count)
        self._reflector_ingress = np.resize(
            np.array(self.ingress_member_asns, dtype=np.int64), self.reflector_count
        )
        self._victim_ip_int = ip_to_int(self.victim_ip)

    @property
    def end(self) -> float:
        return self.start + self.duration

    def is_active(self, time: float) -> bool:
        return self.start <= time < self.end

    def rate_at(self, time: float) -> float:
        """Attack rate (bits/second) at a given time."""
        if not self.is_active(time):
            return 0.0
        return self.peak_rate_bps * _ramp_factor(time - self.start, self.ramp_seconds)

    # ------------------------------------------------------------------
    def flow_table(self, interval_start: float, interval: float) -> FlowTable:
        """Columnar flow batch for one observation interval.

        The interval's attack volume is split across the reflectors with a
        heavy-tailed weighting (a few reflectors send most of the traffic,
        as observed for real amplification attacks).
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        overlap_start = max(interval_start, self.start)
        overlap_end = min(interval_start + interval, self.end)
        if overlap_end <= overlap_start:
            return FlowTable.empty()

        midpoint = (overlap_start + overlap_end) / 2
        rate = self.rate_at(midpoint)
        active_seconds = overlap_end - overlap_start
        total_bytes = rate * active_seconds / 8
        if total_bytes < 1:
            return FlowTable.empty()

        count = len(self._reflector_ips)
        weights = self._rng.pareto(1.2, size=count) + 1.0
        weights = weights / weights.sum()
        response_size = max(64, self.vector.response_bytes)

        flow_bytes = (total_bytes * weights).astype(np.int64)
        dst_ports = self._rng.integers(1024, 65535, size=count)
        keep = flow_bytes > 0
        flow_bytes = flow_bytes[keep]
        n = len(flow_bytes)
        return FlowTable(
            src_ip=self._reflector_ips[keep],
            dst_ip=np.full(n, self._victim_ip_int, dtype=np.uint32),
            protocol=np.full(n, int(self.vector.protocol), dtype=np.uint8),
            src_port=np.full(n, self.vector.source_port, dtype=np.int32),
            dst_port=dst_ports[keep],
            start=np.full(n, overlap_start),
            duration=np.full(n, active_seconds),
            bytes=flow_bytes,
            packets=np.maximum(1, flow_bytes // min(response_size, 1500)),
            ingress_asn=self._reflector_ingress[keep],
            egress_asn=np.full(n, self.victim_member_asn, dtype=np.int64),
            is_attack=np.ones(n, dtype=bool),
        )


@dataclass
class BooterAttack:
    """The controlled booter-service attack of the paper's experiments.

    §2.4 and §5.3 describe a short (~10 minute) attack peaking around
    1 Gbps, received from roughly 40 (RTBH experiment) to 60 (Stellar
    experiment) distinct peers.  The booter abuses an NTP reflection vector
    by default.
    """

    victim_ip: str
    victim_member_asn: int
    peer_member_asns: Sequence[int]
    peak_rate_bps: float = 1e9
    start: float = 100.0
    duration: float = 600.0
    vector_name: str = "ntp"
    ramp_seconds: float = 30.0
    #: Reflectors per participating peer.
    reflectors_per_peer: int = 12
    seed: int | None = None

    def __post_init__(self) -> None:
        if not self.peer_member_asns:
            raise ValueError("at least one peer member is required")
        self._attack = AmplificationAttack(
            victim_ip=self.victim_ip,
            vector=get_vector(self.vector_name),
            peak_rate_bps=self.peak_rate_bps,
            start=self.start,
            duration=self.duration,
            ingress_member_asns=list(self.peer_member_asns),
            victim_member_asn=self.victim_member_asn,
            reflector_count=len(self.peer_member_asns) * self.reflectors_per_peer,
            ramp_seconds=self.ramp_seconds,
            seed=self.seed,
        )

    @property
    def vector(self) -> AmplificationVector:
        return self._attack.vector

    def flow_table(self, interval_start: float, interval: float) -> FlowTable:
        return self._attack.flow_table(interval_start, interval)


@dataclass
class BenignTrafficSource:
    """Steady legitimate traffic towards a victim/service IP.

    Used to overlay legitimate web traffic on the attack scenarios so the
    collateral-damage analyses have something to lose.
    """

    dst_ip: str
    egress_member_asn: int
    ingress_member_asns: Sequence[int]
    rate_bps: float
    profile_name: str = "benign-web"
    client_count: int = 50
    seed: int | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate_bps) and self.rate_bps >= 0):
            raise ValueError("rate_bps must be non-negative and finite")
        if not self.ingress_member_asns:
            raise ValueError("at least one ingress member is required")
        self._rng = make_rng(self.seed)
        # Client i enters through ingress member i mod the member count.
        self._client_ips = _draw_source_ips(self._rng, self.client_count)
        self._client_ingress = np.resize(
            np.array(self.ingress_member_asns, dtype=np.int64), self.client_count
        )
        self._dst_ip_int = ip_to_int(self.dst_ip)

    def flow_table(self, interval_start: float, interval: float) -> FlowTable:
        """Columnar flow batch for one observation interval."""
        from .profiles import benign_web_profile

        if interval <= 0:
            raise ValueError("interval must be positive")
        if self.rate_bps == 0:
            return FlowTable.empty()
        profile = benign_web_profile()
        total_bytes = self.rate_bps * interval / 8
        count = len(self._client_ips)
        weights = self._rng.dirichlet(np.ones(count) * 2.0)
        flow_bytes = (total_bytes * weights).astype(np.int64)
        protocols, service_ports = profile.sample_classes(self._rng, count)
        # Legitimate clients talk *to* the service port; the flow's
        # destination port carries the service, the source port is
        # ephemeral.  (Attack traffic is the other way around.)
        src_ports = self._rng.integers(1024, 65535, size=count)
        keep = flow_bytes > 0
        flow_bytes = flow_bytes[keep]
        n = len(flow_bytes)
        return FlowTable(
            src_ip=self._client_ips[keep],
            dst_ip=np.full(n, self._dst_ip_int, dtype=np.uint32),
            protocol=protocols[keep],
            src_port=src_ports[keep],
            dst_port=service_ports[keep],
            start=np.full(n, interval_start),
            duration=np.full(n, interval),
            bytes=flow_bytes,
            packets=np.maximum(1, flow_bytes // 1200),
            ingress_asn=self._client_ingress[keep],
            egress_asn=np.full(n, self.egress_member_asn, dtype=np.int64),
            is_attack=np.zeros(n, dtype=bool),
        )
