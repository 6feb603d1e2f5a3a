"""Attack-scenario variants beyond the paper's controlled booter experiment.

The seed shipped two attack classes — a single-victim amplification attack
and the controlled booter experiment (:mod:`repro.traffic.attacks`).  Real
DDoS campaigns exercise mitigation systems along axes those two don't:

* :class:`PulseAttack` — a **pulse-wave** attack that alternates short
  full-rate bursts with silent gaps.  Pulsing defeats slow-reacting
  mitigation (scrubbing redirection, manual RTBH) because each burst ends
  before the defence converges, and stresses detection thresholds that
  average over long windows.
* :class:`CarpetBombingAttack` — **carpet bombing** spreads the attack
  over every address of a victim prefix instead of a single host.  A /32
  blackhole (98 % of the RTBH announcements the paper measures) covers a
  single address, so carpet bombing renders host-granular RTBH almost
  useless while prefix-wide fine-grained rules still work.
* :class:`MultiVectorAttack` — a **multi-vector** composite launches
  several amplification vectors (NTP + memcached + chargen, …) at once.
  Single-signature filters (one Flowspec rule, one ACL entry) remove only
  their own vector; the victim must signal one rule per vector, which
  exercises rule budgets and the signalling path.

All three compose the vectorized :class:`~repro.traffic.attacks.AmplificationAttack`
batch generator, so they emit :class:`~repro.traffic.flowtable.FlowTable`
columns directly and are deterministic per seed.  Each offers the same
interface as the existing sources: ``flow_table(interval_start, interval)``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..bgp.prefix import Prefix, parse_prefix
from ..sim.rng import derive_seed, make_rng
from .amplification import get_vector
from .attacks import AmplificationAttack
from .flowtable import FlowTable


@dataclass
class PulseAttack:
    """An on/off pulse-wave attack against a single victim IP.

    The attack alternates bursts of ``duty_cycle * period_seconds`` seconds
    at ``peak_rate_bps`` with silence for the rest of each period, starting
    at ``start`` and ending after ``duration`` seconds.  Within a burst the
    traffic looks exactly like the wrapped amplification attack.
    """

    victim_ip: str
    victim_member_asn: int
    ingress_member_asns: Sequence[int]
    peak_rate_bps: float
    start: float = 100.0
    duration: float = 600.0
    #: Length of one on+off cycle.
    period_seconds: float = 60.0
    #: Fraction of each period the attack is firing (0 < duty_cycle <= 1).
    duty_cycle: float = 0.5
    vector_name: str = "ntp"
    reflector_count: int = 200
    seed: int | None = None
    _attack: AmplificationAttack = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.period_seconds <= 0:
            raise ValueError("period_seconds must be positive")
        if not 0 < self.duty_cycle <= 1:
            raise ValueError("duty_cycle must lie in (0, 1]")
        # The inner attack runs flat-out (no ramp); the pulse envelope is
        # applied by scaling each interval's batch by its on-air fraction.
        self._attack = AmplificationAttack(
            victim_ip=self.victim_ip,
            vector=get_vector(self.vector_name),
            peak_rate_bps=self.peak_rate_bps,
            start=self.start,
            duration=self.duration,
            ingress_member_asns=list(self.ingress_member_asns),
            victim_member_asn=self.victim_member_asn,
            reflector_count=self.reflector_count,
            ramp_seconds=0.0,
            seed=self.seed,
        )

    @property
    def end(self) -> float:
        return self.start + self.duration

    def on_seconds(self, window_start: float, window_end: float) -> float:
        """Burst seconds inside ``[window_start, window_end)``."""
        a = max(window_start, self.start)
        b = min(window_end, self.end)
        if b <= a:
            return 0.0
        burst = self.duty_cycle * self.period_seconds
        first = math.floor((a - self.start) / self.period_seconds)
        last = math.floor((b - self.start) / self.period_seconds)
        total = 0.0
        for k in range(first, last + 1):
            period_start = self.start + k * self.period_seconds
            lo = max(a, period_start)
            hi = min(b, period_start + burst)
            if hi > lo:
                total += hi - lo
        return total

    def flow_table(self, interval_start: float, interval: float) -> FlowTable:
        """Columnar flow batch for one observation interval."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        active_start = max(interval_start, self.start)
        active_end = min(interval_start + interval, self.end)
        active_seconds = active_end - active_start
        if active_seconds <= 0:
            return FlowTable.empty()
        on = self.on_seconds(interval_start, interval_start + interval)
        table = self._attack.flow_table(interval_start, interval)
        if on <= 0:
            # A fully silent window: consume the inner draws (keeps the
            # stream aligned across windows), emit nothing.
            return FlowTable.empty()
        envelope = on / active_seconds
        if envelope >= 1.0:
            return table
        scaled = table.scaled(envelope)
        return scaled.select(scaled.bytes > 0)


@dataclass
class CarpetBombingAttack:
    """An amplification attack spread across every host of a victim prefix.

    Instead of one destination IP, each reflector's traffic in each
    interval targets a (re-drawn) address inside ``victim_prefix`` — the
    carpet-bombing pattern that makes host-route (/32) blackholing
    ineffective: any single host blackhole covers only a sliver of the
    attack.
    """

    victim_prefix: "str | Prefix"
    victim_member_asn: int
    ingress_member_asns: Sequence[int]
    peak_rate_bps: float
    start: float = 100.0
    duration: float = 600.0
    vector_name: str = "ntp"
    reflector_count: int = 200
    ramp_seconds: float = 0.0
    seed: int | None = None
    _attack: AmplificationAttack = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.victim_prefix = parse_prefix(self.victim_prefix)
        if self.victim_prefix.version != 4:
            raise ValueError("carpet bombing models IPv4 prefixes only")
        low, high = self.victim_prefix.int_bounds
        self._dst_low = low
        self._dst_size = high - low + 1
        self._dst_rng = make_rng(
            derive_seed(self.seed if self.seed is not None else 0, 0xCA49E7)
        )
        self._attack = AmplificationAttack(
            victim_ip=self.victim_prefix.address,
            vector=get_vector(self.vector_name),
            peak_rate_bps=self.peak_rate_bps,
            start=self.start,
            duration=self.duration,
            ingress_member_asns=list(self.ingress_member_asns),
            victim_member_asn=self.victim_member_asn,
            reflector_count=self.reflector_count,
            ramp_seconds=self.ramp_seconds,
            seed=self.seed,
        )

    def flow_table(self, interval_start: float, interval: float) -> FlowTable:
        """Columnar flow batch with destinations spread over the prefix."""
        table = self._attack.flow_table(interval_start, interval)
        if not len(table):
            return table
        offsets = self._dst_rng.integers(0, self._dst_size, size=len(table))
        table.dst_ip = (np.uint32(self._dst_low) + offsets).astype(np.uint32)
        return table


@dataclass
class MultiVectorAttack:
    """Several amplification vectors fired at one victim simultaneously.

    ``vectors`` names the abused services (``"ntp,memcached,chargen"`` or a
    sequence); the peak rate is split across them by ``vector_shares``
    (equal by default).  Each vector is an independent
    :class:`AmplificationAttack` with its own derived seed, so adding a
    vector never perturbs the others' traffic.
    """

    victim_ip: str
    victim_member_asn: int
    ingress_member_asns: Sequence[int]
    peak_rate_bps: float
    start: float = 100.0
    duration: float = 600.0
    #: Vector names, as a sequence or a ","/"+"-separated string.
    vectors: "Sequence[str] | str" = ("ntp", "memcached", "chargen")
    #: Relative traffic share per vector (normalised; equal when empty).
    vector_shares: Sequence[float] = ()
    reflector_count: int = 200
    ramp_seconds: float = 20.0
    seed: int | None = None
    _attacks: list[AmplificationAttack] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if isinstance(self.vectors, str):
            # Accept "+" as well as "," so a vector list can be a single
            # sweep-grid value (grids split on commas): "ntp+memcached".
            self.vectors = tuple(
                name.strip()
                for name in self.vectors.replace("+", ",").split(",")
                if name.strip()
            )
        else:
            self.vectors = tuple(self.vectors)
        if not self.vectors:
            raise ValueError("at least one vector is required")
        shares = tuple(self.vector_shares) or tuple([1.0] * len(self.vectors))
        if len(shares) != len(self.vectors):
            raise ValueError("vector_shares must match vectors in length")
        if any(share <= 0 for share in shares):
            raise ValueError("vector_shares must be positive")
        total = sum(shares)
        base_seed = self.seed if self.seed is not None else 0
        per_vector_reflectors = max(1, self.reflector_count // len(self.vectors))
        self._attacks = [
            AmplificationAttack(
                victim_ip=self.victim_ip,
                vector=get_vector(name),
                peak_rate_bps=self.peak_rate_bps * share / total,
                start=self.start,
                duration=self.duration,
                ingress_member_asns=list(self.ingress_member_asns),
                victim_member_asn=self.victim_member_asn,
                reflector_count=per_vector_reflectors,
                ramp_seconds=self.ramp_seconds,
                seed=derive_seed(base_seed, index),
            )
            for index, (name, share) in enumerate(zip(self.vectors, shares))
        ]

    def vector_source_ports(self) -> tuple[int, ...]:
        """The abused source port of each vector (signature per vector)."""
        return tuple(attack.vector.source_port for attack in self._attacks)

    def flow_table(self, interval_start: float, interval: float) -> FlowTable:
        """Columnar flow batch: the concatenated per-vector batches."""
        return FlowTable.concat(
            [attack.flow_table(interval_start, interval) for attack in self._attacks]
        )
