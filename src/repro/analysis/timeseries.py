"""Time-series helpers for the attack experiments.

The attack figures (Fig. 3(c) and Fig. 10(c)) plot two series against time:
the traffic volume reaching the victim (Mbps) and the number of distinct
peers the traffic arrives from.  :class:`AttackTimeSeries` accumulates
per-interval observations and exposes the series plus the summary numbers
the experiment assertions use (peak rate, residual rate after mitigation,
peer reduction).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class AttackTimeSeries:
    """Per-interval observations of an attack experiment."""

    times: list[float] = field(default_factory=list)
    delivered_mbps: list[float] = field(default_factory=list)
    attack_delivered_mbps: list[float] = field(default_factory=list)
    peer_counts: list[int] = field(default_factory=list)
    #: Optional additional labelled series (e.g. "shaped", "dropped").
    extra: dict[str, list[float]] = field(default_factory=dict)

    def record(
        self,
        time: float,
        delivered_mbps: float,
        peer_count: int,
        attack_delivered_mbps: float = 0.0,
        **extra: float,
    ) -> None:
        """Append one interval's observation."""
        if self.times and time <= self.times[-1]:
            raise ValueError("observations must be recorded in increasing time order")
        self.times.append(float(time))
        self.delivered_mbps.append(float(delivered_mbps))
        self.attack_delivered_mbps.append(float(attack_delivered_mbps))
        self.peer_counts.append(int(peer_count))
        # Keep every extra series aligned with the time axis: new keys are
        # back-filled with zeros, and keys not provided this interval get 0.
        for key, value in extra.items():
            series = self.extra.setdefault(key, [0.0] * (len(self.times) - 1))
            series.append(float(value))
        for key, series in self.extra.items():
            if len(series) < len(self.times):
                series.append(0.0)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.times)

    def value_at(self, time: float, series: Optional[Sequence[float]] = None) -> float:
        """The most recent observation at or before ``time``."""
        if not self.times:
            raise ValueError("the time series is empty")
        values = list(series) if series is not None else self.delivered_mbps
        index = bisect_right(self.times, time) - 1
        if index < 0:
            return values[0]
        return values[index]

    def window(self, start: float, end: float) -> "AttackTimeSeries":
        """Observations with ``start <= time < end``."""
        selected = AttackTimeSeries()
        for i, time in enumerate(self.times):
            if start <= time < end:
                extra = {key: values[i] for key, values in self.extra.items()}
                selected.record(
                    time,
                    self.delivered_mbps[i],
                    self.peer_counts[i],
                    self.attack_delivered_mbps[i],
                    **extra,
                )
        return selected

    def peak_mbps(self) -> float:
        return max(self.delivered_mbps, default=0.0)

    def mean_mbps(self, start: float, end: float) -> float:
        window = self.window(start, end)
        if not window.times:
            return 0.0
        return sum(window.delivered_mbps) / len(window.delivered_mbps)

    def mean_peers(self, start: float, end: float) -> float:
        window = self.window(start, end)
        if not window.times:
            return 0.0
        return sum(window.peer_counts) / len(window.peer_counts)


def record_delivery(
    series: AttackTimeSeries,
    *,
    time: float,
    interval: float,
    delivered_bits: float,
    attack_bits: float = 0.0,
    peer_count: int = 0,
    **extra_bits: float,
) -> None:
    """Record one interval's delivery from raw bit counts.

    The attack drivers all observe the same quantities per interval — bits
    delivered to the victim, the attack subset, the distinct-peer count and
    technique-specific extras (bits discarded by RTBH, bits filtered by
    Stellar) — and convert each to Mbps before recording.  This helper is
    that shared conversion: every keyword in ``extra_bits`` must end in
    ``_bits`` and is recorded as the corresponding ``_mbps`` series.
    """
    if interval <= 0:
        raise ValueError(f"interval must be positive, got {interval}")
    scale = 1.0 / interval / 1e6
    extra_mbps: dict[str, float] = {}
    for key, bits in extra_bits.items():
        if not key.endswith("_bits"):
            raise ValueError(
                f"extra series {key!r} must be named '<label>_bits' (got raw bits)"
            )
        extra_mbps[key[: -len("_bits")] + "_mbps"] = bits * scale
    series.record(
        time=time,
        delivered_mbps=delivered_bits * scale,
        peer_count=peer_count,
        attack_delivered_mbps=attack_bits * scale,
        **extra_mbps,
    )
