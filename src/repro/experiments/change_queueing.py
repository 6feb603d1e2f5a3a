"""Fig. 10(b): queueing delay of configuration changes.

The blackholing manager limits the configuration-change rate towards the
hardware.  To predict how long a blackholing rule takes to take effect, the
paper replays the configuration changes generated from L-IXP's production
RTBH signal trace through the queue at dequeue rates of 4 and 5 changes per
second, and reports the waiting-time CDF: roughly 70 % of changes wait less
than a second and the 95th percentile stays below 100 seconds.

The replay is a FIFO served one change every ``1 / rate`` seconds
(:func:`replay_change_arrivals`).  A burst allowance would not change any
waiting time: a change that finds the server idle starts at its arrival
either way, and one that finds it busy waits for it to become free.

The production trace is unavailable, so the reproduction generates a
synthetic RTBH-signal arrival process with the same qualitative structure:
mostly quiet periods with Poisson arrivals, interrupted by occasional
bursts (a large attack triggering many members to signal at once, or a
router flap re-announcing many blackholes together) — it is those bursts
that produce the CDF's long tail.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..analysis.stats import cdf_quantile, empirical_cdf, fraction_below
from ..sim.rng import make_rng
from .results import JsonResultMixin


@dataclass
class ChangeQueueingConfig:
    """Parameters of the Fig. 10(b) experiment."""

    duration_seconds: float = 24 * 3600.0
    #: Long-run average arrival rate of configuration changes (per second).
    base_arrival_rate: float = 0.10
    #: Number of burst episodes over the trace.
    burst_count: int = 12
    #: Changes per burst (drawn uniformly up to this maximum).
    burst_max_changes: int = 500
    #: Duration over which one burst's changes arrive.
    burst_spread_seconds: float = 30.0
    dequeue_rates: Sequence[float] = (4.0, 5.0)
    seed: int = 31


@dataclass
class ChangeQueueingResult(JsonResultMixin):
    """Waiting-time distributions per dequeue rate."""

    config: ChangeQueueingConfig
    arrival_times: list[float]
    waiting_times: dict[float, list[float]]

    def cdf(self, rate: float):
        """``(values, probabilities)`` of the waiting-time CDF for a rate."""
        return empirical_cdf(self.waiting_times[rate])

    def fraction_below(self, rate: float, threshold_seconds: float) -> float:
        return fraction_below(self.waiting_times[rate], threshold_seconds)

    def percentile(self, rate: float, quantile: float) -> float:
        return cdf_quantile(self.waiting_times[rate], quantile)

    def summary(self) -> dict[str, float]:
        summary: dict[str, float] = {"total_changes": float(len(self.arrival_times))}
        for rate in self.config.dequeue_rates:
            summary[f"rate_{rate:g}_fraction_below_1s"] = self.fraction_below(rate, 1.0)
            summary[f"rate_{rate:g}_p95_seconds"] = self.percentile(rate, 0.95)
            summary[f"rate_{rate:g}_max_seconds"] = max(self.waiting_times[rate])
        return summary


def generate_change_arrivals(config: ChangeQueueingConfig) -> list[float]:
    """Generate the synthetic RTBH configuration-change arrival trace."""
    rng = make_rng(config.seed)
    expected_base = config.base_arrival_rate * config.duration_seconds
    base_count = int(rng.poisson(expected_base))
    arrivals = list(rng.uniform(0.0, config.duration_seconds, size=base_count))

    burst_starts = rng.uniform(0.0, config.duration_seconds * 0.95, size=config.burst_count)
    for start in burst_starts:
        burst_size = int(rng.integers(config.burst_max_changes // 4, config.burst_max_changes))
        offsets = rng.uniform(0.0, config.burst_spread_seconds, size=burst_size)
        arrivals.extend(float(start + offset) for offset in offsets)
    arrivals.sort()
    return arrivals


def replay_change_arrivals(
    arrival_times: Sequence[float], dequeue_rate: float
) -> list[float]:
    """Per-change waiting times of a FIFO that applies ``dequeue_rate`` changes/s.

    Arrivals are served in time order; each starts when it arrives or when
    the previous change is done, whichever is later.  Returns the waiting
    times in arrival order.
    """
    if not (math.isfinite(dequeue_rate) and dequeue_rate > 0):
        raise ValueError("dequeue_rate must be positive and finite")
    service_interval = 1.0 / dequeue_rate
    waiting: list[float] = []
    next_free = 0.0
    for arrival in sorted(arrival_times):
        start = max(arrival, next_free)
        next_free = start + service_interval
        waiting.append(start - arrival)
    return waiting


def run_change_queueing_experiment(
    config: ChangeQueueingConfig | None = None,
    arrival_times: Sequence[float] | None = None,
) -> ChangeQueueingResult:
    """Replay the change arrivals through the queue at each dequeue rate."""
    config = config if config is not None else ChangeQueueingConfig()
    arrivals = (
        list(arrival_times) if arrival_times is not None else generate_change_arrivals(config)
    )
    waiting: dict[float, list[float]] = {}
    for rate in config.dequeue_rates:
        waiting[rate] = replay_change_arrivals(arrivals, dequeue_rate=rate)
    return ChangeQueueingResult(
        config=config, arrival_times=arrivals, waiting_times=waiting
    )
