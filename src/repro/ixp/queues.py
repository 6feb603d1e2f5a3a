"""Queueing primitives used by the filtering layer.

Two kinds of "queues" appear in the reproduction:

* :class:`TokenBucket` — the classic token-bucket rate limiter.  Stellar's
  blackholing manager uses one to limit the rate of configuration changes
  pushed to the hardware (paper §4.4, Fig. 10(b)); the QoS shaping queues
  use one per shaping rule.
* :class:`RateLimiter` — a flow-level abstraction over the token bucket:
  given the aggregate volume offered during an observation interval it
  reports how much passes and how much is dropped, which is what the
  flow-level data plane needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class TokenBucket:
    """A token bucket with a long-term ``rate`` and a ``burst`` capacity.

    ``rate`` and ``burst`` are expressed in abstract "tokens"; callers
    decide whether a token is a byte, a packet or a configuration change.
    """

    rate: float
    burst: float
    _tokens: float = field(init=False)
    _last_update: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError("rate must be non-negative")
        if self.burst <= 0:
            raise ValueError("burst must be positive")
        self._tokens = self.burst

    @property
    def tokens(self) -> float:
        """Tokens currently available (as of the last update)."""
        return self._tokens

    def _refill(self, now: float) -> None:
        if now < self._last_update:
            raise ValueError(
                f"time moved backwards: {now} < {self._last_update}"
            )
        elapsed = now - self._last_update
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._last_update = now

    def try_consume(self, amount: float, now: float) -> bool:
        """Consume ``amount`` tokens at time ``now`` if available."""
        if amount < 0:
            raise ValueError("amount must be non-negative")
        self._refill(now)
        if self._tokens >= amount:
            self._tokens -= amount
            return True
        return False

    def time_until_available(self, amount: float, now: float) -> float:
        """Seconds from ``now`` until ``amount`` tokens will be available."""
        if amount > self.burst:
            raise ValueError(
                f"requested amount {amount} exceeds burst capacity {self.burst}"
            )
        self._refill(now)
        deficit = amount - self._tokens
        if deficit <= 0:
            return 0.0
        if self.rate == 0:
            return float("inf")
        return deficit / self.rate


@dataclass
class RateLimiter:
    """Flow-level shaping: cap an offered volume at a configured rate.

    Unlike the token bucket this works on whole observation intervals: the
    shaper passes at most ``rate_bps × interval`` bits per interval and
    reports the rest as dropped.  A small burst allowance carries over
    between intervals to avoid artificial cliff effects at interval
    boundaries.
    """

    rate_bps: float
    burst_bits: float = 0.0
    _credit_bits: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate_bps) and self.rate_bps >= 0):
            raise ValueError("rate_bps must be non-negative and finite")
        if self.burst_bits < 0:
            raise ValueError("burst_bits must be non-negative")
        self._credit_bits = self.burst_bits

    def shape(self, offered_bits: float, interval: float) -> tuple[float, float]:
        """Return ``(passed_bits, dropped_bits)`` for one interval."""
        if offered_bits < 0:
            raise ValueError("offered_bits must be non-negative")
        if interval <= 0:
            raise ValueError("interval must be positive")
        allowance = self.rate_bps * interval + self._credit_bits
        passed = min(offered_bits, allowance)
        dropped = offered_bits - passed
        # Unused allowance (bounded by the burst) carries over.
        self._credit_bits = min(self.burst_bits, allowance - passed)
        return passed, dropped

    def reset(self) -> None:
        self._credit_bits = self.burst_bits
