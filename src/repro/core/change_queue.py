"""The token-bucket configuration-change queue.

The blackholing controller forwards abstract configuration changes to the
network manager through a software queue governed by a token bucket (paper
§4.4): the Maximum Burst Size (MBS) and a long-term change rate bound how
fast the edge routers' control planes are asked to apply changes — the
measured sustainable median is 4.33 rule updates per second (Fig. 10(a)).

:class:`ChangeQueue` reproduces this component: changes are enqueued with a
timestamp and drained no faster than the token bucket allows; every change
drained at ``now`` is deployed at ``now``.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from ..ixp.control_plane import PAPER_MEDIAN_UPDATE_RATE
from ..ixp.queues import TokenBucket
from .rules import BlackholingRule

_change_ids = itertools.count(1)


class ChangeType(Enum):
    """Abstract configuration change types produced by the RIB diff."""

    ADD_RULE = "add_rule"
    REMOVE_RULE = "remove_rule"
    UPDATE_RULE = "update_rule"


@dataclass(frozen=True)
class ConfigChange:
    """One abstract (hardware-independent) configuration change."""

    change_type: ChangeType
    rule: BlackholingRule
    #: The member whose egress port the change applies to.
    target_member_asn: int
    enqueue_time: float = 0.0
    change_id: int = field(default_factory=lambda: next(_change_ids))


class ChangeQueue:
    """FIFO change queue drained at a token-bucket limited rate."""

    def __init__(
        self,
        rate_per_second: float = PAPER_MEDIAN_UPDATE_RATE,
        max_burst_size: int = 10,
    ) -> None:
        if not (math.isfinite(rate_per_second) and rate_per_second > 0):
            raise ValueError("rate_per_second must be positive and finite")
        if max_burst_size < 1:
            raise ValueError("max_burst_size must be >= 1")
        self._bucket = TokenBucket(rate=rate_per_second, burst=float(max_burst_size))
        self._queue: deque[ConfigChange] = deque()

    def enqueue(self, change: ConfigChange) -> None:
        self._queue.append(change)

    def __len__(self) -> int:
        return len(self._queue)

    def drain(self, now: float) -> list[ConfigChange]:
        """Dequeue, in FIFO order, as many changes as the bucket allows at ``now``."""
        drained: list[ConfigChange] = []
        while self._queue and self._bucket.try_consume(1.0, now):
            drained.append(self._queue.popleft())
        return drained
