"""Replay reference for the ``rule_churn`` scenario.

:func:`replay_rule_churn` rebuilds the fabric and re-applies a run's
applied-change log one rule at a time through direct router calls, before
each interval's delivery: its report digest must equal the live run's.
"""

from oracle.service import replay_request_log
from repro.experiments.rule_churn import (
    _build_platform,
    _IntervalAccounting,
    _traffic_sources,
)


def _interval_starts(config):
    step_count = int(config.duration / config.interval + 1e-9)
    return [index * config.interval for index in range(step_count)]


def replay_rule_churn(config, request_log):
    """Replay a run's applied-change log and return the report digest.

    Each entry is applied before the first interval whose start reaches
    the drain horizon it was originally applied under.
    """
    fabric, victim, members = _build_platform(config)
    attack, benign, background = _traffic_sources(config, victim, members)
    accounting = _IntervalAccounting(config, fabric, victim)
    entries = sorted(request_log, key=lambda e: (e.applied_at, e.member_asn))
    cursor = 0
    for interval_start in _interval_starts(config):
        while cursor < len(entries) and entries[cursor].horizon <= interval_start + 1e-9:
            replay_request_log(fabric, [entries[cursor]], sequential=True)
            cursor += 1
        accounting.deliver(interval_start, attack, benign, background)
    return accounting.digest.hexdigest()
