"""Synchronous references for the ``rule_churn`` scenario.

:func:`run_scripted_rule_churn` drives the service's synchronous core
(``enqueue`` + ``drain_to``) over the same churn stream and traffic that
``run_rule_churn_experiment`` feeds the asyncio service, with no event
loop: the two results must be equal with ``==``.

:func:`replay_rule_churn` rebuilds the fabric and re-applies a run's
applied-change log one rule at a time through direct router calls, before
each interval's delivery: its report digest must equal the live run's.
"""

from oracle.service import replay_request_log
from repro.experiments.rule_churn import (
    _build_platform,
    _finish,
    _IntervalAccounting,
    _make_service,
    _request_from_descriptor,
    _traffic_sources,
    churn_member_asns,
    generate_churn_requests,
)


def _interval_starts(config):
    step_count = int(config.duration / config.interval + 1e-9)
    return [index * config.interval for index in range(step_count)]


def run_scripted_rule_churn(config):
    """The ``rule_churn`` run with the service core driven synchronously."""
    fabric, victim, members = _build_platform(config)
    churn_asns = churn_member_asns(config, members.asns)
    stream = generate_churn_requests(config, churn_asns)
    attack, benign, background = _traffic_sources(config, victim, members)
    accounting = _IntervalAccounting(config, fabric, victim)
    service = _make_service(config, fabric)
    responses = []
    for index, interval_start in enumerate(_interval_starts(config)):
        for descriptor in stream[index]:
            immediate = service.enqueue(_request_from_descriptor(service, descriptor))
            if immediate is not None:
                responses.append(immediate)
        responses.extend(response for _, response in service.drain_to(interval_start))
        accounting.deliver(interval_start, attack, benign, background)
    responses.extend(response for _, response in service.drain_to(config.duration))
    responses.extend(response for _, response in service.close())
    return _finish(config, fabric, service, accounting, responses, members, churn_asns)


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
