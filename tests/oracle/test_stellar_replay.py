"""Stellar's management layer against its request-log replay.

Every scenario that drives Stellar runs its rule changes through one
``ControlPlaneService``.  Replaying that service's request log one rule
at a time onto a blank copy of the fabric must leave exactly the live
run's rule state: the service's pacing and coalescing decide *when* a
change lands, never *what* the routers end up holding.
"""

import pytest

from oracle.stellar import record_stellar_services, replay_onto_blank, rule_state
from repro.experiments.registry import get_experiment

SEEDS = (3, 11)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["fig10c", "multivector", "functionality"])
def test_replay_leaves_the_live_rule_state(monkeypatch, name, seed):
    with record_stellar_services(monkeypatch) as blanks:
        get_experiment(name).run(quick=True, seed=seed)
    assert blanks, f"{name} enqueued no rule change"
    for service, blank in blanks.items():
        assert service.request_log, "the run applied no change"
        assert installed_rules(blank) == 0
        assert replay_onto_blank(service, blank) == len(service.request_log)
        live = rule_state(service.fabric)
        assert installed_rules(service.fabric) > 0
        assert rule_state(blank) == live


def installed_rules(fabric):
    return sum(len(router.installed_rules()) for router in fabric.edge_routers())


@pytest.mark.parametrize("seed", SEEDS)
def test_functionality_changes_apply_with_zero_latency(monkeypatch, seed):
    # Each phase signals its rules at the install time, within the
    # router's burst, so every change lands the moment it is signalled.
    with record_stellar_services(monkeypatch) as blanks:
        config = get_experiment("functionality").make_config(quick=True, seed=seed)
        get_experiment("functionality").run(config=config)
    rules_per_phase = 2 * config.target_ip_count
    assert [len(service.latencies) for service in blanks] == [rules_per_phase] * 2
    for service in blanks:
        assert service.latencies == [0.0] * rules_per_phase
        assert service.stats.applied_requests == rules_per_phase
