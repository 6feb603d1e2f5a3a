"""Every entry point that steps through time rejects a bad interval or duration.

An interval must be positive and finite and a duration non-negative and
finite (:func:`repro.sim.clock.check_interval` / ``check_duration``).  The
check runs before anything is built, so a rejected ``city_scale`` run leaves
no shared-memory block behind.
"""

import math
import os

import pytest

from repro.experiments.city_scale import run_city_scale_experiment
from repro.experiments.harness import SteppedExperiment
from repro.experiments.registry import get_experiment
from repro.experiments.rule_churn import run_rule_churn_experiment
from repro.traffic.generator import IxpTraceGenerator, MemberAttackScenarioGenerator

NAN = math.nan
INF = math.inf

BAD_TIMINGS = [
    pytest.param({"interval": NAN}, "interval", id="interval-nan"),
    pytest.param({"interval": INF}, "interval", id="interval-inf"),
    pytest.param({"interval": -5.0}, "interval", id="interval-negative"),
    pytest.param({"interval": 0.0}, "interval", id="interval-zero"),
    pytest.param({"duration": NAN}, "duration", id="duration-nan"),
    pytest.param({"duration": INF}, "duration", id="duration-inf"),
    pytest.param({"duration": -10.0}, "duration", id="duration-negative"),
]


def _harness(interval=10.0, duration=60.0):
    return SteppedExperiment(duration=duration, interval=interval)


def _ixp_trace(interval=10.0, duration=60.0):
    return IxpTraceGenerator(member_asns=[64500, 64501], duration=duration, interval=interval)


def _member_attack(interval=10.0, duration=60.0):
    return MemberAttackScenarioGenerator(
        victim_ip="192.0.2.1",
        victim_member_asn=64500,
        peer_member_asns=[64501],
        duration=duration,
        interval=interval,
    )


def _rule_churn(**timing):
    return run_rule_churn_experiment(get_experiment("rule_churn").make_config(quick=True, **timing))


def _city_scale(**timing):
    return run_city_scale_experiment(get_experiment("city_scale").make_config(quick=True, **timing))


ENTRY_POINTS = [
    pytest.param(_harness, id="harness"),
    pytest.param(_ixp_trace, id="ixp-trace-generator"),
    pytest.param(_member_attack, id="member-attack-generator"),
    pytest.param(_rule_churn, id="rule-churn"),
    pytest.param(_city_scale, id="city-scale"),
]


def _shm_entries():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("timing,field", BAD_TIMINGS)
def test_bad_timing_is_rejected_before_anything_is_built(entry, timing, field):
    before = _shm_entries()
    with pytest.raises(ValueError, match=field):
        entry(**timing)
    assert _shm_entries() - before == set()


def test_harness_keeps_zero_duration_legal():
    harness = SteppedExperiment(duration=0.0, interval=10.0)
    assert harness.duration == 0.0
