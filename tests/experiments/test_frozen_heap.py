"""The runners freeze the heap after set-up and always release the freeze.

A freeze left behind would keep every later cycle in the process out of
the collector's reach, so each way out of a run is checked: a normal
return, a step that raises, a serial shard stream closed early, a shard
worker's chunk, and a run inside a heap the caller had already frozen.
"""

import gc

import pytest

from repro.experiments import SteppedExperiment, get_experiment
from repro.experiments.heap import frozen_heap
from repro.experiments.parallel import (
    _next_run_token,
    _run_shard_chunk,
    iter_shard_intervals,
)


class _FreezeProbe:
    """A shard runtime that reports whether the heap is frozen."""

    def run_interval(self, interval_start, interval):
        return {"frozen": gc.get_freeze_count() > 0}


def _runtime():
    return _FreezeProbe()


@pytest.fixture(autouse=True)
def heap_starts_unfrozen():
    assert gc.get_freeze_count() == 0
    yield
    gc.unfreeze()


@pytest.mark.parametrize(
    "name,overrides",
    [
        ("fine_grained", {}),
        ("rule_churn", {}),
        ("city_scale", {"execution": "serial"}),
    ],
)
def test_quick_run_releases_the_freeze(name, overrides):
    get_experiment(name).run(quick=True, **overrides)
    assert gc.get_freeze_count() == 0


def test_stepped_run_freezes_during_steps_only():
    seen = []
    SteppedExperiment(duration=2.0, interval=1.0).run(
        lambda t, interval: seen.append(gc.get_freeze_count() > 0)
    )
    assert seen == [True, True]
    assert gc.get_freeze_count() == 0


def test_stepped_run_releases_the_freeze_when_a_step_raises():
    def step(t, interval):
        raise RuntimeError("step failed")

    with pytest.raises(RuntimeError, match="step failed"):
        SteppedExperiment(duration=2.0, interval=1.0).run(step)
    assert gc.get_freeze_count() == 0


def test_serial_shard_stream_closed_early_releases_the_freeze():
    stream = iter_shard_intervals(
        _runtime, [{}, {}], [0.0, 1.0, 2.0], 1.0, execution="serial"
    )
    interval_start, payloads = next(stream)
    assert interval_start == 0.0
    assert [payload["frozen"] for payload in payloads] == [True, True]
    stream.close()
    assert gc.get_freeze_count() == 0


def test_worker_chunk_runs_frozen_and_releases_the_freeze():
    payloads = _run_shard_chunk(_runtime, {}, _next_run_token(), 0, (0.0, 1.0), 1.0)
    assert [payload["frozen"] for payload in payloads] == [True, True]
    assert gc.get_freeze_count() == 0


def test_run_inside_a_frozen_heap_keeps_the_callers_freeze():
    gc.freeze()
    frozen = gc.get_freeze_count()
    SteppedExperiment(duration=1.0, interval=1.0).run(lambda t, interval: None)
    with frozen_heap():
        pass
    assert gc.get_freeze_count() >= frozen > 0


def test_nested_frozen_heap_releases_once_at_the_outer_exit():
    with frozen_heap():
        with frozen_heap():
            pass
        assert gc.get_freeze_count() > 0
    assert gc.get_freeze_count() == 0
