"""End-to-end parity and behaviour of the city-scale sharded pipeline.

The headline guarantee: ``execution="sharded"`` (worker processes +
shared-memory tables) and ``execution="serial"`` (same shard runtimes,
in-process) produce identical results — same per-interval report digest,
same series, same platform accounting.  Everything except the execution
knobs themselves must match bit-for-bit.
"""

import dataclasses

import pytest

from repro.experiments.city_scale import (
    CityScaleConfig,
    _city_population,
    plan_city_shards,
    run_city_scale_experiment,
)
from repro.experiments.parallel import iter_shard_intervals
from repro.experiments.registry import get_experiment


def quick_config(**overrides):
    return get_experiment("city_scale").make_config(quick=True, **overrides)


class TestPlan:
    def test_quick_plan_covers_all_members(self):
        config = quick_config()
        plan = plan_city_shards(config, _city_population(config))
        assert len(plan) == config.pop_count
        assert sum(len(spec) for spec in plan) == config.member_count
        # The victim (pop-1) is always in the first shard's PoP set.
        assert "pop-1" in plan[0].pops

    def test_plan_respects_shard_count(self):
        config = quick_config(shard_count=3)
        plan = plan_city_shards(config, _city_population(config))
        assert len(plan) == 3


class TestValidation:
    def test_unknown_execution_mode(self):
        with pytest.raises(ValueError, match="execution"):
            run_city_scale_experiment(quick_config(execution="threads"))

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            run_city_scale_experiment(quick_config(workers=0))

    def test_member_count_must_cover_peers(self):
        with pytest.raises(ValueError, match="member_count"):
            run_city_scale_experiment(quick_config(member_count=10))

    def test_pipeline_rejects_bad_chunking(self):
        with pytest.raises(ValueError, match="chunk_intervals"):
            list(iter_shard_intervals(dict, [{}], [0.0], 1.0, chunk_intervals=0))


class TestSerialRun:
    @pytest.fixture(scope="class")
    def result(self):
        return run_city_scale_experiment(quick_config(execution="serial"))

    def test_runs_all_intervals(self, result):
        config = result.config
        assert result.intervals == int(config.duration / config.interval)
        assert len(result.series.times) == result.intervals
        assert result.shard_count == config.pop_count

    def test_mitigation_reduces_attack_delivery(self, result):
        assert result.peak_attack_mbps > 0
        assert result.residual_mbps < 0.2 * result.peak_attack_mbps

    def test_platform_accounting_is_populated(self, result):
        assert result.platform_peak_bps > 0
        assert result.connected_capacity_bps > result.platform_peak_bps
        assert result.top_service_ports
        assert result.report_digest
        summary = result.summary()
        assert summary["member_count"] == result.config.member_count

    def test_serial_is_deterministic(self, result):
        again = run_city_scale_experiment(quick_config(execution="serial"))
        assert again.report_digest == result.report_digest
        assert again.to_dict() == result.to_dict()


def comparable(result):
    """to_dict() with the execution-only knobs removed from the config."""
    payload = result.to_dict()
    config = dict(payload["config"])
    for knob in ("execution", "workers", "chunk_intervals"):
        config.pop(knob)
    payload["config"] = config
    return payload


class TestShardedParity:
    def test_sharded_matches_serial_bit_for_bit(self):
        serial = run_city_scale_experiment(quick_config(execution="serial"))
        sharded = run_city_scale_experiment(
            quick_config(execution="sharded", workers=2, chunk_intervals=2)
        )
        assert sharded.report_digest == serial.report_digest
        assert comparable(sharded) == comparable(serial)

    def test_config_dataclass_roundtrip(self):
        config = quick_config(execution="serial")
        assert dataclasses.asdict(CityScaleConfig(**dataclasses.asdict(config))) == (
            dataclasses.asdict(config)
        )
