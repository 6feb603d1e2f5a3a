"""End-to-end behaviour and parity of the ``rule_churn`` scenario.

The headline guarantee: the applied request log replayed through
:func:`oracle.churn.replay_rule_churn` (direct router calls, one rule at
a time) must reproduce the live run's report digest, and switching
coalescing off changes the amortization, never a delivery verdict.
"""

import dataclasses

import pytest

from oracle.churn import replay_rule_churn
from repro.experiments.registry import get_experiment
from repro.experiments.rule_churn import (
    MITIGATION_RULE_ID,
    RuleChurnConfig,
    churn_member_asns,
    generate_churn_requests,
    run_rule_churn_experiment,
)


def quick_config(**overrides):
    return get_experiment("rule_churn").make_config(quick=True, **overrides)


class TestValidation:
    def test_member_count_must_cover_attack_peers(self):
        with pytest.raises(ValueError, match="member_count"):
            run_rule_churn_experiment(quick_config(member_count=5))

    def test_burst_bounds_are_validated(self):
        config = quick_config(burst_min=9, burst_max=4)
        with pytest.raises(ValueError, match="burst"):
            generate_churn_requests(config, [65001])


class TestChurnStream:
    def test_stream_is_a_pure_function_of_config(self):
        config = quick_config()
        asns = [65001, 65002, 65003]
        assert generate_churn_requests(config, asns) == generate_churn_requests(
            config, asns
        )
        assert generate_churn_requests(config, asns) != generate_churn_requests(
            quick_config(seed=99), asns
        )

    def test_one_bucket_per_interval_with_local_arrivals(self):
        config = quick_config()
        stream = generate_churn_requests(config, [65001, 65002])
        assert len(stream) == int(config.duration / config.interval)
        # Burst installs trail their event by millisecond offsets, so a
        # bucket may spill slightly past its interval end — never before
        # its start, and never by more than the largest burst.
        slack = config.burst_max * 1e-3
        for index, bucket in enumerate(stream):
            start = index * config.interval
            for descriptor in bucket:
                assert start <= descriptor["at"] <= start + config.interval + slack

    def test_mitigation_request_is_spliced_in(self):
        config = quick_config()
        stream = generate_churn_requests(config, [65001])
        mitigations = [
            d for bucket in stream for d in bucket if d.get("mitigation")
        ]
        assert len(mitigations) == 1
        assert mitigations[0]["at"] == config.mitigation_time
        assert mitigations[0]["rules"][0].rule_id == MITIGATION_RULE_ID


class TestServiceRun:
    @pytest.fixture(scope="class")
    def result(self):
        return run_rule_churn_experiment(quick_config())

    def test_runs_all_intervals(self, result):
        config = result.config
        assert result.intervals == int(config.duration / config.interval)
        assert len(result.series.times) == result.intervals

    def test_service_actually_churned(self, result):
        assert result.stats["submitted"] > 0
        assert result.stats["applied_requests"] > 0
        assert result.stats["coalesced_batches"] > 0
        assert result.rules_version_bumps > 0
        # Coalescing amortizes: strictly more ops than data-plane calls.
        assert result.ops_per_data_plane_call > 1.0

    def test_latency_percentiles_are_ordered(self, result):
        latency = result.latency
        assert 0.0 < latency["p50"] <= latency["p90"] <= latency["p99"]
        assert latency["p99"] <= latency["max"]

    def test_mitigation_travels_through_the_service(self, result):
        assert result.mitigation_latency is not None
        assert result.mitigation_latency > 0.0
        assert any(
            MITIGATION_RULE_ID in (rule.rule_id for rule in entry.rules)
            for entry in result.request_log
            if entry.op == "install_many"
        )

    def test_summary_keys(self, result):
        summary = result.summary()
        for key in (
            "requests_submitted",
            "applied_requests",
            "rejected_budget",
            "rejected_backpressure",
            "latency_p50_s",
            "latency_p99_s",
            "mitigation_latency_s",
            "rules_version_bumps",
            "ops_per_data_plane_call",
            "peak_attack_mbps",
        ):
            assert key in summary

    def test_request_log_is_excluded_from_json(self, result):
        assert "request_log" not in result.to_dict()
        assert result.request_log

    def test_run_is_deterministic(self, result):
        again = run_rule_churn_experiment(quick_config())
        assert again.report_digest == result.report_digest
        assert again.request_log_digest == result.request_log_digest
        assert again.to_dict() == result.to_dict()

    def test_distinct_seeds_diverge(self, result):
        other = run_rule_churn_experiment(quick_config(seed=99))
        assert other.report_digest != result.report_digest

    def test_replay_oracle_matches_live_digest(self, result):
        assert (
            replay_rule_churn(result.config, result.request_log)
            == result.report_digest
        )


class TestExecutionParity:
    def test_coalescing_changes_amortization_not_semantics(self):
        on = run_rule_churn_experiment(quick_config(coalesce=True))
        off = run_rule_churn_experiment(quick_config(coalesce=False))
        assert off.report_digest == on.report_digest
        assert off.request_log_digest != on.request_log_digest  # batch shapes
        assert off.rules_version_bumps > on.rules_version_bumps
        assert off.stats["data_plane_calls"] > on.stats["data_plane_calls"]

    def test_config_dataclass_roundtrip(self):
        config = quick_config()
        assert dataclasses.asdict(RuleChurnConfig(**dataclasses.asdict(config))) == (
            dataclasses.asdict(config)
        )


class TestChurnMembers:
    def test_fraction_selects_a_prefix_of_the_population(self):
        config = quick_config()
        member_asns = [65000 + i for i in range(10)]
        selected = churn_member_asns(config, member_asns)
        assert len(selected) == max(1, round(config.churn_member_fraction * 10))
        assert selected == member_asns[: len(selected)]
