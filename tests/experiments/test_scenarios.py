"""The scenario-diversity experiments: registry wiring, behaviour, sweeps."""

import pytest

from repro.experiments import (
    CarpetBombingConfig,
    MultiVectorConfig,
    PulseAttackConfig,
    Sweep,
    get_experiment,
    run_carpet_bombing_experiment,
    run_multi_vector_experiment,
    run_pulse_attack_experiment,
    run_sweep,
)

QUICK = dict(duration=500.0, peer_count=10)


class TestRegistryWiring:
    @pytest.mark.parametrize(
        "name,canonical",
        [
            ("pulse", "pulse"),
            ("pulse-attack", "pulse"),
            ("carpet", "carpet"),
            ("carpet_bombing", "carpet"),
            ("multivector", "multivector"),
            ("multi-vector", "multivector"),
        ],
    )
    def test_lookup(self, name, canonical):
        assert get_experiment(name).name == canonical

    def test_quick_run_through_spec(self):
        result = get_experiment("pulse").run(quick=True)
        assert result.summary()["burst_mbps"] > 0

    def test_results_serialize(self):
        result = get_experiment("carpet").run(quick=True)
        payload = result.to_dict()
        assert payload["distinct_target_count"] > 0
        assert "series" in payload


class TestPulseScenario:
    def test_bursts_tower_over_gaps(self):
        result = run_pulse_attack_experiment(PulseAttackConfig(seed=7, **QUICK))
        summary = result.summary()
        # During gaps only the benign floor (50 Mbps) is delivered.
        assert summary["burst_mbps"] > 5 * summary["gap_mbps"]
        assert result.burst_times and result.gap_times

    def test_deterministic_per_seed(self):
        a = run_pulse_attack_experiment(PulseAttackConfig(seed=7, **QUICK))
        b = run_pulse_attack_experiment(PulseAttackConfig(seed=7, **QUICK))
        assert a.to_dict() == b.to_dict()

    def test_duty_cycle_one_never_gaps(self):
        result = run_pulse_attack_experiment(
            PulseAttackConfig(seed=7, duty_cycle=1.0, **QUICK)
        )
        assert not result.gap_times


class TestCarpetScenario:
    def test_host_blackhole_barely_dents_the_attack(self):
        result = run_carpet_bombing_experiment(CarpetBombingConfig(seed=7, **QUICK))
        summary = result.summary()
        # The attack spreads over the /24 …
        assert summary["distinct_target_count"] > 100
        # … so the (fully honoured) /32 blackhole covers a sliver of it …
        assert summary["host_coverage_fraction"] < 0.05
        # … and removes almost nothing.
        assert summary["traffic_reduction_fraction"] < 0.15

    def test_deterministic_per_seed(self):
        a = run_carpet_bombing_experiment(CarpetBombingConfig(seed=7, **QUICK))
        b = run_carpet_bombing_experiment(CarpetBombingConfig(seed=7, **QUICK))
        assert a.to_dict() == b.to_dict()


class TestMultiVectorScenario:
    def test_residual_steps_down_per_rule(self):
        result = run_multi_vector_experiment(
            MultiVectorConfig(seed=11, duration=700.0, peer_count=10)
        )
        summary = result.summary()
        stages = [summary[f"stage{i}_mbps"] for i in (1, 2, 3)]
        assert summary["peak_attack_mbps"] > stages[0] > stages[1] > stages[2]
        # With every vector's rule installed only the benign floor remains.
        assert summary["final_residual_mbps"] < 0.1 * summary["peak_attack_mbps"]

    def test_vector_count_follows_config(self):
        result = run_multi_vector_experiment(
            MultiVectorConfig(seed=11, vectors="ntp,dns", duration=600.0, peer_count=10)
        )
        assert result.summary()["vector_count"] == 2.0


class TestScenarioSweeps:
    def test_pulse_sweepable_over_duty_cycle(self):
        sweep = Sweep(
            experiment="pulse",
            grid={"duty_cycle": (0.25, 0.75)},
            base={"duration": 400.0, "peer_count": 8},
            seed=42,
        )
        result = run_sweep(sweep, jobs=1)
        assert len(result) == 2
        duty = [summary["duty_cycle"] for summary in result.summaries()]
        assert duty == [0.25, 0.75]

    def test_carpet_grid_matches_serial(self):
        sweep = Sweep(
            experiment="carpet",
            grid={"peer_count": (8, 12)},
            base={"duration": 400.0},
            seed=43,
        )
        serial = run_sweep(sweep, jobs=1)
        parallel = run_sweep(sweep, jobs=2)
        assert serial.results == parallel.results


class TestPaperScaleScenario:
    QUICK = dict(
        duration=200.0,
        member_count=60,
        attack_peer_count=15,
        background_rate_bps=1e11,
        background_flows_per_interval=300,
        attack_start=50.0,
        attack_duration=120.0,
        mitigation_time=110.0,
        seed=7,
    )

    def test_registry_lookup(self):
        from repro.experiments import get_experiment

        assert get_experiment("paper_scale").name == "paper_scale"
        assert get_experiment("paper-scale").name == "paper_scale"
        assert get_experiment("platform-scale").name == "paper_scale"

    def test_multi_pop_layout_and_mitigation_effect(self):
        from repro.experiments import PaperScaleConfig, run_paper_scale_experiment

        result = run_paper_scale_experiment(PaperScaleConfig(**self.QUICK))
        summary = result.summary()
        assert result.router_count == 8  # 4 PoPs x 2 edge routers
        assert result.member_count == self.QUICK["member_count"]
        # The Stellar drop rule takes a real bite out of the attack.
        assert summary["residual_mbps"] < 0.6 * summary["peak_attack_mbps"]
        # The 10G victim port is oversubscribed by the 80G attack — the
        # unclamped utilisation ratio is what exposes it.
        assert summary["peak_port_utilisation"] > 1.5
        assert summary["oversubscribed_port_intervals"] > 0
        assert 0.0 < summary["platform_load_fraction"] < 1.0

    def test_deterministic_per_seed(self):
        from repro.experiments import PaperScaleConfig, run_paper_scale_experiment

        config = PaperScaleConfig(**{**self.QUICK, "duration": 100.0})
        a = run_paper_scale_experiment(config)
        b = run_paper_scale_experiment(config)
        assert a.to_dict() == b.to_dict()


class TestFineGrainedScenario:
    QUICK = dict(
        duration=60.0,
        member_count=50,
        protected_member_count=5,
        rules_per_member=120,
        hosts_per_member=30,
        flows_per_interval=5000,
        late_rule_time=30.0,
        seed=7,
    )

    def test_registry_lookup(self):
        from repro.experiments import get_experiment

        assert get_experiment("fine_grained").name == "fine_grained"
        assert get_experiment("fine-grained").name == "fine_grained"
        assert get_experiment("rule-scale").name == "fine_grained"

    def test_rule_load_and_filtering(self):
        from repro.experiments import FineGrainedConfig, run_fine_grained_experiment

        result = run_fine_grained_experiment(FineGrainedConfig(**self.QUICK))
        summary = result.summary()
        # 5 x (120 + 2 MAC) installed up front, plus the late rule.
        assert result.installed_rule_count == 5 * 122 + 1
        assert summary["exact_rules"] >= 5 * 120
        assert summary["fallback_rules"] == 5 * 2
        # Most of the fine-grained rules actually see matching traffic,
        # and a substantial share of the interval is filtered.
        assert summary["matched_rules"] > 0.9 * 5 * 120
        assert 0.1 < summary["filtered_fraction"] < 0.9

    def test_late_rule_proves_cache_invalidation(self):
        from repro.experiments import FineGrainedConfig, run_fine_grained_experiment

        result = run_fine_grained_experiment(FineGrainedConfig(**self.QUICK))
        # Before the mid-run install the late pair's traffic forwards;
        # after it, the cached plan/index must pick the new rule up.
        assert result.late_bits_before == 0.0
        assert result.late_bits_after > 0.0
        assert [name for _, name, _ in result.events] == ["late-rule-install"]

    def test_engine_fields_accept_only_the_one_data_path(self):
        from repro.experiments import FineGrainedConfig

        config = FineGrainedConfig(**self.QUICK)
        assert (config.classification_engine, config.delivery_engine) == ("indexed", "batched")
        with pytest.raises(ValueError, match="classification_engine"):
            FineGrainedConfig(**self.QUICK, classification_engine="per-rule")
        with pytest.raises(ValueError, match="delivery_engine"):
            FineGrainedConfig(**self.QUICK, delivery_engine="per-member")

    def test_deterministic_per_seed(self):
        from repro.experiments import FineGrainedConfig, run_fine_grained_experiment

        config = FineGrainedConfig(**self.QUICK)
        a = run_fine_grained_experiment(config)
        b = run_fine_grained_experiment(config)
        assert a.to_dict() == b.to_dict()

    def test_sweepable_over_rule_count(self):
        from repro.experiments import Sweep, run_sweep

        sweep = Sweep(
            experiment="fine_grained",
            grid={"rules_per_member": (60, 120)},
            base={**self.QUICK, "duration": 30.0},
            seed=44,
        )
        result = run_sweep(sweep, jobs=1)
        assert len(result) == 2
        installed = [
            summary["installed_rules"] for summary in result.summaries()
        ]
        assert installed[1] - installed[0] == 5 * 60
