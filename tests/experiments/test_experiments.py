"""Integration tests: every experiment driver reproduces the paper's shape.

These tests run scaled-down versions of the per-figure experiments and
assert the qualitative findings of the paper (who wins, by roughly what
factor, where the crossovers are) rather than exact numbers.
"""

import math

import pytest
from hypothesis import given, strategies as st

from repro.experiments import (
    ChangeQueueingConfig,
    CollateralDamageConfig,
    CpuUpdateRateConfig,
    FunctionalityConfig,
    PAPER_FIG9,
    PolicyControlConfig,
    PortDistributionConfig,
    RtbhAttackConfig,
    StellarAttackConfig,
    build_attack_scenario,
    build_table1,
    replay_change_arrivals,
    run_change_queueing_experiment,
    run_collateral_damage_experiment,
    run_cpu_update_rate_experiment,
    run_functionality_experiment,
    run_policy_control_experiment,
    run_port_distribution_experiment,
    run_quantitative_comparison,
    run_rtbh_attack_experiment,
    run_scaling_experiment,
    run_stellar_attack_experiment,
)
from repro.ixp import TcamStatus


class TestScenarioBuilder:
    def test_builds_consistent_scenario(self):
        scenario = build_attack_scenario(peer_count=10, seed=1)
        assert len(scenario.peers) == 10
        assert scenario.victim.asn in scenario.fabric.member_asns
        assert set(scenario.peer_asns) <= scenario.fabric.member_asns
        assert scenario.attack.vector.source_port == 123

    def test_requires_two_peers(self):
        with pytest.raises(ValueError):
            build_attack_scenario(peer_count=1)


class TestTable1:
    def test_matches_paper_matrix(self):
        assert build_table1().matches_paper()

    def test_quantitative_comparison_ordering(self):
        result = run_quantitative_comparison(seed=3)
        residual = result.residual_attack_fraction
        # RTBH leaves most attack traffic (low compliance); Advanced
        # Blackholing and ACL filters remove essentially all of it.
        assert residual["RTBH"] > 0.3
        assert residual["Advanced Blackholing"] < 0.05
        assert residual["ACL filters"] < 0.05
        # Fine-grained techniques cause no collateral damage on this workload.
        assert result.collateral_damage_fraction["Advanced Blackholing"] == 0.0


class TestFig2cCollateralDamage:
    @pytest.fixture(scope="class")
    def result(self):
        config = CollateralDamageConfig(duration=1800.0, attack_start=600.0, peer_count=10, seed=5)
        return run_collateral_damage_experiment(config)

    def test_web_ports_dominate_before_attack(self, result):
        assert result.share_before_attack(443) > 0.3
        assert result.share_before_attack(11211) < 0.01

    def test_memcached_dominates_during_attack(self, result):
        assert result.share_during_attack(11211) > 0.7

    def test_rtbh_causes_full_collateral_damage(self, result):
        assert result.rtbh_report.collateral_damage_fraction == pytest.approx(1.0)

    def test_fine_grained_filter_removes_attack_without_collateral(self, result):
        assert result.fine_grained_potential["attack_removed_fraction"] > 0.95
        assert result.fine_grained_potential["legitimate_removed_fraction"] < 0.05

    def test_summary_keys(self, result):
        summary = result.summary()
        assert "memcached_share_during" in summary
        assert "rtbh_collateral_damage_fraction" in summary


class TestFig3aPortDistribution:
    @pytest.fixture(scope="class")
    def result(self):
        config = PortDistributionConfig(
            member_count=30, duration=3600.0, interval=300.0, rtbh_event_count=10, seed=17
        )
        return run_port_distribution_experiment(config)

    def test_blackholed_traffic_is_udp_dominated(self, result):
        assert result.blackholed_udp_share > 0.98
        assert result.blackholed_tcp_share < 0.01

    def test_other_traffic_is_tcp_dominated(self, result):
        assert result.other_tcp_share > 0.7

    def test_amplification_ports_significant(self, result):
        # All six paper ports show significantly higher shares in blackholed
        # traffic at the 0.02 level.
        assert set(result.significant_ports()) == {0, 123, 389, 11211, 53, 19}

    def test_port_0_has_largest_blackholed_share(self, result):
        shares = {port: ci.mean for port, ci in result.blackholed_shares.items()}
        assert max(shares, key=shares.get) == 0

    def test_blackholed_share_exceeds_other_share_per_port(self, result):
        for port in result.config.ports:
            assert result.blackholed_shares[port].mean > result.other_shares[port].mean


class TestFig3bPolicyControl:
    @pytest.fixture(scope="class")
    def result(self):
        return run_policy_control_experiment(
            PolicyControlConfig(announcement_count=4000, member_count=100)
        )

    def test_all_category_dominates(self, result):
        assert result.share_of("All") > 0.9

    def test_restricted_categories_are_rare(self, result):
        assert result.share_of("All-1") < 0.1
        assert result.share_of("20") < 0.01

    def test_distribution_sums_to_one(self, result):
        assert sum(result.distribution.shares().values()) == pytest.approx(1.0)

    def test_events_processed(self, result):
        assert result.events == 4000


class TestFig3cRtbhAttack:
    @pytest.fixture(scope="class")
    def result(self):
        return run_rtbh_attack_experiment(RtbhAttackConfig(duration=700.0, interval=10.0, seed=7))

    def test_attack_reaches_roughly_one_gbps(self, result):
        assert 800.0 <= result.peak_attack_mbps <= 1200.0

    def test_rtbh_leaves_most_attack_traffic(self, result):
        # Paper: traffic only drops to 600-800 Mbps out of ~1 Gbps.
        assert 500.0 <= result.residual_mbps <= 850.0
        assert result.traffic_reduction_fraction < 0.5

    def test_peer_count_drops_by_roughly_a_quarter(self, result):
        assert 0.1 <= result.peer_reduction_fraction <= 0.45
        assert result.peers_before_blackhole > 30

    def test_compliance_is_minority(self, result):
        assert result.summary()["compliance_rate"] < 0.5


class TestFig10cStellarAttack:
    @pytest.fixture(scope="class")
    def result(self):
        return run_stellar_attack_experiment(
            StellarAttackConfig(duration=700.0, interval=10.0, peer_count=40, seed=11)
        )

    def test_attack_peak(self, result):
        assert 800.0 <= result.peak_attack_mbps <= 1200.0

    def test_shaping_phase_sits_at_shape_rate(self, result):
        assert result.shaped_phase_mbps == pytest.approx(
            result.config.shape_rate_bps / 1e6, rel=0.3
        )

    def test_peers_constant_during_shaping(self, result):
        assert result.peers_during_shaping == pytest.approx(
            result.peers_before_mitigation, rel=0.15
        )

    def test_drop_phase_near_zero(self, result):
        assert result.dropped_phase_mbps < 0.1 * result.peak_attack_mbps
        assert result.peers_after_drop < 0.3 * result.peers_before_mitigation

    def test_stellar_beats_rtbh(self, result):
        rtbh = run_rtbh_attack_experiment(RtbhAttackConfig(duration=700.0, interval=10.0, seed=7))
        assert result.dropped_phase_mbps < rtbh.residual_mbps / 3


class TestFig9Scaling:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scaling_experiment()

    def test_matches_paper_matrices(self, result):
        for rate, expected in PAPER_FIG9.items():
            matrix = result.matrix(rate)
            for cell, status in expected.items():
                assert matrix.status(*cell).value == status, (rate, cell)

    def test_feasible_region_shrinks_with_adoption(self, result):
        fractions = result.summary()
        assert fractions[0.2] > fractions[0.6] > fractions[1.0]

    def test_20_percent_adoption_has_no_limits(self, result):
        assert result.matrix(0.2).ok_fraction() == 1.0

    def test_render_contains_statuses(self, result):
        text = result.matrix(1.0).render((0, 2, 4, 6, 8, 10), (0, 1, 2, 3, 4))
        assert "F1" in text and "F2" in text and "OK" in text

    def test_invalid_adoption_rate(self):
        from repro.experiments import ScalingConfig

        with pytest.raises(ValueError):
            run_scaling_experiment(ScalingConfig(adoption_rates=(0.0,)))


class TestFig10aCpu:
    @pytest.fixture(scope="class")
    def result(self):
        return run_cpu_update_rate_experiment(CpuUpdateRateConfig(samples_per_rate=20, seed=23))

    def test_relationship_is_linear_and_increasing(self, result):
        assert result.regression.slope > 0
        assert result.regression.r_value > 0.9

    def test_budget_reached_near_paper_median_rate(self, result):
        assert result.max_update_rate == pytest.approx(4.33, rel=0.1)

    def test_cpu_at_median_rate_close_to_budget(self, result):
        assert result.cpu_at_paper_median_rate == pytest.approx(15.0, abs=1.0)

    def test_mean_usage_increases_with_rate(self, result):
        means = result.mean_usage_by_rate()
        rates = sorted(means)
        assert means[rates[0]] < means[rates[-1]]


class TestFig10bQueueing:
    @pytest.fixture(scope="class")
    def result(self):
        return run_change_queueing_experiment(ChangeQueueingConfig(seed=31))

    def test_majority_of_changes_wait_less_than_a_second(self, result):
        assert result.fraction_below(4.0, 1.0) >= 0.65

    def test_p95_below_100_seconds(self, result):
        assert result.percentile(4.0, 0.95) < 100.0
        assert result.percentile(5.0, 0.95) < 100.0

    def test_higher_rate_gives_lower_delays(self, result):
        assert result.percentile(5.0, 0.95) <= result.percentile(4.0, 0.95)

    def test_cdf_shapes(self, result):
        values, probabilities = result.cdf(4.0)
        assert probabilities[-1] == pytest.approx(1.0)
        assert len(values) == len(result.arrival_times)

    def test_waiting_times_non_negative(self, result):
        assert all(wait >= 0 for wait in result.waiting_times[4.0])

    def test_replay_waiting_times_non_negative_and_bounded(self):
        arrivals = [0.0, 0.1, 0.2, 0.3, 10.0]
        waits = replay_change_arrivals(arrivals, dequeue_rate=4.0)
        assert len(waits) == 5
        assert all(wait >= 0 for wait in waits)
        assert waits[-1] == 0.0  # the queue drained long before t=10

    def test_replay_backlog_grows_when_arrivals_exceed_rate(self):
        arrivals = [i * 0.1 for i in range(100)]  # 10/s for 10 s
        waits = replay_change_arrivals(arrivals, dequeue_rate=4.0)
        assert max(waits) > 10.0

    @given(st.lists(st.floats(min_value=0, max_value=1000), min_size=1, max_size=200))
    def test_property_replay_waits_non_negative(self, arrivals):
        waits = replay_change_arrivals(arrivals, dequeue_rate=4.0)
        assert all(wait >= -1e-9 for wait in waits)

    def test_replay_serves_one_change_per_interval(self):
        waits = replay_change_arrivals([0.2, 0.0, 0.1], dequeue_rate=4.0)
        assert waits == pytest.approx([0.0, 0.15, 0.3])

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf])
    def test_replay_rejects_bad_rate(self, rate):
        with pytest.raises(ValueError):
            replay_change_arrivals([0.0, 0.1, 0.2], dequeue_rate=rate)


class TestFunctionalityValidation:
    @pytest.fixture(scope="class")
    def result(self):
        return run_functionality_experiment(FunctionalityConfig())

    def test_baseline_port_is_congested(self, result):
        assert result.baseline_delivered_bps == pytest.approx(1e9, rel=0.05)

    def test_drop_rules_remove_attack_traffic_per_target(self, result):
        for rate in result.dropped_phase_attack_bps.values():
            assert rate == 0.0

    def test_benign_traffic_survives_dropping(self, result):
        for ip, delivered in result.dropped_phase_delivered_bps.items():
            assert delivered > 0

    def test_shaped_attack_respects_rate_limit(self, result):
        # Two shaping rules (NTP + DNS) per target, each at shape_rate_bps.
        limit = 2 * result.config.shape_rate_bps
        for rate in result.shaped_phase_attack_bps.values():
            assert rate <= limit * 1.05
            assert rate > 0

    @pytest.mark.parametrize(
        "overrides",
        [
            {"target_ip_count": 0},
            {"target_ip_count": 246},
            {"target_ip_count": 250},
            {"peer_count": 0},
        ],
    )
    def test_config_rejects_counts_out_of_range(self, overrides):
        with pytest.raises(ValueError):
            FunctionalityConfig(**overrides)

    def test_config_accepts_the_largest_target_count(self):
        # 245 targets run from 100.10.10.10 to .254, inside the victim /24.
        assert FunctionalityConfig(target_ip_count=245).target_ip_count == 245

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_generator_rate_is_rejected(self, rate):
        with pytest.raises(ValueError, match="finite"):
            run_functionality_experiment(FunctionalityConfig(generator_rate_bps=rate))
