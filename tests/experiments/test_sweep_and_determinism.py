"""Sweep layer tests + the cross-experiment determinism guarantee."""

import json

import pytest

from repro.experiments import ResultStore, Sweep, all_experiments, get_experiment, run_sweep

#: A small, cheap sweep used by several tests.
QUICK_SWEEP = Sweep(
    experiment="fig10b",
    grid={"burst_count": (2, 3), "base_arrival_rate": (0.05, 0.1)},
    base={"duration_seconds": 2 * 3600.0},
    quick=True,
)


class TestSweepPoints:
    def test_cartesian_product_in_deterministic_order(self):
        points = QUICK_SWEEP.points()
        assert points == [
            {"duration_seconds": 7200.0, "burst_count": 2, "base_arrival_rate": 0.05},
            {"duration_seconds": 7200.0, "burst_count": 2, "base_arrival_rate": 0.1},
            {"duration_seconds": 7200.0, "burst_count": 3, "base_arrival_rate": 0.05},
            {"duration_seconds": 7200.0, "burst_count": 3, "base_arrival_rate": 0.1},
        ]

    def test_unknown_grid_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config field"):
            Sweep(experiment="fig3c", grid={"bogus": (1, 2)}).points()

    def test_seed_derivation_is_deterministic_and_distinct(self):
        sweep = Sweep(experiment="fig3c", grid={"peer_count": (10, 20, 30)}, seed=123)
        seeds = [point["seed"] for point in sweep.points()]
        assert len(set(seeds)) == 3
        assert seeds == [point["seed"] for point in sweep.points()]  # stable
        different_base = Sweep(
            experiment="fig3c", grid={"peer_count": (10, 20, 30)}, seed=124
        )
        assert seeds != [point["seed"] for point in different_base.points()]

    def test_grid_extension_keeps_existing_point_seeds(self):
        # Seeds are keyed by point content, not enumeration index: extending
        # any axis must not change the seed (nor the cached artifact) of an
        # unchanged logical point.
        small = Sweep(
            experiment="fig3c",
            grid={"peer_count": (10, 20), "attack_peak_bps": (5e8,)},
            seed=42,
        )
        extended = Sweep(
            experiment="fig3c",
            grid={"peer_count": (10, 20), "attack_peak_bps": (5e8, 1e9)},
            seed=42,
        )
        def keyed(sweep):
            return {
                (p["peer_count"], p["attack_peak_bps"]): p["seed"]
                for p in sweep.points()
            }
        small_seeds, extended_seeds = keyed(small), keyed(extended)
        for point, seed in small_seeds.items():
            assert extended_seeds[point] == seed

    def test_explicit_seed_in_grid_wins_over_derivation(self):
        sweep = Sweep(experiment="fig3c", grid={"seed": (1, 2)}, seed=999)
        assert [point["seed"] for point in sweep.points()] == [1, 2]

    def test_seed_base_requires_seed_field(self):
        with pytest.raises(ValueError, match="no 'seed' field"):
            Sweep(experiment="fig9", seed=1).points()


class TestRunSweep:
    def test_parallel_results_equal_serial_point_for_point(self):
        serial = run_sweep(QUICK_SWEEP, jobs=1)
        parallel = run_sweep(QUICK_SWEEP, jobs=2)
        assert serial.points == parallel.points
        assert len(serial.results) == 4
        for point_serial, point_parallel in zip(serial.results, parallel.results):
            assert json.dumps(point_serial, sort_keys=True) == json.dumps(
                point_parallel, sort_keys=True
            )

    def test_store_makes_reruns_incremental(self, tmp_path):
        store = ResultStore(tmp_path)
        first = run_sweep(QUICK_SWEEP, jobs=1, store=store)
        assert first.cached_points == 0
        assert len(store) == 4

        again = run_sweep(QUICK_SWEEP, jobs=1, store=store)
        assert again.cached_points == 4
        assert again.results == first.results

        # Extending one grid axis only computes the new points.
        extended = Sweep(
            experiment=QUICK_SWEEP.experiment,
            grid={"burst_count": (2, 3, 4), "base_arrival_rate": (0.05, 0.1)},
            base=QUICK_SWEEP.base,
            quick=True,
        )
        third = run_sweep(extended, jobs=1, store=store)
        assert third.cached_points == 4
        assert len(third.results) == 6
        assert len(store) == 6

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(QUICK_SWEEP, jobs=0)

    def test_interrupted_sweep_keeps_finished_artifacts(self, tmp_path, monkeypatch):
        # Points are persisted as they complete: a failure mid-sweep must not
        # discard the artifacts of already-finished points.
        import repro.experiments.sweep as sweep_module

        store = ResultStore(tmp_path)
        real_run_point = sweep_module._run_point
        calls = {"count": 0}

        def failing_run_point(experiment, overrides, quick):
            calls["count"] += 1
            if calls["count"] == 3:
                raise RuntimeError("boom")
            return real_run_point(experiment, overrides, quick)

        monkeypatch.setattr(sweep_module, "_run_point", failing_run_point)
        with pytest.raises(RuntimeError, match="boom"):
            run_sweep(QUICK_SWEEP, jobs=1, store=store)
        assert len(store) == 2  # the two finished points survived

        monkeypatch.setattr(sweep_module, "_run_point", real_run_point)
        resumed = run_sweep(QUICK_SWEEP, jobs=1, store=store)
        assert resumed.cached_points == 2
        assert len(resumed.results) == 4

    def test_sweep_result_serializes(self):
        result = run_sweep(
            Sweep(experiment="fig10a", grid={"samples_per_rate": (5,)}, quick=True)
        )
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["experiment"] == "fig10a"
        assert payload["summary"]["points"] == 1.0
        assert result.summaries()[0]["slope_percent_per_update"] > 0


class TestDeterminism:
    """Same seed + config ⇒ byte-identical serialized results, per experiment."""

    @pytest.mark.parametrize(
        "name", [spec.name for spec in all_experiments()]
    )
    def test_quick_run_is_byte_identical(self, name):
        spec = get_experiment(name)
        first = spec.run(quick=True).to_dict()
        second = spec.run(quick=True).to_dict()
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    @pytest.mark.parametrize(
        "name", [spec.name for spec in all_experiments()]
    )
    def test_quick_run_json_round_trips(self, name):
        spec = get_experiment(name)
        payload = spec.run(quick=True).to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert "summary" in payload
