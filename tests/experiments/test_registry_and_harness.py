"""Registry, harness and result-serialization layer tests."""

import dataclasses
import json
import math

import pytest

from repro.experiments import (
    RtbhAttackConfig,
    SteppedExperiment,
    all_experiments,
    get_experiment,
)
from repro.experiments.results import JsonResultMixin, ResultStore, to_jsonable


class TestRegistry:
    def test_all_experiments_registered(self):
        names = [spec.name for spec in all_experiments()]
        assert names == [
            "table1",
            "fig2c",
            "fig3a",
            "fig3b",
            "fig3c",
            "fig9",
            "fig10a",
            "fig10b",
            "fig10c",
            "functionality",
            "pulse",
            "carpet",
            "multivector",
            "fine_grained",
            "city_scale",
            "paper_scale",
            "rule_churn",
        ]

    def test_lookup_by_alias_and_case(self):
        assert get_experiment("rtbh").name == "fig3c"
        assert get_experiment("stellar_attack").name == "fig10c"
        assert get_experiment("FIG9").name == "fig9"

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="fig3c"):
            get_experiment("fig99")

    def test_make_config_applies_overrides(self):
        spec = get_experiment("fig3c")
        config = spec.make_config(peer_count=12, seed=99)
        assert isinstance(config, RtbhAttackConfig)
        assert config.peer_count == 12
        assert config.seed == 99

    def test_make_config_rejects_unknown_field(self):
        with pytest.raises(ValueError, match="unknown config field"):
            get_experiment("fig3c").make_config(bogus=1)

    def test_quick_overrides_are_defaults_not_locks(self):
        spec = get_experiment("fig10c")
        config = spec.make_config(quick=True, peer_count=33)
        assert config.peer_count == 33  # explicit override wins
        assert config.duration == spec.quick_overrides["duration"]

    def test_run_rejects_config_plus_overrides(self):
        spec = get_experiment("fig9")
        with pytest.raises(ValueError):
            spec.run(spec.make_config(), quick=True)

    def test_every_spec_has_config_dataclass_and_runner(self):
        for spec in all_experiments():
            assert dataclasses.is_dataclass(spec.config_cls)
            assert callable(spec.runner)
            # Both resolve from the driver module the spec names.
            driver = f"repro.experiments.{spec.driver}"
            assert spec.driver_module().__name__ == driver
            assert spec.config_cls.__module__ == driver, spec.name
            assert spec.runner.__module__ == driver, spec.name
            unknown_quick = set(spec.quick_overrides) - set(spec.config_field_names())
            assert not unknown_quick, (spec.name, unknown_quick)


class TestSteppedExperiment:
    def test_steps_and_phase_events_interleave(self):
        harness = SteppedExperiment(duration=50.0, interval=10.0)
        timeline = []
        harness.at(25.0, lambda: timeline.append(("phase", harness.now)), name="mid")
        harness.run(lambda t, dt: timeline.append(("step", t, harness.now)))
        assert timeline == [
            ("step", 0.0, 0.0),  # now stands at the step's interval start ...
            ("step", 10.0, 10.0),
            ("step", 20.0, 20.0),
            ("phase", 25.0),  # fires before the step of its interval ...
            ("step", 30.0, 30.0),  # ... with now at the action's own time
            ("step", 40.0, 40.0),
        ]

    def test_phase_actions_fire_once_and_are_logged(self):
        harness = SteppedExperiment(duration=30.0, interval=10.0)
        fired = []
        harness.at(10.0, lambda: fired.append(harness.now), name="attack-start")
        harness.run(lambda t, dt: None)
        assert fired == [10.0]
        assert harness.events() == [(10.0, "attack-start", {})]

    def test_event_past_last_step_never_fires(self):
        harness = SteppedExperiment(duration=30.0, interval=10.0)
        fired = []
        harness.at(25.0, lambda: fired.append("late"))
        harness.run()
        assert fired == []  # steps are 0/10/20; a 25 s trigger was never polled

    def test_same_time_events_fire_in_scheduling_order(self):
        harness = SteppedExperiment(duration=30.0, interval=10.0)
        fired = []
        harness.at(15.0, lambda: fired.append("later"))  # time orders first ...
        harness.at(10.0, lambda: fired.append("first"))
        harness.at(10.0, lambda: fired.append("second"))  # ... then registration
        harness.run()
        assert fired == ["first", "second", "later"]

    @pytest.mark.parametrize(
        "time", [math.nan, math.inf, -math.inf, 4.0], ids=["nan", "inf", "-inf", "past"]
    )
    def test_non_finite_or_past_action_time_rejected(self, time):
        # Unchecked, a NaN time would fire at the first step and put a NaN
        # into the result's events, and +inf would silently never fire.
        harness = SteppedExperiment(duration=30.0, interval=10.0, start=5.0)
        with pytest.raises(ValueError, match="action time"):
            harness.at(time, lambda: None, name="phase")
        harness.run()
        assert harness.events() == []

    @pytest.mark.parametrize(
        "timing",
        [
            {"interval": 0.0},
            {"start": -1.0},
            {"start": math.nan},
            {"start": math.inf},
        ],
        ids=["interval-zero", "start-negative", "start-nan", "start-inf"],
    )
    def test_invalid_timing_rejected(self, timing):
        with pytest.raises(ValueError):
            SteppedExperiment(**{"duration": 10.0, "interval": 5.0, **timing})

    def test_action_at_now_is_accepted_and_fires_before_first_step(self):
        # The past check is strict: an action at exactly ``now`` is due.
        harness = SteppedExperiment(duration=20.0, interval=10.0, start=5.0)
        timeline = []
        harness.at(5.0, lambda: timeline.append(("phase", harness.now)), name="open")
        harness.run(lambda t, dt: timeline.append(("step", t, dt)))
        assert timeline == [("phase", 5.0), ("step", 5.0, 10.0), ("step", 15.0, 10.0)]
        assert harness.events() == [(5.0, "open", {})]

    def test_start_offsets_every_step(self):
        harness = SteppedExperiment(duration=30.0, interval=10.0, start=100.0)
        assert harness.now == 100.0
        assert harness.step_times() == [100.0, 110.0, 120.0]

    def test_unnamed_actions_fire_but_are_not_logged(self):
        harness = SteppedExperiment(duration=20.0, interval=10.0)
        fired = []
        harness.at(0.0, lambda: fired.append("silent"))
        harness.at(10.0, lambda: fired.append("named"), name="drop")
        harness.run()
        assert fired == ["silent", "named"]
        assert harness.events() == [(10.0, "drop", {})]

    def test_events_log_every_named_phase_in_time_order(self):
        harness = SteppedExperiment(duration=40.0, interval=10.0)
        for time, name in [(0.0, "shape"), (10.0, "drop"), (30.0, "shape")]:
            harness.at(time, lambda: None, name=name)
        harness.run()
        assert harness.events() == [(0.0, "shape", {}), (10.0, "drop", {}), (30.0, "shape", {})]

    def test_events_returns_a_copy(self):
        harness = SteppedExperiment(duration=10.0, interval=10.0)
        harness.at(0.0, lambda: None, name="start")
        harness.run()
        harness.events().clear()
        assert harness.events() == [(0.0, "start", {})]

    def test_named_action_is_logged_even_if_it_raises(self):
        harness = SteppedExperiment(duration=30.0, interval=10.0)

        def fail():
            raise RuntimeError("boom")

        harness.at(10.0, fail, name="escalate")
        with pytest.raises(RuntimeError, match="boom"):
            harness.run()
        assert harness.events() == [(10.0, "escalate", {})]
        assert harness.now == 10.0

    def test_zero_duration_steps_nothing_and_fires_nothing(self):
        harness = SteppedExperiment(duration=0.0, interval=10.0)
        fired = []
        harness.at(0.0, lambda: fired.append("never"), name="start")
        harness.run(lambda t, dt: fired.append("step"))
        assert harness.step_times() == []
        assert fired == []
        assert harness.events() == []

    def test_now_ends_at_last_step_and_registration_continues_from_there(self):
        harness = SteppedExperiment(duration=30.0, interval=10.0)
        harness.run()
        assert harness.now == 20.0
        with pytest.raises(ValueError, match="action time"):
            harness.at(15.0, lambda: None)
        harness.at(20.0, lambda: None)  # at ``now`` is still accepted

    def test_partial_trailing_interval_is_not_stepped(self):
        # Matches the replaced drivers' int(duration/interval) floor: a
        # 915 s run with 10 s intervals observes [900, 910) last, never
        # generating traffic beyond the configured duration.
        times = SteppedExperiment(duration=915.0, interval=10.0).step_times()
        assert len(times) == 91
        assert times[-1] == 900.0
        # Exact multiples are immune to float-division error.
        assert len(SteppedExperiment(duration=0.3, interval=0.1).step_times()) == 3


class TestToJsonable:
    def test_handles_numpy_and_enums(self):
        import enum

        import numpy as np

        class Color(enum.Enum):
            RED = "red"

        payload = to_jsonable(
            {
                "i": np.int64(3),
                "f": np.float64(1.5),
                "b": np.bool_(True),
                "a": np.arange(3),
                "e": Color.RED,
                4.0: "float-key",
                (0, 2): "tuple-key",
            }
        )
        assert payload == {
            "i": 3,
            "f": 1.5,
            "b": True,
            "a": [0, 1, 2],
            "e": "red",
            "4.0": "float-key",
            "(0, 2)": "tuple-key",
        }
        json.dumps(payload)  # round-trippable

    def test_rejects_unencodable_objects(self):
        with pytest.raises(TypeError):
            to_jsonable(object())

    def test_mixin_excludes_fields_and_adds_summary(self):
        @dataclasses.dataclass
        class Demo(JsonResultMixin):
            _json_exclude = ("big",)
            value: int
            big: object = None

            def summary(self):
                return {"value": float(self.value)}

        payload = Demo(value=7, big=object()).to_dict()
        assert payload == {"value": 7, "summary": {"value": 7.0}}


class TestResultStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "artifacts")
        key = store.key_for("fig3c", {"seed": 7, "peer_count": 10})
        assert store.load(key) is None
        store.save(key, {"summary": {"x": 1.0}})
        assert store.load(key) == {"summary": {"x": 1.0}}
        assert len(store) == 1

    def test_key_depends_on_config_and_experiment(self):
        key_a = ResultStore.key_for("fig3c", {"seed": 7})
        key_b = ResultStore.key_for("fig3c", {"seed": 8})
        key_c = ResultStore.key_for("fig10c", {"seed": 7})
        assert len({key_a, key_b, key_c}) == 3

    def test_key_is_insertion_order_independent(self):
        assert ResultStore.key_for("x", {"a": 1, "b": 2}) == ResultStore.key_for(
            "x", {"b": 2, "a": 1}
        )

    def test_corrupt_artifact_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = store.key_for("fig9", {})
        store.path_for(key).write_text("{not json", encoding="utf-8")
        assert store.load(key) is None

