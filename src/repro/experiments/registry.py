"""Declarative registry of the experiments.

Each table/figure of the paper's evaluation — plus the scenario-diversity
experiments added on top — is described by an :class:`ExperimentSpec`: its
driver module, config dataclass, runner, paper reference and the overrides
that make a quick smoke run cheap.  The CLI, the sweep layer and the tests
enumerate, configure and run every experiment uniformly instead of
importing ad-hoc driver functions.

A spec names its driver module and imports it on the first
:attr:`~ExperimentSpec.config_cls` or :attr:`~ExperimentSpec.runner`
lookup, so looking an experiment up imports that one driver and listing
the registry imports none.
"""

from __future__ import annotations

import dataclasses
import importlib
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: identity, config schema and runner."""

    #: Canonical name used by the CLI and the sweep layer (e.g. ``"fig3c"``).
    name: str
    #: The paper reference (e.g. ``"Fig. 3(c)"``).
    figure: str
    #: One-line description shown by ``python -m repro list``.
    title: str
    #: The driver module, relative to :mod:`repro.experiments`.
    driver: str
    #: Name of the driver's config dataclass (:attr:`config_cls`).
    config_name: str
    #: Name of the driver's run function (:attr:`runner`).
    runner_name: str
    #: Alternative lookup names (module-style names, paper shorthands).
    aliases: tuple[str, ...] = ()
    #: Config overrides applied by ``--quick`` / smoke runs.
    quick_overrides: Mapping[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def driver_module(self) -> ModuleType:
        """The driver module, imported on first use."""
        return importlib.import_module(f"{__package__}.{self.driver}")

    @property
    def config_cls(self) -> type:
        """The config dataclass; every field is a sweepable/CLI-settable knob."""
        return getattr(self.driver_module(), self.config_name)

    @property
    def runner(self) -> Callable[[Any], Any]:
        """``runner(config) -> result``; results expose ``to_dict()``/``summary()``."""
        return getattr(self.driver_module(), self.runner_name)

    def config_fields(self) -> list[dataclasses.Field]:
        return list(dataclasses.fields(self.config_cls))

    def config_field_names(self) -> list[str]:
        return [f.name for f in self.config_fields()]

    def make_config(self, quick: bool = False, **overrides: Any) -> Any:
        """Build a config, validating override names against the dataclass."""
        params: dict[str, Any] = dict(self.quick_overrides) if quick else {}
        params.update(overrides)
        known = set(self.config_field_names())
        unknown = sorted(set(params) - known)
        if unknown:
            raise ValueError(
                f"unknown config field(s) for {self.name}: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        return self.config_cls(**params)

    def run(self, config: Any = None, *, quick: bool = False, **overrides: Any) -> Any:
        """Run the experiment with an explicit config or from overrides."""
        if config is not None:
            if quick or overrides:
                raise ValueError("pass either a config object or overrides, not both")
            return self.runner(config)
        return self.runner(self.make_config(quick=quick, **overrides))


_REGISTRY: dict[str, ExperimentSpec] = {}
_ALIASES: dict[str, str] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add a spec to the registry (canonical name and aliases must be free)."""
    for name in (spec.name, *spec.aliases):
        key = name.lower()
        if key in _REGISTRY or key in _ALIASES:
            raise ValueError(f"experiment name {name!r} is already registered")
    _REGISTRY[spec.name.lower()] = spec
    for alias in spec.aliases:
        _ALIASES[alias.lower()] = spec.name.lower()
    return spec


def get_experiment(name: str) -> ExperimentSpec:
    """Look up a spec by canonical name or alias (case-insensitive)."""
    key = name.lower()
    key = _ALIASES.get(key, key)
    try:
        return _REGISTRY[key]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown experiment {name!r}; known experiments: {known}") from None


def all_experiments() -> list[ExperimentSpec]:
    """All registered specs, in registration (paper) order."""
    return list(_REGISTRY.values())


def experiment_names() -> list[str]:
    return [spec.name for spec in all_experiments()]


# ----------------------------------------------------------------------
# The ten experiments of the paper's evaluation, in paper order.
# ----------------------------------------------------------------------
register(
    ExperimentSpec(
        name="table1",
        figure="Table 1",
        title="Qualitative + quantitative comparison of DDoS mitigation techniques",
        driver="table1",
        config_name="Table1Config",
        runner_name="run_table1_experiment",
        aliases=("comparison",),
        quick_overrides={"seed": 3},
    )
)
register(
    ExperimentSpec(
        name="fig2c",
        figure="Fig. 2(c)",
        title="Collateral damage of RTBH during a memcached amplification attack",
        driver="collateral_damage",
        config_name="CollateralDamageConfig",
        runner_name="run_collateral_damage_experiment",
        aliases=("collateral-damage", "collateral_damage"),
        quick_overrides={"duration": 1200.0, "attack_start": 480.0, "peer_count": 8},
    )
)
register(
    ExperimentSpec(
        name="fig3a",
        figure="Fig. 3(a)",
        title="UDP source ports of blackholed vs. regular traffic",
        driver="port_distribution",
        config_name="PortDistributionConfig",
        runner_name="run_port_distribution_experiment",
        aliases=("port-distribution", "port_distribution"),
        quick_overrides={
            "member_count": 20,
            "duration": 1800.0,
            "rtbh_event_count": 6,
        },
    )
)
register(
    ExperimentSpec(
        name="fig3b",
        figure="Fig. 3(b)",
        title="Usage of policy control for RTBH announcements",
        driver="policy_control",
        config_name="PolicyControlConfig",
        runner_name="run_policy_control_experiment",
        aliases=("policy-control", "policy_control"),
        quick_overrides={"announcement_count": 2000, "member_count": 80},
    )
)
register(
    ExperimentSpec(
        name="fig3c",
        figure="Fig. 3(c)",
        title="Active DDoS attack exposing RTBH ineffectiveness",
        driver="rtbh_attack",
        config_name="RtbhAttackConfig",
        runner_name="run_rtbh_attack_experiment",
        aliases=("rtbh-attack", "rtbh_attack", "rtbh"),
        quick_overrides={"duration": 500.0, "peer_count": 15},
    )
)
register(
    ExperimentSpec(
        name="fig9",
        figure="Fig. 9",
        title="Stellar scaling limits by IXP member adoption rate",
        driver="scaling",
        config_name="ScalingConfig",
        runner_name="run_scaling_experiment",
        aliases=("scaling",),
    )
)
register(
    ExperimentSpec(
        name="fig10a",
        figure="Fig. 10(a)",
        title="Control-plane CPU usage vs. rule-update rate",
        driver="cpu_update_rate",
        config_name="CpuUpdateRateConfig",
        runner_name="run_cpu_update_rate_experiment",
        aliases=("cpu-update-rate", "cpu_update_rate"),
        quick_overrides={"samples_per_rate": 10},
    )
)
register(
    ExperimentSpec(
        name="fig10b",
        figure="Fig. 10(b)",
        title="Queueing delay of configuration changes",
        driver="change_queueing",
        config_name="ChangeQueueingConfig",
        runner_name="run_change_queueing_experiment",
        aliases=("change-queueing", "change_queueing"),
        quick_overrides={"duration_seconds": 4 * 3600.0, "burst_count": 4},
    )
)
register(
    ExperimentSpec(
        name="fig10c",
        figure="Fig. 10(c)",
        title="Active DDoS attack mitigated with Stellar (shape, then drop)",
        driver="stellar_attack",
        config_name="StellarAttackConfig",
        runner_name="run_stellar_attack_experiment",
        aliases=("stellar-attack", "stellar_attack", "stellar"),
        quick_overrides={"duration": 560.0, "peer_count": 20},
    )
)
register(
    ExperimentSpec(
        name="functionality",
        figure="§5.2 lab",
        title="Drop/shape/forward queue behaviour of the filtering layer",
        driver="functionality",
        config_name="FunctionalityConfig",
        runner_name="run_functionality_experiment",
        aliases=("lab", "sec5.2"),
        quick_overrides={"target_ip_count": 2, "peer_count": 3},
    )
)

# ----------------------------------------------------------------------
# Scenario-diversity experiments beyond the paper's artefacts
# (docs/SCENARIOS.md catalogues all of them).
# ----------------------------------------------------------------------
register(
    ExperimentSpec(
        name="pulse",
        figure="scenario",
        title="Pulse-wave (on/off burst) attack against classic RTBH",
        driver="attack_scenarios",
        config_name="PulseAttackConfig",
        runner_name="run_pulse_attack_experiment",
        aliases=("pulse-attack", "pulse_attack"),
        quick_overrides={"duration": 500.0, "peer_count": 12},
    )
)
register(
    ExperimentSpec(
        name="carpet",
        figure="scenario",
        title="Carpet-bombing attack spread over a prefix vs. /32 blackholing",
        driver="attack_scenarios",
        config_name="CarpetBombingConfig",
        runner_name="run_carpet_bombing_experiment",
        aliases=("carpet-bombing", "carpet_bombing"),
        quick_overrides={"duration": 500.0, "peer_count": 12},
    )
)
register(
    ExperimentSpec(
        name="multivector",
        figure="scenario",
        title="Multi-vector amplification attack, one Stellar rule per vector",
        driver="attack_scenarios",
        config_name="MultiVectorConfig",
        runner_name="run_multi_vector_experiment",
        aliases=("multi-vector", "multi_vector"),
        quick_overrides={"duration": 700.0, "peer_count": 12},
    )
)
register(
    ExperimentSpec(
        name="fine_grained",
        figure="scenario",
        title="Tens of thousands of fine-grained rules on the compiled match index",
        driver="fine_grained",
        config_name="FineGrainedConfig",
        runner_name="run_fine_grained_experiment",
        aliases=("fine-grained", "rule-scale"),
        quick_overrides={
            "duration": 60.0,
            "member_count": 60,
            "protected_member_count": 6,
            "rules_per_member": 150,
            "hosts_per_member": 30,
            "flows_per_interval": 8000,
            "late_rule_time": 30.0,
        },
    )
)
register(
    ExperimentSpec(
        name="city_scale",
        figure="scenario",
        title="City-scale platform (10k+ members) on the sharded interval pipeline",
        driver="city_scale",
        config_name="CityScaleConfig",
        runner_name="run_city_scale_experiment",
        aliases=("city-scale", "sharded"),
        quick_overrides={
            "duration": 240.0,
            "interval": 30.0,
            "member_count": 240,
            "pop_count": 8,
            "attack_peer_count": 24,
            "attack_start": 30.0,
            "attack_duration": 180.0,
            "attack_peak_bps": 40e9,
            "background_rate_bps": 4e11,
            "background_flows_per_interval": 800,
            "mitigation_time": 120.0,
            "workers": 2,
            "chunk_intervals": 2,
        },
    )
)
register(
    ExperimentSpec(
        name="paper_scale",
        figure="scenario",
        title="Paper-scale multi-PoP platform (~800 members) vs. Stellar",
        driver="attack_scenarios",
        config_name="PaperScaleConfig",
        runner_name="run_paper_scale_experiment",
        aliases=("paper-scale", "platform-scale"),
        quick_overrides={
            "duration": 300.0,
            "member_count": 80,
            "attack_peer_count": 20,
            "background_rate_bps": 2e11,
            "background_flows_per_interval": 400,
            "mitigation_time": 200.0,
            "attack_duration": 200.0,
        },
    )
)
register(
    ExperimentSpec(
        name="rule_churn",
        figure="scenario",
        title="Concurrent member rule churn through the control-plane service",
        driver="rule_churn",
        config_name="RuleChurnConfig",
        runner_name="run_rule_churn_experiment",
        aliases=("rule-churn", "churn", "control-plane-service"),
        quick_overrides={
            "duration": 80.0,
            "interval": 10.0,
            "member_count": 200,
            "pop_count": 4,
            "routers_per_pop": 1,
            "churn_events_per_second": 1.5,
            "burst_min": 2,
            "burst_max": 12,
            "attack_peer_count": 20,
            "attack_start": 10.0,
            "attack_duration": 60.0,
            "attack_peak_bps": 40e9,
            "background_rate_bps": 2e11,
            "background_flows_per_interval": 1000,
            "mitigation_time": 30.0,
        },
    )
)
