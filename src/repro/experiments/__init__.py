"""Experiment drivers — one per table/figure of the paper's evaluation.

===========  ==========================================================
Experiment    Driver
===========  ==========================================================
Table 1       :mod:`repro.experiments.table1`
Fig. 2(c)     :mod:`repro.experiments.collateral_damage`
Fig. 3(a)     :mod:`repro.experiments.port_distribution`
Fig. 3(b)     :mod:`repro.experiments.policy_control`
Fig. 3(c)     :mod:`repro.experiments.rtbh_attack`
Fig. 9        :mod:`repro.experiments.scaling`
Fig. 10(a)    :mod:`repro.experiments.cpu_update_rate`
Fig. 10(b)    :mod:`repro.experiments.change_queueing`
Fig. 10(c)    :mod:`repro.experiments.stellar_attack`
§5.2 lab      :mod:`repro.experiments.functionality`
===========  ==========================================================

Beyond the paper's artefacts, :mod:`repro.experiments.attack_scenarios`
adds the scenario-diversity experiments (``pulse``, ``carpet``,
``multivector``) built on the attack variants in
:mod:`repro.traffic.attack_variants`.

All drivers are registered in :mod:`repro.experiments.registry`; the
shared event-driven runner lives in :mod:`repro.experiments.harness`, the
sweep/parallel layer in :mod:`repro.experiments.sweep`, and uniform result
serialization plus the artifact store in :mod:`repro.experiments.results`.
The ``python -m repro`` CLI is the user-facing entry point to all of it.
"""

from .attack_scenarios import (
    CarpetBombingConfig,
    CarpetBombingResult,
    MultiVectorConfig,
    MultiVectorResult,
    PaperScaleConfig,
    PaperScaleResult,
    PulseAttackConfig,
    PulseAttackResult,
    run_carpet_bombing_experiment,
    run_multi_vector_experiment,
    run_paper_scale_experiment,
    run_pulse_attack_experiment,
)
from .change_queueing import (
    ChangeQueueingConfig,
    ChangeQueueingResult,
    generate_change_arrivals,
    replay_change_arrivals,
    run_change_queueing_experiment,
)
from .collateral_damage import (
    CollateralDamageConfig,
    CollateralDamageResult,
    run_collateral_damage_experiment,
)
from .cpu_update_rate import (
    CpuUpdateRateConfig,
    CpuUpdateRateResult,
    run_cpu_update_rate_experiment,
)
from .fine_grained import (
    FineGrainedConfig,
    FineGrainedResult,
    FineGrainedTrafficSource,
    run_fine_grained_experiment,
)
from .functionality import (
    FunctionalityConfig,
    FunctionalityResult,
    run_functionality_experiment,
)
from .policy_control import (
    PAPER_FIG3B_SHARES,
    PolicyControlConfig,
    PolicyControlResult,
    run_policy_control_experiment,
)
from .port_distribution import (
    PortDistributionConfig,
    PortDistributionResult,
    run_port_distribution_experiment,
)
from .rtbh_attack import RtbhAttackConfig, RtbhAttackResult, run_rtbh_attack_experiment
from .scaling import (
    PAPER_FIG9,
    ScalingConfig,
    ScalingMatrix,
    ScalingResult,
    run_scaling_experiment,
)
from .harness import SteppedExperiment
from .registry import (
    ExperimentSpec,
    all_experiments,
    experiment_names,
    get_experiment,
)
from .results import JsonResultMixin, ResultStore, to_jsonable
from .scenario import (
    AttackScenario,
    FineGrainedScenario,
    PaperScaleScenario,
    build_attack_scenario,
    build_fine_grained_scenario,
    build_paper_scale_scenario,
)
from .stellar_attack import (
    StellarAttackConfig,
    StellarAttackResult,
    run_stellar_attack_experiment,
)
from .sweep import Sweep, SweepResult, run_sweep
from .table1 import (
    QuantitativeComparisonResult,
    Table1Config,
    Table1Result,
    build_table1,
    run_quantitative_comparison,
    run_table1_experiment,
)

__all__ = [
    "CarpetBombingConfig",
    "CarpetBombingResult",
    "MultiVectorConfig",
    "MultiVectorResult",
    "PaperScaleConfig",
    "PaperScaleResult",
    "PulseAttackConfig",
    "PulseAttackResult",
    "run_carpet_bombing_experiment",
    "run_multi_vector_experiment",
    "run_paper_scale_experiment",
    "run_pulse_attack_experiment",
    "ChangeQueueingConfig",
    "ChangeQueueingResult",
    "generate_change_arrivals",
    "replay_change_arrivals",
    "run_change_queueing_experiment",
    "CollateralDamageConfig",
    "CollateralDamageResult",
    "run_collateral_damage_experiment",
    "CpuUpdateRateConfig",
    "CpuUpdateRateResult",
    "run_cpu_update_rate_experiment",
    "FineGrainedConfig",
    "FineGrainedResult",
    "FineGrainedTrafficSource",
    "run_fine_grained_experiment",
    "FunctionalityConfig",
    "FunctionalityResult",
    "run_functionality_experiment",
    "PAPER_FIG3B_SHARES",
    "PolicyControlConfig",
    "PolicyControlResult",
    "run_policy_control_experiment",
    "PortDistributionConfig",
    "PortDistributionResult",
    "run_port_distribution_experiment",
    "RtbhAttackConfig",
    "RtbhAttackResult",
    "run_rtbh_attack_experiment",
    "PAPER_FIG9",
    "ScalingConfig",
    "ScalingMatrix",
    "ScalingResult",
    "run_scaling_experiment",
    "AttackScenario",
    "FineGrainedScenario",
    "PaperScaleScenario",
    "build_attack_scenario",
    "build_fine_grained_scenario",
    "build_paper_scale_scenario",
    "StellarAttackConfig",
    "StellarAttackResult",
    "run_stellar_attack_experiment",
    "QuantitativeComparisonResult",
    "Table1Config",
    "Table1Result",
    "build_table1",
    "run_quantitative_comparison",
    "run_table1_experiment",
    "SteppedExperiment",
    "ExperimentSpec",
    "all_experiments",
    "experiment_names",
    "get_experiment",
    "JsonResultMixin",
    "ResultStore",
    "to_jsonable",
    "Sweep",
    "SweepResult",
    "run_sweep",
]
