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
shared interval-stepped runner lives in :mod:`repro.experiments.harness`, the
sweep/parallel layer in :mod:`repro.experiments.sweep`, and uniform result
serialization plus the artifact store in :mod:`repro.experiments.results`.
The ``python -m repro`` CLI is the user-facing entry point to all of it.
"""

from .._lazy import lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "CarpetBombingConfig": "attack_scenarios",
    "CarpetBombingResult": "attack_scenarios",
    "MultiVectorConfig": "attack_scenarios",
    "MultiVectorResult": "attack_scenarios",
    "PaperScaleConfig": "attack_scenarios",
    "PaperScaleResult": "attack_scenarios",
    "PulseAttackConfig": "attack_scenarios",
    "PulseAttackResult": "attack_scenarios",
    "run_carpet_bombing_experiment": "attack_scenarios",
    "run_multi_vector_experiment": "attack_scenarios",
    "run_paper_scale_experiment": "attack_scenarios",
    "run_pulse_attack_experiment": "attack_scenarios",
    "ChangeQueueingConfig": "change_queueing",
    "ChangeQueueingResult": "change_queueing",
    "generate_change_arrivals": "change_queueing",
    "replay_change_arrivals": "change_queueing",
    "run_change_queueing_experiment": "change_queueing",
    "CollateralDamageConfig": "collateral_damage",
    "CollateralDamageResult": "collateral_damage",
    "run_collateral_damage_experiment": "collateral_damage",
    "CpuUpdateRateConfig": "cpu_update_rate",
    "CpuUpdateRateResult": "cpu_update_rate",
    "run_cpu_update_rate_experiment": "cpu_update_rate",
    "FineGrainedConfig": "fine_grained",
    "FineGrainedResult": "fine_grained",
    "FineGrainedTrafficSource": "fine_grained",
    "run_fine_grained_experiment": "fine_grained",
    "FunctionalityConfig": "functionality",
    "FunctionalityResult": "functionality",
    "run_functionality_experiment": "functionality",
    "PAPER_FIG3B_SHARES": "policy_control",
    "PolicyControlConfig": "policy_control",
    "PolicyControlResult": "policy_control",
    "run_policy_control_experiment": "policy_control",
    "PortDistributionConfig": "port_distribution",
    "PortDistributionResult": "port_distribution",
    "run_port_distribution_experiment": "port_distribution",
    "RtbhAttackConfig": "rtbh_attack",
    "RtbhAttackResult": "rtbh_attack",
    "run_rtbh_attack_experiment": "rtbh_attack",
    "PAPER_FIG9": "scaling",
    "ScalingConfig": "scaling",
    "ScalingMatrix": "scaling",
    "ScalingResult": "scaling",
    "run_scaling_experiment": "scaling",
    "AttackScenario": "scenario",
    "FineGrainedScenario": "scenario",
    "PaperScaleScenario": "scenario",
    "build_attack_scenario": "scenario",
    "build_fine_grained_scenario": "scenario",
    "build_paper_scale_scenario": "scenario",
    "StellarAttackConfig": "stellar_attack",
    "StellarAttackResult": "stellar_attack",
    "run_stellar_attack_experiment": "stellar_attack",
    "QuantitativeComparisonResult": "table1",
    "Table1Config": "table1",
    "Table1Result": "table1",
    "build_table1": "table1",
    "run_quantitative_comparison": "table1",
    "run_table1_experiment": "table1",
    "SteppedExperiment": "harness",
    "ExperimentSpec": "registry",
    "all_experiments": "registry",
    "get_experiment": "registry",
    "JsonResultMixin": "results",
    "ResultStore": "results",
    "to_jsonable": "results",
    "Sweep": "sweep",
    "SweepResult": "sweep",
    "run_sweep": "sweep",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
