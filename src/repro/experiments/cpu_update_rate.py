"""Fig. 10(a): control-plane CPU usage vs. rule-update rate.

The edge router's control plane runs a real-time OS with a hard 15 % CPU
budget for configuration tasks.  The lab measurement sweeps the rate of
L3-criteria updates and records the CPU usage; the relationship is linear
and the 15 % budget corresponds to a median of 4.33 rule updates per
second.  The experiment reproduces the sweep on the CPU model, fits the
regression and derives the sustainable update rate.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..analysis.stats import LinearRegressionResult, linear_regression
from ..ixp.control_plane import (
    DEFAULT_CPU_LIMIT_PERCENT,
    PAPER_MEDIAN_UPDATE_RATE,
    ControlPlaneCpuModel,
)
from .results import JsonResultMixin


@dataclass
class CpuUpdateRateConfig:
    """Parameters of the Fig. 10(a) experiment."""

    update_rates: Sequence[float] = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)
    samples_per_rate: int = 40
    cpu_limit_percent: float = DEFAULT_CPU_LIMIT_PERCENT
    seed: int = 23


@dataclass
class CpuUpdateRateResult(JsonResultMixin):
    """Measurements, regression fit and derived sustainable update rate."""

    config: CpuUpdateRateConfig
    observations: list[tuple[float, float]]
    regression: LinearRegressionResult

    @property
    def max_update_rate(self) -> float:
        """Update rate at which the fitted line reaches the CPU budget."""
        return self.regression.solve_for_x(self.config.cpu_limit_percent)

    @property
    def cpu_at_paper_median_rate(self) -> float:
        """Fitted CPU usage at the paper's median rate of 4.33 updates/s."""
        return self.regression.predict(PAPER_MEDIAN_UPDATE_RATE)

    def mean_usage_by_rate(self) -> dict[float, float]:
        """Mean measured CPU usage per swept rate (the figure's points)."""
        sums: dict[float, float] = {}
        counts: dict[float, int] = {}
        for rate, usage in self.observations:
            sums[rate] = sums.get(rate, 0.0) + usage
            counts[rate] = counts.get(rate, 0) + 1
        return {rate: sums[rate] / counts[rate] for rate in sums}

    def summary(self) -> dict[str, float]:
        return {
            "slope_percent_per_update": self.regression.slope,
            "intercept_percent": self.regression.intercept,
            "r_value": self.regression.r_value,
            "max_update_rate_at_budget": self.max_update_rate,
            "paper_median_update_rate": PAPER_MEDIAN_UPDATE_RATE,
            "cpu_at_paper_median_rate": self.cpu_at_paper_median_rate,
        }


def run_cpu_update_rate_experiment(
    config: CpuUpdateRateConfig | None = None,
    cpu_model: ControlPlaneCpuModel | None = None,
) -> CpuUpdateRateResult:
    """Run the Fig. 10(a) sweep and fit the regression."""
    config = config if config is not None else CpuUpdateRateConfig()
    model = (
        cpu_model
        if cpu_model is not None
        else ControlPlaneCpuModel(
            cpu_limit_percent=config.cpu_limit_percent, seed=config.seed
        )
    )
    observations = model.measure_series(
        config.update_rates, samples_per_rate=config.samples_per_rate
    )
    regression = linear_regression(
        [rate for rate, _ in observations], [usage for _, usage in observations]
    )
    return CpuUpdateRateResult(
        config=config, observations=observations, regression=regression
    )
