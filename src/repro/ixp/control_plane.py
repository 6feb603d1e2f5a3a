"""Edge-router control-plane CPU model.

The paper finds that the limiting factor for the configuration update rate
is the edge router's control-plane CPU (§5.1): the router runs a real-time
OS with a hard 15 % CPU budget for configuration tasks, and the measured
relationship between L3-criteria update rate and CPU usage is linear, with
the 15 % budget corresponding to a median of 4.33 rule updates per second
(Fig. 10(a)).

The model reproduces that relationship as ``cpu = base + slope × rate``
plus Gaussian measurement noise.  Default coefficients are calibrated so
``max_update_rate(15 %) ≈ 4.33/s``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..sim.rng import make_rng

#: Hard CPU budget (percent) the IXP's configuration imposes for config tasks.
DEFAULT_CPU_LIMIT_PERCENT = 15.0

#: Median sustainable update rate the paper reports at the 15 % budget.
PAPER_MEDIAN_UPDATE_RATE = 4.33


@dataclass
class ControlPlaneCpuModel:
    """Linear CPU-usage model of the edge router's configuration daemon."""

    #: CPU percentage consumed with no configuration activity.
    base_percent: float = 1.5
    #: Additional CPU percentage per (rule update / second).
    percent_per_update: float = 3.117
    #: Standard deviation of the measurement noise (percentage points).
    noise_std: float = 0.6
    #: Hard budget for configuration tasks.
    cpu_limit_percent: float = DEFAULT_CPU_LIMIT_PERCENT
    seed: int | None = None
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.base_percent < 0 or self.percent_per_update <= 0:
            raise ValueError("base_percent must be >= 0 and percent_per_update > 0")
        if self.noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        if not 0 < self.cpu_limit_percent <= 100:
            raise ValueError("cpu_limit_percent must lie in (0, 100]")
        self._rng = make_rng(self.seed)

    # ------------------------------------------------------------------
    def expected_usage(self, updates_per_second: float) -> float:
        """Noise-free CPU usage (percent) at a given update rate."""
        if updates_per_second < 0:
            raise ValueError("updates_per_second must be non-negative")
        return self.base_percent + self.percent_per_update * updates_per_second

    def measure_usage(self, updates_per_second: float) -> float:
        """One noisy CPU-usage measurement, clipped to [0, 100].

        With ``noise_std == 0`` the measurement is exactly
        :meth:`expected_usage` and consumes no RNG state — the
        deterministic mode budget-enforcement code paths (the
        control-plane service) rely on: repeated measurements of the
        same rate are identical and never perturb other seeded draws.
        """
        expected = self.expected_usage(updates_per_second)
        if self.noise_std == 0.0:
            return float(np.clip(expected, 0.0, 100.0))
        noisy = expected + self._rng.normal(0.0, self.noise_std)
        return float(np.clip(noisy, 0.0, 100.0))

    def measure_series(
        self, updates_per_second: Sequence[float], samples_per_rate: int = 1
    ) -> list[tuple[float, float]]:
        """Measure CPU usage for a sweep of update rates.

        Returns ``(rate, cpu_percent)`` pairs — the scatter of Fig. 10(a).
        """
        if samples_per_rate < 1:
            raise ValueError("samples_per_rate must be >= 1")
        observations = []
        for rate in updates_per_second:
            for _ in range(samples_per_rate):
                observations.append((float(rate), self.measure_usage(rate)))
        return observations

    def max_update_rate(self, cpu_limit_percent: float | None = None) -> float:
        """Largest update rate that stays within the CPU budget."""
        limit = self.cpu_limit_percent if cpu_limit_percent is None else cpu_limit_percent
        if limit <= self.base_percent:
            return 0.0
        return (limit - self.base_percent) / self.percent_per_update

    @classmethod
    def deterministic(cls, **overrides) -> "ControlPlaneCpuModel":
        """A noise-free model (``noise_std=0``).

        ``measure_usage`` equals ``expected_usage`` exactly, so
        ``max_update_rate`` is a hard, reproducible admission threshold
        rather than a statistical one.  This is the model the
        control-plane service's per-member change budgets run on.
        """
        overrides.setdefault("noise_std", 0.0)
        return cls(**overrides)
