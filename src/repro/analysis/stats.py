"""Statistics used by the paper's evaluation.

* Welch's unequal-variances t-test (one-tailed) — used in §2.3 to show that
  the port distribution of blackholed traffic differs significantly from
  regular traffic (significance level 0.02).
* Confidence intervals on proportions — the error bars of Fig. 3(a).
* Empirical CDFs — Fig. 10(b).
* Ordinary least-squares linear regression with confidence bands —
  Fig. 10(a).

All functions are thin, explicit wrappers around :mod:`numpy`/:mod:`scipy`
so the experiment drivers stay readable.

:mod:`scipy.stats` is imported inside the three functions that call it
(:func:`welch_t_test`, :func:`mean_confidence_interval`,
:func:`linear_regression`), not at module level.  Importing it costs more
than the rest of the package together (about 0.65 s, 60 MB of RSS and
tens of thousands of GC-tracked objects), every scenario and every spawned
shard worker imports this module, and only Fig. 3(a) and Fig. 10(a) use
scipy.  Python caches the module after the first call.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WelchTestResult:
    """Result of a one-tailed Welch's t-test."""

    statistic: float
    p_value: float
    significant: bool
    alpha: float

    def __str__(self) -> str:
        marker = "significant" if self.significant else "not significant"
        return f"t={self.statistic:.3f}, p={self.p_value:.4f} ({marker} at {self.alpha})"


def welch_t_test(
    sample_a: Sequence[float],
    sample_b: Sequence[float],
    alpha: float = 0.02,
    alternative: str = "greater",
) -> WelchTestResult:
    """One-tailed Welch's unequal-variances t-test.

    ``alternative="greater"`` tests whether the mean of ``sample_a`` exceeds
    the mean of ``sample_b`` — e.g. whether the share of NTP traffic in
    blackholed events exceeds its share in regular traffic.
    """
    a = np.asarray(list(sample_a), dtype=float)
    b = np.asarray(list(sample_b), dtype=float)
    if a.size < 2 or b.size < 2:
        raise ValueError("both samples need at least two observations")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    from scipy import stats as scipy_stats

    statistic, p_value = scipy_stats.ttest_ind(
        a, b, equal_var=False, alternative=alternative
    )
    return WelchTestResult(
        statistic=float(statistic),
        p_value=float(p_value),
        significant=bool(p_value < alpha),
        alpha=alpha,
    )


@dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric confidence interval around a mean."""

    mean: float
    lower: float
    upper: float
    confidence: float

    @property
    def half_width(self) -> float:
        return (self.upper - self.lower) / 2


def mean_confidence_interval(
    sample: Sequence[float], confidence: float = 0.95
) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of a sample."""
    values = np.asarray(list(sample), dtype=float)
    if values.size == 0:
        raise ValueError("sample must not be empty")
    if not 0 < confidence < 1:
        raise ValueError("confidence must lie in (0, 1)")
    mean = float(values.mean())
    if values.size == 1:
        return ConfidenceInterval(mean=mean, lower=mean, upper=mean, confidence=confidence)
    from scipy import stats as scipy_stats

    sem = float(scipy_stats.sem(values))
    if sem == 0:
        return ConfidenceInterval(mean=mean, lower=mean, upper=mean, confidence=confidence)
    half = float(sem * scipy_stats.t.ppf((1 + confidence) / 2, values.size - 1))
    return ConfidenceInterval(
        mean=mean, lower=mean - half, upper=mean + half, confidence=confidence
    )


def empirical_cdf(sample: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(sorted_values, P(X <= x))`` for an empirical CDF plot."""
    values = np.sort(np.asarray(list(sample), dtype=float))
    if values.size == 0:
        raise ValueError("sample must not be empty")
    probabilities = np.arange(1, values.size + 1) / values.size
    return values, probabilities


def cdf_quantile(sample: Sequence[float], quantile: float) -> float:
    """The empirical ``quantile`` (e.g. 0.95) of a sample."""
    if not 0 <= quantile <= 1:
        raise ValueError("quantile must lie in [0, 1]")
    values = np.asarray(list(sample), dtype=float)
    if values.size == 0:
        raise ValueError("sample must not be empty")
    return float(np.quantile(values, quantile))


def fraction_below(sample: Sequence[float], threshold: float) -> float:
    """Fraction of observations with value <= threshold (a CDF read-out)."""
    values = np.asarray(list(sample), dtype=float)
    if values.size == 0:
        raise ValueError("sample must not be empty")
    return float(np.mean(values <= threshold))


@dataclass(frozen=True)
class LinearRegressionResult:
    """Ordinary least-squares fit ``y = intercept + slope * x``."""

    slope: float
    intercept: float
    r_value: float
    p_value: float
    stderr: float

    def predict(self, x: float) -> float:
        return self.intercept + self.slope * x

    def solve_for_x(self, y: float) -> float:
        """The x at which the fitted line reaches ``y`` (e.g. the CPU budget)."""
        if self.slope == 0:
            raise ZeroDivisionError("slope is zero; cannot invert the regression")
        return (y - self.intercept) / self.slope


def linear_regression(
    x: Sequence[float], y: Sequence[float]
) -> LinearRegressionResult:
    """OLS linear regression (the fit line of Fig. 10(a))."""
    x_values = np.asarray(list(x), dtype=float)
    y_values = np.asarray(list(y), dtype=float)
    if x_values.size != y_values.size:
        raise ValueError("x and y must have the same length")
    if x_values.size < 2:
        raise ValueError("at least two points are required")
    from scipy import stats as scipy_stats

    result = scipy_stats.linregress(x_values, y_values)
    return LinearRegressionResult(
        slope=float(result.slope),
        intercept=float(result.intercept),
        r_value=float(result.rvalue),
        p_value=float(result.pvalue),
        stderr=float(result.stderr),
    )
