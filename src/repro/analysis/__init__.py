"""Analysis helpers: statistics, collateral damage, policy control, time series."""

from .._lazy import lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "CollateralDamageReport": "collateral",
    "PortShareSnapshot": "collateral",
    "collateral_damage": "collateral",
    "fine_grained_filter_potential": "collateral",
    "port_share_timeseries": "collateral",
    "PolicyControlDistribution": "compliance",
    "policy_control_distribution": "compliance",
    "ConfidenceInterval": "stats",
    "LinearRegressionResult": "stats",
    "WelchTestResult": "stats",
    "cdf_quantile": "stats",
    "fraction_below": "stats",
    "linear_regression": "stats",
    "mean_confidence_interval": "stats",
    "welch_t_test": "stats",
    "AttackTimeSeries": "timeseries",
    "record_delivery": "timeseries",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
