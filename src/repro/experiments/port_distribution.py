"""Fig. 3(a): UDP source ports of blackholed vs. regular traffic.

The measurement study (§2.3) computes, over two weeks of IXP traffic, the
relative source-port distribution of traffic towards blackholed prefixes
and compares it to the distribution of all other traffic.  The
amplification-prone ports 0, 123 (NTP), 389 (LDAP), 11211 (memcached),
53 (DNS) and 19 (chargen) carry significantly more of the blackholed
traffic (one-tailed Welch's t-test, α = 0.02); UDP accounts for 99.94 % of
blackholed bytes while TCP dominates regular traffic (86.81 %).

The experiment generates a synthetic IXP trace with RTBH events, computes
the per-event port shares (so the confidence intervals have a sample to
work with), and runs the same tests.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..analysis.stats import (
    ConfidenceInterval,
    WelchTestResult,
    mean_confidence_interval,
    welch_t_test,
)
from ..traffic.amplification import AMPLIFICATION_PRONE_PORTS
from ..traffic.flowtable import iter_window_masks
from ..traffic.generator import IxpTraceGenerator
from ..traffic.packet import IpProtocol
from ..traffic.trace import TrafficTrace
from .results import JsonResultMixin


@dataclass
class PortDistributionConfig:
    """Parameters of the Fig. 3(a) experiment."""

    member_count: int = 80
    duration: float = 4 * 3600.0
    interval: float = 300.0
    rtbh_event_count: int = 24
    regular_rate_bps: float = 40e9
    blackholed_rate_bps: float = 4e9
    ports: Sequence[int] = AMPLIFICATION_PRONE_PORTS
    significance_level: float = 0.02
    seed: int = 17


@dataclass
class PortDistributionResult(JsonResultMixin):
    """Per-port shares, confidence intervals and significance tests."""

    config: PortDistributionConfig
    #: Mean share of blackholed traffic per source port, with CI.
    blackholed_shares: dict[int, ConfidenceInterval]
    #: Mean share of other traffic per source port, with CI.
    other_shares: dict[int, ConfidenceInterval]
    #: Welch's t-test per port (blackholed > other).
    tests: dict[int, WelchTestResult]
    #: Protocol byte shares.
    blackholed_udp_share: float
    blackholed_tcp_share: float
    other_tcp_share: float

    def significant_ports(self) -> list[int]:
        return [port for port, test in self.tests.items() if test.significant]

    def summary(self) -> dict[str, float]:
        summary: dict[str, float] = {
            "blackholed_udp_share": self.blackholed_udp_share,
            "blackholed_tcp_share": self.blackholed_tcp_share,
            "other_tcp_share": self.other_tcp_share,
            "significant_port_count": float(len(self.significant_ports())),
        }
        for port, interval in self.blackholed_shares.items():
            summary[f"blackholed_share_port_{port}"] = interval.mean
        for port, interval in self.other_shares.items():
            summary[f"other_share_port_{port}"] = interval.mean
        return summary


def _per_event_port_shares(
    trace: TrafficTrace, ports: Sequence[int], interval: float
) -> dict[int, list[float]]:
    """Per-interval share of bytes on each source port (the test samples)."""
    samples: dict[int, list[float]] = {port: [] for port in ports}
    start, end = trace.start, trace.end
    table = trace.table
    flow_bytes = table.bytes
    port_masks = {port: table.src_port == port for port in ports}
    for _, window in iter_window_masks(table, start, end, interval):
        grand_total = int(flow_bytes[window].sum())
        if grand_total > 0:
            for port in ports:
                port_bytes = int(flow_bytes[window & port_masks[port]].sum())
                samples[port].append(port_bytes / grand_total)
    return samples


def run_port_distribution_experiment(
    config: PortDistributionConfig | None = None,
    trace: TrafficTrace | None = None,
) -> PortDistributionResult:
    """Run the Fig. 3(a) analysis on a synthetic (or supplied) trace."""
    config = config if config is not None else PortDistributionConfig()
    if trace is None:
        generator = IxpTraceGenerator(
            member_asns=[65000 + i for i in range(config.member_count)],
            duration=config.duration,
            interval=config.interval,
            regular_rate_bps=config.regular_rate_bps,
            blackholed_rate_bps=config.blackholed_rate_bps,
            seed=config.seed,
        )
        generator.rtbh_events = generator.default_events(config.rtbh_event_count)
        trace = generator.generate()

    blackholed = trace.attack_flows()
    other = trace.benign_flows()

    blackholed_samples = _per_event_port_shares(blackholed, config.ports, config.interval)
    other_samples = _per_event_port_shares(other, config.ports, config.interval)

    blackholed_shares = {}
    other_shares = {}
    tests = {}
    for port in config.ports:
        blackholed_shares[port] = mean_confidence_interval(blackholed_samples[port])
        other_shares[port] = mean_confidence_interval(other_samples[port])
        tests[port] = welch_t_test(
            blackholed_samples[port],
            other_samples[port],
            alpha=config.significance_level,
            alternative="greater",
        )

    blackholed_protocols = blackholed.share_by_protocol()
    other_protocols = other.share_by_protocol()
    return PortDistributionResult(
        config=config,
        blackholed_shares=blackholed_shares,
        other_shares=other_shares,
        tests=tests,
        blackholed_udp_share=blackholed_protocols.get(IpProtocol.UDP, 0.0),
        blackholed_tcp_share=blackholed_protocols.get(IpProtocol.TCP, 0.0),
        other_tcp_share=other_protocols.get(IpProtocol.TCP, 0.0),
    )
