"""Fig. 9: Stellar scaling limits by IXP member adoption rate.

The lab evaluation (§5.1) checks whether the edge router's TCAM can hold
the filter state of Advanced Blackholing when more members adopt it and
each member holds more parallel rules.  The experiment sweeps

* the adoption rate — the fraction of the router's member ports with
  active blackholing rules (20 %, 60 %, 100 % in the paper),
* the number of MAC filters per active port (0 … 10 N),
* the number of L3–L4 filter criteria per active port (0 … 4 N),

where N is the 95th percentile of parallel RTBH rules observed in
production.  Each grid cell reports OK (fits), F1 (chassis-wide L3–L4
criteria exhausted) or F2 (MAC filter entries exhausted).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from ..ixp.hardware_profiles import (
    PARALLEL_RTBH_95TH_PERCENTILE,
    HardwareProfile,
    l_ixp_edge_router_profile,
)
from ..ixp.tcam import TcamStatus
from .results import JsonResultMixin

#: Multiples of N swept on each axis, matching the figure's ticks.
DEFAULT_MAC_MULTIPLES = (0, 2, 4, 6, 8, 10)
DEFAULT_L3L4_MULTIPLES = (0, 1, 2, 3, 4)
DEFAULT_ADOPTION_RATES = (0.2, 0.6, 1.0)


@dataclass
class ScalingConfig:
    """Parameters of the Fig. 9 experiment."""

    profile: HardwareProfile = field(default_factory=l_ixp_edge_router_profile)
    parallel_rtbh_n: int = PARALLEL_RTBH_95TH_PERCENTILE
    adoption_rates: Sequence[float] = DEFAULT_ADOPTION_RATES
    mac_multiples: Sequence[int] = DEFAULT_MAC_MULTIPLES
    l3l4_multiples: Sequence[int] = DEFAULT_L3L4_MULTIPLES


@dataclass
class ScalingMatrix:
    """The OK/F1/F2 feasibility matrix for one adoption rate."""

    adoption_rate: float
    active_ports: int
    #: ``cells[(mac_multiple, l3l4_multiple)] -> TcamStatus``
    cells: dict[tuple[int, int], TcamStatus]

    def status(self, mac_multiple: int, l3l4_multiple: int) -> TcamStatus:
        return self.cells[(mac_multiple, l3l4_multiple)]

    def ok_fraction(self) -> float:
        if not self.cells:
            return 0.0
        ok = sum(1 for status in self.cells.values() if status is TcamStatus.OK)
        return ok / len(self.cells)

    def render(self, mac_multiples: Sequence[int], l3l4_multiples: Sequence[int]) -> str:
        """Text rendering mirroring the figure layout (MAC rows, L3-L4 columns)."""
        lines = [f"adoption rate {self.adoption_rate:.0%} ({self.active_ports} active ports)"]
        header = "MAC\\L3L4 " + " ".join(f"{m}N".rjust(4) for m in l3l4_multiples)
        lines.append(header)
        for mac in sorted(mac_multiples, reverse=True):
            row = [f"{mac:>2}N      "]
            for l3l4 in l3l4_multiples:
                row.append(self.cells[(mac, l3l4)].value.rjust(4))
            lines.append(" ".join(row))
        return "\n".join(lines)


@dataclass
class ScalingResult(JsonResultMixin):
    """Feasibility matrices for every adoption rate."""

    config: ScalingConfig
    matrices: dict[float, ScalingMatrix]

    def matrix(self, adoption_rate: float) -> ScalingMatrix:
        return self.matrices[adoption_rate]

    def summary(self) -> dict[float, float]:
        """OK fraction per adoption rate."""
        return {rate: matrix.ok_fraction() for rate, matrix in self.matrices.items()}


def evaluate_cell(
    profile: HardwareProfile,
    active_ports: int,
    mac_filters_per_port: int,
    l3l4_criteria_per_port: int,
) -> TcamStatus:
    """Feasibility of one configuration on a fresh TCAM.

    Loads every active port with the requested per-port filter counts; the
    first limit hit determines the label (F1 takes precedence over F2,
    matching the paper's figure).
    """
    tcam = profile.make_tcam()
    status = tcam.check(
        mac_filters=active_ports * mac_filters_per_port,
        l3l4_criteria=active_ports * l3l4_criteria_per_port,
    )
    return status


def run_scaling_experiment(config: ScalingConfig | None = None) -> ScalingResult:
    """Run the Fig. 9 sweep and return the feasibility matrices."""
    config = config if config is not None else ScalingConfig()
    n = config.parallel_rtbh_n
    matrices: dict[float, ScalingMatrix] = {}
    for rate in config.adoption_rates:
        if not 0 < rate <= 1:
            raise ValueError(f"adoption rate must lie in (0, 1], got {rate}")
        active_ports = int(round(config.profile.port_count * rate))
        cells: dict[tuple[int, int], TcamStatus] = {}
        for mac_multiple in config.mac_multiples:
            for l3l4_multiple in config.l3l4_multiples:
                cells[(mac_multiple, l3l4_multiple)] = evaluate_cell(
                    config.profile,
                    active_ports,
                    mac_filters_per_port=mac_multiple * n,
                    l3l4_criteria_per_port=l3l4_multiple * n,
                )
        matrices[rate] = ScalingMatrix(
            adoption_rate=rate, active_ports=active_ports, cells=cells
        )
    return ScalingResult(config=config, matrices=matrices)


#: The paper's Fig. 9 matrices, transcribed for comparison in tests/benches.
#: Keys: adoption rate -> {(mac_multiple, l3l4_multiple): status string}.
PAPER_FIG9: dict[float, dict[tuple[int, int], str]] = {
    0.2: {
        (mac, l3l4): "OK"
        for mac in DEFAULT_MAC_MULTIPLES
        for l3l4 in DEFAULT_L3L4_MULTIPLES
    },
    0.6: {
        (mac, l3l4): (
            "F1"
            if l3l4 == 4
            else ("F2" if mac == 10 else "OK")
        )
        for mac in DEFAULT_MAC_MULTIPLES
        for l3l4 in DEFAULT_L3L4_MULTIPLES
    },
    1.0: {
        (mac, l3l4): (
            "F1"
            if l3l4 >= 2
            else ("F2" if mac >= 6 else "OK")
        )
        for mac in DEFAULT_MAC_MULTIPLES
        for l3l4 in DEFAULT_L3L4_MULTIPLES
    },
}
