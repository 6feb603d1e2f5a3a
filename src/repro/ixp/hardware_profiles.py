"""Hardware profiles of IXP edge routers.

A :class:`HardwareProfile` bundles the resource limits of one router model:
how many member ports it serves, the TCAM pool sizes, and the control-plane
CPU coefficients.  The router's TCAM, sized from its profile, is the one
per-port limit on installed rules: an install it cannot hold fails with
:class:`~repro.ixp.tcam.TcamExhaustedError`.

Calibration of the default L-IXP profile
----------------------------------------

Fig. 9 of the paper expresses filter counts in units of *N*, the 95th
percentile of parallel RTBH rules per port, and sweeps MAC filters per port
from 0 to 10 N and L3–L4 criteria per port from 0 to 4 N for adoption rates
of 20 %, 60 % and 100 % of the member ports.  The reported feasibility
matrix implies chassis-wide pool sizes (P = number of ports):

* MAC pool: 60 % × P × 10 N fails but 60 % × P × 8 N fits, and
  100 % × P × 6 N fails but 100 % × P × 4 N fits ⇒ pool ∈ [4.8, 6) · P · N.
  We use **5 · P · N**.
* L3–L4 pool: 60 % × P × 4 N fails but 60 % × P × 3 N fits, and
  100 % × P × 2 N fails but 100 % × P × N fits ⇒ pool ∈ [1.8, 2) · P · N.
  We use **1.9 · P · N**.

With the documented N = 16 and P = 350 these evaluate to 28 000 MAC entries
and 10 640 L3–L4 criteria — plausible TCAM partition sizes for a large
chassis router.
"""

from __future__ import annotations

from dataclasses import dataclass

from .control_plane import ControlPlaneCpuModel
from .tcam import TcamModel

#: N — the 95th percentile of parallel RTBH rules any member holds on any
#: port (paper §5.1).  The absolute value is not disclosed; 16 is used as a
#: representative value and all Fig. 9 axes are expressed in multiples of it.
PARALLEL_RTBH_95TH_PERCENTILE = 16


@dataclass(frozen=True)
class HardwareProfile:
    """Resource description of one edge-router model."""

    name: str
    port_count: int
    mac_filter_capacity: int
    l3l4_criteria_capacity: int
    #: Default member port speed in bits per second.
    port_capacity_bps: float = 10e9
    #: Control-plane CPU model coefficients.
    cpu_base_percent: float = 1.5
    cpu_percent_per_update: float = 3.117
    cpu_limit_percent: float = 15.0

    def __post_init__(self) -> None:
        if self.port_count <= 0:
            raise ValueError("port_count must be positive")
        if self.mac_filter_capacity <= 0 or self.l3l4_criteria_capacity <= 0:
            raise ValueError("TCAM capacities must be positive")

    # ------------------------------------------------------------------
    def make_tcam(self) -> TcamModel:
        """Instantiate a fresh TCAM with this profile's capacities."""
        return TcamModel(
            mac_filter_capacity=self.mac_filter_capacity,
            l3l4_criteria_capacity=self.l3l4_criteria_capacity,
        )

    def make_cpu_model(self, seed: int | None = None) -> ControlPlaneCpuModel:
        """Instantiate the control-plane CPU model."""
        return ControlPlaneCpuModel(
            base_percent=self.cpu_base_percent,
            percent_per_update=self.cpu_percent_per_update,
            cpu_limit_percent=self.cpu_limit_percent,
            seed=seed,
        )


def l_ixp_edge_router_profile(
    port_count: int = 350,
    parallel_rtbh_n: int = PARALLEL_RTBH_95TH_PERCENTILE,
) -> HardwareProfile:
    """The production-density edge router used in the paper's lab evaluation."""
    return HardwareProfile(
        name="l-ixp-edge-router",
        port_count=port_count,
        mac_filter_capacity=int(5.0 * port_count * parallel_rtbh_n),
        l3l4_criteria_capacity=int(1.9 * port_count * parallel_rtbh_n),
    )


def small_ixp_edge_router_profile(port_count: int = 48) -> HardwareProfile:
    """A smaller edge switch used by examples exploring small IXPs."""
    return HardwareProfile(
        name="small-ixp-edge-router",
        port_count=port_count,
        mac_filter_capacity=4096,
        l3l4_criteria_capacity=1024,
        port_capacity_bps=10e9,
    )

