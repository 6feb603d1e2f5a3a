"""TCAM resource model.

The paper identifies the edge routers' Ternary Content-Addressable Memory
as the main resource bottleneck for Advanced Blackholing (§5.1): filter
rules consume MAC (L2) filter entries and L3–L4 filter criteria, both of
which are finite.  Fig. 9 maps the feasible region for three adoption
rates; insufficient resources are labelled *F1* (chassis-wide L3–L4
criteria exhausted) or *F2* (MAC filter entries exhausted).

The model below tracks the two pools explicitly.  Pool sizes come from a
:class:`~repro.ixp.hardware_profiles.HardwareProfile`; the defaults are
calibrated so that the reproduction's Fig. 9 matrices match the paper's
(see the profile docstring for the calibration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class TcamStatus(Enum):
    """Resource check outcome, matching Fig. 9's cell labels."""

    OK = "OK"
    F1 = "F1"  # total L3-L4 filter criteria exceeded
    F2 = "F2"  # MAC filter entries exceeded


class TcamExhaustedError(RuntimeError):
    """Raised when an allocation would exceed the hardware limits."""

    def __init__(self, status: TcamStatus, message: str) -> None:
        super().__init__(message)
        self.status = status
        #: Rules of a failing batch install placed before the failure
        #: (set by :meth:`~repro.ixp.edge_router.EdgeRouter.install_rules`).
        self.installed = 0


@dataclass
class TcamModel:
    """Explicit accounting of MAC and L3–L4 filter resources.

    Both pools are chassis wide (shared across member ports), mirroring the
    behaviour the paper's lab evaluation exposes: increasing the *adoption
    rate* (number of ports with rules) shrinks the per-port headroom.
    """

    #: Chassis-wide capacity of MAC (L2) filter entries.
    mac_filter_capacity: int
    #: Chassis-wide capacity of L3–L4 filter criteria for QoS policies.
    l3l4_criteria_capacity: int
    _mac_used: dict[int, int] = field(default_factory=dict)
    _l3l4_used: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mac_filter_capacity <= 0 or self.l3l4_criteria_capacity <= 0:
            raise ValueError("TCAM capacities must be positive")

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def mac_filters_used(self) -> int:
        return sum(self._mac_used.values())

    @property
    def l3l4_criteria_used(self) -> int:
        return sum(self._l3l4_used.values())

    def usage_for_port(self, port_id: int) -> tuple[int, int]:
        """``(mac_filters, l3l4_criteria)`` consumed by one port."""
        return self._mac_used.get(port_id, 0), self._l3l4_used.get(port_id, 0)

    # ------------------------------------------------------------------
    # Feasibility checks and allocation
    # ------------------------------------------------------------------
    def check(self, mac_filters: int, l3l4_criteria: int) -> TcamStatus:
        """Would allocating the given amounts still fit?

        L3–L4 exhaustion (F1) takes precedence over MAC exhaustion (F2),
        matching how the paper's figure labels cells where both limits are
        exceeded.
        """
        if mac_filters < 0 or l3l4_criteria < 0:
            raise ValueError("resource amounts must be non-negative")
        if self.l3l4_criteria_used + l3l4_criteria > self.l3l4_criteria_capacity:
            return TcamStatus.F1
        if self.mac_filters_used + mac_filters > self.mac_filter_capacity:
            return TcamStatus.F2
        return TcamStatus.OK

    def allocate(self, port_id: int, mac_filters: int, l3l4_criteria: int) -> None:
        """Allocate resources for a port or raise :class:`TcamExhaustedError`."""
        status = self.check(mac_filters, l3l4_criteria)
        if status is not TcamStatus.OK:
            raise TcamExhaustedError(
                status,
                f"allocation of {mac_filters} MAC filters and {l3l4_criteria} "
                f"L3-L4 criteria for port {port_id} exceeds hardware limits "
                f"({status.value})",
            )
        self._mac_used[port_id] = self._mac_used.get(port_id, 0) + mac_filters
        self._l3l4_used[port_id] = self._l3l4_used.get(port_id, 0) + l3l4_criteria

    def release(self, port_id: int, mac_filters: int, l3l4_criteria: int) -> None:
        """Release previously allocated resources."""
        if mac_filters < 0 or l3l4_criteria < 0:
            raise ValueError("resource amounts must be non-negative")
        current_mac = self._mac_used.get(port_id, 0)
        current_l3l4 = self._l3l4_used.get(port_id, 0)
        if mac_filters > current_mac or l3l4_criteria > current_l3l4:
            raise ValueError(
                f"cannot release more resources than allocated for port {port_id}"
            )
        self._mac_used[port_id] = current_mac - mac_filters
        self._l3l4_used[port_id] = current_l3l4 - l3l4_criteria

    def release_port(self, port_id: int) -> None:
        """Release everything allocated to a port."""
        self._mac_used.pop(port_id, None)
        self._l3l4_used.pop(port_id, None)
