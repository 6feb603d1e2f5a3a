"""IXP edge routers.

An edge router serves a set of member ports, owns the TCAM that backs its
QoS policies, and exposes a control plane whose CPU budget limits the
configuration update rate (paper §5.1).  Rule installation goes through the
router so TCAM accounting and update-rate accounting stay consistent.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

from .control_plane import ControlPlaneCpuModel
from .hardware_profiles import HardwareProfile, l_ixp_edge_router_profile
from .member import IxpMember
from .port import MemberPort
from .qos import QosRule
from .tcam import TcamExhaustedError, TcamModel, TcamStatus


class PortNotFoundError(KeyError):
    """Raised when traffic or configuration targets an unknown member port."""


@dataclass
class RuleInstallation:
    """Book-keeping for an installed rule (needed to release TCAM on removal)."""

    rule: QosRule
    port_id: int
    mac_filters: int
    l3l4_criteria: int


class EdgeRouter:
    """One edge router of the IXP's distributed switching platform."""

    def __init__(
        self,
        name: str,
        profile: Optional[HardwareProfile] = None,
        pop: str = "pop-1",
        seed: int | None = None,
    ) -> None:
        self.name = name
        self.pop = pop
        self.profile = profile if profile is not None else l_ixp_edge_router_profile()
        self.tcam: TcamModel = self.profile.make_tcam()
        self.cpu: ControlPlaneCpuModel = self.profile.make_cpu_model(seed=seed)
        self._ports_by_asn: dict[int, MemberPort] = {}
        # Keyed by (port_id, rule_id): rule ids are scoped to one member
        # port's policy, so the same id on two ports of this router is two
        # independent installations, not a replacement.
        self._installations: dict[tuple[int, str], RuleInstallation] = {}
        self._next_port_id = 1
        #: Total number of configuration (rule add/remove) operations applied.
        self.config_operations = 0

    # ------------------------------------------------------------------
    # Port management
    # ------------------------------------------------------------------
    def connect_member(self, member: IxpMember) -> MemberPort:
        """Attach a member to the next free port."""
        if member.asn in self._ports_by_asn:
            return self._ports_by_asn[member.asn]
        if len(self._ports_by_asn) >= self.profile.port_count:
            raise RuntimeError(
                f"edge router {self.name} has no free ports "
                f"(capacity {self.profile.port_count})"
            )
        port = MemberPort(member=member, port_id=self._next_port_id)
        self._next_port_id += 1
        self._ports_by_asn[member.asn] = port
        return port

    def port_for(self, member_asn: int) -> MemberPort:
        try:
            return self._ports_by_asn[member_asn]
        except KeyError as exc:
            raise PortNotFoundError(
                f"no port for AS{member_asn} on edge router {self.name}"
            ) from exc

    def has_member(self, member_asn: int) -> bool:
        return member_asn in self._ports_by_asn

    def ports(self) -> list[MemberPort]:
        return list(self._ports_by_asn.values())

    @property
    def member_asns(self) -> set[int]:
        return set(self._ports_by_asn)

    @property
    def member_count(self) -> int:
        return len(self._ports_by_asn)

    # ------------------------------------------------------------------
    # Configuration (consumes TCAM + control-plane budget)
    # ------------------------------------------------------------------
    def install_rule(self, member_asn: int, rule: QosRule) -> TcamStatus:
        """Install a QoS rule on a member's egress port.

        Returns :data:`TcamStatus.OK` on success; raises
        :class:`TcamExhaustedError` when the hardware limits are exceeded.
        """
        port = self.port_for(member_asn)
        mac_filters = rule.match.mac_filter_entries
        l3l4 = rule.match.l3l4_criteria
        if rule.rule_id and (port.port_id, rule.rule_id) in self._installations:
            # Replacing an existing rule on this port: release the old
            # footprint first.
            self.remove_rule(member_asn, rule.rule_id)
        self.tcam.allocate(port.port_id, mac_filters, l3l4)
        port.install_rule(rule)
        if rule.rule_id:
            self._installations[(port.port_id, rule.rule_id)] = RuleInstallation(
                rule=rule, port_id=port.port_id, mac_filters=mac_filters, l3l4_criteria=l3l4
            )
        self.config_operations += 1
        return TcamStatus.OK

    def install_rules(self, member_asn: int, rules: Sequence[QosRule]) -> TcamStatus:
        """Install a batch of rules on one member port in a single pass.

        TCAM is allocated (and replaced ids released) rule by rule, so the
        accounting equals sequential :meth:`install_rule` calls, but the
        port policy ingests the batch through
        :meth:`~repro.ixp.qos.PortQosPolicy.install_many` — one re-sort
        and one rule-set version bump instead of one per rule, which is
        what makes staging tens of thousands of fine-grained rules
        tractable.
        """
        port = self.port_for(member_asn)
        rules = list(rules)
        allocated = 0
        try:
            for rule in rules:
                mac_filters = rule.match.mac_filter_entries
                l3l4 = rule.match.l3l4_criteria
                # Replacements release the old footprint directly (the
                # data-plane side is handled by install_many's same-id
                # replacement) — going through remove_rule here would cost
                # one full policy re-sort per replaced rule.
                old = (
                    self._installations.pop((port.port_id, rule.rule_id), None)
                    if rule.rule_id
                    else None
                )
                if old is not None:
                    self.tcam.release(
                        old.port_id, old.mac_filters, old.l3l4_criteria
                    )
                try:
                    self.tcam.allocate(port.port_id, mac_filters, l3l4)
                except Exception:
                    if old is not None and port.qos.remove(rule.rule_id):
                        # Sequential install_rule removes the replaced rule
                        # from the data plane before the failing allocate.
                        self.config_operations += 1
                    raise
                if old is not None:
                    self.config_operations += 1
                allocated += 1
                if rule.rule_id:
                    self._installations[(port.port_id, rule.rule_id)] = RuleInstallation(
                        rule=rule,
                        port_id=port.port_id,
                        mac_filters=mac_filters,
                        l3l4_criteria=l3l4,
                    )
        finally:
            # On TCAM exhaustion mid-batch, the rules allocated so far must
            # still reach the data plane — exactly where sequential
            # install_rule calls would have left the router.
            if allocated:
                port.qos.install_many(rules[:allocated])
                self.config_operations += allocated
        return TcamStatus.OK

    def remove_rule(self, member_asn: int, rule_id: str) -> bool:
        """Remove a rule and release its TCAM footprint."""
        port = self.port_for(member_asn)
        removed = port.remove_rule(rule_id)
        installation = self._installations.pop((port.port_id, rule_id), None)
        if installation is not None:
            self.tcam.release(
                installation.port_id,
                installation.mac_filters,
                installation.l3l4_criteria,
            )
        if removed:
            self.config_operations += 1
        return removed

    def clear_rules(self, member_asn: int) -> int:
        """Remove every rule on a member's port and release its TCAM.

        The TCAM pool is released wholesale via ``release_port``, which
        also frees the footprint of anonymous (id-less) rules that never
        got a :class:`RuleInstallation` record — going through per-rule
        :meth:`remove_rule` calls would leak those.  Returns the number of
        rules removed; clearing an empty port is a no-op (no config
        operations, no policy version bump).
        """
        port = self.port_for(member_asn)
        removed = len(port.qos)
        port.qos.clear()
        self.tcam.release_port(port.port_id)
        self._installations = {
            key: installation
            for key, installation in self._installations.items()
            if installation.port_id != port.port_id
        }
        self.config_operations += removed
        return removed

    def check_capacity(self, rule: QosRule) -> TcamStatus:
        """Feasibility check without installing (used by admission control)."""
        return self.tcam.check(rule.match.mac_filter_entries, rule.match.l3l4_criteria)

    def installed_rules(self) -> list[QosRule]:
        return [installation.rule for installation in self._installations.values()]

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def cpu_usage_for_rate(self, updates_per_second: float) -> float:
        """Noisy CPU-usage measurement for a configuration update rate."""
        return self.cpu.measure_usage(updates_per_second)

    def max_sustainable_update_rate(self) -> float:
        """Update rate that saturates the configuration CPU budget."""
        return self.cpu.max_update_rate()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EdgeRouter({self.name}, pop={self.pop}, "
            f"ports={len(self._ports_by_asn)}/{self.profile.port_count})"
        )
