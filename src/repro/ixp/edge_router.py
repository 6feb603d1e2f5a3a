"""IXP edge routers.

An edge router serves a set of member ports, owns the TCAM that backs its
QoS policies, and exposes a control plane whose CPU budget limits the
configuration update rate (paper §5.1).  Rule installation goes through the
router so TCAM accounting and update-rate accounting stay consistent.

A router numbers its ports when members attach, but builds a
:class:`~repro.ixp.port.MemberPort` (and its QoS policy) only when the
port is first looked up: on a city-scale platform only the few ports
that ever get a rule or a lookup exist as objects.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Optional

from .control_plane import ControlPlaneCpuModel
from .hardware_profiles import HardwareProfile, l_ixp_edge_router_profile
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
        #: Port id of every attached member, in attach order.
        self._port_ids: dict[int, int] = {}
        #: The ports built so far (see :meth:`port_for`).
        self._ports: dict[int, MemberPort] = {}
        #: Builds the port of a member attached by :meth:`attach_members`.
        self._build_port: Optional[Callable[[int, int], MemberPort]] = None
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
    def attach_members(
        self, asns: Sequence[int], build_port: Callable[[int, int], MemberPort]
    ) -> None:
        """Give each of ``asns`` the next free port, in order, building none.

        ``build_port(asn, port_id)`` builds a member's port on its first
        :meth:`port_for`.  Every ASN must be new to the router.  Members
        attach through ``SwitchingFabric.connect_population``, the one way
        a port comes to exist.
        """
        if len(self._port_ids) + len(asns) > self.profile.port_count:
            raise RuntimeError(
                f"edge router {self.name} has no free ports "
                f"(capacity {self.profile.port_count})"
            )
        if not self._port_ids.keys().isdisjoint(asns):
            raise ValueError(f"a member is already attached to edge router {self.name}")
        first = self._next_port_id
        self._port_ids.update(zip(asns, range(first, first + len(asns))))
        self._next_port_id = first + len(asns)
        self._build_port = build_port

    def port_for(self, member_asn: int) -> MemberPort:
        """The member's port, built on its first lookup."""
        port = self._ports.get(member_asn)
        if port is not None:
            return port
        port_id = self._port_ids.get(member_asn)
        if port_id is None or self._build_port is None:
            raise PortNotFoundError(
                f"no port for AS{member_asn} on edge router {self.name}"
            )
        port = self._ports[member_asn] = self._build_port(member_asn, port_id)
        return port

    def ports(self) -> list[MemberPort]:
        """Every attached member's port (building the ones not built yet)."""
        return [self.port_for(asn) for asn in self._port_ids]

    def built_ports(self) -> list[MemberPort]:
        """The ports built so far; a port never looked up holds no rules."""
        return list(self._ports.values())

    @property
    def member_asns(self) -> set[int]:
        return set(self._port_ids)

    @property
    def member_count(self) -> int:
        return len(self._port_ids)

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
        except TcamExhaustedError as exc:
            exc.installed = allocated
            raise
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

    def installed_rules(self) -> list[QosRule]:
        return [installation.rule for installation in self._installations.values()]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EdgeRouter({self.name}, pop={self.pop}, "
            f"ports={len(self._port_ids)}/{self.profile.port_count})"
        )
