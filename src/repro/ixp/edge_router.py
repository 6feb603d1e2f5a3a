"""IXP edge routers.

An edge router serves a set of member ports and owns the TCAM that backs
its QoS policies.  Its control-plane CPU budget, which limits the
configuration update rate (paper §5.1), is enforced by the control-plane
service (:mod:`repro.ixp.service`) that paces changes to it.  Rule
installation goes through the router so TCAM accounting stays consistent
and every change counts in ``config_operations``.  The port's QoS policy is the one record of its rules: the router reads a rule's
TCAM footprint off its match when it installs, replaces or removes it.

A router numbers its ports when members attach, but builds a
:class:`~repro.ixp.port.MemberPort` (and its QoS policy) only when the
port is first looked up: on a city-scale platform only the few ports
that ever get a rule or a lookup exist as objects.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from typing import Optional

from .hardware_profiles import HardwareProfile, l_ixp_edge_router_profile
from .port import MemberPort
from .qos import PortQosPolicy, QosRule
from .tcam import TcamExhaustedError, TcamModel, TcamStatus


class PortNotFoundError(KeyError):
    """Raised when traffic or configuration targets an unknown member port."""


class EdgeRouter:
    """One edge router of the IXP's distributed switching platform."""

    def __init__(
        self,
        name: str,
        profile: Optional[HardwareProfile] = None,
        pop: str = "pop-1",
    ) -> None:
        self.name = name
        self.pop = pop
        self.profile = profile if profile is not None else l_ixp_edge_router_profile()
        self.tcam: TcamModel = self.profile.make_tcam()
        #: Port id of every attached member, in attach order.
        self._port_ids: dict[int, int] = {}
        #: The ports built so far (see :meth:`port_for`).
        self._ports: dict[int, MemberPort] = {}
        #: Builds the port of a member attached by :meth:`attach_members`.
        self._build_port: Optional[Callable[[int, int], MemberPort]] = None
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
        """Install one QoS rule on a member's egress port: the one-row
        :meth:`install_rules`."""
        return self.install_rules(member_asn, (rule,))

    def install_rules(self, member_asn: int, rules: Iterable[QosRule]) -> TcamStatus:
        """Install rules on one member's egress port, in order.

        Each rule claims its TCAM footprint (read off ``rule.match``), and
        one carrying an installed id first releases the footprint of the
        rule it replaces, whether that rule is on the port or earlier in
        the batch.  The port policy then ingests the placed rules in one
        :meth:`~repro.ixp.qos.PortQosPolicy.install_many` — one rule-set
        version bump for the batch, which is what makes staging tens of
        thousands of fine-grained rules tractable.

        Returns :data:`TcamStatus.OK`; raises :class:`TcamExhaustedError`
        (its ``installed`` the number of rules placed) at the first rule
        the TCAM refuses.  The rules before it stay installed, and a
        refused rule's id names no rule afterwards, because its
        replacement released the old rule first — the state one-row
        installs leave when they stop at that rule.
        """
        port = self.port_for(member_asn)
        qos = port.qos
        # The rules placed so far, and the rule each of their ids names.
        placed: list[QosRule] = []
        named: dict[str, QosRule] = {}
        for rule in rules:
            match = rule.match
            old = named.get(rule.rule_id) or qos.rule_for(rule.rule_id)
            if old is not None:
                self.tcam.release(
                    port.port_id, old.match.mac_filter_entries, old.match.l3l4_criteria
                )
                self.config_operations += 1
            try:
                self.tcam.allocate(port.port_id, match.mac_filter_entries, match.l3l4_criteria)
            except TcamExhaustedError as exc:
                exc.installed = len(placed)
                self._place(qos, placed)
                if old is not None:
                    qos.remove(rule.rule_id)
                raise
            rule = qos.normalise(rule, named)
            if rule.rule_id:
                named[rule.rule_id] = rule
            placed.append(rule)
        self._place(qos, placed)
        return TcamStatus.OK

    def _place(self, qos: PortQosPolicy, rules: list[QosRule]) -> None:
        """Hand the rules placed in the TCAM to the port policy at once."""
        if rules:
            qos.install_many(rules)
            self.config_operations += len(rules)

    def remove_rule(self, member_asn: int, rule_id: str) -> bool:
        """Remove the rule ``rule_id`` names and release its TCAM footprint.

        Returns False, changing nothing, when no rule on the port carries
        the id; the empty id names no rule.
        """
        port = self.port_for(member_asn)
        rule = port.qos.rule_for(rule_id)
        if rule is None:
            return False
        port.qos.remove(rule_id)
        self.tcam.release(port.port_id, rule.match.mac_filter_entries, rule.match.l3l4_criteria)
        self.config_operations += 1
        return True

    def clear_rules(self, member_asn: int) -> int:
        """Remove every rule on a member's port and release its TCAM.

        Anonymous rules go too: ``release_port`` frees the port's whole
        footprint.  Returns the number of rules removed; clearing an empty
        port is a no-op (no config operations, no policy version bump).
        """
        port = self.port_for(member_asn)
        removed = len(port.qos)
        port.qos.clear()
        self.tcam.release_port(port.port_id)
        self.config_operations += removed
        return removed

    def installed_rules(self) -> list[QosRule]:
        """Every rule an id names on the built ports, port by port in
        install order (anonymous SHAPE rules under their ``anon-<n>`` id)."""
        return [
            rule for port in self._ports.values() for rule in port.qos.rules() if rule.rule_id
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EdgeRouter({self.name}, pop={self.pop}, "
            f"ports={len(self._port_ids)}/{self.profile.port_count})"
        )
