"""Customer (self-service) portal.

The IXP offers a shared set of predefined blackholing rules for common
attack patterns, and members can define custom rules bound to a numeric
identifier which they later reference from a BGP signal (paper §4.3).
The portal also performs the authorisation step: only the member that
registered a rule may reference it, and rules can only target prefixes the
member is authorised for.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from ..bgp.prefix import Prefix
from ..ixp.qos import FilterAction, FlowMatch
from ..traffic.packet import IpProtocol, WellKnownPort
from .rules import BlackholingRule


@dataclass(frozen=True)
class RuleTemplate:
    """A predefined rule: everything except the destination prefix/owner.

    ``match`` has no ``dst_prefix``; :meth:`instantiate` adds the victim's.
    """

    name: str
    match: FlowMatch = FlowMatch()
    action: FilterAction = FilterAction.DROP
    shape_rate_bps: float = 0.0
    description: str = ""

    def instantiate(self, owner_asn: int, dst_prefix: Prefix) -> BlackholingRule:
        """Bind the template to a concrete victim prefix and owner."""
        return BlackholingRule.create(
            owner_asn,
            replace(self.match, dst_prefix=dst_prefix),
            self.action,
            self.shape_rate_bps,
        )


def ixp_shared_templates() -> dict[int, RuleTemplate]:
    """The IXP's shared catalogue of predefined rules for common attacks."""
    vectors = {
        1: ("drop-ntp", int(WellKnownPort.NTP), "NTP reflection (UDP/123)"),
        2: ("drop-dns", int(WellKnownPort.DNS), "DNS amplification (UDP/53)"),
        3: ("drop-memcached", int(WellKnownPort.MEMCACHED), "memcached (UDP/11211)"),
        4: ("drop-ldap", int(WellKnownPort.LDAP), "CLDAP amplification (UDP/389)"),
        5: ("drop-chargen", int(WellKnownPort.CHARGEN), "chargen (UDP/19)"),
        6: ("drop-ssdp", int(WellKnownPort.SSDP), "SSDP amplification (UDP/1900)"),
    }
    templates = {
        rule_id: RuleTemplate(
            name=name,
            match=FlowMatch(protocol=IpProtocol.UDP, src_port=port),
            description=description,
        )
        for rule_id, (name, port, description) in vectors.items()
    }
    templates[7] = RuleTemplate(
        name="drop-udp-fragments",
        match=FlowMatch(protocol=IpProtocol.UDP, src_port=0),
        description="UDP fragments (source port 0)",
    )
    templates[8] = RuleTemplate(
        name="drop-all-udp",
        match=FlowMatch(protocol=IpProtocol.UDP),
        description="all UDP traffic towards the victim",
    )
    return templates


class CustomerPortal:
    """Registry of predefined (shared and member-defined) blackholing rules."""

    #: Member-defined rule identifiers start here; lower ids are IXP shared.
    CUSTOM_RULE_ID_BASE = 1000

    def __init__(self) -> None:
        self._shared: dict[int, RuleTemplate] = ixp_shared_templates()
        self._custom: dict[int, RuleTemplate] = {}
        self._custom_owner: dict[int, int] = {}
        self._ids = itertools.count(self.CUSTOM_RULE_ID_BASE)

    # ------------------------------------------------------------------
    # Catalogue management
    # ------------------------------------------------------------------
    def define_custom_rule(self, member_asn: int, template: RuleTemplate) -> int:
        """Register a member-defined template; returns its numeric identifier."""
        if member_asn <= 0:
            raise ValueError("member_asn must be positive")
        rule_id = next(self._ids)
        self._custom[rule_id] = template
        self._custom_owner[rule_id] = member_asn
        return rule_id

    def remove_custom_rule(self, member_asn: int, rule_id: int) -> bool:
        """Remove a member-defined rule (only by its owner)."""
        if self._custom_owner.get(rule_id) != member_asn:
            return False
        del self._custom[rule_id]
        del self._custom_owner[rule_id]
        return True

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve(
        self, rule_id: int, member_asn: int, dst_prefix: Prefix
    ) -> BlackholingRule:
        """Resolve a predefined-rule reference into a concrete rule.

        Shared templates are available to every member; custom templates
        only to the member that defined them.
        """
        template = self._shared.get(rule_id)
        if template is None:
            template = self._custom.get(rule_id)
            if template is None:
                raise KeyError(f"unknown predefined blackholing rule id {rule_id}")
            if self._custom_owner[rule_id] != member_asn:
                raise PermissionError(
                    f"AS{member_asn} is not authorised to use custom rule {rule_id}"
                )
        return template.instantiate(owner_asn=member_asn, dst_prefix=dst_prefix)
