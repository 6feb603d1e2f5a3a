"""Direct-call references for the control-plane service.

:class:`ScriptedPortal` applies member operations straight onto a
fabric's routers, one rule at a time, with no queueing and no budget: the
way rules were installed before the service existed.
:func:`replay_request_log` re-applies a service's applied-change log
through the same direct router calls.  After the service drains, both
must leave the fabric in a bit-for-bit identical state, which is the
guarantee that coalescing is an amortization, never a semantic change.
"""

from repro.ixp.tcam import TcamExhaustedError


class ScriptedPortal:
    """Synchronous direct-call portal: the sequential parity oracle.

    TCAM exhaustion propagates as :class:`TcamExhaustedError`, matching
    the router contract.
    """

    def __init__(self, fabric):
        self.fabric = fabric

    def install(self, member_asn, rule):
        self.fabric.router_for_member(member_asn).install_rule(member_asn, rule)

    def install_many(self, member_asn, rules):
        router = self.fabric.router_for_member(member_asn)
        for rule in rules:
            router.install_rule(member_asn, rule)

    def remove(self, member_asn, rule_id):
        return self.fabric.router_for_member(member_asn).remove_rule(member_asn, rule_id)

    def clear(self, member_asn):
        return self.fabric.router_for_member(member_asn).clear_rules(member_asn)

    def telemetry(self, member_asn):
        router = self.fabric.router_for_member(member_asn)
        port = router.port_for(member_asn)
        mac_used, l3l4_used = router.tcam.usage_for_port(port.port_id)
        return {
            "router": router.name,
            "rules_version": port.qos.rules_version,
            "installed_rules": len(port.qos),
            "tcam_mac_entries": mac_used,
            "tcam_l3l4_criteria": l3l4_used,
        }


def replay_request_log(fabric, entries, *, sequential=True):
    """Apply a service request log to ``fabric`` through direct router calls.

    With ``sequential=True`` every coalesced ``install_many`` entry is
    applied one rule at a time via ``EdgeRouter.install_rule``;
    ``sequential=False`` replays batches as batches.  An install entry
    raises ``TcamExhaustedError`` on replay exactly when the live run
    logged it as TCAM-exhausted; either mismatch raises.  Returns the
    number of entries applied.
    """
    applied = 0
    for entry in entries:
        router = fabric.router_for_member(entry.member_asn)
        if entry.op == "install_many":
            try:
                if sequential:
                    for rule in entry.rules:
                        router.install_rule(entry.member_asn, rule)
                else:
                    router.install_rules(entry.member_asn, entry.rules)
            except TcamExhaustedError:
                if not entry.tcam_exhausted:
                    raise
            else:
                if entry.tcam_exhausted:
                    raise AssertionError(f"{entry} was logged as TCAM-exhausted, but its replay fit")
        elif entry.op == "remove":
            router.remove_rule(entry.member_asn, entry.rule_id)
        elif entry.op == "clear":
            router.clear_rules(entry.member_asn)
        else:
            raise ValueError(f"unknown log op {entry.op!r}")
        applied += 1
    return applied
