"""Telemetry for Advanced Blackholing users.

One of the design requirements (§3.1) is that the network under attack can
still observe the state of the attack: shaped traffic gives the victim a
bounded live sample, and the IXP exposes statistics about the discarded
traffic so the member can decide when to terminate or tighten the
mitigation.  :class:`TelemetryCollector` aggregates per-rule and per-member
counters from the data-plane results and renders member-facing reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class RuleTelemetry:
    """Cumulative counters for one blackholing rule."""

    rule_id: str
    member_asn: int
    matched_bits: float = 0.0
    dropped_bits: float = 0.0
    shaped_passed_bits: float = 0.0
    shaped_dropped_bits: float = 0.0
    last_update: float = 0.0

    @property
    def filtered_bits(self) -> float:
        return self.dropped_bits + self.shaped_dropped_bits


@dataclass
class MemberTelemetryReport:
    """Member-facing summary across all of the member's rules."""

    member_asn: int
    time: float
    rules: list[RuleTelemetry]

    @property
    def total_filtered_bits(self) -> float:
        return sum(rule.filtered_bits for rule in self.rules)

    @property
    def active_rule_count(self) -> int:
        return len(self.rules)


class TelemetryCollector:
    """Aggregates data-plane results into per-rule telemetry."""

    def __init__(self) -> None:
        self._by_rule: dict[str, RuleTelemetry] = {}

    # ------------------------------------------------------------------
    def record_rule_interval(
        self,
        rule_id: str,
        member_asn: int,
        matched_bits: float,
        dropped_bits: float,
        shaped_passed_bits: float,
        interval: float,
        time: float,
        *,
        shaped_dropped_bits: float,
    ) -> RuleTelemetry:
        """Explicit per-rule recording (used by the Stellar facade).

        ``shaped_dropped_bits`` are the bits the rule's shaper discarded.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        telemetry = self._by_rule.setdefault(
            rule_id, RuleTelemetry(rule_id=rule_id, member_asn=member_asn)
        )
        telemetry.matched_bits += matched_bits
        telemetry.dropped_bits += dropped_bits
        telemetry.shaped_passed_bits += shaped_passed_bits
        telemetry.shaped_dropped_bits += shaped_dropped_bits
        telemetry.last_update = time
        return telemetry

    # ------------------------------------------------------------------
    def telemetry_for_rule(self, rule_id: str) -> Optional[RuleTelemetry]:
        return self._by_rule.get(rule_id)

    def report_for_member(self, member_asn: int, time: float = 0.0) -> MemberTelemetryReport:
        rules = [
            telemetry
            for telemetry in self._by_rule.values()
            if telemetry.member_asn == member_asn
        ]
        return MemberTelemetryReport(member_asn=member_asn, time=time, rules=rules)
