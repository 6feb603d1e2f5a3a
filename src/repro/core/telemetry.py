"""Telemetry for Advanced Blackholing users.

One of the design requirements (§3.1) is that the network under attack can
still observe the state of the attack: shaped traffic gives the victim a
bounded live sample, and the IXP exposes statistics about the discarded
traffic so the member can decide when to terminate or tighten the
mitigation.  :class:`~repro.core.stellar.Stellar` keeps one
:class:`RuleTelemetry` per (member, rule id), the running sum of the rule
columns of every interval report, and renders a
:class:`MemberTelemetryReport` per member.
"""

from __future__ import annotations

from dataclasses import dataclass


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
