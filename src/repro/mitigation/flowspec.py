"""BGP Flowspec mitigation baseline.

Flowspec disseminates fine-grained filter rules across BGP sessions
(§1.1, §4.2.1).  Its effectiveness in the inter-domain / IXP setting is
limited by the same cooperation problem as RTBH: the *other* networks must
install the announced rules on *their* routers, consuming their hardware
resources.  The model therefore couples each rule with the set of peers
that actually install it (a per-peer acceptance draw, like the RTBH
compliance model) and with a per-peer rule budget, so experiments can
explore both the cooperation and the resource-sharing axes.

The data plane is columnar: it resolves every installed rule with one
vectorized five-tuple + installing-peer mask per rule (first matching rule
wins per flow, in announcement order) and shapes each rate-limited
population with a single scaling.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..bgp.flowspec import FlowspecRule
from ..sim.rng import make_rng
from ..traffic.flowtable import FlowTable
from .base import (
    Dimension,
    MitigationOutcome,
    MitigationTechnique,
    Rating,
    match_mask,
    member_mask,
)


@dataclass
class InstalledFlowspecRule:
    """A Flowspec rule plus the peers that accepted and installed it."""

    rule: FlowspecRule
    installing_peers: set[int] = field(default_factory=set)


class FlowspecService:
    """Models inter-domain Flowspec dissemination among IXP peers."""

    def __init__(
        self,
        acceptance_rate: float = 0.4,
        per_peer_rule_budget: int = 100,
        peer_acceptance: Optional[dict[int, bool]] = None,
        seed: int | None = None,
    ) -> None:
        if not 0 <= acceptance_rate <= 1:
            raise ValueError("acceptance_rate must lie in [0, 1]")
        if per_peer_rule_budget <= 0:
            raise ValueError("per_peer_rule_budget must be positive")
        self.acceptance_rate = acceptance_rate
        self.per_peer_rule_budget = per_peer_rule_budget
        self._peer_acceptance: dict[int, bool] = dict(peer_acceptance or {})
        self._rules_per_peer: dict[int, int] = {}
        self._rng = make_rng(seed)
        self._installed: list[InstalledFlowspecRule] = []

    # ------------------------------------------------------------------
    def peer_accepts(self, peer_asn: int) -> bool:
        """Whether a peer is willing to install Flowspec rules at all."""
        if peer_asn not in self._peer_acceptance:
            self._peer_acceptance[peer_asn] = bool(
                self._rng.random() < self.acceptance_rate
            )
        return self._peer_acceptance[peer_asn]

    def announce_rule(self, rule: FlowspecRule, peer_asns: Sequence[int]) -> InstalledFlowspecRule:
        """Announce a rule to the peers; record who installs it."""
        installing: set[int] = set()
        for peer in peer_asns:
            if not self.peer_accepts(peer):
                continue
            used = self._rules_per_peer.get(peer, 0)
            if used >= self.per_peer_rule_budget:
                continue  # the peer's router has no Flowspec TCAM left
            self._rules_per_peer[peer] = used + 1
            installing.add(peer)
        installed = InstalledFlowspecRule(rule=rule, installing_peers=installing)
        self._installed.append(installed)
        return installed

    def installed_rules(self) -> list[InstalledFlowspecRule]:
        return list(self._installed)


class FlowspecMitigation(MitigationTechnique):
    """Flowspec as a mitigation technique.

    A flow is discarded when any installed discard rule matches it *and*
    the ingress peer for that flow is among the peers that installed the
    rule; a rate-limited rule scales the matching traffic down to the
    configured rate (aggregated per rule and ingress peer).
    """

    name = "Flowspec"
    ratings = {
        Dimension.GRANULARITY: Rating.ADVANTAGE,
        Dimension.SIGNALING_COMPLEXITY: Rating.DISADVANTAGE,
        Dimension.COOPERATION: Rating.DISADVANTAGE,
        Dimension.RESOURCE_SHARING: Rating.DISADVANTAGE,
        Dimension.TELEMETRY: Rating.NEUTRAL,
        Dimension.SCALABILITY: Rating.ADVANTAGE,
        Dimension.RESOURCES: Rating.DISADVANTAGE,
        Dimension.PERFORMANCE: Rating.ADVANTAGE,
        Dimension.REACTION_TIME: Rating.ADVANTAGE,
        Dimension.COSTS: Rating.ADVANTAGE,
    }

    def __init__(self, service: FlowspecService) -> None:
        self.service = service

    @staticmethod
    def _rule_rate_limit(rule: FlowspecRule) -> float:
        """The effective rate of a non-discard rule (bytes/second)."""
        return max(
            action.rate_bytes_per_second
            for action in rule.actions
            if action.rate_bytes_per_second >= 0
        )

    def _partition(self, table: FlowTable, interval: float) -> MitigationOutcome:
        """Vectorized Flowspec: one mask per installed rule, first match wins."""
        n = len(table)
        unhandled = np.ones(n, dtype=bool)
        discard = np.zeros(n, dtype=bool)
        shaped_groups: list[FlowTable] = []
        for installed in self.service.installed_rules():
            if not unhandled.any():
                break
            rule = installed.rule
            if rule.packet_length_max is not None:
                # Flows carry no packet length, so a length-bounded rule
                # never matches them.
                continue
            matched = (
                unhandled
                & member_mask(table.ingress_asn, installed.installing_peers)
                & match_mask(
                    table,
                    dst_prefix=rule.dest_prefix,
                    src_prefix=rule.source_prefix,
                    protocol=rule.ip_protocol,
                    src_port=rule.source_port,
                    dst_port=rule.dest_port,
                )
            )
            if not matched.any():
                continue
            unhandled &= ~matched
            if rule.is_discard:
                discard |= matched
                continue
            group = table.select(matched)
            budget_bytes = self._rule_rate_limit(rule) * interval
            offered = int(group.bytes.sum())
            scale = min(1.0, budget_bytes / offered) if offered > 0 else 0.0
            shaped_groups.append(group.scaled(scale))
        return MitigationOutcome(
            delivered_table=table.select(unhandled),
            discarded_table=table.select(discard),
            shaped_table=FlowTable.concat(shaped_groups),
        )
