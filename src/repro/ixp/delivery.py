"""Fabric delivery: one interval across the whole platform in one pass.

:class:`FabricDeliveryPlan` is how :meth:`SwitchingFabric.deliver
<repro.ixp.fabric.SwitchingFabric.deliver>` carries an interval's
:class:`~repro.traffic.flowtable.FlowTable` to the egress ports.  At paper
scale — DE-CIX-class fabrics carry traffic for hundreds of member ports
per observation interval (§4.5, footnote 1) — a Python loop over members
would cost O(members × flows) before any classification happens, so the
plan works platform-wide:

1. **compile** — every connected port's QoS rules are snapshotted into a
   single columnar rule set; each :class:`CompiledRule` is tagged with its
   egress member, and per-port precedence (most-specific-first) is
   preserved inside the global order;
2. **classify** — one vectorized group-by over the whole interval
   (``np.unique`` on the egress column), then each filtered member's slice
   is classified through the port's
   :meth:`~repro.ixp.qos.PortQosPolicy.assign_table` (its compiled
   :class:`~repro.ixp.ruleindex.RuleMatchIndex`); per-rule matched bits
   fall out of a single ``bincount``;
3. **scatter** — the verdicts are folded back into per-port
   :class:`~repro.ixp.qos.PortQosResult`\\ s (with deferred table views),
   :class:`~repro.ixp.port.PortCounters`, port history and the
   ``rule_stats`` the telemetry layer ingests.  The scatter iterates only
   the rules that actually claimed rows, so a port with tens of thousands
   of installed fine-grained rules costs O(claimed), not O(installed).

Plans are cached across intervals: each plan snapshots every port's
rule-set version counter (:attr:`~repro.ixp.qos.PortQosPolicy.rules_version`),
and :meth:`SwitchingFabric.deliver` reuses the plan while
:meth:`FabricDeliveryPlan.is_current` holds — rule installs/removals bump
the counter, so only intervals after a configuration change recompile, and
the per-port match indexes themselves are cached on the policies so
untouched ports never recompile at all.

The test suite checks every report bit for bit against a deliberately
naive first-match reference (``tests/oracle``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..traffic.flowtable import FlowTable
from .port import MemberPort
from .qos import (
    _DROP_CODE,
    _FORWARD_CODE,
    _SHAPE_CODE,
    FilterAction,
    PortQosResult,
    QosRule,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .fabric import FabricIntervalReport, SwitchingFabric


def _shape_rows_by_rank(
    assigned: np.ndarray, row_actions: np.ndarray
) -> dict[int, np.ndarray]:
    """Rows claimed by each SHAPE rule rank, ascending within each rank.

    One stable group-by over the shaped rows replaces a per-shape-rule
    ``np.isin`` scan of the whole interval — with thousands of installed
    shape rules that scan was itself O(rules × flows).
    """
    shape_rows = np.flatnonzero(row_actions == _SHAPE_CODE)
    if not len(shape_rows):
        return {}
    ranks = assigned[shape_rows]
    order = np.argsort(ranks, kind="stable")
    sorted_rows = shape_rows[order]
    sorted_ranks = ranks[order]
    unique, starts = np.unique(sorted_ranks, return_index=True)
    return dict(zip(unique.tolist(), np.split(sorted_rows, starts[1:])))


@dataclass(frozen=True)
class CompiledRule:
    """One port rule inside the platform-level rule set."""

    #: Egress member whose port owns the rule (the implicit match column).
    member_asn: int
    rule: QosRule
    #: Position in the owning port's most-specific-first rule order.
    port_rule_index: int


class FabricDeliveryPlan:
    """Compiled snapshot of a fabric's ports and QoS rules.

    A plan is cheap to build (one walk over the connected ports), and it
    records every port's rule-set version, so the fabric keeps reusing it
    across delivery intervals until :meth:`is_current` reports that the
    membership or some port's rules changed.
    """

    def __init__(
        self,
        fabric: "SwitchingFabric",
        previous: "FabricDeliveryPlan | None" = None,
    ) -> None:
        self.fabric = fabric
        # Key membership off the fabric's member registry (the same source
        # of truth the IPFIX export filter uses), not off whatever ports
        # the routers happen to carry.
        self._ports: dict[int, MemberPort] = {
            member.asn: fabric.port_for_member(member.asn)
            for member in fabric.members()
        }
        #: The platform-level rule set, grouped per member in per-port
        #: precedence order (members in ascending ASN order, matching the
        #: sorted group-by the execution pass produces).
        self._rules: list[CompiledRule] = []
        #: Each filtered member's contiguous slice of :attr:`_rules`.  The
        #: :class:`CompiledRule` entries are position-independent (global
        #: index = start + port-local rank), so an unchanged port's
        #: segment is reused verbatim when patching a stale plan.
        self._segments: dict[int, list[CompiledRule]] = {}
        #: First global index of each filtered member's contiguous rule
        #: block (global index = start + port-local rank).
        self._member_start: dict[int, int] = {}
        #: Rule-set version of every port at compile time (the cache key).
        self._port_versions: dict[int, int] = {}
        for asn in sorted(self._ports):
            qos = self._ports[asn].qos
            version = qos.rules_version
            self._port_versions[asn] = version
            if previous is not None and previous._port_versions.get(asn) == version:
                # Unchanged port: adopt the previous plan's compiled
                # segment (possibly absent — a rule-less port compiles to
                # no segment on both sides) instead of rebuilding it.
                segment = previous._segments.get(asn, [])
            else:
                segment = [
                    CompiledRule(member_asn=asn, rule=rule, port_rule_index=position)
                    for position, rule in enumerate(qos.sorted_rules())
                ]
            if not segment:
                continue
            self._member_start[asn] = len(self._rules)
            self._segments[asn] = segment
            self._rules.extend(segment)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def port_count(self) -> int:
        return len(self._ports)

    @property
    def rule_count(self) -> int:
        return len(self._rules)

    def compiled_rules(self) -> list[CompiledRule]:
        return list(self._rules)

    def is_current(self) -> bool:
        """True while the plan still matches the fabric's configuration.

        Checked once per delivery interval: the member set must be
        unchanged and every port's rule-set version must equal the
        compile-time snapshot.  O(members) per check, versus an
        O(total rules) recompile.
        """
        if self.fabric.member_asns != set(self._ports):
            return False
        return all(
            port.qos.rules_version == self._port_versions[asn]
            for asn, port in self._ports.items()
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self, table: FlowTable, interval: float, interval_start: float = 0.0
    ) -> "FabricIntervalReport":
        """Carry one interval across the platform in a single batched pass."""
        from .fabric import FabricIntervalReport

        if not (math.isfinite(interval) and interval > 0):
            raise ValueError("interval must be positive and finite")
        if not self.is_current():
            # Classification delegates to the live port policies while the
            # scatter indexes this plan's snapshot; running a stale plan
            # would silently attribute bits to the wrong rules.
            raise RuntimeError(
                "delivery plan is stale (rules or membership changed since "
                "compile); rebuild via SwitchingFabric.current_delivery_plan()"
            )
        report = FabricIntervalReport(interval_start=interval_start, interval=interval)
        n = len(table)
        if n == 0:
            return report

        egress = table.egress_asn
        bits = table.bits

        # One platform-wide group-by: member ASNs in ascending order, each
        # group's rows as ascending original-order indices (the stable
        # argsort preserves intra-member row order in the scattered tables).
        unique_asns, inverse = np.unique(egress, return_inverse=True)
        order = np.argsort(inverse, kind="stable")
        boundaries = np.cumsum(np.bincount(inverse, minlength=len(unique_asns)))[:-1]
        rows_per_group = np.split(order, boundaries)

        assigned, per_rule_bits = self._classify(
            table, bits, unique_asns, rows_per_group
        )

        # Platform totals are collected per member and reduced once after
        # the loop with sum(), in ascending-ASN group order (RPL006: no
        # float `+=` in loops).
        offered_terms: list[float] = []
        delivered_terms: list[float] = []
        filtered_terms: list[float] = []
        congestion_terms: list[float] = []
        for group_index, asn in enumerate(unique_asns.tolist()):
            port = self._ports.get(asn)
            if port is None:
                # Unknown egress member: the flow never entered the IXP.
                continue
            rows = rows_per_group[group_index]
            offered = float(bits[rows].sum())
            if asn not in self._segments:
                result = self._passthrough_result(table, rows, offered, port, interval)
            else:
                result = self._filtered_result(
                    table, rows, asn, assigned, bits, per_rule_bits, port, interval
                )
            port.counters.update(offered, result)
            if port.retain_history:
                port.history.append((interval_start, result))
            report.results_by_member[asn] = result
            offered_terms.append(offered)
            delivered_terms.append(result.delivered_bits)
            filtered_terms.append(result.dropped_bits + result.shaped_dropped_bits)
            congestion_terms.append(result.congestion_dropped_bits)
        report.offered_bits = float(sum(offered_terms))
        report.delivered_bits = float(sum(delivered_terms))
        report.filtered_bits = float(sum(filtered_terms))
        report.congestion_dropped_bits = float(sum(congestion_terms))
        return report

    # ------------------------------------------------------------------
    def _classify(
        self,
        table: FlowTable,
        bits: np.ndarray,
        unique_asns: np.ndarray,
        rows_per_group: Sequence[np.ndarray],
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Assign each row its claiming rule (global index, or -1 = forward).

        Rules of different members are disjoint by the egress column, so
        each filtered member's rules are matched against that member's
        row slice only, through the port policy's
        :meth:`~repro.ixp.qos.PortQosPolicy.assign_table` (its compiled
        rule-match index).  ``assign_table`` is row-wise, so verdicts on
        the slice equal verdicts on the full table; local ranks map to
        global rule indices by the member's contiguous block offset.
        """
        if not any(
            asn in self._segments for asn in unique_asns.tolist()
        ):
            return None, None
        assigned = np.full(len(table), -1, dtype=np.int64)
        for group_index, asn in enumerate(unique_asns.tolist()):
            if asn not in self._segments:
                continue
            rows = rows_per_group[group_index]
            member_table = table.select(rows)
            ranks = self._ports[asn].qos.assign_table(member_table)
            matched = ranks >= 0
            if matched.any():
                assigned[rows[matched]] = self._member_start[asn] + ranks[matched]
        matched = assigned >= 0
        per_rule_bits = np.bincount(
            assigned[matched], weights=bits[matched], minlength=len(self._rules)
        )
        return assigned, per_rule_bits

    # ------------------------------------------------------------------
    def _passthrough_result(
        self,
        table: FlowTable,
        rows: np.ndarray,
        offered: float,
        port: MemberPort,
        interval: float,
    ) -> PortQosResult:
        """A port with no rules: everything forwards (then congestion).

        The dominant case at platform scale; the columnar views are
        deferred so an 800-member interval builds zero sub-tables unless a
        consumer actually reads one.
        """
        result = PortQosResult(
            forwarded_bits=offered,
            rule_stats={},
            table_source=lambda: (
                table.select(rows), FlowTable.empty(), FlowTable.empty(),
            ),
        )
        port.qos.apply_congestion(result, interval)
        return result

    def _filtered_result(
        self,
        table: FlowTable,
        rows: np.ndarray,
        asn: int,
        assigned: np.ndarray,
        bits: np.ndarray,
        per_rule_bits: np.ndarray,
        port: MemberPort,
        interval: float,
    ) -> PortQosResult:
        """Scatter the platform-level verdicts back into one port's result.

        Only the rules that actually claimed rows are visited.
        """
        qos = port.qos
        start = self._member_start[asn]
        # Rules come from the plan's own snapshot (rank -> _rules[start +
        # rank]); the is_current guard in execute() keeps it aligned with
        # the live policy, and this avoids an O(installed) list copy per
        # filtered member per interval.
        assigned_rows = assigned[rows]
        matched = assigned_rows >= 0
        local = (assigned_rows - start).astype(np.int64)
        rule_stats: dict[str, dict[str, float]] = {}

        def stats_for(rule: QosRule) -> dict[str, float]:
            return rule_stats.setdefault(
                rule.rule_id, {"matched": 0.0, "dropped": 0.0, "shaped": 0.0}
            )

        claimed = np.unique(local[matched]).tolist() if bool(matched.any()) else []
        row_actions = np.full(len(rows), _FORWARD_CODE, dtype=np.int8)
        if claimed:
            row_actions[matched] = qos.action_codes()[local[matched]]
        forward_mask = row_actions == _FORWARD_CODE
        drop_mask = row_actions == _DROP_CODE
        shape_ranks: list[int] = []
        for rank in claimed:
            rule = self._rules[start + rank].rule
            if rule.action is FilterAction.DROP:
                matched_bits = float(per_rule_bits[start + rank])
                stats = stats_for(rule)
                stats["matched"] += matched_bits
                stats["dropped"] += matched_bits
            elif rule.action is FilterAction.SHAPE:
                shape_ranks.append(rank)

        # Every SHAPE rule carries a unique id (anonymous ones a synthetic
        # ``anon-<n>``), so each claimed shape rank drains its own shaper.
        rows_by_rank = _shape_rows_by_rank(local, row_actions)
        shaped_tables: list[FlowTable] = []
        # Per-shaper terms, reduced once after the loop (RPL006).
        passed_terms: list[float] = []
        dropped_terms: list[float] = []
        for rank in shape_ranks:
            rule = self._rules[start + rank].rule
            group_rows = rows[rows_by_rank[rank]]
            offered_bits = float(bits[group_rows].sum())
            shaper = qos.shaper_for(rule.rule_id)
            if shaper is None:
                passed_bits, dropped_bits = offered_bits, 0.0
            else:
                passed_bits, dropped_bits = shaper.shape(offered_bits, interval)
            scale = passed_bits / offered_bits if offered_bits > 0 else 0.0
            scaled = table.select(group_rows).scaled(scale)
            shaped_tables.append(scaled)
            rule_bits = float(scaled.bits.sum())
            stats = stats_for(rule)
            stats["matched"] += rule_bits
            stats["shaped"] += rule_bits
            passed_terms.append(passed_bits)
            dropped_terms.append(dropped_bits)
        shaped_passed = float(sum(passed_terms))
        shaped_dropped = float(sum(dropped_terms))

        forward_rows = rows[forward_mask]
        drop_rows = rows[drop_mask]
        shaped_table = (
            FlowTable.concat(shaped_tables) if shaped_tables else FlowTable.empty()
        )
        result = PortQosResult(
            forwarded_bits=float(bits[forward_rows].sum()),
            dropped_bits=float(bits[drop_rows].sum()),
            shaped_passed_bits=shaped_passed,
            shaped_dropped_bits=shaped_dropped,
            rule_stats=rule_stats,
            table_source=lambda: (
                table.select(forward_rows), table.select(drop_rows), shaped_table,
            ),
        )
        qos.apply_congestion(result, interval)
        return result
