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
2. **classify** — one vectorized group-by over the whole interval (a
   stable argsort of the egress column; each member's offered bits are
   one ``np.add.reduceat``), then each filtered member's slice is
   classified through the port's
   :meth:`~repro.ixp.qos.PortQosPolicy.assign_table` (its compiled
   :class:`~repro.ixp.ruleindex.RuleMatchIndex`); per-rule matched bits
   fall out of a single ``bincount``;
3. **scatter** — the verdicts are folded back into per-port
   :class:`~repro.ixp.qos.PortQosResult`\\ s, :class:`~repro.ixp.port.PortCounters`,
   port history and the ``rule_stats`` the telemetry layer ingests, in
   grouped array passes.  Only the rules that claimed rows are visited:
   DROP stats are one gather of the per-rule bits, summed per rule id by
   one ``bincount``; SHAPE rules sort their rows by rank once, take each
   rank's offered and scaled bits with ``reduceat`` and call their
   stateful shaper once per rank.  Congestion caps every member port in
   one elementwise pass.  Every result defers its verdict tables behind
   a ``table_source`` — the shaped table is scaled only when read — so a
   port with tens of thousands of installed fine-grained rules costs
   O(claimed), not O(installed), and an interval builds no sub-table
   nobody reads.  The per-member arrays themselves stay on the
   :class:`~repro.ixp.fabric.FabricIntervalReport` as its columns, so
   whole-platform readers (the shard merge, the utilisation scans) never
   walk the per-port results.

Plans are cached across intervals: each plan snapshots every port's
rule-set version counter (:attr:`~repro.ixp.qos.PortQosPolicy.rules_version`),
and :meth:`SwitchingFabric.deliver` reuses the plan while
:meth:`FabricDeliveryPlan.is_current` holds — rule installs/removals bump
the counter and every member connect bumps the fabric's
:attr:`~repro.ixp.fabric.SwitchingFabric.membership_version`, so only
intervals after a configuration change recompile, and
the per-port match indexes themselves are cached on the policies so
untouched ports never recompile at all.

The test suite checks every report bit for bit against a deliberately
naive first-match reference (``tests/oracle``).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from ..traffic.flowtable import FlowTable
from .port import MemberPort
from .qos import (
    _DROP_CODE,
    _FORWARD_CODE,
    _SHAPE_CODE,
    PortQosResult,
    QosRule,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .fabric import FabricIntervalReport, SwitchingFabric

#: Deferred producer of a result's ``(forwarded, dropped, shaped)`` tables.
TableSource = Callable[[], tuple[FlowTable, FlowTable, FlowTable]]


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
        #: Fabric membership counter at compile time (bumped by every
        #: ``connect_member``).
        self._membership = fabric.membership_version
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
        #: Flat views of the cache key for :meth:`is_current`.
        self._policies = [self._ports[asn].qos for asn in self._port_versions]
        self._versions = list(self._port_versions.values())

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

        Checked once per delivery interval: no member may have connected
        since compile and every port's rule-set version must equal the
        compile-time snapshot.  One flat list comparison, versus an
        O(total rules) recompile.
        """
        return self.fabric.membership_version == self._membership and [
            policy.rules_version for policy in self._policies
        ] == self._versions

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
        n = len(table)
        if n == 0:
            return FabricIntervalReport(interval_start=interval_start, interval=interval)

        bits = table.bits

        # One platform-wide group-by: the stable argsort lists each
        # member's rows as ascending original-order indices, members in
        # ascending ASN order; group g is order[starts[g]:ends[g]].
        order = np.argsort(table.egress_asn, kind="stable")
        sorted_egress = table.egress_asn[order]
        starts = np.flatnonzero(
            np.concatenate(([True], sorted_egress[1:] != sorted_egress[:-1]))
        )
        # Exact int64 sums, one per member.
        group_bits = np.add.reduceat(bits[order], starts)
        ends = np.append(starts[1:], n)
        # Unknown egress members never entered the IXP: drop their groups.
        ports = self._ports
        known = np.fromiter(
            (asn in ports for asn in sorted_egress[starts].tolist()),
            dtype=bool,
            count=len(starts),
        )
        if not known.all():
            starts, ends, group_bits = starts[known], ends[known], group_bits[known]
        asns = sorted_egress[starts].tolist()

        filtered = [
            (index, asn) for index, asn in enumerate(asns) if asn in self._segments
        ]
        assigned, per_rule_bits, claimed = self._classify(
            table, bits, order, starts, ends, filtered
        )

        # Per-member accounting as parallel arrays: a port where no rule
        # claimed a row forwards everything it is offered; the others
        # overwrite their entries from the verdict scatter.
        offered = group_bits.astype(np.float64)
        forwarded = offered.copy()
        dropped = np.zeros(len(asns))
        shaped_passed = np.zeros(len(asns))
        shaped_dropped = np.zeros(len(asns))
        scattered: dict[int, tuple[dict[str, dict[str, float]], TableSource]] = {}
        for index, asn in claimed:
            bit_counts, rule_stats, table_source = self._scatter(
                table, order[starts[index]:ends[index]], asn, assigned, bits,
                per_rule_bits, interval,
            )
            (
                forwarded[index],
                dropped[index],
                shaped_passed[index],
                shaped_dropped[index],
            ) = bit_counts
            scattered[index] = (rule_stats, table_source)

        # Egress queue: forwarded + shaped traffic shares the port
        # capacity; anything beyond it is congestion loss at the member
        # port.  Elementwise, so each member sees the same IEEE operations
        # as a scalar cap would apply.
        capacity_bits = (
            np.fromiter(
                (ports[asn].qos.port_capacity_bps for asn in asns),
                dtype=np.float64,
                count=len(asns),
            )
            * interval
        )
        delivered = forwarded + shaped_passed
        congestion = np.zeros(len(asns))
        over = delivered > capacity_bits
        if over.any():
            congestion[over] = delivered[over] - capacity_bits[over]
            overload = capacity_bits[over] / delivered[over]
            forwarded[over] *= overload
            shaped_passed[over] *= overload

        # Platform totals are reduced with sum() over per-member terms in
        # ascending-ASN order (RPL006: no float `+=` in loops).
        offered_terms = offered.tolist()
        delivered_terms = (forwarded + shaped_passed).tolist()
        filtered_terms = (dropped + shaped_dropped).tolist()
        congestion_terms = congestion.tolist()
        # Bit fields in PortQosResult's positional order.
        bit_fields = zip(
            forwarded.tolist(),
            dropped.tolist(),
            shaped_passed.tolist(),
            shaped_dropped.tolist(),
            congestion_terms,
        )
        bounds = zip(starts.tolist(), ends.tolist())
        results_by_member: dict[int, PortQosResult] = {}
        for index, (asn, offered_bits, fields, (start, end)) in enumerate(
            zip(asns, offered_terms, bit_fields, bounds)
        ):
            if index in scattered:
                rule_stats, table_source = scattered[index]
            else:
                rule_stats = {}
                table_source = partial(_forwarded_only, table, order, start, end)
            result = PortQosResult(table_source, *fields, rule_stats=rule_stats)
            port = ports[asn]
            port.counters.update(offered_bits, result)
            if port.retain_history:
                port.history.append((interval_start, result))
            results_by_member[asn] = result
        return FabricIntervalReport(
            interval_start=interval_start,
            interval=interval,
            offered_bits=float(sum(offered_terms)),
            delivered_bits=float(sum(delivered_terms)),
            filtered_bits=float(sum(filtered_terms)),
            congestion_dropped_bits=float(sum(congestion_terms)),
            results_by_member=results_by_member,
            # The arrays the results above were built from, kept for
            # whole-platform scans (no per-member round trip).
            member_asns=sorted_egress[starts].astype(np.int64),
            member_fields={
                "forwarded_bits": forwarded,
                "dropped_bits": dropped,
                "shaped_passed_bits": shaped_passed,
                "shaped_dropped_bits": shaped_dropped,
                "congestion_dropped_bits": congestion,
            },
            capacity_bits=capacity_bits,
        )

    # ------------------------------------------------------------------
    def _classify(
        self,
        table: FlowTable,
        bits: np.ndarray,
        order: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        filtered: Sequence[tuple[int, int]],
    ) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
        """Assign each row its claiming rule (global index, or -1 = forward).

        Rules of different members are disjoint by the egress column, so
        each filtered member's rules are matched against that member's
        row slice only, through the port policy's
        :meth:`~repro.ixp.qos.PortQosPolicy.assign_table` (its compiled
        rule-match index).  ``assign_table`` is row-wise, so verdicts on
        the slice equal verdicts on the full table; local ranks map to
        global rule indices by the member's contiguous block offset.
        Also returns the ``(group, asn)`` pairs where some rule claimed a
        row: only those need a verdict scatter.
        """
        assigned = np.full(len(table), -1, dtype=np.int64)
        claimed: list[tuple[int, int]] = []
        for index, asn in filtered:
            rows = order[starts[index]:ends[index]]
            ranks = self._ports[asn].qos.assign_table(table.select(rows))
            matched = ranks >= 0
            if matched.any():
                assigned[rows[matched]] = self._member_start[asn] + ranks[matched]
                claimed.append((index, asn))
        matched = assigned >= 0
        per_rule_bits = np.bincount(
            assigned[matched], weights=bits[matched], minlength=len(self._rules)
        )
        return assigned, per_rule_bits, claimed

    # ------------------------------------------------------------------
    def _scatter(
        self,
        table: FlowTable,
        rows: np.ndarray,
        asn: int,
        assigned: np.ndarray,
        bits: np.ndarray,
        per_rule_bits: np.ndarray,
        interval: float,
    ) -> tuple[
        tuple[float, float, float, float], dict[str, dict[str, float]], TableSource
    ]:
        """Fold the platform-level verdicts back into one claimed port.

        Returns the port's pre-congestion ``(forwarded, dropped,
        shaped_passed, shaped_dropped)`` bits, its ``rule_stats`` and the
        deferred source of its verdict tables.  Only the rules that
        claimed rows are visited, in grouped array passes.
        """
        qos = self._ports[asn].qos
        start = self._member_start[asn]
        # Rules come from the plan's own snapshot (rank -> _rules[start +
        # rank]); the is_current guard in execute() keeps it aligned with
        # the live policy.
        local = assigned[rows] - start
        matched = local >= 0
        row_actions = np.full(len(rows), _FORWARD_CODE, dtype=np.int8)
        row_actions[matched] = qos.action_codes()[local[matched]]
        forward_rows = rows[row_actions == _FORWARD_CODE]
        drop_mask = row_actions == _DROP_CODE
        drop_rows = rows[drop_mask]
        # DROP rules: one gather of their matched bits.  Rule ids repeat
        # (every anonymous DROP/FORWARD rule is ``""``); bincount sums each
        # id's terms sequentially from 0.0 in ascending rank order, exactly
        # like a running ``+=``, and the ids keep first-claimed order.
        drop_ranks = np.unique(local[drop_mask])
        id_codes, rule_ids = qos.rule_id_codes()
        codes, first, slots = np.unique(
            id_codes[drop_ranks], return_index=True, return_inverse=True
        )
        drop_sums = np.bincount(
            slots, weights=per_rule_bits[start + drop_ranks], minlength=len(codes)
        )
        appear = np.argsort(first)
        rule_stats: dict[str, dict[str, float]] = {
            rule_ids[code]: {"matched": bits_sum, "dropped": bits_sum, "shaped": 0.0}
            for code, bits_sum in zip(codes[appear].tolist(), drop_sums[appear].tolist())
        }

        # SHAPE rules: the shaped rows sorted stably by rank, so each
        # claimed rank owns one contiguous run of ascending rows.
        shape_at = np.flatnonzero(row_actions == _SHAPE_CODE)
        by_rank = shape_at[np.argsort(local[shape_at], kind="stable")]
        shape_rows = rows[by_rank]
        shape_ranks, runs, run_lengths = np.unique(
            local[by_rank], return_index=True, return_counts=True
        )
        # Exact int64 sums per rank.
        rank_bits = np.add.reduceat(bits[shape_rows], runs)
        # Every SHAPE rule carries an id no other rule of the port has
        # (anonymous ones a synthetic ``anon-<n>``), so each claimed rank
        # drains its own shaper, once, and owns its rule_stats entry.
        shape_ids: list[str] = []
        scales: list[float] = []
        # Per-shaper terms, reduced once after the loop (RPL006).
        passed_terms: list[float] = []
        dropped_terms: list[float] = []
        for rank, offered_int in zip(shape_ranks.tolist(), rank_bits.tolist()):
            offered_bits = float(offered_int)
            rule_id = self._rules[start + rank].rule.rule_id
            shaper = qos.shaper_for(rule_id)
            if shaper is None:
                passed_bits, dropped_bits = offered_bits, 0.0
            else:
                passed_bits, dropped_bits = shaper.shape(offered_bits, interval)
            shape_ids.append(rule_id)
            scales.append(passed_bits / offered_bits if offered_bits > 0 else 0.0)
            passed_terms.append(passed_bits)
            dropped_terms.append(dropped_bits)
        # One factor per shaped row; the same rounding FlowTable.scaled_by
        # applies when the shaped table is finally built.
        factors = np.repeat(np.asarray(scales, dtype=np.float64), run_lengths)
        scaled_bytes = np.rint(table.bytes[shape_rows] * factors).astype(np.int64)
        scaled_bits = np.add.reduceat(scaled_bytes * 8, runs).astype(np.float64)

        for rule_id, shaped_bits in zip(shape_ids, scaled_bits.tolist()):
            rule_stats[rule_id] = {"matched": shaped_bits, "dropped": 0.0, "shaped": shaped_bits}

        def table_source() -> tuple[FlowTable, FlowTable, FlowTable]:
            shaped = (
                table.select(shape_rows).scaled_by(factors)
                if len(shape_rows)
                else FlowTable.empty()
            )
            return table.select(forward_rows), table.select(drop_rows), shaped

        bit_counts = (
            float(bits[forward_rows].sum()),
            float(bits[drop_rows].sum()),
            float(sum(passed_terms)),
            float(sum(dropped_terms)),
        )
        return bit_counts, rule_stats, table_source


def _forwarded_only(
    table: FlowTable, order: np.ndarray, start: int, end: int
) -> tuple[FlowTable, FlowTable, FlowTable]:
    """Verdict tables of a port without rules: its rows all forward."""
    return table.select(order[start:end]), FlowTable.empty(), FlowTable.empty()
