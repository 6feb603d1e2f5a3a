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
3. **scatter** — the verdicts are folded into per-member arrays and the
   ``rule_stats`` the telemetry layer ingests, in grouped array passes.
   Only the rules that claimed rows are visited: DROP stats are one
   gather of the per-rule bits, summed per rule id by one ``bincount``;
   SHAPE rules sort their rows by rank once, take each rank's offered
   and scaled bits with ``reduceat`` and call their stateful shaper once
   per rank.  Congestion caps every member port in one elementwise pass,
   and one fancy-indexed add folds the interval into the fabric's
   :class:`~repro.ixp.port.PortCounterStore`.  No step loops over the
   members in Python: the arrays stay on the
   :class:`~repro.ixp.fabric.FabricIntervalReport` as its columns, and
   its :class:`PortResults` builds a port's
   :class:`~repro.ixp.qos.PortQosResult` only when that port is looked
   up.  A result defers its verdict tables behind a ``table_source`` —
   the shaped table is scaled only when read — so a port with tens of
   thousands of installed fine-grained rules costs O(claimed), not
   O(installed), and an interval builds no sub-table nobody reads.

Plans are cached across intervals.  Every connect bumps the
fabric's :attr:`~repro.ixp.fabric.SwitchingFabric.membership_version`
and every rule-set mutation of a connected port bumps its
:attr:`~repro.ixp.fabric.SwitchingFabric.rule_epoch`, so
:meth:`FabricDeliveryPlan.is_current` is two integer compares and only
intervals after a configuration change recompile.  A recompile patches
the previous plan: each plan snapshots every port's rule-set version
(:attr:`~repro.ixp.qos.PortQosPolicy.rules_version`) and reuses the
compiled segment of each port whose version is unchanged, and the
per-port match indexes themselves are cached on the policies, so
untouched ports never recompile at all.

The test suite checks every report bit for bit against a deliberately
naive first-match reference (``tests/oracle``).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Mapping, Sequence
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


class PortResults(Mapping[int, PortQosResult]):
    """Each member port's :class:`~repro.ixp.qos.PortQosResult` for one
    interval, built when the port is looked up.

    A read-only mapping over an interval report's columns, in ascending-ASN
    order.  The first lookup of a port builds its result from the column
    entries — a port where a rule claimed rows gets its scattered
    ``rule_stats`` and verdict-table source, any other port forwards all
    of its rows — and caches it, so a second lookup returns the same
    object.  An interval accounts for every port of the platform, but its
    readers look up a few (the victim's); the other results are never
    built.
    """

    def __init__(
        self,
        member_asns: np.ndarray,
        member_fields: dict[str, np.ndarray],
        rule_stats: dict[int, dict[str, dict[str, float]]],
        table_sources: dict[int, TableSource],
        passthrough: Callable[[int], TableSource],
    ) -> None:
        self._asns = member_asns
        self._fields = member_fields
        self._rule_stats = rule_stats
        self._table_sources = table_sources
        #: The table source of the member at a column index when no rule
        #: claimed its rows.
        self._passthrough = passthrough
        #: Results built so far, keyed by column index.
        self._built: dict[int, PortQosResult] = {}

    def _index(self, asn: object) -> int:
        """Column index of ``asn``, or -1 if it carried no traffic."""
        asns = self._asns
        if not isinstance(asn, (int, np.integer)) or not len(asns):
            return -1
        index = int(np.searchsorted(asns, asn))
        return index if index < len(asns) and asns[index] == asn else -1

    def __getitem__(self, asn: int) -> PortQosResult:
        index = self._index(asn)
        if index < 0:
            raise KeyError(asn)
        result = self._built.get(index)
        if result is None:
            asn = int(self._asns[index])
            source = self._table_sources.get(asn)
            result = PortQosResult(
                self._passthrough(index) if source is None else source,
                **{name: column[index].item() for name, column in self._fields.items()},
                rule_stats=self._rule_stats.get(asn),
            )
            self._built[index] = result
        return result

    def __contains__(self, asn: object) -> bool:
        return self._index(asn) >= 0

    def __iter__(self) -> Iterator[int]:
        return iter(self._asns.tolist())

    def __len__(self) -> int:
        return len(self._asns)

    def __repr__(self) -> str:
        return f"PortResults({len(self)} ports, {len(self._built)} built)"


class FabricDeliveryPlan:
    """Compiled snapshot of a fabric's ports and QoS rules.

    A plan is cheap to build (the fabric's member columns plus one walk
    over the ports built so far), and it records the fabric's rule epoch,
    so the fabric keeps reusing it across delivery intervals until
    :meth:`is_current` reports that the membership or some port's rules
    changed.
    """

    def __init__(
        self,
        fabric: "SwitchingFabric",
        previous: "FabricDeliveryPlan | None" = None,
    ) -> None:
        self.fabric = fabric
        #: Fabric membership counter at compile time (bumped by every
        #: connect that adds members).
        self._membership = fabric.membership_version
        #: Fabric rule epoch at compile time (bumped by every rule-set
        #: mutation of a connected port).
        self._epoch = fabric.rule_epoch
        #: Member ASNs (int64, ascending) and, aligned with them, each
        #: port's capacity (bps) and its row in the fabric's counter store,
        #: read off the fabric's member columns.
        self._asns, self._capacities, self._slots = fabric.member_columns()
        #: The ports built so far, ascending by ASN: a port nothing has
        #: looked up holds no rules, so only these can own a segment.
        self._ports: dict[int, MemberPort] = dict(sorted(fabric.built_ports().items()))
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
        #: Rule-set version of every port at compile time: which segments
        #: the next patch may reuse.
        self._port_versions: dict[int, int] = {}
        for asn, port in self._ports.items():
            qos = port.qos
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
        #: The filtered members' ASNs (int64, ascending).
        self._filtered_asns = np.fromiter(
            self._segments, dtype=np.int64, count=len(self._segments)
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def port_count(self) -> int:
        return len(self._asns)

    @property
    def rule_count(self) -> int:
        return len(self._rules)

    def compiled_rules(self) -> list[CompiledRule]:
        return list(self._rules)

    def is_current(self) -> bool:
        """True while the plan still matches the fabric's configuration.

        Checked once per delivery interval: no member may have connected
        and no connected port's rule set may have changed since compile.
        Two integer compares, however many ports the fabric has.
        """
        fabric = self.fabric
        return (
            fabric.membership_version == self._membership
            and fabric.rule_epoch == self._epoch
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
        # Each group's position in the plan's member arrays.  Unknown
        # egress members never entered the IXP: drop their groups.
        group_asns = sorted_egress[starts]
        members = np.searchsorted(self._asns, group_asns)
        known = members < len(self._asns)
        known[known] = self._asns[members[known]] == group_asns[known]
        if not known.all():
            starts, ends = starts[known], ends[known]
            group_bits, members = group_bits[known], members[known]
        member_asns = self._asns[members]

        filtered_at = np.flatnonzero(np.isin(member_asns, self._filtered_asns))
        filtered = list(zip(filtered_at.tolist(), member_asns[filtered_at].tolist()))
        assigned, per_rule_bits, claimed = self._classify(
            table, bits, order, starts, ends, filtered
        )

        # Per-member accounting as parallel arrays: a port where no rule
        # claimed a row forwards everything it is offered; the others
        # overwrite their entries from the verdict scatter.
        count = len(member_asns)
        offered = group_bits.astype(np.float64)
        forwarded = offered.copy()
        dropped = np.zeros(count)
        shaped_passed = np.zeros(count)
        shaped_dropped = np.zeros(count)
        rule_stats_by_member: dict[int, dict[str, dict[str, float]]] = {}
        shaped_dropped_by_member: dict[int, dict[str, float]] = {}
        table_sources: dict[int, TableSource] = {}
        for index, asn in claimed:
            bit_counts, rule_stats, shaper_drops, table_source = self._scatter(
                table, order[starts[index]:ends[index]], asn, assigned, bits,
                per_rule_bits, interval,
            )
            (
                forwarded[index],
                dropped[index],
                shaped_passed[index],
                shaped_dropped[index],
            ) = bit_counts
            table_sources[asn] = table_source
            if rule_stats:
                rule_stats_by_member[asn] = rule_stats
            if shaper_drops:
                shaped_dropped_by_member[asn] = shaper_drops

        # Egress queue: forwarded + shaped traffic shares the port
        # capacity; anything beyond it is congestion loss at the member
        # port.  Elementwise, so each member sees the same IEEE operations
        # as a scalar cap would apply.
        capacity_bits = self._capacities[members] * interval
        delivered = forwarded + shaped_passed
        congestion = np.zeros(count)
        over = delivered > capacity_bits
        if over.any():
            congestion[over] = delivered[over] - capacity_bits[over]
            overload = capacity_bits[over] / delivered[over]
            forwarded[over] *= overload
            shaped_passed[over] *= overload
            delivered = forwarded + shaped_passed

        # The port counters, in PortCounters field order.
        self.fabric.port_counters.add(
            self._slots[members],
            np.column_stack(
                (offered, delivered, dropped, shaped_passed, shaped_dropped, congestion)
            ),
        )

        # Platform totals are reduced with sum() over per-member terms in
        # ascending-ASN order (RPL006: no float `+=` in loops).
        offered_terms = offered.tolist()
        delivered_terms = delivered.tolist()
        filtered_terms = (dropped + shaped_dropped).tolist()
        congestion_terms = congestion.tolist()
        member_fields = {
            "forwarded_bits": forwarded,
            "dropped_bits": dropped,
            "shaped_passed_bits": shaped_passed,
            "shaped_dropped_bits": shaped_dropped,
            "congestion_dropped_bits": congestion,
        }
        return FabricIntervalReport(
            interval_start=interval_start,
            interval=interval,
            offered_bits=float(sum(offered_terms)),
            delivered_bits=float(sum(delivered_terms)),
            filtered_bits=float(sum(filtered_terms)),
            congestion_dropped_bits=float(sum(congestion_terms)),
            results_by_member=PortResults(
                member_asns,
                member_fields,
                rule_stats_by_member,
                table_sources,
                partial(_forwarded_only, table, order, starts, ends),
            ),
            rule_stats_by_member=rule_stats_by_member,
            shaped_dropped_by_member=shaped_dropped_by_member,
            member_asns=member_asns,
            member_fields=member_fields,
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
        tuple[float, float, float, float],
        dict[str, dict[str, float]],
        dict[str, float],
        TableSource,
    ]:
        """Fold the platform-level verdicts back into one claimed port.

        Returns the port's pre-congestion ``(forwarded, dropped,
        shaped_passed, shaped_dropped)`` bits, its ``rule_stats``, the
        bits each claimed SHAPE rule's shaper discarded, and the deferred
        source of its verdict tables.  Only the rules that
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
        return bit_counts, rule_stats, dict(zip(shape_ids, dropped_terms)), table_source


def _forwarded_only(
    table: FlowTable,
    order: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    index: int,
) -> TableSource:
    """Table source of a port where no rule claimed a row: all rows forward."""
    rows = order[starts[index]:ends[index]]
    return lambda: (table.select(rows), FlowTable.empty(), FlowTable.empty())
