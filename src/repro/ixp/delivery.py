"""Fabric delivery: one interval across the whole platform in one pass.

:class:`FabricDeliveryPlan` is how :meth:`SwitchingFabric.deliver
<repro.ixp.fabric.SwitchingFabric.deliver>` carries an interval's
:class:`~repro.traffic.flowtable.FlowTable` to the egress ports.  At paper
scale — DE-CIX-class fabrics carry traffic for hundreds of member ports
per observation interval (§4.5, footnote 1) — a Python loop over members
would cost O(members × flows) before any classification happens, so the
plan works platform-wide:

1. **compile** — the platform rule order is every filtered port's
   sorted (most-specific-first) rules, members in ascending ASN order;
   the plan keeps only each filtered member's offset into it and the
   total rule count, and reads the rules from the live port policies;
2. **classify** — one vectorized group-by over the whole interval (a
   stable argsort of the egress column; each member's offered bits are
   one ``np.add.reduceat``), then every filtered member's rows, laid end
   to end, are classified by one
   :meth:`~repro.ixp.ruleindex.RuleMatchIndex.assign` of the filtered
   ports' compiled indexes composed into one; per-rule matched bits
   fall out of a single ``bincount``;
3. **scatter** — the verdicts are folded into per-member arrays and the
   per-rule :class:`RuleColumns` Stellar's telemetry adds up, in
   platform-wide array passes over the claimed ports' sorted rows laid
   end to end.  Each row's action is one gather of the plan's per-rank
   action codes; a port's forwarded and dropped bits are exact int64
   grouped sums over its rows.  Only the rules that claimed rows are
   visited: DROP stats are one ``bincount``
   of the per-rule bits over the claimed ranks in ascending order, summed
   per (member, rule id) code; SHAPE rules sort their rows by rank once,
   take each rank's offered and scaled bits with ``reduceat`` and call
   their stateful shaper once per rank.  Congestion caps every member
   port in one elementwise pass, and one fancy-indexed add folds the
   interval into the fabric's :class:`~repro.ixp.port.PortCounterStore`.
   No step loops over the members in Python: the arrays stay on the
   :class:`~repro.ixp.fabric.FabricIntervalReport` as its columns, and
   its :class:`PortResults` builds a port's
   :class:`~repro.ixp.qos.PortQosResult` — its bit counters and a
   ``table_source`` deriving its verdict tables from the claimed rows'
   action column — only when that port is looked up.  The shaped table is
   scaled only when read, so a port with tens of thousands of installed
   fine-grained rules costs O(claimed), not O(installed), and an interval
   builds no per-rule dict and no sub-table nobody reads.

Plans are cached across intervals.  Every connect bumps the
fabric's :attr:`~repro.ixp.fabric.SwitchingFabric.membership_version`
and every rule-set mutation of a connected port bumps its
:attr:`~repro.ixp.fabric.SwitchingFabric.rule_epoch`, so
:meth:`FabricDeliveryPlan.is_current` is two integer compares and only
intervals after a configuration change recompile.  A recompile copies
no rule: it counts each built port's rules, and the per-rule action
and id codes of a port's compiled index join the plan's platform-level
arrays when its rules first claim rows.  The per-port match indexes
are cached on the policies behind their
:attr:`~repro.ixp.qos.PortQosPolicy.rules_version`, so untouched ports
never recompile their index.

The test suite checks every report bit for bit against a deliberately
naive first-match reference (``tests/oracle``).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Mapping
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from ..traffic.flowtable import FlowTable
from .port import MemberPort
from .qos import _DROP_CODE, _FORWARD_CODE, _SHAPE_CODE, PortQosResult
from .ruleindex import RuleMatchIndex, TableRows

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .fabric import FabricIntervalReport, SwitchingFabric

#: Deferred producer of a result's ``(forwarded, dropped, shaped)`` tables.
TableSource = Callable[[], tuple[FlowTable, FlowTable, FlowTable]]


class RuleColumns:
    """One interval's per-rule statistics, as columns.

    One row per (member, rule id) that claimed bits: :attr:`member_asns`
    (int64, ascending), :attr:`rule_ids` (an object array referencing the
    policies' own id strings) and the float64 :attr:`matched`,
    :attr:`dropped`, :attr:`shaped` and :attr:`discarded` columns, the
    last being the bits a SHAPE rule's shaper threw away.  Within a
    member the rows list its DROP ids in first-claimed rank order, then
    its SHAPE ids in rank order; a member's anonymous DROP rules share
    the id ``""`` and one row.  These columns are the one per-interval
    store of per-rule statistics: the report's ``to_columns()`` payload
    and Stellar's telemetry are both read from them.
    """

    __slots__ = ("member_asns", "rule_ids", "matched", "dropped", "shaped", "discarded")

    def __init__(
        self,
        member_asns: np.ndarray,
        rule_ids: np.ndarray,
        matched: np.ndarray,
        dropped: np.ndarray,
        shaped: np.ndarray,
        discarded: np.ndarray,
    ) -> None:
        self.member_asns = member_asns
        self.rule_ids = rule_ids
        self.matched = matched
        self.dropped = dropped
        self.shaped = shaped
        self.discarded = discarded

    @classmethod
    def empty(cls) -> "RuleColumns":
        none = np.zeros(0)
        return cls(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=object), none, none, none, none)

    def span(self, asn: object) -> tuple[int, int]:
        """The ``[lo, hi)`` row range of member ``asn`` (empty if it has no row)."""
        if not isinstance(asn, (int, np.integer)):
            return 0, 0
        asns = self.member_asns
        return int(np.searchsorted(asns, asn, "left")), int(np.searchsorted(asns, asn, "right"))

    def __repr__(self) -> str:
        return f"RuleColumns({len(self.member_asns)} rows)"


class PortResults(Mapping[int, PortQosResult]):
    """Each member port's :class:`~repro.ixp.qos.PortQosResult` for one
    interval, built when the port is looked up.

    A read-only mapping over an interval report's columns, in ascending-ASN
    order.  The first lookup of a port builds its result from the column
    entries — its bit counters, and a verdict-table source reading the
    claimed rows' action column — and caches it, so a second lookup
    returns the same object.  An interval accounts for
    every port of the platform, but its readers look up a few (the
    victim's); the other results are never built.
    """

    def __init__(
        self,
        member_asns: np.ndarray,
        member_fields: dict[str, np.ndarray],
        table_source: Callable[[int], TableSource],
    ) -> None:
        self._asns = member_asns
        self._fields = member_fields
        #: The table source of the member at a column index.
        self._table_source = table_source
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
            result = PortQosResult(
                self._table_source(index),
                **{name: column[index].item() for name, column in self._fields.items()},
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
    """A fabric's member columns plus each filtered port's rule offset.

    A plan is cheap to build (the fabric's member columns plus one walk
    over the ports built so far, counting their rules), and it records
    the fabric's rule epoch, so the fabric keeps reusing it across
    delivery intervals until :meth:`is_current` reports that the
    membership or some port's rules changed.
    """

    def __init__(self, fabric: "SwitchingFabric") -> None:
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
        #: looked up holds no rules, so only these can be filtered.
        self._ports: dict[int, MemberPort] = dict(sorted(fabric.built_ports().items()))
        #: First platform-level rank of each filtered member's rules: the
        #: platform order lists every filtered port's sorted rules, members
        #: in ascending ASN order (matching the sorted group-by the
        #: execution pass produces), so port-local rank r is start + r.
        self._member_start: dict[int, int] = {}
        self._rule_count = 0
        for asn, port in self._ports.items():
            count = len(port.qos)
            if count:
                self._member_start[asn] = self._rule_count
                self._rule_count += count
        #: The filtered members' ASNs (int64, ascending).
        self._filtered_asns = np.fromiter(
            self._member_start, dtype=np.int64, count=len(self._member_start)
        )
        #: Per platform rank: the rule's action code, and its rule-id code
        #: (the member's start plus the port's own id code, so one code
        #: names one (member, rule id)); per code: the rule id (the
        #: policy's own string) and its member.  A member's block is
        #: copied from its policy's cached codes when its rules first claim
        #: rows, once per plan: a port whose rules claim nothing until the
        #: rule set changes again costs nothing.
        self._rule_actions = np.zeros(self._rule_count, dtype=np.int8)
        self._rule_codes = np.zeros(self._rule_count, dtype=np.int64)
        self._rule_ids = np.empty(self._rule_count, dtype=object)
        self._code_owners = np.zeros(self._rule_count, dtype=np.int64)
        self._loaded: set[int] = set()
        #: The index composed over the filtered members with rows in the
        #: last interval, keyed by their ASNs' bytes.
        self._composed_key = b""
        self._composed = RuleMatchIndex.compose((), ())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def port_count(self) -> int:
        return len(self._asns)

    @property
    def rule_count(self) -> int:
        return self._rule_count

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
            # The plan's rule offsets index the live port policies' rules;
            # running a stale plan would silently attribute bits to the
            # wrong rules.
            raise RuntimeError(
                "delivery plan is stale (rules or membership changed since "
                "compile); rebuild via SwitchingFabric.current_delivery_plan()"
            )
        n = len(table)
        if n == 0:
            return FabricIntervalReport(interval_start=interval_start, interval=interval)

        # One platform-wide group-by: the stable argsort lists each
        # member's rows as ascending original-order indices, members in
        # ascending ASN order; group g is order[starts[g]:ends[g]].
        order = np.argsort(table.egress_asn, kind="stable")
        sorted_egress = table.egress_asn[order]
        sorted_bits = table.bits[order]
        starts = np.flatnonzero(
            np.concatenate(([True], sorted_egress[1:] != sorted_egress[:-1]))
        )
        # Exact int64 sums, one per member.
        group_bits = np.add.reduceat(sorted_bits, starts)
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
        groups, positions, ranks = self._classify(
            table, order, starts, ends, filtered_at, member_asns
        )

        # Per-member accounting as parallel arrays: a port where no rule
        # claimed a row forwards everything it is offered; the claimed
        # ports' entries come from the verdict scatter.
        count = len(member_asns)
        offered = group_bits.astype(np.float64)
        forwarded = offered.copy()
        dropped = np.zeros(count)
        shaped_passed = np.zeros(count)
        shaped_dropped = np.zeros(count)
        rule_columns, verdicts = _NO_RULES, _ALL_FORWARD
        if len(groups):
            # The claimed ports' sorted rows, end to end: ``bounds`` are
            # their offsets, ``ranks`` and ``actions`` their verdicts.
            lengths = ends[groups] - starts[groups]
            bounds = np.cumsum(lengths) - lengths
            claimed_bits = sorted_bits[positions]
            matched = ranks >= 0
            actions = np.full(len(ranks), _FORWARD_CODE, dtype=np.int8)
            actions[matched] = self._rule_actions[ranks[matched]]
            # Exact int64 sums per claimed port.
            drop_bits = np.add.reduceat(
                np.where(actions == _DROP_CODE, claimed_bits, 0), bounds
            )
            shape_bits = np.add.reduceat(
                np.where(actions == _SHAPE_CODE, claimed_bits, 0), bounds
            )
            forwarded[groups] = group_bits[groups] - drop_bits - shape_bits
            dropped[groups] = drop_bits
            rule_columns, shape_rows, shape_factors = self._scatter(
                table, order[positions], claimed_bits, ranks, actions, member_asns,
                shaped_passed, shaped_dropped, interval,
            )
            verdicts = (groups, bounds, actions, shape_rows, shape_factors)

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
                partial(_verdict_tables, table, order, starts, ends, verdicts),
            ),
            rule_columns=rule_columns,
            member_asns=member_asns,
            member_fields=member_fields,
            capacity_bits=capacity_bits,
        )

    # ------------------------------------------------------------------
    def _classify(
        self,
        table: FlowTable,
        order: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        filtered_at: np.ndarray,
        member_asns: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Classify every filtered member's rows with one index lookup.

        The filtered groups' sorted rows, laid end to end, go through one
        :meth:`~repro.ixp.ruleindex.RuleMatchIndex.assign` of the filtered
        ports' composed index, each row against its own member's rules
        (its slot: the member's position among the filtered groups).
        Returns the groups where some rule claimed a row (ascending),
        their rows' positions in the sorted order and their claiming
        platform ranks (-1 = forward).
        """
        if not len(filtered_at):
            return filtered_at, filtered_at, np.zeros(0, dtype=np.int32)
        lengths = ends[filtered_at] - starts[filtered_at]
        bounds = np.cumsum(lengths) - lengths
        positions = np.repeat(starts[filtered_at] - bounds, lengths) + np.arange(lengths.sum())
        slots = np.repeat(np.arange(len(filtered_at), dtype=np.int32), lengths)
        asns = member_asns[filtered_at]
        if asns.tobytes() != self._composed_key:
            # The members' cached compiles (a port recompiles only on its
            # first interval with rows after a rule change), composed
            # again only when other members carry traffic.
            self._composed_key = asns.tobytes()
            self._composed = RuleMatchIndex.compose(
                [self._ports[asn].qos.compiled_index() for asn in asns.tolist()],
                [self._member_start[asn] for asn in asns.tolist()],
            )
        ranks = self._composed.assign(TableRows(table, order[positions]), slots)
        claimed = np.logical_or.reduceat(ranks >= 0, bounds)
        if not claimed.all():
            kept = np.repeat(claimed, lengths)
            positions, ranks = positions[kept], ranks[kept]
        for asn in asns[claimed].tolist():
            self._load(asn)
        return filtered_at[claimed], positions, ranks

    def _load(self, asn: int) -> None:
        """Copy member ``asn``'s per-rule codes into the platform arrays."""
        if asn in self._loaded:
            return
        index = self._ports[asn].qos.compiled_index()
        start = self._member_start[asn]
        stop = start + index.rule_count
        self._rule_actions[start:stop] = index.action_codes
        self._rule_codes[start:stop] = start + index.rule_id_codes
        self._rule_ids[start:start + len(index.rule_ids)] = index.rule_ids
        self._code_owners[start:stop] = asn
        self._loaded.add(asn)

    # ------------------------------------------------------------------
    def _scatter(
        self,
        table: FlowTable,
        rows: np.ndarray,
        bits: np.ndarray,
        ranks: np.ndarray,
        actions: np.ndarray,
        member_asns: np.ndarray,
        shaped_passed: np.ndarray,
        shaped_dropped: np.ndarray,
        interval: float,
    ) -> tuple[RuleColumns, np.ndarray, np.ndarray]:
        """Fold the claimed ranks into per-rule columns, platform-wide.

        ``rows``, ``bits``, ``ranks`` and ``actions`` describe the claimed
        ports' sorted rows end to end (each port's rows in ascending
        original order).  Writes each member's shaped-passed and
        shaper-discarded bits into ``shaped_passed``/``shaped_dropped`` and
        returns the interval's :class:`RuleColumns`, the shaped rows
        (sorted stably by rank, so members ascending) and each shaped
        row's scale factor.  Only the ranks that claimed rows are visited.
        """
        matched = ranks >= 0
        claimed_ranks = ranks[matched]
        per_rule_bits = np.bincount(
            claimed_ranks, weights=bits[matched], minlength=self._rule_count
        )
        claimed = np.flatnonzero(np.bincount(claimed_ranks, minlength=self._rule_count))
        claimed_actions = self._rule_actions[claimed]

        # DROP rules: one gather of their matched bits.  Rule ids repeat
        # (every anonymous DROP/FORWARD rule of a port is ``""``), so the
        # bits are summed per (member, id) code; bincount sums each code's
        # terms sequentially from 0.0 in ascending rank order, exactly like
        # a running ``+=``.  Sorted by first claimed rank, the codes list
        # members ascending, each member's ids in first-claimed order.
        drop_ranks = claimed[claimed_actions == _DROP_CODE]
        codes, first, slots = np.unique(
            self._rule_codes[drop_ranks], return_index=True, return_inverse=True
        )
        drop_sums = np.bincount(
            slots, weights=per_rule_bits[drop_ranks], minlength=len(codes)
        )
        appear = np.argsort(first)
        drop_codes, drop_sums = codes[appear], drop_sums[appear]

        # SHAPE rules: the shaped rows sorted stably by rank, so each
        # claimed rank owns one contiguous run of ascending rows.
        shape_at = np.flatnonzero(actions == _SHAPE_CODE)
        by_rank = shape_at[np.argsort(ranks[shape_at], kind="stable")]
        shape_rows = rows[by_rank]
        shape_ranks, runs, run_lengths = np.unique(
            ranks[by_rank], return_index=True, return_counts=True
        )
        # Exact int64 sums per rank.
        rank_bits = np.add.reduceat(bits[by_rank], runs)
        shape_codes = self._rule_codes[shape_ranks]
        owners = self._code_owners[shape_codes]
        # Every SHAPE rule carries an id no other rule of its port has
        # (anonymous ones a synthetic ``anon-<n>``), so each claimed rank
        # drains its own shaper, once, and owns its row.
        scales: list[float] = []
        passed: list[float] = []
        discarded: list[float] = []
        for asn, rule_id, offered_int in zip(
            owners.tolist(), self._rule_ids[shape_codes].tolist(), rank_bits.tolist()
        ):
            offered_bits = float(offered_int)
            shaper = self._ports[asn].qos.shaper_for(rule_id)
            if shaper is None:
                passed_bits, discarded_bits = offered_bits, 0.0
            else:
                passed_bits, discarded_bits = shaper.shape(offered_bits, interval)
            scales.append(passed_bits / offered_bits if offered_bits > 0 else 0.0)
            passed.append(passed_bits)
            discarded.append(discarded_bits)
        owner_asns, owner_first = np.unique(owners, return_index=True)
        spans = [*owner_first.tolist(), len(owners)]
        for index, lo, hi in zip(
            np.searchsorted(member_asns, owner_asns).tolist(), spans, spans[1:]
        ):
            # Each member's shaper terms, reduced once in rank order (RPL006).
            passed_terms, discarded_terms = passed[lo:hi], discarded[lo:hi]
            shaped_passed[index] = float(sum(passed_terms))
            shaped_dropped[index] = float(sum(discarded_terms))
        # One factor per shaped row; the same rounding FlowTable.scaled_by
        # applies when the shaped table is finally built.
        factors = np.repeat(np.asarray(scales, dtype=np.float64), run_lengths)
        scaled_bytes = np.rint(table.bytes[shape_rows] * factors).astype(np.int64)
        scaled_bits = np.add.reduceat(scaled_bytes * 8, runs).astype(np.float64)

        # One row per code: DROP rows, then SHAPE rows, each part members
        # ascending; a stable sort by member interleaves them.
        no_drops = np.zeros(len(drop_codes))
        no_shapes = np.zeros(len(shape_codes))
        row_codes = np.concatenate((drop_codes, shape_codes))
        row_asns = self._code_owners[row_codes]
        by_member = np.argsort(row_asns, kind="stable")
        columns = RuleColumns(
            row_asns[by_member],
            self._rule_ids[row_codes[by_member]],
            np.concatenate((drop_sums, scaled_bits))[by_member],
            np.concatenate((drop_sums, no_shapes))[by_member],
            np.concatenate((no_drops, scaled_bits))[by_member],
            np.concatenate((no_drops, np.asarray(discarded, dtype=np.float64)))[by_member],
        )
        return columns, shape_rows, factors


#: An interval's rule stats when no rule claimed a row.
_NO_RULES = RuleColumns.empty()

#: The claimed ports' verdicts (see :meth:`FabricDeliveryPlan.execute`):
#: their groups, the offsets of their runs of rows, each row's action
#: code, and the shaped rows with their scale factors.
Verdicts = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]
#: No claimed group: every port forwards all of its rows.
_ALL_FORWARD: Verdicts = (np.zeros(0, dtype=np.intp),) * 5


def _verdict_tables(
    table: FlowTable,
    order: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    verdicts: Verdicts,
    index: int,
) -> TableSource:
    """Table source of the member at column ``index``.

    A claimed member's rows split by their action codes (its run of the
    verdicts' actions), and its shaped rows are its segment of the
    platform's rank-sorted shaped rows (members ascending), each scaled
    by its factor.  Any other member's rows all forward.
    """
    rows = order[starts[index]:ends[index]]

    def source() -> tuple[FlowTable, FlowTable, FlowTable]:
        groups, bounds, actions, shape_rows, shape_factors = verdicts
        at = int(np.searchsorted(groups, index))
        if at == len(groups) or groups[at] != index:
            return table.select(rows), FlowTable.empty(), FlowTable.empty()
        row_actions = actions[bounds[at]:bounds[at] + len(rows)]
        shaped_egress = table.egress_asn[shape_rows]
        asn = table.egress_asn[rows[0]]
        lo = int(np.searchsorted(shaped_egress, asn, "left"))
        hi = int(np.searchsorted(shaped_egress, asn, "right"))
        shaped = (
            table.select(shape_rows[lo:hi]).scaled_by(shape_factors[lo:hi])
            if hi > lo
            else FlowTable.empty()
        )
        return (
            table.select(rows[row_actions == _FORWARD_CODE]),
            table.select(rows[row_actions == _DROP_CODE]),
            shaped,
        )

    return source
