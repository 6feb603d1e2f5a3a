"""QoS classification and queueing (the filtering layer's data plane).

Stellar's filtering layer compiles blackholing rules into per-member-port
QoS policies (paper §4.5, Fig. 8).  Each policy classifies the packet
stream leaving the IXP towards the member into one of three actions:

* ``DROP`` — redirect to a zero-length queue (immediate discard),
* ``SHAPE`` — pass through a shaping queue with a configurable rate (used
  for telemetry: the victim still sees a bounded sample of the attack),
* ``FORWARD`` — the default; enqueue on the member port's egress queue,
  which is itself limited by the port capacity.

The reproduction models this at flow level per observation interval.  A
:class:`PortQosPolicy` holds a port's rules in most-specific-first order
and classifies a columnar :class:`~repro.traffic.flowtable.FlowTable`
through its compiled :class:`~repro.ixp.ruleindex.RuleMatchIndex`
(:meth:`PortQosPolicy.assign_table`).  The verdict scatter, shaping and
congestion accounting run platform-wide in
:class:`~repro.ixp.delivery.FabricDeliveryPlan`; its interval report
builds a port's :class:`PortQosResult` when that port is looked up.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from ..bgp.prefix import Prefix
from ..traffic.flowtable import (
    FlowTable,
    derived_mac_low_bits,
    ingress_peers,
    population_bits,
    prefix_mask,
)
from ..traffic.packet import IpProtocol
from .queues import RateLimiter
from .ruleindex import RuleMatchIndex

#: Journal entries kept between compiles.  A cached index older than the
#: journal's reach is recompiled from scratch; 64 entries comfortably
#: covers the control-plane service's per-drain churn while bounding how
#: many splices one :meth:`PortQosPolicy.compiled_index` call can replay.
_JOURNAL_LIMIT = 64

#: Largest :meth:`PortQosPolicy.install_many` batch maintained as splices.
#: Past this, one full re-sort + recompile is cheaper than per-rule
#: insertion — the staging path for tens of thousands of rules keeps its
#: O(R log R) bulk behaviour.
_BATCH_DELTA_LIMIT = 32


class FilterAction(Enum):
    """What happens to traffic matching a classification rule."""

    DROP = "drop"
    SHAPE = "shape"
    FORWARD = "forward"


@dataclass(frozen=True)
class FlowMatch:
    """L2–L4 match criteria of a classification rule.

    Every field is optional; ``None`` means "any".  The resource footprint
    properties report how many TCAM entries of each pool a rule with this
    match consumes (one MAC entry if a MAC is matched; one L3–L4 criterion
    per L3/L4 field).
    """

    dst_prefix: Optional[Prefix] = None
    src_prefix: Optional[Prefix] = None
    src_mac: Optional[str] = None
    protocol: Optional[IpProtocol] = None
    src_port: Optional[int] = None
    dst_port: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("src_port", "dst_port"):
            port = getattr(self, name)
            if port is not None and not 0 <= port <= 65535:
                raise ValueError(f"{name} must be a valid L4 port, got {port}")

    # ------------------------------------------------------------------
    @property
    def mac_filter_entries(self) -> int:
        """MAC (L2) TCAM entries consumed by this match."""
        return 1 if self.src_mac is not None else 0

    @property
    def l3l4_criteria(self) -> int:
        """L3–L4 TCAM criteria consumed by this match."""
        return sum(
            1
            for value in (
                self.dst_prefix,
                self.src_prefix,
                self.protocol,
                self.src_port,
                self.dst_port,
            )
            if value is not None
        )

    # ------------------------------------------------------------------
    @cached_property
    def _derived_mac_low_bits(self) -> Optional[int]:
        return None if self.src_mac is None else derived_mac_low_bits(self.src_mac)

    def matches_table(self, table: FlowTable) -> np.ndarray:
        """Rows of a columnar flow batch that meet every criterion.

        A row's source MAC is the derived MAC of its ingress member, which
        encodes the low 16 bits of the ingress ASN; a MAC not of the
        derived form matches no row.
        """
        n = len(table)
        mask = np.ones(n, dtype=bool)
        for prefix, column in ((self.dst_prefix, table.dst_ip), (self.src_prefix, table.src_ip)):
            if prefix is None:
                continue
            mask &= prefix_mask(column, prefix)
            if not mask.any():
                return mask
        if self.src_mac is not None:
            low = self._derived_mac_low_bits
            if low is None:
                return np.zeros(n, dtype=bool)
            mask &= (table.ingress_asn & 0xFFFF) == low
        if self.protocol is not None:
            mask &= table.protocol == int(self.protocol)
        if self.src_port is not None:
            mask &= table.src_port == self.src_port
        if self.dst_port is not None:
            mask &= table.dst_port == self.dst_port
        return mask

    @property
    def specificity(self) -> int:
        """More specific matches win when several rules match a flow."""
        score = self.l3l4_criteria + self.mac_filter_entries
        if self.dst_prefix is not None:
            score += self.dst_prefix.length / 128
        if self.src_prefix is not None:
            score += self.src_prefix.length / 128
        return int(score * 1000)


@dataclass(frozen=True)
class QosRule:
    """One classification rule: match criteria + action (+ shaping rate)."""

    match: FlowMatch
    action: FilterAction
    #: Only meaningful for SHAPE: the shaping rate in bits per second.
    shape_rate_bps: float = 0.0
    #: Identifier of the blackholing rule this was compiled from (telemetry).
    rule_id: str = ""

    def __post_init__(self) -> None:
        if self.action is FilterAction.SHAPE and not (
            math.isfinite(self.shape_rate_bps) and self.shape_rate_bps > 0
        ):
            raise ValueError("SHAPE rules require a positive, finite shape_rate_bps")
        if self.action is not FilterAction.SHAPE and self.shape_rate_bps:
            raise ValueError("shape_rate_bps is only valid for SHAPE rules")


class PortQosResult:
    """Outcome of pushing one interval of traffic through a port's QoS policy.

    The bit counters and ``rule_stats`` are eager; ``rule_stats``
    attributes matched/dropped/shaped bits to the rule id that classified
    them, which is what the telemetry layer reports.  The per-action flow
    populations are deferred: ``table_source`` produces the
    ``(forwarded, dropped, shaped)`` tables, and only runs if a consumer
    asks for one (``forwarded_table`` etc.) — the fabric accounts for
    hundreds of ports per interval and most results are never inspected
    flow by flow.
    """

    def __init__(
        self,
        table_source: Callable[[], tuple[FlowTable, FlowTable, FlowTable]],
        forwarded_bits: float = 0.0,
        dropped_bits: float = 0.0,
        shaped_passed_bits: float = 0.0,
        shaped_dropped_bits: float = 0.0,
        congestion_dropped_bits: float = 0.0,
        rule_stats: Optional[dict[str, dict[str, float]]] = None,
    ) -> None:
        self._table_source: Optional[
            Callable[[], tuple[FlowTable, FlowTable, FlowTable]]
        ] = table_source
        self._tables: tuple[FlowTable, FlowTable, FlowTable] | None = None
        self.forwarded_bits = forwarded_bits
        self.dropped_bits = dropped_bits
        self.shaped_passed_bits = shaped_passed_bits
        self.shaped_dropped_bits = shaped_dropped_bits
        self.congestion_dropped_bits = congestion_dropped_bits
        self.rule_stats: dict[str, dict[str, float]] = (
            rule_stats if rule_stats is not None else {}
        )

    # ------------------------------------------------------------------
    # Per-action tables (built on first access)
    # ------------------------------------------------------------------
    def _table(self, which: int) -> FlowTable:
        if self._tables is None:
            assert self._table_source is not None
            source, self._table_source = self._table_source, None
            self._tables = source()
        return self._tables[which]

    @property
    def forwarded_table(self) -> FlowTable:
        return self._table(0)

    @property
    def dropped_table(self) -> FlowTable:
        return self._table(1)

    @property
    def shaped_table(self) -> FlowTable:
        return self._table(2)

    # ------------------------------------------------------------------
    @property
    def delivered_bits(self) -> float:
        """Bits actually delivered to the member (forwarded + shaped that passed)."""
        return self.forwarded_bits + self.shaped_passed_bits

    # ------------------------------------------------------------------
    # Columnar-aware summaries (used by the experiment drivers)
    # ------------------------------------------------------------------
    def delivered_peer_asns(self) -> set[int]:
        """Distinct ingress members whose traffic still reaches the member."""
        return ingress_peers(self.forwarded_table) | ingress_peers(
            self.shaped_table, positive_bytes=True
        )

    def delivered_attack_bits(self) -> float:
        """Attack bits among forwarded + shaped traffic (pre-congestion)."""
        return population_bits(self.forwarded_table, attack=True) + population_bits(
            self.shaped_table, attack=True
        )


#: Compact action codes used by the vectorized verdict scatter.
_FORWARD_CODE, _DROP_CODE, _SHAPE_CODE = np.int8(0), np.int8(1), np.int8(2)
_ACTION_CODES = {
    FilterAction.FORWARD: _FORWARD_CODE,
    FilterAction.DROP: _DROP_CODE,
    FilterAction.SHAPE: _SHAPE_CODE,
}


class RuleEpoch:
    """A counter shared by every port policy connected to one fabric.

    Every rule-set mutation of a policy holding it bumps it once, so the
    fabric's cached delivery plan checks its rules' currency with one
    integer compare instead of reading each port's
    :attr:`PortQosPolicy.rules_version`.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self) -> None:
        self.value += 1


class PortQosPolicy:
    """The QoS policy configured on one member (egress) port.

    Columnar intervals are classified through a
    :class:`~repro.ixp.ruleindex.RuleMatchIndex` compiled from the sorted
    rules and cached behind :attr:`rules_version` (the counter bumped by
    every :meth:`install` / :meth:`remove` / :meth:`clear`).
    """

    def __init__(self, port_capacity_bps: float) -> None:
        if not (math.isfinite(port_capacity_bps) and port_capacity_bps > 0):
            raise ValueError("port capacity must be positive and finite")
        self.port_capacity_bps = port_capacity_bps
        self._rules: list[QosRule] = []
        self._sorted_rules: list[QosRule] = []
        #: Negated specificity of each sorted rule (ascending), so a
        #: bisect_right lands a new rule exactly where the stable
        #: most-specific-first sort would have placed it.
        self._sorted_specs: list[int] = []
        #: Installed rule ids, each with its SHAPE rule's token bucket
        #: (None for any other action).  Installing a fresh id or removing
        #: an unknown one checks here instead of scanning the rules.
        self._ids: dict[str, Optional[RateLimiter]] = {}
        #: Monotonic rule-set version; every mutation bumps it, and the
        #: compiled index / fabric delivery plan caches key off it.
        self._version = 0
        #: Change journal between versions: ``(version_after, deltas)``
        #: entries where each delta is ``("install", rule, rank)`` or
        #: ``("remove", rule_id, rank)`` against the sorted order at the
        #: time the delta was recorded.  :meth:`compiled_index` replays it
        #: to patch the previous cached snapshot forward instead of
        #: recompiling; a full re-sort (or overflow past the journal
        #: limit) resets it and the next compile falls back to scratch.
        self._journal: list[tuple[int, tuple]] = []
        #: Lowest version a cached index may hold and still be patched
        #: forward by replaying the journal.
        self._journal_base = 0
        self._index: Optional[RuleMatchIndex] = None
        self._index_version = -1
        self._action_codes: Optional[np.ndarray] = None
        self._rule_id_codes: Optional[tuple[np.ndarray, list[str]]] = None
        self._anon_ids = itertools.count(1)
        #: The epoch of the fabric the port is connected to (set by the
        #: fabric when it builds the port); every version bump bumps it too.
        self.epoch: Optional[RuleEpoch] = None

    # ------------------------------------------------------------------
    # Rule management
    # ------------------------------------------------------------------
    def _bump(self) -> None:
        self._version += 1
        if self.epoch is not None:
            self.epoch.bump()
        self._action_codes = None
        self._rule_id_codes = None

    def _record(self, deltas: list[tuple]) -> None:
        """Journal the deltas that produced the current version."""
        self._journal.append((self._version, tuple(deltas)))
        while len(self._journal) > _JOURNAL_LIMIT:
            del self._journal[0]
            self._journal_base = self._journal[0][0] - 1

    def _insert_sorted(self, rule: QosRule) -> int:
        """Splice one appended rule into the sorted views; returns its rank."""
        spec = -rule.match.specificity
        position = bisect_right(self._sorted_specs, spec)
        self._sorted_rules.insert(position, rule)
        self._sorted_specs.insert(position, spec)
        return position

    def _resort(self) -> None:
        # Stable sort: ties keep installation order, so the first match in
        # sorted order equals the most specific (earliest-installed) rule.
        self._sorted_rules = sorted(
            self._rules, key=lambda rule: rule.match.specificity, reverse=True
        )
        self._sorted_specs = [-rule.match.specificity for rule in self._sorted_rules]
        self._bump()
        # A full re-sort rebuilds the order wholesale; the journal can no
        # longer describe the change as splices, so patching restarts here.
        self._journal = []
        self._journal_base = self._version

    def _normalise(self, rule: QosRule, taken: Optional[set] = None) -> QosRule:
        """Give anonymous SHAPE rules a unique synthetic id.

        Every SHAPE rule needs its own :class:`RateLimiter`; keying the
        shaper (and the shaped-traffic grouping) off a per-policy
        ``anon-<n>`` id means two anonymous rules with different rates can
        no longer silently share one token bucket.  Synthetic ids skip any
        id already installed (or pending in the same batch via ``taken``),
        so a caller-supplied rule literally named ``anon-<n>`` is never
        silently replaced by a later anonymous install.
        """
        if rule.action is FilterAction.SHAPE and not rule.rule_id:
            existing = self._ids.keys() | taken if taken else self._ids
            while True:
                rule_id = f"anon-{next(self._anon_ids)}"
                if rule_id not in existing:
                    return replace(rule, rule_id=rule_id)
        return rule

    def _attach(self, rule: QosRule) -> None:
        self._rules.append(rule)
        self._ids[rule.rule_id] = (
            RateLimiter(rate_bps=rule.shape_rate_bps)
            if rule.action is FilterAction.SHAPE
            else None
        )

    def install(self, rule: QosRule) -> None:
        """Install a rule (replacing any existing rule with the same id).

        Maintained as splices: the replaced rule (if any) and the new rule
        each touch one position of the sorted views, and the change is
        journalled so the next :meth:`compiled_index` call patches the
        cached snapshot instead of recompiling O(rules) from scratch.
        """
        rule = self._normalise(rule)
        deltas: list[tuple] = []
        if rule.rule_id and rule.rule_id in self._ids:
            self._remove_sorted(rule.rule_id, deltas)
            self._forget(rule.rule_id)
        self._attach(rule)
        deltas.append(("install", rule, self._insert_sorted(rule)))
        self._bump()
        self._record(deltas)

    def _forget(self, rule_id: str) -> None:
        """Take every rule carrying ``rule_id`` out of the install order."""
        self._rules = [rule for rule in self._rules if rule.rule_id != rule_id]
        del self._ids[rule_id]

    def _remove_sorted(self, rule_id: str, deltas: list[tuple]) -> None:
        """Splice every rule carrying ``rule_id`` out of the sorted views.

        Ranks are journalled in descending order so each recorded rank is
        valid against the sorted order the moment its delta is replayed.
        """
        ranks = [
            rank
            for rank, existing in enumerate(self._sorted_rules)
            if existing.rule_id == rule_id
        ]
        for rank in reversed(ranks):
            del self._sorted_rules[rank]
            del self._sorted_specs[rank]
            deltas.append(("remove", rule_id, rank))

    def install_many(self, rules: Iterable[QosRule]) -> None:
        """Install a batch of rules with one re-sort and one version bump.

        Semantically equivalent to calling :meth:`install` per rule (same
        id-replacement behaviour, later duplicates win), but O(R log R)
        for the whole batch instead of O(R² log R) — the path the
        fine-grained scenario uses to stage tens of thousands of rules.
        """
        normalised: list[QosRule] = []
        taken: set[str] = set()
        for rule in rules:
            rule = self._normalise(rule, taken)
            if rule.rule_id:
                taken.add(rule.rule_id)
            normalised.append(rule)
        batch: list[QosRule] = []
        seen: set[str] = set()
        for rule in reversed(normalised):
            if rule.rule_id:
                if rule.rule_id in seen:
                    continue
                seen.add(rule.rule_id)
            batch.append(rule)
        batch.reverse()
        if not batch:
            return
        replaced = [rule_id for rule_id in seen if rule_id in self._ids]
        if replaced:
            self._rules = [rule for rule in self._rules if rule.rule_id not in seen]
            for rule_id in replaced:
                del self._ids[rule_id]
        if len(batch) > _BATCH_DELTA_LIMIT:
            # Bulk staging: one stable sort beats thousands of splices.
            # _resort resets the journal, so the next compile is scratch.
            for rule in batch:
                self._attach(rule)
            self._resort()
            return
        deltas: list[tuple] = []
        for rule_id in replaced:
            self._remove_sorted(rule_id, deltas)
        for rule in batch:
            self._attach(rule)
            # Sequential bisect insertion of the appended batch equals the
            # stable most-specific-first sort of the combined list: each
            # appended rule lands after every equal-specificity rule
            # already placed, exactly its stable-sort position.
            deltas.append(("install", rule, self._insert_sorted(rule)))
        self._bump()
        self._record(deltas)

    def remove(self, rule_id: str) -> bool:
        """Remove the rule with the given id.  Returns True if found.

        Removing an unknown id is a no-op: the rule-set version is *not*
        bumped, so the compiled index and the fabric's cached delivery
        plan stay warm instead of recompiling for a change that never
        happened.
        """
        if rule_id not in self._ids:
            return False
        deltas: list[tuple] = []
        self._remove_sorted(rule_id, deltas)
        self._forget(rule_id)
        self._bump()
        self._record(deltas)
        return True

    def rules(self) -> list[QosRule]:
        return list(self._rules)

    def rule_ids(self) -> list[str]:
        """Installed rule ids in install order.

        Anonymous SHAPE rules appear under the synthetic ``anon-<n>`` id
        they were given at install time; anonymous DROP/FORWARD rules
        appear as ``""``.  The control-plane service's telemetry (and the
        lockstep fuzz machine) compare policies through this view.
        """
        return [rule.rule_id for rule in self._rules]

    def sorted_rules(self) -> list[QosRule]:
        """The rules in classification (most-specific-first) order.

        The fabric delivery plan compiles these into its platform-level
        rule set; the order is the rank order :meth:`assign_table`
        reports.
        """
        return list(self._sorted_rules)

    def shaper_for(self, key: str) -> Optional[RateLimiter]:
        """The stateful shaper behind a SHAPE rule id, drained by the
        fabric delivery plan.  Anonymous shape rules are keyed by their
        synthetic ``anon-<n>`` id assigned at install time."""
        return self._ids.get(key)

    def clear(self) -> None:
        """Drop every rule.  Clearing an already-empty policy is a no-op
        (no version bump), mirroring :meth:`remove` on an unknown id."""
        if not self._rules:
            return
        self._rules.clear()
        self._ids.clear()
        self._sorted_rules.clear()
        self._sorted_specs.clear()
        self._bump()
        # Cheaper to compile the empty set than to replay N removals.
        self._journal = []
        self._journal_base = self._version

    def __len__(self) -> int:
        return len(self._rules)

    # ------------------------------------------------------------------
    # Compiled-index cache
    # ------------------------------------------------------------------
    @property
    def rules_version(self) -> int:
        """Monotonic counter bumped by every rule-set mutation.

        The compiled rule-match index and the fabric's cached delivery
        plan are both keyed off it, so a mid-run ``install``/``remove`` is
        picked up on the next interval without recompiling untouched
        ports.
        """
        return self._version

    def compiled_index(self) -> RuleMatchIndex:
        """The rule-match index for the current rule set (cached per version).

        When the change journal still covers the cached snapshot's
        version, every delta recorded since — one span, however many
        versions and coalesced batches it crosses — is applied in one
        :meth:`~repro.ixp.ruleindex.RuleMatchIndex.with_changes` pass
        instead of recompiling the whole rule set; a re-sort, a
        :meth:`clear` or journal overflow falls back to the from-scratch
        compile.  Either way the result is structurally identical (the
        fuzz suite pins it), and a span that fails to apply leaves the
        cached snapshot as it was.
        """
        if self._index is not None and self._index_version != self._version:
            if self._index_version >= self._journal_base:
                self._index = self._index.with_changes(
                    delta
                    for version_after, deltas in self._journal
                    if version_after > self._index_version
                    for delta in deltas
                )
                self._index_version = self._version
            else:
                self._index = None
        if self._index is None or self._index_version != self._version:
            self._index = RuleMatchIndex(self._sorted_rules)
            self._index_version = self._version
        return self._index

    def action_codes(self) -> np.ndarray:
        """Per-sorted-rule action codes (forward/drop/shape) for the scatter."""
        if self._action_codes is None or len(self._action_codes) != len(self._sorted_rules):
            self._action_codes = np.fromiter(
                (_ACTION_CODES[rule.action] for rule in self._sorted_rules),
                dtype=np.int8,
                count=len(self._sorted_rules),
            )
        return self._action_codes

    def rule_id_codes(self) -> tuple[np.ndarray, list[str]]:
        """Per-sorted-rule codes into the list of distinct rule ids.

        Ids repeat across rules — every anonymous DROP/FORWARD rule is
        ``""`` — so the scatter sums ``rule_stats`` per code.
        """
        if self._rule_id_codes is None:
            codes: dict[str, int] = {}
            self._rule_id_codes = (
                np.fromiter(
                    (codes.setdefault(rule.rule_id, len(codes)) for rule in self._sorted_rules),
                    dtype=np.int64,
                    count=len(self._sorted_rules),
                ),
                list(codes),
            )
        return self._rule_id_codes

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def assign_table(self, table: FlowTable) -> np.ndarray:
        """Rank of each row's claiming rule in :meth:`sorted_rules` order.

        ``-1`` means no rule matches (forward).  The batched fabric
        delivery plan calls this once per filtered member slice.
        """
        n = len(table)
        if not self._sorted_rules or n == 0:
            return np.full(n, -1, dtype=np.int32)
        return self.compiled_index().assign(table)
