"""QoS classification and queueing (the filtering layer's data plane).

This module holds the rule format of the whole system: :class:`FlowMatch`
is the one L2–L4 match record (and :meth:`FlowMatch.matches_table` the one
columnar five-tuple matcher), :class:`FilterAction` the one action enum
and :class:`QosRule` the one match-plus-action record.  A blackholing rule
(:class:`~repro.core.rules.BlackholingRule`) is its owner plus the
``QosRule`` it installs; the portal's templates, the community codec, the
ACL baseline and the Flowspec baseline all state their matches as
``FlowMatch`` values.

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
and compiles them into a :class:`~repro.ixp.ruleindex.RuleMatchIndex`
(:meth:`PortQosPolicy.compiled_index`).  Classification, the verdict
scatter, shaping and congestion accounting run platform-wide in
:class:`~repro.ixp.delivery.FabricDeliveryPlan`, which joins the
filtered ports' indexes to classify an interval in one pass; its
interval report builds a port's :class:`PortQosResult` when that port
is looked up.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections.abc import Callable, Container, Iterable
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
from .queues import RateLimiter
from .ruleindex import RuleMatchIndex

#: Largest :meth:`PortQosPolicy.install_many` batch bisected into the
#: sorted view one rule at a time.  Past this, one stable re-sort is
#: cheaper than per-rule insertion — the staging path for tens of
#: thousands of rules keeps its O(R log R) bulk behaviour.
_SPLICE_BATCH_LIMIT = 32


class FilterAction(Enum):
    """What happens to traffic matching a classification rule."""

    DROP = "drop"
    SHAPE = "shape"
    FORWARD = "forward"


@dataclass(frozen=True)
class FlowMatch:
    """L2–L4 match criteria of a classification rule.

    Every field is optional; ``None`` means "any".  ``protocol`` is any
    8-bit IP protocol number (an :class:`~repro.traffic.packet.IpProtocol`
    or a plain ``int``, which compare and hash alike).  The resource
    footprint properties report how many TCAM entries of each pool a rule
    with this match consumes (one MAC entry if a MAC is matched; one L3–L4
    criterion per L3/L4 field).
    """

    dst_prefix: Optional[Prefix] = None
    src_prefix: Optional[Prefix] = None
    src_mac: Optional[str] = None
    protocol: Optional[int] = None
    src_port: Optional[int] = None
    dst_port: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("src_port", "dst_port"):
            port = getattr(self, name)
            if port is not None and not 0 <= port <= 65535:
                raise ValueError(f"{name} must be a valid L4 port, got {port}")
        if self.protocol is not None and not 0 <= self.protocol <= 255:
            raise ValueError(f"protocol must fit in 8 bits, got {self.protocol}")

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

    The bit counters are eager (a port's per-rule statistics are its rows
    of the interval report's rule columns).  The per-action flow
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
        #: The rule each non-empty id names.  Installing a fresh id or
        #: removing an unknown one checks here instead of scanning the
        #: rules, and the router reads a replaced rule's footprint here.
        self._ids: dict[str, QosRule] = {}
        #: Each SHAPE rule's token bucket, by rule id.
        self._shapers: dict[str, RateLimiter] = {}
        #: Monotonic rule-set version; every mutation bumps it, and the
        #: compiled index / fabric delivery plan caches key off it.
        self._version = 0
        self._index: Optional[RuleMatchIndex] = None
        self._index_version = -1
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

    def _insert_sorted(self, rule: QosRule) -> None:
        """Splice one appended rule into the sorted views."""
        spec = -rule.match.specificity
        position = bisect_right(self._sorted_specs, spec)
        self._sorted_rules.insert(position, rule)
        self._sorted_specs.insert(position, spec)

    def _resort(self) -> None:
        # Stable sort: ties keep installation order, so the first match in
        # sorted order equals the most specific (earliest-installed) rule.
        self._sorted_rules = sorted(
            self._rules, key=lambda rule: rule.match.specificity, reverse=True
        )
        self._sorted_specs = [-rule.match.specificity for rule in self._sorted_rules]
        self._bump()

    def normalise(self, rule: QosRule, taken: Container[str] = ()) -> QosRule:
        """Give an anonymous SHAPE rule a unique synthetic id.

        Every SHAPE rule needs its own :class:`RateLimiter`; keying the
        shaper (and the shaped-traffic grouping) off a per-policy
        ``anon-<n>`` id means two anonymous rules with different rates can
        no longer silently share one token bucket.  Synthetic ids skip any
        id already installed (or pending in the same batch via ``taken``),
        so a caller-supplied rule literally named ``anon-<n>`` is never
        silently replaced by a later anonymous install.  Any other rule
        is returned as it is.
        """
        if rule.action is FilterAction.SHAPE and not rule.rule_id:
            while True:
                rule_id = f"anon-{next(self._anon_ids)}"
                if rule_id not in self._ids and rule_id not in taken:
                    return replace(rule, rule_id=rule_id)
        return rule

    def _attach(self, rule: QosRule) -> None:
        self._rules.append(rule)
        if rule.rule_id:
            self._ids[rule.rule_id] = rule
        if rule.action is FilterAction.SHAPE:
            self._shapers[rule.rule_id] = RateLimiter(rate_bps=rule.shape_rate_bps)

    def _forget(self, rule_ids: set[str]) -> None:
        """Take the installed rules ``rule_ids`` name out of the install
        order and the id maps (the sorted views are the caller's)."""
        self._rules = [rule for rule in self._rules if rule.rule_id not in rule_ids]
        for rule_id in rule_ids:
            del self._ids[rule_id]
            self._shapers.pop(rule_id, None)

    def _remove_sorted(self, rule_id: str) -> None:
        """Splice the rule carrying ``rule_id`` out of the sorted views."""
        rank = next(
            rank
            for rank, existing in enumerate(self._sorted_rules)
            if existing.rule_id == rule_id
        )
        del self._sorted_rules[rank]
        del self._sorted_specs[rank]

    def install(self, rule: QosRule) -> None:
        """Install one rule: the one-row :meth:`install_many`."""
        self.install_many((rule,))

    def install_many(self, rules: Iterable[QosRule]) -> None:
        """Install a batch of rules with one version bump.

        A rule replaces the installed rule carrying its id, and a later
        duplicate id in the batch wins, so the batch leaves the rules that
        installing them one at a time would, in one pass: up to
        ``_SPLICE_BATCH_LIMIT`` rules are spliced into the sorted view,
        a larger batch re-sorts it once — O(R log R) for the tens of
        thousands of rules the fine-grained scenario stages.
        """
        normalised: list[QosRule] = []
        taken: set[str] = set()
        for rule in rules:
            rule = self.normalise(rule, taken)
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
        replaced = {rule_id for rule_id in seen if rule_id in self._ids}
        if replaced:
            self._forget(replaced)
        if len(batch) > _SPLICE_BATCH_LIMIT:
            # Bulk staging: one stable sort beats thousands of splices.
            for rule in batch:
                self._attach(rule)
            self._resort()
            return
        for rule_id in replaced:
            self._remove_sorted(rule_id)
        for rule in batch:
            self._attach(rule)
            # Sequential bisect insertion of the appended batch equals the
            # stable most-specific-first sort of the combined list: each
            # appended rule lands after every equal-specificity rule
            # already placed, exactly its stable-sort position.
            self._insert_sorted(rule)
        self._bump()

    def remove(self, rule_id: str) -> bool:
        """Remove the rule with the given id.  Returns True if found.

        Removing an unknown id is a no-op: the rule-set version is *not*
        bumped, so the compiled index and the fabric's cached delivery
        plan stay warm instead of recompiling for a change that never
        happened.  The empty id names no rule (anonymous DROP/FORWARD
        rules leave only through :meth:`clear`).
        """
        if rule_id not in self._ids:
            return False
        self._remove_sorted(rule_id)
        self._forget({rule_id})
        self._bump()
        return True

    def rule_for(self, rule_id: str) -> Optional[QosRule]:
        """The installed rule ``rule_id`` names (None for an unknown or empty id)."""
        return self._ids.get(rule_id)

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
        """The rules in classification (most-specific-first) order: the
        rank order the :meth:`compiled_index` assigns and files its
        action and rule-id codes in."""
        return list(self._sorted_rules)

    def shaper_for(self, key: str) -> Optional[RateLimiter]:
        """The stateful shaper behind a SHAPE rule id, drained by the
        fabric delivery plan.  Anonymous shape rules are keyed by their
        synthetic ``anon-<n>`` id assigned at install time."""
        return self._shapers.get(key)

    def clear(self) -> None:
        """Drop every rule.  Clearing an already-empty policy is a no-op
        (no version bump), mirroring :meth:`remove` on an unknown id."""
        if not self._rules:
            return
        self._rules.clear()
        self._ids.clear()
        self._shapers.clear()
        self._sorted_rules.clear()
        self._sorted_specs.clear()
        self._bump()

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

        Any mutation since the cached index was built compiles a new one
        from the sorted rules; a no-op :meth:`remove` or :meth:`clear`
        bumps no version and keeps the cached index.
        """
        if self._index is None or self._index_version != self._version:
            self._index = RuleMatchIndex(self._sorted_rules)
            self._index_version = self._version
        return self._index
