"""Compiled rule-match index: classification at tens-of-thousands of rules.

The paper's central scalability claim (Table 1 / §5) is that advanced
blackholing stays effective with *tens of thousands* of fine-grained rules
— far beyond RTBH/ACL hardware limits.  Matching that in the reproduction
needs more than a vectorized pass per rule: one
:meth:`~repro.ixp.qos.FlowMatch.matches_table` scan per rule is
O(rules × flows), so a 10 000-rule port costs 10 000 whole-table passes
per observation interval.

:class:`RuleMatchIndex` compiles a port's most-specific-first rule list
into **signature groups**, keyed by which :class:`~repro.ixp.qos.FlowMatch`
fields are set:

* **Exact groups** — every criterion is an equality test: host (/32)
  ``dst_prefix``/``src_prefix``, ``protocol``, ``src_port``, ``dst_port``.
  This is the dominant Stellar rule shape
  (:meth:`~repro.core.rules.BlackholingRule.drop_udp_source_port` is
  ``dst host + UDP + src_port``).  The group's rule criteria are packed
  into one integer key per rule, and a whole table is matched with a
  single ``np.searchsorted`` over the group's sorted key array —
  O(flows × log rules) per group, independent of the rule count in
  Python terms.
* **Fallback groups** — anything with a broader prefix, an IPv6 prefix, a
  MAC criterion or no criteria at all keeps the per-rule masked pass
  (one ``matches_table`` per rule).  Broad IPv4-prefix rules of at least
  :data:`RADIX_BITS` bits are additionally **radix-binned**: the rule is
  filed under the top :data:`RADIX_BITS` bits of its prefix, the table's
  address column is bucketed by the same bits once per assignment, and
  the rule's masked pass runs only over its candidate bin's rows — an
  address outside the bin can never match the prefix, so verdicts are
  unchanged while the O(fallback rules × flows) term collapses to
  O(fallback rules × bin rows).

Precedence is resolved *across* groups with a vectorized argmin over rule
ranks: each rule carries its position in the port's most-specific-first
order, every group contributes the per-row rank of its best match, and the
row's verdict is the minimum rank seen — exactly the rule the sequential
first-match loop would have claimed the row with.  Duplicate exact keys
keep every entry (sorted by rank within the key), and the ``side="left"``
lookup returns the lowest rank — the most specific / earliest-installed
rule, matching the sequential loop.  The index is therefore
verdict-for-verdict equal to a naive first-match loop (pinned against the
reference in ``tests/oracle`` by ``tests/ixp/test_ruleindex.py`` and the
fuzz suite).

Indexes are immutable snapshots.  :class:`~repro.ixp.qos.PortQosPolicy`
caches one per rule-set version and, under steady churn, *derives the
next snapshot from the previous one*: :meth:`RuleMatchIndex.with_installed`
and :meth:`RuleMatchIndex.with_removed` splice a single rule into / out of
the one signature group it touches (one ``np.searchsorted`` + slice copy
for exact groups, a list splice for fallback groups) and rewrite only the
affected rank range, so a single-rule change costs O(group) array copies
instead of an O(rules) Python recompile.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..traffic.flowtable import FlowTable

if TYPE_CHECKING:
    from ..bgp.prefix import Prefix
    from .qos import FlowMatch, QosRule

#: Packing order and bit widths of the exact-match key fields.  A group's
#: key concatenates the fields its signature sets, in this order; the sum
#: of the set widths must fit the 64-bit key (checked per signature).
EXACT_FIELD_WIDTHS: tuple[tuple[str, int], ...] = (
    ("dst_ip", 32),
    ("src_ip", 32),
    ("protocol", 8),
    ("src_port", 16),
    ("dst_port", 16),
)

#: Top address bits a broad IPv4-prefix fallback rule is binned by.  A
#: rule with a prefix of at least this many bits maps to exactly one bin
#: (its prefix fixes the top bits), so its masked pass only needs the
#: rows whose address column carries the same top bits.  4096 bins keeps
#: the per-assignment bucketing one shift + argsort over the column.
RADIX_BITS = 12

#: Field kinds a signature distinguishes for the prefix criteria.
_NONE, _HOST, _PREFIX = "none", "host", "prefix"


@dataclass(frozen=True)
class MatchSignature:
    """Which fields of a :class:`~repro.ixp.qos.FlowMatch` are set, and how.

    ``dst``/``src`` record whether the prefix criterion is absent, an IPv4
    host route (an equality test on the address column) or anything
    broader; the L4 fields and the MAC criterion are plain present/absent
    flags.  Rules sharing a signature are matched by the same compiled
    strategy.
    """

    dst: str = _NONE
    src: str = _NONE
    mac: bool = False
    protocol: bool = False
    src_port: bool = False
    dst_port: bool = False

    @classmethod
    def of(cls, match: "FlowMatch") -> "MatchSignature":
        def prefix_kind(prefix: "Optional[Prefix]") -> str:
            if prefix is None:
                return _NONE
            if prefix.version == 4 and prefix.is_host_route:
                return _HOST
            return _PREFIX

        return cls(
            dst=prefix_kind(match.dst_prefix),
            src=prefix_kind(match.src_prefix),
            mac=match.src_mac is not None,
            protocol=match.protocol is not None,
            src_port=match.src_port is not None,
            dst_port=match.dst_port is not None,
        )

    # ------------------------------------------------------------------
    @property
    def exact_fields(self) -> tuple[str, ...]:
        """The packed key fields, in :data:`EXACT_FIELD_WIDTHS` order."""
        present = {
            "dst_ip": self.dst == _HOST,
            "src_ip": self.src == _HOST,
            "protocol": self.protocol,
            "src_port": self.src_port,
            "dst_port": self.dst_port,
        }
        return tuple(name for name, _ in EXACT_FIELD_WIDTHS if present[name])

    @property
    def key_bits(self) -> int:
        widths = dict(EXACT_FIELD_WIDTHS)
        return sum(widths[name] for name in self.exact_fields)

    @property
    def is_exact(self) -> bool:
        """True if every set criterion is an equality test fitting the key.

        MAC criteria and non-host (or IPv6) prefixes force the masked
        fallback, as does the empty (catch-all) signature and the rare
        combination whose packed key would overflow 64 bits (e.g. host
        src + host dst + both ports).
        """
        if self.mac or self.dst == _PREFIX or self.src == _PREFIX:
            return False
        fields = self.exact_fields
        return bool(fields) and self.key_bits <= 64


def _rule_key(match: "FlowMatch", fields: tuple[str, ...]) -> int:
    """Pack one rule's exact criteria into the group's integer key."""
    widths = dict(EXACT_FIELD_WIDTHS)
    key = 0
    for name in fields:
        if name == "dst_ip":
            value = match.dst_prefix.int_bounds[0]
        elif name == "src_ip":
            value = match.src_prefix.int_bounds[0]
        elif name == "protocol":
            value = int(match.protocol)
        else:
            value = int(getattr(match, name))
        key = (key << widths[name]) | value
    return key


def _radix_bin(match: "FlowMatch") -> Optional[tuple[str, int]]:
    """The ``(column, bin)`` a fallback rule's prefix pins, if any.

    Destination prefixes are preferred (the Stellar rule shape); an IPv4
    prefix of fewer than :data:`RADIX_BITS` bits spans several bins and
    stays on the unbinned full-table pass, as do IPv6 prefixes and rules
    with no prefix criterion at all (MAC-only, catch-all).
    """
    for column, prefix in (("dst_ip", match.dst_prefix), ("src_ip", match.src_prefix)):
        if prefix is not None and prefix.version == 4 and prefix.length >= RADIX_BITS:
            return column, prefix.int_bounds[0] >> (32 - RADIX_BITS)
    return None


class ExactGroup:
    """One exact signature group: packed keys sorted by (key, rank)."""

    __slots__ = ("fields", "keys", "ranks", "rule_count")

    def __init__(self, fields: tuple[str, ...], entries: list[tuple[int, int]]) -> None:
        self.fields = fields
        self.rule_count = len(entries)
        keys = np.fromiter((key for key, _ in entries), dtype=np.uint64, count=len(entries))
        ranks = np.fromiter((rank for _, rank in entries), dtype=np.int32, count=len(entries))
        # Sort by key, then rank.  Duplicate keys keep every entry: the
        # side="left" lookup in best_ranks lands on the lowest rank (the
        # most specific / earliest-installed rule), matching what the
        # sequential first-match loop would claim — and keeping shadowed
        # duplicates in place is what lets with_removed restore them.
        order = np.lexsort((ranks, keys))
        self.keys = keys[order]
        self.ranks = ranks[order]

    @classmethod
    def _from_arrays(
        cls, fields: tuple[str, ...], keys: np.ndarray, ranks: np.ndarray
    ) -> "ExactGroup":
        """Adopt already-(key, rank)-sorted arrays without re-sorting."""
        group = object.__new__(cls)
        group.fields = fields
        group.keys = keys
        group.ranks = ranks
        group.rule_count = len(keys)
        return group

    # ------------------------------------------------------------------
    # Incremental splices (callers pass already-shifted rank spaces)
    # ------------------------------------------------------------------
    def _position_of(self, key: int, rank: int, ranks: np.ndarray) -> int:
        """The (key, rank) order position of one entry within the group."""
        lo = int(np.searchsorted(self.keys, np.uint64(key), side="left"))
        hi = int(np.searchsorted(self.keys, np.uint64(key), side="right"))
        return lo + int(np.searchsorted(ranks[lo:hi], np.int32(rank)))

    def with_inserted(self, key: int, rank: int, shifted_ranks: np.ndarray) -> "ExactGroup":
        """A copy with ``(key, rank)`` spliced in at its sorted position."""
        pos = self._position_of(key, rank, shifted_ranks)
        return ExactGroup._from_arrays(
            self.fields,
            np.insert(self.keys, pos, np.uint64(key)),
            np.insert(shifted_ranks, pos, np.int32(rank)),
        )

    def with_deleted(self, key: int, rank: int) -> Optional["ExactGroup"]:
        """A copy with the ``(key, rank)`` entry spliced out (None if empty)."""
        pos = self._position_of(key, rank, self.ranks)
        if (
            pos >= len(self.keys)
            or int(self.keys[pos]) != key
            or int(self.ranks[pos]) != rank
        ):
            raise ValueError(
                f"exact group {self.fields} has no entry (key={key}, rank={rank})"
            )
        if len(self.keys) == 1:
            return None
        return ExactGroup._from_arrays(
            self.fields, np.delete(self.keys, pos), np.delete(self.ranks, pos)
        )

    # ------------------------------------------------------------------
    def flow_keys(self, table: FlowTable) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Pack the group's key fields out of a flow table.

        Returns ``(keys, valid)`` where ``valid`` flags rows whose field
        values fit the packed widths (``None`` when all rows do) — a row
        with an out-of-range value can never equal a validated rule key,
        so it must not alias into another key's lane.
        """
        widths = dict(EXACT_FIELD_WIDTHS)
        keys = np.zeros(len(table), dtype=np.uint64)
        valid: Optional[np.ndarray] = None
        for name in self.fields:
            column = getattr(table, name)
            width = np.uint64(widths[name])
            lane = np.uint64((1 << widths[name]) - 1)
            if column.dtype.kind == "i":  # the L4 port columns are signed
                in_range = (column >= 0) & (column <= int(lane))
                if not bool(in_range.all()):
                    valid = in_range if valid is None else (valid & in_range)
            keys = (keys << width) | (column.astype(np.uint64) & lane)
        return keys, valid

    def best_ranks(self, table: FlowTable, sentinel: int) -> Optional[np.ndarray]:
        """Per-row rank of the group's matching rule (``sentinel`` = none)."""
        if not len(self.keys):
            return None
        keys, valid = self.flow_keys(table)
        positions = np.searchsorted(self.keys, keys)
        positions = np.minimum(positions, len(self.keys) - 1)
        hits = self.keys[positions] == keys
        if valid is not None:
            hits &= valid
        if not bool(hits.any()):
            return None
        return np.where(hits, self.ranks[positions], np.int32(sentinel))


def _shift_up(ranks: np.ndarray, rank: int) -> np.ndarray:
    """A copy of ``ranks`` with every entry >= ``rank`` moved up one."""
    shifted = ranks.copy()
    shifted[shifted >= rank] += np.int32(1)
    return shifted


def _shift_down(ranks: np.ndarray, rank: int) -> np.ndarray:
    """A copy of ``ranks`` with every entry > ``rank`` moved down one."""
    shifted = ranks.copy()
    shifted[shifted > rank] -= np.int32(1)
    return shifted


class RuleMatchIndex:
    """Compiled snapshot of one rule list in most-specific-first order.

    ``rules`` must already be sorted the way the sequential classifier
    evaluates them (:meth:`~repro.ixp.qos.PortQosPolicy.sorted_rules`);
    the index assigns each row the *rank* of its claiming rule in that
    order, so callers index back into the same list for actions, shaping
    rates and rule ids.
    """

    def __init__(self, rules: "Sequence[QosRule]") -> None:
        self._rules = list(rules)
        exact_entries: dict[tuple[str, ...], list[tuple[int, int]]] = {}
        fallback: dict[MatchSignature, list["tuple[int, QosRule]"]] = {}
        for rank, rule in enumerate(self._rules):
            signature = MatchSignature.of(rule.match)
            if signature.is_exact:
                fields = signature.exact_fields
                exact_entries.setdefault(fields, []).append(
                    (_rule_key(rule.match, fields), rank)
                )
            else:
                fallback.setdefault(signature, []).append((rank, rule))
        self._exact_groups = [
            ExactGroup(fields, entries) for fields, entries in exact_entries.items()
        ]
        self._fallback_groups = list(fallback.items())
        self._compile_radix()

    def _compile_radix(self) -> None:
        """Partition the fallback entries into radix bins + the full pass.

        Derived from ``_fallback_groups`` (O(fallback rules), no key
        packing or sorting), so the delta constructors simply re-run it
        on the spliced groups.
        """
        binned: dict[tuple[str, int], list["tuple[int, QosRule]"]] = {}
        unbinned: list["tuple[int, QosRule]"] = []
        for _, entries in self._fallback_groups:
            for rank, rule in entries:
                placed = _radix_bin(rule.match)
                if placed is None:
                    unbinned.append((rank, rule))
                else:
                    binned.setdefault(placed, []).append((rank, rule))
        self._radix_groups = binned
        self._unbinned_fallback = unbinned

    # ------------------------------------------------------------------
    # Persistent-snapshot delta ops
    # ------------------------------------------------------------------
    def with_installed(self, rule: "QosRule", rank: Optional[int] = None) -> "RuleMatchIndex":
        """A new snapshot with ``rule`` spliced in at sorted position ``rank``.

        Structurally identical to ``RuleMatchIndex`` compiled from scratch
        over the new rule list (the fuzz suite pins it): only the touched
        signature group gains an entry — one ``searchsorted`` insert and
        slice copy for an exact group, a list splice for a fallback group
        — and the rank arrays of the other groups are shifted in one
        vectorized pass each.
        """
        if rank is None:
            rank = len(self._rules)
        if not 0 <= rank <= len(self._rules):
            raise IndexError(
                f"insert rank {rank} outside 0..{len(self._rules)}"
            )
        signature = MatchSignature.of(rule.match)
        target_fields = signature.exact_fields if signature.is_exact else None
        clone = object.__new__(RuleMatchIndex)
        clone._rules = self._rules[:rank] + [rule] + self._rules[rank:]

        exact_groups: list[ExactGroup] = []
        inserted = False
        for group in self._exact_groups:
            shifted = _shift_up(group.ranks, rank)
            if target_fields is not None and group.fields == target_fields:
                exact_groups.append(
                    group.with_inserted(_rule_key(rule.match, target_fields), rank, shifted)
                )
                inserted = True
            else:
                exact_groups.append(
                    ExactGroup._from_arrays(group.fields, group.keys, shifted)
                )
        if target_fields is not None and not inserted:
            exact_groups.append(
                ExactGroup(target_fields, [(_rule_key(rule.match, target_fields), rank)])
            )
        clone._exact_groups = exact_groups

        fallback_groups: list["tuple[MatchSignature, list[tuple[int, QosRule]]]"] = []
        spliced = False
        for group_signature, entries in self._fallback_groups:
            shifted_entries = [
                (entry_rank + 1 if entry_rank >= rank else entry_rank, entry_rule)
                for entry_rank, entry_rule in entries
            ]
            if target_fields is None and group_signature == signature:
                position = bisect_left(
                    [entry_rank for entry_rank, _ in shifted_entries], rank
                )
                shifted_entries.insert(position, (rank, rule))
                spliced = True
            fallback_groups.append((group_signature, shifted_entries))
        if target_fields is None and not spliced:
            fallback_groups.append((signature, [(rank, rule)]))
        clone._fallback_groups = fallback_groups
        clone._compile_radix()
        return clone

    def with_removed(self, rule_id: str, rank: Optional[int] = None) -> "RuleMatchIndex":
        """A new snapshot with the rule at sorted position ``rank`` spliced out.

        ``rank`` defaults to the first rule carrying ``rule_id``; when
        given, the rule at that rank must carry ``rule_id`` (the change
        journal records both, so replays verify they still agree).
        """
        if rank is None:
            rank = next(
                (
                    position
                    for position, rule in enumerate(self._rules)
                    if rule.rule_id == rule_id
                ),
                None,
            )
            if rank is None:
                raise KeyError(f"no rule with id {rule_id!r} in the index")
        if not 0 <= rank < len(self._rules):
            raise IndexError(f"remove rank {rank} outside 0..{len(self._rules) - 1}")
        rule = self._rules[rank]
        if rule.rule_id != rule_id:
            raise KeyError(
                f"rule at rank {rank} carries id {rule.rule_id!r}, not {rule_id!r}"
            )
        signature = MatchSignature.of(rule.match)
        target_fields = signature.exact_fields if signature.is_exact else None
        clone = object.__new__(RuleMatchIndex)
        clone._rules = self._rules[:rank] + self._rules[rank + 1 :]

        exact_groups: list[ExactGroup] = []
        for group in self._exact_groups:
            if target_fields is not None and group.fields == target_fields:
                remaining = group.with_deleted(_rule_key(rule.match, target_fields), rank)
                if remaining is None:
                    continue
                group = remaining
            exact_groups.append(
                ExactGroup._from_arrays(
                    group.fields, group.keys, _shift_down(group.ranks, rank)
                )
            )
        clone._exact_groups = exact_groups

        fallback_groups: list["tuple[MatchSignature, list[tuple[int, QosRule]]]"] = []
        for group_signature, entries in self._fallback_groups:
            if target_fields is None and group_signature == signature:
                entries = [
                    (entry_rank, entry_rule)
                    for entry_rank, entry_rule in entries
                    if entry_rank != rank
                ]
                if not entries:
                    continue
            fallback_groups.append(
                (
                    group_signature,
                    [
                        (
                            entry_rank - 1 if entry_rank > rank else entry_rank,
                            entry_rule,
                        )
                        for entry_rank, entry_rule in entries
                    ],
                )
            )
        clone._fallback_groups = fallback_groups
        clone._compile_radix()
        return clone

    # ------------------------------------------------------------------
    # Introspection (docs, tests, telemetry)
    # ------------------------------------------------------------------
    @property
    def rule_count(self) -> int:
        return len(self._rules)

    @property
    def exact_rule_count(self) -> int:
        return sum(group.rule_count for group in self._exact_groups)

    @property
    def fallback_rule_count(self) -> int:
        return sum(len(entries) for _, entries in self._fallback_groups)

    @property
    def exact_group_count(self) -> int:
        return len(self._exact_groups)

    @property
    def fallback_group_count(self) -> int:
        return len(self._fallback_groups)

    @property
    def radix_binned_rule_count(self) -> int:
        """Fallback rules matched through a radix bin (not the full pass)."""
        return sum(len(entries) for entries in self._radix_groups.values())

    def describe(self) -> dict[str, int]:
        """Compact stats of the compiled shape (stable across engines).

        Keys are part of the golden-seed result payloads (the
        fine-grained experiment sums them per protected member), so the
        radix-bin split stays on :attr:`radix_binned_rule_count` rather
        than growing this dict.
        """
        return {
            "rules": self.rule_count,
            "exact_rules": self.exact_rule_count,
            "fallback_rules": self.fallback_rule_count,
            "exact_groups": self.exact_group_count,
            "fallback_groups": self.fallback_group_count,
        }

    def structure(self) -> dict[str, object]:
        """Canonical group-by-group content, for structural-equality checks.

        Group *order* is irrelevant to verdicts (the rank fold is an
        elementwise minimum), so groups are keyed by their signature /
        field tuple; two indexes with equal ``structure()`` compile the
        same rule list the same way regardless of how they were built —
        the invariant the fuzz suite holds between incrementally-derived
        snapshots and from-scratch compiles.
        """
        return {
            "rules": list(self._rules),
            "exact": {
                group.fields: (group.keys.tolist(), group.ranks.tolist())
                for group in self._exact_groups
            },
            "fallback": {
                signature: list(entries)
                for signature, entries in self._fallback_groups
            },
        }

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def assign(self, table: FlowTable) -> np.ndarray:
        """Rank of each row's claiming rule (``-1`` = no rule matches).

        Equal to the sequential first-match loop over the sorted rules:
        the winner is the matching rule with the minimum rank, which the
        exact groups resolve via one sorted-key lookup each and the
        fallback groups via per-rule masked passes — radix-binned rules
        over their candidate bin's rows only — folded together with a
        running elementwise minimum.
        """
        n = len(table)
        sentinel = len(self._rules)
        best = np.full(n, np.int32(sentinel), dtype=np.int32)
        if n == 0 or sentinel == 0:
            return np.full(n, -1, dtype=np.int32)
        for group in self._exact_groups:
            ranks = group.best_ranks(table, sentinel)
            if ranks is not None:
                np.minimum(best, ranks, out=best)
        if self._radix_groups:
            shift = np.uint32(32 - RADIX_BITS)
            # One bucketing pass per address column: bin each row, then a
            # stable argsort groups the rows so every bin's candidates are
            # one contiguous slice (ascending original row order).
            bucketed: dict[str, tuple[np.ndarray, np.ndarray]] = {}
            for column in {column for column, _ in self._radix_groups}:
                row_bins = getattr(table, column) >> shift
                order = np.argsort(row_bins, kind="stable")
                bucketed[column] = (order, row_bins[order])
            for (column, bin_value), entries in self._radix_groups.items():
                order, sorted_bins = bucketed[column]
                lo = int(np.searchsorted(sorted_bins, np.uint32(bin_value), side="left"))
                hi = int(np.searchsorted(sorted_bins, np.uint32(bin_value), side="right"))
                if lo == hi:
                    continue
                rows = order[lo:hi]
                candidates = table.select(rows)
                for rank, rule in entries:
                    mask = rule.match.matches_table(candidates)
                    if bool(mask.any()):
                        hit = rows[mask]
                        best[hit] = np.minimum(best[hit], np.int32(rank))
        for rank, rule in self._unbinned_fallback:
            mask = rule.match.matches_table(table)
            if bool(mask.any()):
                np.minimum(
                    best, np.where(mask, np.int32(rank), np.int32(sentinel)), out=best
                )
        assigned = best
        assigned[assigned == sentinel] = -1
        return assigned
