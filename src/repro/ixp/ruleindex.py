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

Indexes are immutable snapshots with one way to build them: a compile
of the whole rule list.  :class:`~repro.ixp.qos.PortQosPolicy` caches
one per rule-set version, so a port whose rules changed compiles once,
on its next classification, however many changes it took since.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
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
_FIELD_WIDTHS = dict(EXACT_FIELD_WIDTHS)

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
    strategy.  The derived fields are computed once per signature (every
    compiled rule reads them), and :meth:`of` hands out one shared
    instance per distinct signature.
    """

    dst: str = _NONE
    src: str = _NONE
    mac: bool = False
    protocol: bool = False
    src_port: bool = False
    dst_port: bool = False
    #: The packed key fields, in :data:`EXACT_FIELD_WIDTHS` order.
    exact_fields: tuple[str, ...] = field(init=False, repr=False, compare=False)
    #: Total width of the packed key.
    key_bits: int = field(init=False, repr=False, compare=False)
    #: True if every set criterion is an equality test fitting the key.
    #: MAC criteria and non-host (or IPv6) prefixes force the masked
    #: fallback, as does the empty (catch-all) signature and the rare
    #: combination whose packed key would overflow 64 bits (e.g. host
    #: src + host dst + both ports).
    is_exact: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        present = {
            "dst_ip": self.dst == _HOST,
            "src_ip": self.src == _HOST,
            "protocol": self.protocol,
            "src_port": self.src_port,
            "dst_port": self.dst_port,
        }
        fields = tuple(name for name, _ in EXACT_FIELD_WIDTHS if present[name])
        key_bits = sum(_FIELD_WIDTHS[name] for name in fields)
        broad = self.mac or self.dst == _PREFIX or self.src == _PREFIX
        object.__setattr__(self, "exact_fields", fields)
        object.__setattr__(self, "key_bits", key_bits)
        object.__setattr__(self, "is_exact", not broad and bool(fields) and key_bits <= 64)

    @classmethod
    def of(cls, match: "FlowMatch") -> "MatchSignature":
        def prefix_kind(prefix: "Optional[Prefix]") -> str:
            if prefix is None:
                return _NONE
            network = prefix.network
            return _HOST if network.version == 4 and network.prefixlen == 32 else _PREFIX

        kinds = (
            prefix_kind(match.dst_prefix),
            prefix_kind(match.src_prefix),
            match.src_mac is not None,
            match.protocol is not None,
            match.src_port is not None,
            match.dst_port is not None,
        )
        signature = _SIGNATURES.get(kinds)
        if signature is None:
            signature = _SIGNATURES[kinds] = cls(*kinds)
        return signature


#: The shared :class:`MatchSignature` per distinct field-kind tuple.
_SIGNATURES: dict[tuple, MatchSignature] = {}


def _packed_key(match: "FlowMatch", fields: tuple[str, ...]) -> int:
    """Pack one rule's exact criteria into the group's integer key."""
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
        key = (key << _FIELD_WIDTHS[name]) | value
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


#: Where a fallback rule is matched: its radix bin, or ``None`` for the
#: full-table pass.
_Bin = Optional[tuple[str, int]]


def _file(ranked: "Iterable[tuple[int, QosRule]]") -> tuple[dict, dict]:
    """Sort ``(rank, rule)`` pairs into exact ``(key, rank)`` entries per
    field tuple and fallback ``(rank, rule)`` entries per :data:`_Bin`."""
    exact: dict[tuple[str, ...], list[tuple[int, int]]] = {}
    fallback: dict[_Bin, list["tuple[int, QosRule]"]] = {}
    for rank, rule in ranked:
        signature = MatchSignature.of(rule.match)
        if signature.is_exact:
            fields = signature.exact_fields
            exact.setdefault(fields, []).append((_packed_key(rule.match, fields), rank))
        else:
            fallback.setdefault(_radix_bin(rule.match), []).append((rank, rule))
    return exact, fallback


def _bin_entries(entries: "list[tuple[int, QosRule]]") -> tuple[np.ndarray, np.ndarray]:
    """Rank-ascending ``(rank, rule)`` pairs as a rank + rule array."""
    count = len(entries)
    return (
        np.fromiter((rank for rank, _ in entries), dtype=np.int32, count=count),
        np.fromiter((rule for _, rule in entries), dtype=object, count=count),
    )


class ExactGroup:
    """One exact signature group: packed keys sorted by (key, rank)."""

    __slots__ = ("fields", "keys", "ranks")

    def __init__(self, fields: tuple[str, ...], entries: list[tuple[int, int]]) -> None:
        """Sort ``(key, rank)`` entries into a group."""
        keys = np.fromiter((key for key, _ in entries), dtype=np.uint64, count=len(entries))
        ranks = np.fromiter((rank for _, rank in entries), dtype=np.int32, count=len(entries))
        # Sort by key, then rank.  Duplicate keys keep every entry (each
        # rule counts in describe()): the side="left" lookup in
        # best_ranks lands on the lowest rank (the most specific /
        # earliest-installed rule), matching what the sequential
        # first-match loop would claim.
        order = np.lexsort((ranks, keys))
        self.fields = fields
        self.keys = keys[order]
        self.ranks = ranks[order]

    # ------------------------------------------------------------------
    def flow_keys(self, table: FlowTable) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Pack the group's key fields out of a flow table.

        Returns ``(keys, valid)`` where ``valid`` flags rows whose field
        values fit the packed widths (``None`` when all rows do) — a row
        with an out-of-range value can never equal a validated rule key,
        so it must not alias into another key's lane.
        """
        keys = np.zeros(len(table), dtype=np.uint64)
        valid: Optional[np.ndarray] = None
        for name in self.fields:
            column = getattr(table, name)
            width = np.uint64(_FIELD_WIDTHS[name])
            lane = np.uint64((1 << _FIELD_WIDTHS[name]) - 1)
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


class RuleMatchIndex:
    """Compiled snapshot of one rule list in most-specific-first order.

    ``rules`` must already be sorted the way the sequential classifier
    evaluates them (:meth:`~repro.ixp.qos.PortQosPolicy.sorted_rules`);
    the index assigns each row the *rank* of its claiming rule in that
    order, so callers index back into the same list for actions, shaping
    rates and rule ids.
    """

    def __init__(self, rules: "Sequence[QosRule]") -> None:
        self._rules = np.fromiter(rules, dtype=object, count=len(rules))
        exact, fallback = _file(enumerate(self._rules))
        self._exact_groups = [ExactGroup(fields, entries) for fields, entries in exact.items()]
        #: Fallback entries by radix bin (``None``: the full-table pass).
        self._fallback: dict[_Bin, tuple[np.ndarray, np.ndarray]] = {
            where: _bin_entries(entries) for where, entries in fallback.items()
        }

    # ------------------------------------------------------------------
    # Edited copies
    # ------------------------------------------------------------------
    def with_installed(self, rule: "QosRule", rank: Optional[int] = None) -> "RuleMatchIndex":
        """A new index with ``rule`` at sorted position ``rank`` (default:
        last), compiled from scratch; this index is left as it is."""
        rules = self._rules.tolist()
        if rank is None:
            rank = len(rules)
        if not 0 <= rank <= len(rules):
            raise IndexError(f"insert rank {rank} outside 0..{len(rules)}")
        rules.insert(rank, rule)
        return RuleMatchIndex(rules)

    def with_removed(self, rule_id: str, rank: Optional[int] = None) -> "RuleMatchIndex":
        """A new index without the rule at sorted position ``rank`` (default:
        the first carrying ``rule_id``), compiled from scratch."""
        rules = self._rules.tolist()
        if rank is None:
            ids = [rule.rule_id for rule in rules]
            if rule_id not in ids:
                raise KeyError(f"no rule with id {rule_id!r} in the index")
            rank = ids.index(rule_id)
        if not 0 <= rank < len(rules):
            raise IndexError(f"remove rank {rank} outside 0..{len(rules) - 1}")
        found = rules[rank].rule_id
        if found != rule_id:
            raise KeyError(f"rule at rank {rank} carries id {found!r}, not {rule_id!r}")
        del rules[rank]
        return RuleMatchIndex(rules)

    # ------------------------------------------------------------------
    # Introspection (docs, tests, telemetry)
    # ------------------------------------------------------------------
    def _fallback_groups(self) -> "dict[MatchSignature, list[tuple[int, QosRule]]]":
        """Fallback ``(rank, rule)`` entries by signature, rank-ascending."""
        entries = sorted(
            (
                (rank, rule)
                for ranks, rules in self._fallback.values()
                for rank, rule in zip(ranks.tolist(), rules)
            ),
            key=lambda entry: entry[0],
        )
        groups: "dict[MatchSignature, list[tuple[int, QosRule]]]" = {}
        for rank, rule in entries:
            groups.setdefault(MatchSignature.of(rule.match), []).append((rank, rule))
        return groups

    @property
    def rule_count(self) -> int:
        return len(self._rules)

    @property
    def exact_rule_count(self) -> int:
        return sum(len(group.keys) for group in self._exact_groups)

    @property
    def fallback_rule_count(self) -> int:
        return sum(len(rules) for _, rules in self._fallback.values())

    @property
    def exact_group_count(self) -> int:
        return len(self._exact_groups)

    @property
    def fallback_group_count(self) -> int:
        return len(self._fallback_groups())

    @property
    def radix_binned_rule_count(self) -> int:
        """Fallback rules matched through a radix bin (not the full pass)."""
        return sum(
            len(rules) for where, (_, rules) in self._fallback.items() if where is not None
        )

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
        binned = [(where, entries) for where, entries in self._fallback.items() if where]
        if binned:
            shift = np.uint32(32 - RADIX_BITS)
            # One bucketing pass per address column: bin each row, then a
            # stable argsort groups the rows so every bin's candidates are
            # one contiguous slice (ascending original row order).
            bucketed: dict[str, tuple[np.ndarray, np.ndarray]] = {}
            for column in {column for (column, _), _ in binned}:
                row_bins = getattr(table, column) >> shift
                order = np.argsort(row_bins, kind="stable")
                bucketed[column] = (order, row_bins[order])
            for (column, bin_value), (ranks, rules) in binned:
                order, sorted_bins = bucketed[column]
                lo = int(np.searchsorted(sorted_bins, np.uint32(bin_value), side="left"))
                hi = int(np.searchsorted(sorted_bins, np.uint32(bin_value), side="right"))
                if lo == hi:
                    continue
                rows = order[lo:hi]
                candidates = table.select(rows)
                for rank, rule in zip(ranks.tolist(), rules):
                    mask = rule.match.matches_table(candidates)
                    if bool(mask.any()):
                        hit = rows[mask]
                        best[hit] = np.minimum(best[hit], np.int32(rank))
        ranks, rules = self._fallback.get(None, ((), ()))
        for rank, rule in zip(ranks, rules):
            mask = rule.match.matches_table(table)
            if bool(mask.any()):
                np.minimum(
                    best, np.where(mask, np.int32(rank), np.int32(sentinel)), out=best
                )
        assigned = best
        assigned[assigned == sentinel] = -1
        return assigned
