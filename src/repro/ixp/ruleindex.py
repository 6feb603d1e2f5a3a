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
  into one integer key of at most 64 bits per rule, and a whole table is
  matched with one ``np.searchsorted`` over the group's sorted distinct
  keys — O(flows × log rules) per group, independent of the rule count
  in Python terms.
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

Precedence is resolved *across* groups with a vectorized minimum over
rule ranks: each rule carries its position in the port's
most-specific-first order, and a row's verdict is the minimum rank of the
rules it matches (a duplicate exact key keeps its lowest rank) — exactly
the rule the sequential first-match loop would have claimed it with
(pinned against the reference in ``tests/oracle`` by
``tests/ixp/test_ruleindex.py`` and the fuzz suite).

**One pass over many ports.** :meth:`RuleMatchIndex.compose` joins
several ports' compiled indexes, so the delivery plan classifies every
filtered port's rows with one :meth:`~RuleMatchIndex.assign`.  Each row
carries its member's *slot*, and each port's ranks are shifted by its
offset in the platform rule order.  A composed exact group keeps one
sorted array of ``key id × slots + slot`` composites (the key id being
the key's position among the group's distinct packed keys), so the
member never enters the 64-bit key; fallback rules run per member over
its slot's rows.  A compiled port index is the one-member case.

Indexes are immutable snapshots with one way to build them: a compile
of the whole rule list.  :class:`~repro.ixp.qos.PortQosPolicy` caches
one per rule-set version, so a port whose rules changed compiles once,
on its next classification, however many changes it took since.
"""

from __future__ import annotations

from collections.abc import Sequence
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


class TableRows:
    """``table.select(rows)`` that gathers each column on its first read:
    a rule match reads at most six of a flow table's twelve columns.
    ``rows`` is an index array or a bounded ``slice`` (read as views)."""

    def __init__(self, table: FlowTable | TableRows, rows: np.ndarray | slice) -> None:
        self._table = table
        self._rows = rows
        self._length = rows.stop - rows.start if isinstance(rows, slice) else len(rows)

    def __len__(self) -> int:
        return self._length

    def __getattr__(self, name: str) -> np.ndarray:
        column = getattr(self._table, name)[self._rows]
        setattr(self, name, column)
        return column


#: A row's best rank while no rule has claimed it (above every real rank).
_NO_RANK = np.int32(np.iinfo(np.int32).max)

#: Distinct keys from which a group sorts the flow keys before its lookup:
#: ``searchsorted`` over sorted needles costs about half, sort included,
#: while a group of a few keys is cheaper to search unsorted.
_SORTED_LOOKUP_KEYS = 16


class ExactGroup:
    """One exact signature group over one or more members' rules.

    :attr:`keys` holds the distinct packed keys, ascending; each (key,
    member slot) pair is one *composite* ``key id × slot_count + slot``
    (the key id being the key's position in :attr:`keys`), ascending in
    :attr:`composites` beside the lowest rank of the member's rules
    carrying the key, the rule a first-match loop would claim with.  With
    one member, the key id is the composite, and neither is stored.
    """

    __slots__ = ("fields", "keys", "slot_count", "composites", "ranks", "first")

    def __init__(
        self,
        fields: tuple[str, ...],
        keys: np.ndarray,
        ranks: np.ndarray,
        slots: "np.ndarray | int",
        slot_count: int,
    ) -> None:
        """Group entries ``(keys[i], ranks[i], slots[i])``, ranks ascending."""
        self.fields = fields
        self.slot_count = slot_count
        self.composites: Optional[np.ndarray] = None
        #: Each key's first composite (``None`` while each key's only one).
        self.first: Optional[np.ndarray] = None
        # np.unique is stable: each key (composite) keeps its lowest rank.
        if slot_count == 1:  # one member: a key's id is its composite
            self.keys, first = np.unique(keys, return_index=True)
        else:
            self.keys, key_ids = np.unique(keys, return_inverse=True)
            bound = len(self.keys) * slot_count
            assert bound < 2**63, "composite overflows int64"
            composites = key_ids * slot_count + slots
            composites = composites.astype(np.int32 if bound < 2**31 else np.int64)
            self.composites, first = np.unique(composites, return_index=True)
            if len(self.composites) > len(self.keys):  # some key has several members
                key_starts = np.arange(len(self.keys)) * slot_count
                self.first = np.searchsorted(self.composites, key_starts)
        self.ranks = ranks[first]

    # ------------------------------------------------------------------
    def lookup(self, table: FlowTable | TableRows) -> tuple[np.ndarray, np.ndarray]:
        """The rows whose packed key the group holds, and their key ids (a
        flow table holds each key column at exactly its lane's width)."""
        first, *rest = self.fields
        flow = getattr(table, first).astype(np.uint64)
        for name in rest:
            flow <<= np.uint64(_FIELD_WIDTHS[name])
            flow |= getattr(table, name)
        order = None
        if len(self.keys) >= _SORTED_LOOKUP_KEYS:
            order = np.argsort(flow)
            flow = flow[order]
        at = np.searchsorted(self.keys, flow)
        np.minimum(at, len(self.keys) - 1, out=at)
        found = np.flatnonzero(self.keys[at] == flow)
        return (found if order is None else order[found]), at[found]

    def claim(
        self, table: FlowTable | TableRows, slots: Optional[np.ndarray], best: np.ndarray
    ) -> None:
        """Lower each row's ``best`` rank to its member's rule with the row's
        key; ``slots`` holds each row's member slot (``None``: all slot 0).
        """
        rows, entries = self.lookup(table)
        composites, first = self.composites, self.first
        if composites is not None and slots is not None:
            wanted = entries * self.slot_count + slots[rows]
            if first is not None:
                entries = first[entries]
            # The key's first composite is another member's: search the row's own.
            shared = composites[entries] != wanted
            if shared.any():
                entries[shared] = np.searchsorted(composites, wanted[shared])
                np.minimum(entries, len(composites) - 1, out=entries)
                held = composites[entries] == wanted
                rows, entries = rows[held], entries[held]
        best[rows] = np.minimum(best[rows], self.ranks[entries])


def _claim_fallback(
    bins: dict[_Bin, tuple[np.ndarray, np.ndarray]], table: TableRows, best: np.ndarray
) -> None:
    """Lower ``best`` by one member's fallback rules over its rows ``table``:
    one masked pass per rule, over its radix bin's candidate rows if any."""
    binned = [(where, entries) for where, entries in bins.items() if where]
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
            candidates = TableRows(table, rows)
            for rank, rule in zip(ranks.tolist(), rules):
                mask = rule.match.matches_table(candidates)
                if bool(mask.any()):
                    hit = rows[mask]
                    best[hit] = np.minimum(best[hit], np.int32(rank))
    ranks, rules = bins.get(None, ((), ()))
    for rank, rule in zip(ranks, rules):
        mask = rule.match.matches_table(table)
        if bool(mask.any()):
            np.minimum(best, np.where(mask, np.int32(rank), _NO_RANK), out=best)


class RuleMatchIndex:
    """Compiled snapshot of one rule list in most-specific-first order.

    ``rules`` must already be sorted the way the sequential classifier
    evaluates them (:meth:`~repro.ixp.qos.PortQosPolicy.sorted_rules`);
    the index assigns each row the *rank* of its claiming rule in that
    order, so callers index back into the same list for actions, shaping
    rates and rule ids (the compile also files each rank's action and
    rule-id codes for the delivery plan's scatter).  A compiled index is
    one member's, slot 0; :meth:`compose` joins several into one that
    classifies all their rows.
    """

    def __init__(self, rules: "Sequence[QosRule]") -> None:
        from .qos import _ACTION_CODES

        self._rules = np.fromiter(rules, dtype=object, count=len(rules))
        exact: dict[tuple[str, ...], tuple[list[int], list[int]]] = {}
        fallback: dict[_Bin, tuple[list[int], list[QosRule]]] = {}
        actions: list[int] = []
        id_codes: list[int] = []
        codes: dict[str, int] = {}
        for rank, rule in enumerate(self._rules):
            actions.append(_ACTION_CODES[rule.action])
            id_codes.append(codes.setdefault(rule.rule_id, len(codes)))
            signature = MatchSignature.of(rule.match)
            if signature.is_exact:
                keys, ranks = exact.setdefault(signature.exact_fields, ([], []))
                keys.append(_packed_key(rule.match, signature.exact_fields))
            else:
                ranks, binned = fallback.setdefault(_radix_bin(rule.match), ([], []))
                binned.append(rule)
            ranks.append(rank)
        #: Per rank: the rule's action code, and its code into
        #: :attr:`rule_ids` (every anonymous DROP/FORWARD rule is ``""``).
        self.action_codes = np.array(actions, dtype=np.int8)
        self.rule_id_codes = np.array(id_codes, dtype=np.int64)
        self.rule_ids = list(codes)
        self._exact_groups = [
            ExactGroup(fields, np.array(keys, np.uint64), np.array(ranks, np.int32), 0, 1)
            for fields, (keys, ranks) in exact.items()
        ]
        #: Per member slot, its fallback ranks and rules by radix bin
        #: (``None``: the pass over all of the member's rows).
        self._fallback: dict[int, dict[_Bin, tuple[np.ndarray, np.ndarray]]] = {}
        if fallback:
            self._fallback[0] = {
                where: (np.array(ranks, np.int32), np.fromiter(binned, object, len(binned)))
                for where, (ranks, binned) in fallback.items()
            }

    @classmethod
    def compose(
        cls, indexes: "Sequence[RuleMatchIndex]", offsets: Sequence[int]
    ) -> "RuleMatchIndex":
        """One index whose member slot ``i`` holds ``indexes[i]``, its ranks
        shifted by ``offsets[i]`` (non-overlapping blocks): a row's verdict
        is its member's own verdict plus the member's offset.
        """
        composed = cls.__new__(cls)
        parts: dict[tuple[str, ...], list[tuple[ExactGroup, int, int]]] = {}
        composed._fallback = {}
        for slot, (index, offset) in enumerate(zip(indexes, offsets)):
            for group in index._exact_groups:
                parts.setdefault(group.fields, []).append((group, offset, slot))
            for bins in index._fallback.values():
                composed._fallback[slot] = {
                    where: (ranks + offset, rules) for where, (ranks, rules) in bins.items()
                }
        composed._exact_groups = [
            ExactGroup(
                fields,
                np.concatenate([group.keys for group, _, _ in members]),
                np.concatenate([group.ranks + offset for group, offset, _ in members]),
                np.repeat([slot for _, _, slot in members], [len(g.keys) for g, _, _ in members]),
                len(indexes),
            )
            for fields, members in parts.items()
        ]
        return composed

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
                for bins in self._fallback.values()
                for ranks, rules in bins.values()
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
        return self.rule_count - self.fallback_rule_count

    @property
    def fallback_rule_count(self) -> int:
        return sum(
            len(rules) for bins in self._fallback.values() for _, rules in bins.values()
        )

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
            len(rules)
            for bins in self._fallback.values()
            for where, (_, rules) in bins.items()
            if where is not None
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
    def assign(
        self, table: FlowTable | TableRows, slots: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Rank of each row's claiming rule (``-1`` = no rule matches).

        ``slots`` holds each row's member slot, ascending (each member's
        rows are one contiguous run); ``None`` makes every row slot 0, the
        one-member case.  Equal to the sequential first-match loop over
        each member's sorted rules: the winner is the matching rule with
        the minimum rank, which the exact groups resolve via one key
        lookup each and the fallback rules via per-rule masked passes
        over their member's rows — radix-binned rules over their
        candidate bin's rows only — folded together with a running
        elementwise minimum.
        """
        best = np.full(len(table), _NO_RANK, dtype=np.int32)
        for group in self._exact_groups:
            group.claim(table, slots, best)
        for slot, bins in self._fallback.items():
            lo, hi = 0, len(table)
            if slots is not None:
                lo = int(np.searchsorted(slots, slot, side="left"))
                hi = int(np.searchsorted(slots, slot, side="right"))
            if lo < hi:
                _claim_fallback(bins, TableRows(table, slice(lo, hi)), best[lo:hi])
        best[best == _NO_RANK] = -1
        return best
