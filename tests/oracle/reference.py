"""A deliberately naive first-match model of ``SwitchingFabric.deliver``.

:class:`ReferenceFabric` reads a live fabric's members, port capacities
and installed rules (``qos.rules()``, in install order) and computes the
interval report the production data path must produce, bit for bit:

* precedence is its own stable sort by ``match.specificity`` (ties keep
  install order), so a splice bug in the policy's sorted view shows up;
* every row is classified with the scalar ``record_matches``;
* shaping runs through its own ``RateLimiter`` per (member, rule id); the
  caller calls :meth:`ReferenceFabric.forget` whenever it (re)installs,
  removes or clears rules, as the policy resets its shapers then;
* the float reductions are the production ones — ``np.bincount`` for
  per-rule drop bits, ``ndarray.sum()`` over ascending rows for member and
  shape-rule bits, builtin ``sum()`` over ascending-ASN terms for the
  platform totals — so reports compare with ``==``, never a tolerance.

Beside the expected report, :meth:`ReferenceFabric.deliver` keeps the
interval's per-port rule stats as the naive dict-building scatter builds
them (``rule_stats``, rows in claim order) and each shaper's discarded
bits (``discarded``): the ``==`` reference of the report's rule columns.

:func:`column_rule_stats` reads a report's rule columns in the
``rule_stats`` layout, so the two compare with ``==``.

:func:`utilisation` is the scalar twin of
``FabricIntervalReport.port_utilisation()``: one port's demand over its
capacity, from one result.
"""

import numpy as np

from oracle.records import record_matches, to_records
from repro.ixp.qos import FilterAction
from repro.ixp.queues import RateLimiter

COUNTER_FIELDS = (
    "offered_bits",
    "delivered_bits",
    "dropped_bits",
    "shaped_passed_bits",
    "shaped_dropped_bits",
    "congestion_dropped_bits",
)


def precedence(qos):
    """The port's rules, most specific first; ties keep install order."""
    return sorted(qos.rules(), key=lambda rule: -rule.match.specificity)


def first_match(rules, record):
    """Rank of the first rule matching ``record``, or -1 (forward)."""
    for rank, rule in enumerate(rules):
        if record_matches(rule.match, record):
            return rank
    return -1


def assign(qos, table):
    """Per-row claiming rank in :func:`precedence` order."""
    rules = precedence(qos)
    return np.array([first_match(rules, record) for record in to_records(table)], dtype=np.int64)


def utilisation(port, result, interval):
    """One port's egress demand over its capacity (can exceed 1).

    The demand is what the QoS policy tried to deliver — the bits that
    made it plus the bits congestion-dropped at the egress queue — so an
    oversubscribed port reports its true ratio.  The scalar twin of
    ``FabricIntervalReport.port_utilisation()``.
    """
    if interval <= 0:
        raise ValueError("interval must be positive")
    demand_bits = result.delivered_bits + result.congestion_dropped_bits
    return demand_bits / (port.capacity_bps * interval)


def column_rule_stats(columns):
    """A report's :class:`~repro.ixp.delivery.RuleColumns` in the layout of
    :attr:`ReferenceFabric.rule_stats`: ``member -> rule id ->
    {"matched", "dropped", "shaped"}``, members and ids in row order.

    Raises ``AssertionError`` if a (member, rule id) has two rows.
    """
    stats = {}
    for asn, rule_id, matched, dropped, shaped in zip(
        columns.member_asns.tolist(),
        columns.rule_ids.tolist(),
        columns.matched.tolist(),
        columns.dropped.tolist(),
        columns.shaped.tolist(),
    ):
        member = stats.setdefault(asn, {})
        assert rule_id not in member, (asn, rule_id)
        member[rule_id] = {"matched": matched, "dropped": dropped, "shaped": shaped}
    return stats


def display_utilisation(port, result, interval):
    """:func:`utilisation` clamped to [0, 1] for bounded gauges."""
    return min(1.0, utilisation(port, result, interval))


class ReferenceFabric:
    def __init__(self, fabric):
        self.fabric = fabric
        self._limiters = {}
        #: Cumulative per-member counters, shaped like ``vars(PortCounters)``.
        self.counters = {}
        #: Last interval's ``(forwarded, dropped, shaped)`` records per member.
        self.verdicts = {}
        #: Last interval's rule stats per member with a claimed DROP or
        #: SHAPE rule, in the order the delivery pass lists its rule rows:
        #: DROP ids by first claimed rank, then SHAPE ids by rank.
        self.rule_stats = {}
        #: Last interval's bits each claimed SHAPE rule's shaper discarded,
        #: per member (``member -> rule id -> bits``).
        self.discarded = {}

    def forget(self, member_asn, rule_ids=None):
        """Reset the shapers of ``rule_ids`` (all of the member's if None)."""
        for key in list(self._limiters):
            if key[0] == member_asn and (rule_ids is None or key[1] in rule_ids):
                del self._limiters[key]

    def deliver(self, table, interval, interval_start=0.0):
        """The expected ``FabricIntervalReport.to_dict()`` of one interval."""
        records = to_records(table)
        bits = np.array([record.bits for record in records], dtype=np.int64)
        self.rule_stats, self.discarded = {}, {}
        connected = self.fabric.member_asns
        rows_by_member = {}
        for row, record in enumerate(records):
            if record.egress_member_asn in connected:
                rows_by_member.setdefault(record.egress_member_asn, []).append(row)
        members = {}
        offered = []
        for asn in sorted(rows_by_member):
            rows = np.array(rows_by_member[asn], dtype=np.int64)
            offered.append(float(bits[rows].sum()))
            members[asn] = self._port(asn, records, bits, rows, interval)
            counters = self.counters.setdefault(asn, dict.fromkeys(COUNTER_FIELDS, 0.0))
            result = members[asn]
            for name, value in zip(COUNTER_FIELDS, (
                offered[-1],
                result["forwarded_bits"] + result["shaped_passed_bits"],
                result["dropped_bits"],
                result["shaped_passed_bits"],
                result["shaped_dropped_bits"],
                result["congestion_dropped_bits"],
            )):
                counters[name] += value
        ordered = [members[asn] for asn in sorted(members)]
        return {
            "interval_start": interval_start,
            "interval": interval,
            "offered_bits": float(sum(offered)),
            "delivered_bits": float(
                sum(m["forwarded_bits"] + m["shaped_passed_bits"] for m in ordered)
            ),
            "filtered_bits": float(
                sum(m["dropped_bits"] + m["shaped_dropped_bits"] for m in ordered)
            ),
            "congestion_dropped_bits": float(sum(m["congestion_dropped_bits"] for m in ordered)),
            "members": {str(asn): members[asn] for asn in sorted(members)},
        }

    def _port(self, asn, records, bits, rows, interval):
        qos = self.fabric.port_for_member(asn).qos
        rules = precedence(qos)
        ranks = np.array([first_match(rules, records[row]) for row in rows], dtype=np.int64)
        actions = [rules[rank].action if rank >= 0 else FilterAction.FORWARD for rank in ranks]
        forward = rows[[action is FilterAction.FORWARD for action in actions]]
        drop = rows[[action is FilterAction.DROP for action in actions]]
        matched = ranks >= 0
        drop_bits = np.bincount(ranks[matched], weights=bits[rows][matched], minlength=len(rules))
        claimed = sorted(set(ranks[matched].tolist()))
        stats = {}

        def stats_for(rule):
            return stats.setdefault(rule.rule_id, {"matched": 0.0, "dropped": 0.0, "shaped": 0.0})

        for rank in claimed:
            if rules[rank].action is FilterAction.DROP:
                entry = stats_for(rules[rank])
                entry["matched"] += float(drop_bits[rank])
                entry["dropped"] += float(drop_bits[rank])
        passed, shaped_away, shaped = [], [], []
        discarded = {}
        for rank in claimed:
            rule = rules[rank]
            if rule.action is not FilterAction.SHAPE:
                continue
            group = rows[ranks == rank]
            offered_bits = float(bits[group].sum())
            limiter = self._limiters.setdefault(
                (asn, rule.rule_id), RateLimiter(rate_bps=rule.shape_rate_bps)
            )
            passed_bits, dropped_bits = limiter.shape(offered_bits, interval)
            scale = passed_bits / offered_bits if offered_bits > 0 else 0.0
            scaled = [records[row].scaled(scale) for row in group]
            scaled_bits = float(np.array([record.bits for record in scaled], dtype=np.int64).sum())
            entry = stats_for(rule)
            entry["matched"] += scaled_bits
            entry["shaped"] += scaled_bits
            passed.append(passed_bits)
            shaped_away.append(dropped_bits)
            discarded[rule.rule_id] = dropped_bits
            shaped.extend(scaled)
        if stats:
            self.rule_stats[asn] = stats
        if discarded:
            self.discarded[asn] = discarded
        self.verdicts[asn] = (
            [records[row] for row in forward],
            [records[row] for row in drop],
            shaped,
        )
        forwarded_bits = float(bits[forward].sum())
        shaped_passed = float(sum(passed))
        capacity_bits = qos.port_capacity_bps * interval
        delivered = forwarded_bits + shaped_passed
        congestion = 0.0
        if delivered > capacity_bits:
            congestion = delivered - capacity_bits
            overload = capacity_bits / delivered
            forwarded_bits *= overload
            shaped_passed *= overload
        return {
            "forwarded_bits": forwarded_bits,
            "dropped_bits": float(bits[drop].sum()),
            "shaped_passed_bits": shaped_passed,
            "shaped_dropped_bits": float(sum(shaped_away)),
            "congestion_dropped_bits": congestion,
            "rule_stats": {rule_id: stats[rule_id] for rule_id in sorted(stats)},
        }
