"""The dict-by-dict references for the columnar report payloads.

:func:`merge_interval_reports` reduces per-shard
``FabricIntervalReport.to_dict()`` payloads member dict by member dict.
``columns_to_report_dict(merge_interval_columns(...))`` over the same
shards must equal it with ``==``.

:func:`columns_to_report_dict` builds the ``to_dict()`` layout from a
columnar payload as Python objects, one dict per member.  Its canonical
``json.dumps`` is the oracle for ``repro.ixp.report_encoding.report_json``,
which writes the same bytes straight from the columns.
"""

#: Platform totals, summed in ascending shard order like the production merge.
TOTAL_KEYS = ("offered_bits", "delivered_bits", "filtered_bits", "congestion_dropped_bits")


def merge_interval_reports(reports):
    """Union the disjoint per-member sections and sum the platform totals.

    Raises ``ValueError`` for no reports, reports of different intervals
    and a member reported by two shards.
    """
    if not reports:
        raise ValueError("need at least one shard report to merge")
    first = reports[0]
    merged = {
        "interval_start": first["interval_start"],
        "interval": first["interval"],
        **{key: 0.0 for key in TOTAL_KEYS},
    }
    members = {}
    for report in reports:
        if (
            report["interval_start"] != merged["interval_start"]
            or report["interval"] != merged["interval"]
        ):
            raise ValueError("shard reports describe different intervals")
        for key in TOTAL_KEYS:
            merged[key] += report[key]
        overlap = members.keys() & report["members"].keys()
        if overlap:
            raise ValueError(f"member(s) {sorted(overlap)} appear in multiple shards")
        members.update(report["members"])
    merged["members"] = {asn: members[asn] for asn in sorted(members, key=int)}
    return merged


def columns_to_report_dict(columns):
    """Convert a columnar (merged) payload to the ``to_dict()`` shape.

    Bit-for-bit: float64 array values round-trip exactly through
    ``tolist``, so converting the columnar merge of shard payloads equals
    the dict-by-dict merge of the same shards' ``to_dict()`` payloads.
    """
    asns = columns["member_asns"].tolist()
    fields = {name: array.tolist() for name, array in columns["member_fields"].items()}
    rule_stats = columns["rule_stats"]
    members = {}
    for row, asn in enumerate(asns):
        key = str(asn)
        member = {name: values[row] for name, values in fields.items()}
        member["rule_stats"] = rule_stats.get(key, {})
        members[key] = member
    return {
        "interval_start": columns["interval_start"],
        "interval": columns["interval"],
        **{key: columns["totals"][key] for key in TOTAL_KEYS},
        "members": members,
    }
