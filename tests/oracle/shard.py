"""The dict-by-dict reference for the columnar shard-report merge.

:func:`merge_interval_reports` reduces per-shard
``FabricIntervalReport.to_dict()`` payloads member dict by member dict.
``columns_to_report_dict(merge_interval_columns(...))`` over the same
shards must equal it with ``==``.
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
