"""RPL004 positive fixture: per-row Python loops in data-plane code."""


def slow_bits_total(table):
    total = []
    for bits in table.bits:  # row-by-row walk of a column
        total.append(bits)
    return total


def slow_port_pairs(table):
    return [pair for pair in zip(table.src_port, table.dst_port)]


def slow_egress_set(table):
    seen = set()
    for asn in sorted(table.egress_asn):  # a call around a column still walks rows
        seen.add(asn)
    return seen


def apply_records(table):
    # A `record` name buys no exemption: reference loops live in tests/oracle.
    return [flow for flow in enumerate(table.bytes)]
