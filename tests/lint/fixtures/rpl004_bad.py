"""RPL004 positive fixture: per-row Python loops in data-plane code."""


def slow_bits_total(table):
    total = []
    for bits in table.bits:  # row-by-row walk of a column
        total.append(bits)
    return total


def slow_port_pairs(table):
    return [pair for pair in zip(table.src_port, table.dst_port)]


def slow_materialise(table):
    seen = []
    for flow in table.to_records():  # materialises every row
        seen.append(flow)
    return seen


def apply_records(table):
    # A `record` name buys no exemption: reference loops live in tests/oracle.
    return [flow for flow in table.to_records()]
