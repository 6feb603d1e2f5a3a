"""RPL004 negative fixture: vectorized access, per-rule and per-column passes."""

import numpy as np


def fast_bits_total(table):
    return float(table.bits.sum())


def fast_port_mask(table, port):
    return np.flatnonzero(table.dst_port == port)


def per_rule_pass(rules, table):
    # Looping over *rules* is fine; only per-row iteration is banned.
    masks = []
    for rule in rules:
        masks.append(rule.match_mask(table))
    return masks


def per_column_pass(table, prefixes):
    # A literal tuple display iterates its fixed elements (two columns),
    # not the rows inside them.
    masks = []
    for prefix, column in ((prefixes[0], table.dst_ip), (prefixes[1], table.src_ip)):
        masks.append(column >= prefix)
    return masks
