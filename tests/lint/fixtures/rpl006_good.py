"""RPL006 negative fixture: the sanctioned accumulation shapes."""

import math


def platform_totals(results):
    # Collect terms, reduce once: order explicit, no running error.
    return float(sum(result.delivered_bits for result in results))


def exact_totals(results):
    terms = [result.delivered_bits for result in results]
    return math.fsum(terms)


def integer_packets(results):
    total_bytes = 0
    for result in results:
        total_bytes += int(result.delivered_bytes)  # integer accumulation
    return total_bytes
