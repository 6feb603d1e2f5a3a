"""RPL006 positive fixture: bare float bit accounting inside loops."""


def platform_totals(results):
    delivered_bits = 0.0
    for result in results:
        delivered_bits += result.delivered_bits  # running float error
    return delivered_bits


def offered(windows):
    total = 0.0
    for window in windows:
        total += window.offered_bits  # value mentions bits: still a counter
    return total


def _apply_records(flows):
    # A `record` name buys no exemption: reference loops live in tests/oracle.
    forwarded_bits = 0.0
    for flow in flows:
        forwarded_bits += flow.bits
    return forwarded_bits
