"""The naive reference every data-plane parity test checks against.

``reference.py`` models one interval crossing the fabric the slow,
obvious way: row by row over ``FlowTable.to_records()``, first match in
most-specific-first order.  It shares no code with the rule index or the
delivery plan, so a bug there cannot hide in both sides at once.
"""
