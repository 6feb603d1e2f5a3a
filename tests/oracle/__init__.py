"""The naive references every parity test checks against.

``records.py`` holds the per-flow form they reason in: ``FlowRecord``
(whose MAC is derived from its ingress member), ``to_records`` /
``from_records`` to and from a ``FlowTable``, and the scalar
``record_matches``.  Production keeps none of it.

``reference.py`` models one interval crossing the fabric the slow,
obvious way: row by row over ``to_records(table)``, first match in
most-specific-first order.  It shares no code with the rule index or the
delivery plan, so a bug there cannot hide in both sides at once.
``mitigation.py`` does the same for the five mitigation strategies: flow
by flow with the scalar matchers, none of the vectorized masks.
``trace.py`` answers the ``TrafficTrace`` queries, the port-share series
and IPFIX sampling flow by flow over a record list.

The control plane has references of its own: ``service.py`` (the
direct-call ``ScriptedPortal`` and the request-log replay), ``churn.py``
(the synchronous ``rule_churn`` driver and its log replay) and
``shard.py`` (the dict-by-dict shard-report merge).
"""
