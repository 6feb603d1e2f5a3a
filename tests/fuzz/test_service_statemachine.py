"""Stateful lockstep fuzz of the control-plane service vs the portal.

One Hypothesis state machine drives :class:`ControlPlaneService` through
``enqueue`` + ``advance`` (coalescing on, tight queue depth, small
per-member budget) on fabric A while mirroring every change it actually
applied onto fabric B through the direct-call
:class:`oracle.service.ScriptedPortal`, one rule at a time.
After every burst the machine fully drains the service, replays the new
request-log entries on B in canonical order, and asserts:

* both fabrics hold **identical rule state** per member (same rules, same
  order, same ids) — batching is an amortization, never a semantic change;
* delivering a flow table through A yields **exactly the report** of the
  naive reference in ``tests/oracle`` reading A's rules;
* ``rules_version`` is **monotonic** on both sides;
* the per-member, per-window **budget is never exceeded** by accepted
  operations, and every rejection carries an actionable ``retry_after``.

The tight knobs (``max_queue_depth=16``, one op/second member budget) make
generated bursts actually hit the backpressure and budget paths instead of
only the happy path.
"""

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from oracle.reference import ReferenceFabric
from oracle.service import ScriptedPortal
from repro.ixp import ControlPlaneService, TcamExhaustedError

from .strategies import (
    UNKNOWN_EGRESS_ASN,
    build_fabric,
    build_flow_table,
    churn_request_streams,
    member_asns_of,
)

SPEC = {"pop_count": 2, "routers_per_pop": 1, "member_count": 3, "seed": 11}
MEMBERS = member_asns_of(SPEC)
INTERVAL = 10.0

#: Per-member budget: 1 op/s over a 10 s window = 10 ops per window.
MEMBER_RATE = 1.0
BUDGET_WINDOW = 10.0
MAX_QUEUE_DEPTH = 16
_EPS = 1e-9


class ServiceStateMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.fabric_a = build_fabric(SPEC)
        self.fabric_b = build_fabric(SPEC)
        self.oracle = ReferenceFabric(self.fabric_a)
        self.service = ControlPlaneService(
            self.fabric_a,
            max_queue_depth=MAX_QUEUE_DEPTH,
            budget_window=BUDGET_WINDOW,
            member_update_rate=MEMBER_RATE,
        )
        self.portal = ScriptedPortal(self.fabric_b)
        #: Absolute arrival clock (sum of generated gaps).
        self.clock = 0.0
        #: Request-log entries already mirrored onto B.
        self.replayed = 0
        #: Last observed rules_version per member and fabric.
        self.versions = {asn: [0, 0] for asn in MEMBERS}
        #: Accepted ops per ``(member, window)`` — rebuilt from responses.
        self.ledger = {}
        self.step = 0

    # ------------------------------------------------------------------
    # Driving the service
    # ------------------------------------------------------------------
    def _submit_burst(self, descriptors):
        """Enqueue a burst in stream order, drain fully, return responses."""
        requests, responses = [], {}
        for descriptor in descriptors:
            self.clock += descriptor["arrival_gap"]
            request = self.service.make_request(
                MEMBERS[descriptor["member_index"] % len(MEMBERS)],
                descriptor["op"],
                rules=descriptor.get("rules", ()),
                rule_id=descriptor.get("rule_id", ""),
                at=self.clock,
            )
            requests.append(request)
            immediate = self.service.enqueue(request)
            if immediate is not None:
                responses[request.request_id] = immediate
        for request, response in self.service.advance(None):
            responses[request.request_id] = response
        return [(request, responses[request.request_id]) for request in requests]

    def _check_responses(self, outcomes):
        for request, response in outcomes:
            assert response.request_id == request.request_id
            assert response.member_asn == request.member_asn
            if response.status == "telemetry":
                assert response.telemetry is not None
                assert response.telemetry["installed_rules"] >= 0
            elif response.status == "rejected":
                assert response.reason in ("budget", "backpressure")
                assert response.retry_after is not None
                assert response.retry_after > 0.0
            else:
                assert response.status in ("applied", "error")
                assert response.applied_at is not None
                assert response.applied_at >= request.arrival_time - _EPS
                window = int(request.arrival_time // BUDGET_WINDOW)
                key = (request.member_asn, window)
                self.ledger[key] = self.ledger.get(key, 0) + request.cost

    def _rule_ids(self):
        return {asn: set(self.fabric_a.port_for_member(asn).qos.rule_ids()) for asn in MEMBERS}

    def _mirror_new_log_entries(self, ids_before):
        """Replay everything the service newly applied through the portal.

        The reference's shapers are reset for every id an applied change
        named or created, as the live policies reset theirs.
        """
        new = self.service.request_log[self.replayed :]
        self.replayed = len(self.service.request_log)
        for asn, ids in self._rule_ids().items():
            self.oracle.forget(asn, ids - ids_before[asn])
        for entry in new:
            if entry.op == "clear":
                self.oracle.forget(entry.member_asn)
            else:
                named = {rule.rule_id for rule in entry.rules} | {entry.rule_id}
                self.oracle.forget(entry.member_asn, named)
        for entry in sorted(new, key=lambda e: (e.applied_at, e.member_asn)):
            if entry.op == "install_many":
                try:
                    self.portal.install_many(entry.member_asn, entry.rules)
                except TcamExhaustedError:
                    assert entry.tcam_exhausted, entry
            elif entry.op == "remove":
                self.portal.remove(entry.member_asn, entry.rule_id)
            elif entry.op == "clear":
                self.portal.clear(entry.member_asn)

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    @rule(stream=churn_request_streams(min_size=1, max_size=10))
    def burst(self, stream):
        ids_before = self._rule_ids()
        outcomes = self._submit_burst(stream)
        self._check_responses(outcomes)
        self._mirror_new_log_entries(ids_before)

    @rule(member=st.integers(0, len(MEMBERS) - 1), pick=st.integers(0, 63))
    def remove_installed(self, member, pick):
        """Remove a rule B actually holds — the meaningful removal path."""
        asn = MEMBERS[member]
        installed = self.fabric_b.port_for_member(asn).qos.rule_ids()
        installed = [rule_id for rule_id in installed if rule_id]
        if not installed:
            return
        descriptor = {
            "member_index": member,
            "op": "remove",
            "rule_id": installed[pick % len(installed)],
            "arrival_gap": 0.1,
        }
        ids_before = self._rule_ids()
        outcomes = self._submit_burst([descriptor])
        self._check_responses(outcomes)
        self._mirror_new_log_entries(ids_before)

    @rule(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 25))
    def deliver(self, seed, n):
        """One interval through A — the report must equal the reference's."""
        table = build_flow_table(
            seed, n, egress_pool=tuple(MEMBERS) + (UNKNOWN_EGRESS_ASN,)
        )
        start = self.step * INTERVAL
        self.step += 1
        report = self.fabric_a.deliver(table, INTERVAL, start)
        assert report.to_dict() == self.oracle.deliver(table, INTERVAL, start)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    @invariant()
    def rule_state_identical(self):
        for asn in MEMBERS:
            policy_a = self.fabric_a.port_for_member(asn).qos
            policy_b = self.fabric_b.port_for_member(asn).qos
            assert policy_a.rule_ids() == policy_b.rule_ids(), asn
            assert [repr(r) for r in policy_a.rules()] == [
                repr(r) for r in policy_b.rules()
            ], asn

    @invariant()
    def versions_monotonic(self):
        for asn in MEMBERS:
            policy_a = self.fabric_a.port_for_member(asn).qos
            policy_b = self.fabric_b.port_for_member(asn).qos
            last_a, last_b = self.versions[asn]
            assert policy_a.rules_version >= last_a, asn
            assert policy_b.rules_version >= last_b, asn
            # Coalescing can only *reduce* version churn, never add to it.
            assert policy_a.rules_version <= policy_b.rules_version, asn
            self.versions[asn] = [policy_a.rules_version, policy_b.rules_version]

    @invariant()
    def budget_never_exceeded(self):
        allowance = MEMBER_RATE * BUDGET_WINDOW
        for key, spent in self.ledger.items():
            assert spent <= allowance + _EPS, key

    @invariant()
    def queues_fully_drained(self):
        assert self.service.queue_depth() == 0


TestServiceStateMachine = ServiceStateMachine.TestCase
