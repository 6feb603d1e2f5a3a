"""The headline stateful fuzz: rule churn interleaved with delivery.

``RuleStateMachine`` drives a fabric through arbitrary interleavings of
``install`` / ``install_many`` / ``remove`` / ``clear`` and interval
deliveries, beside the naive reference in ``tests/oracle`` (which reads
the fabric's installed rules and keeps its own shapers).  After every
step Hypothesis checks the machine's invariants:

* every interval report equals the reference's, bit for bit,
* ``rules_version`` increases monotonically, and *only* when a mutation
  actually changed a rule set (no-op removes/clears must leave the
  compiled index and the cached delivery plan warm),
* chassis TCAM usage equals the footprint of the rules actually
  installed (plus the tracked leak of anonymous rules removed per-rule,
  which only ``clear_rules`` can reclaim),
* every SHAPE rule — anonymous ones included — owns a distinct, live
  :class:`RateLimiter` at its configured rate.
"""

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from fuzz.strategies import (
    UNKNOWN_EGRESS_ASN,
    build_fabric,
    build_flow_table,
    member_asns_of,
    qos_rules,
    rule_sets,
)
from oracle.reference import ReferenceFabric
from repro.ixp import FilterAction, RuleMatchIndex, TcamExhaustedError

INTERVAL = 10.0

#: Fixed small multi-PoP topology: 2 PoPs x 1 router, 3 members — two
#: members share a router, so per-router TCAM pools see mixed ports.
SPEC = {"pop_count": 2, "routers_per_pop": 1, "member_count": 3, "seed": 7}

MEMBERS = member_asns_of(SPEC)

member_indices = st.integers(0, len(MEMBERS) - 1)


class RuleStateMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.fabric = build_fabric(SPEC)
        self.oracle = ReferenceFabric(self.fabric)
        #: Last observed rules_version per member (monotonicity check).
        self.versions = {asn: 0 for asn in MEMBERS}
        #: TCAM footprint of anonymous rules removed via remove_rule —
        #: per-rule removal cannot release it (no installation record),
        #: only clear_rules can.  Keyed (router_name, port_id).
        self.leaked = {}
        self.step = 0

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def policy(self, asn):
        return self.fabric.port_for_member(asn).qos

    def _snapshot(self, asn):
        """Pre-mutation snapshot: version, rule ids, index, cached plan."""
        policy = self.policy(asn)
        return {
            "version": policy.rules_version,
            "ids": set(policy.rule_ids()),
            "index": policy.compiled_index(),
            "plan": self.fabric.current_delivery_plan(),
        }

    def _check_mutation(self, asn, before, mutated):
        """Caches must invalidate exactly when a mutation took effect."""
        policy = self.policy(asn)
        if mutated:
            assert policy.rules_version > before["version"]
            assert not before["plan"].is_current(), (
                "cached delivery plan survived a real rule-set change"
            )
            assert policy.compiled_index() is not before["index"]
        else:
            assert policy.rules_version == before["version"]
            assert before["plan"].is_current(), (
                "no-op mutation spuriously invalidated the delivery plan"
            )
            assert policy.compiled_index() is before["index"]

    def _installed(self, asn, before, rules):
        """Installs reset the shapers of every id they name or create."""
        fresh = set(self.policy(asn).rule_ids()) - before["ids"]
        self.oracle.forget(asn, {rule.rule_id for rule in rules} | fresh)

    def _footprint_key(self, asn):
        router = self.fabric.router_for_member(asn)
        port = router.port_for(asn)
        return (router.name, port.port_id)

    # ------------------------------------------------------------------
    # Rules (operations)
    # ------------------------------------------------------------------
    @rule(member=member_indices, qos_rule=qos_rules())
    def install(self, member, qos_rule):
        asn = MEMBERS[member]
        before = self._snapshot(asn)
        try:
            self.fabric.router_for_member(asn).install_rule(asn, qos_rule)
            installed = True
        except TcamExhaustedError:
            installed = False
        self._installed(asn, before, [qos_rule])
        self._check_mutation(asn, before, mutated=installed)

    @rule(member=member_indices, batch=rule_sets(max_size=6))
    def install_many(self, member, batch):
        asn = MEMBERS[member]
        before = self._snapshot(asn)
        try:
            self.fabric.router_for_member(asn).install_rules(asn, batch)
            exhausted = False
        except TcamExhaustedError:
            exhausted = True
        self._installed(asn, before, batch)
        # An exhausted batch still installs its allocated prefix; whether
        # it mutated depends on how far allocation got, so skip the check.
        if not exhausted:
            self._check_mutation(asn, before, mutated=len(batch) > 0)

    @rule(member=member_indices, pick=st.integers(0, 63))
    def remove_installed(self, member, pick):
        """Remove an id that is really installed (anonymous ones too)."""
        asn = MEMBERS[member]
        policy = self.policy(asn)
        ids = sorted({r.rule_id for r in policy.rules() if r.rule_id})
        if not ids:
            return
        rule_id = ids[pick % len(ids)]
        victim = next(r for r in policy.rules() if r.rule_id == rule_id)
        before = self._snapshot(asn)
        if rule_id.startswith("anon-"):
            # No installation record: the router cannot release this
            # footprint on per-rule removal.  Track the leak.
            key = self._footprint_key(asn)
            mac, l3l4 = self.leaked.get(key, (0, 0))
            self.leaked[key] = (
                mac + victim.match.mac_filter_entries,
                l3l4 + victim.match.l3l4_criteria,
            )
        assert self.fabric.router_for_member(asn).remove_rule(asn, rule_id) is True
        self.oracle.forget(asn, {rule_id})
        assert policy.shaper_for(rule_id) is None
        self._check_mutation(asn, before, mutated=True)

    @rule(member=member_indices)
    def remove_missing(self, member):
        """Removing an unknown id must not invalidate anything."""
        asn = MEMBERS[member]
        before = self._snapshot(asn)
        assert self.fabric.router_for_member(asn).remove_rule(asn, "no-such-rule") is False
        self._check_mutation(asn, before, mutated=False)

    @rule(member=member_indices)
    def clear(self, member):
        """clear_rules drops the whole port, reclaiming leaked TCAM."""
        asn = MEMBERS[member]
        policy = self.policy(asn)
        count = len(policy)
        before = self._snapshot(asn)
        assert self.fabric.router_for_member(asn).clear_rules(asn) == count
        self.oracle.forget(asn)
        self.leaked[self._footprint_key(asn)] = (0, 0)
        self._check_mutation(asn, before, mutated=count > 0)
        assert len(policy) == 0

    @rule(seed=st.integers(0, 2**31 - 1), n=st.integers(0, 40))
    def deliver(self, seed, n):
        """One interval: the report must equal the reference's."""
        table = build_flow_table(
            seed=seed, n=n, egress_pool=tuple(MEMBERS) + (UNKNOWN_EGRESS_ASN,)
        )
        start = self.step * INTERVAL
        self.step += 1
        report = self.fabric.deliver(table, INTERVAL, start)
        assert report.to_dict() == self.oracle.deliver(table, INTERVAL, start)
        # Delivery compiles (or reuses) the plan; it must now be warm and
        # stay warm until the next real mutation.
        assert self.fabric.current_delivery_plan().is_current()

    # ------------------------------------------------------------------
    # Invariants (checked after every step)
    # ------------------------------------------------------------------
    @invariant()
    def versions_monotonic(self):
        for asn in MEMBERS:
            version = self.policy(asn).rules_version
            assert version >= self.versions[asn], asn
            self.versions[asn] = version

    @invariant()
    def tcam_matches_installed_rules(self):
        for router in self.fabric.edge_routers():
            for port in router.ports():
                mac = sum(r.match.mac_filter_entries for r in port.qos.rules())
                l3l4 = sum(r.match.l3l4_criteria for r in port.qos.rules())
                leak_mac, leak_l3l4 = self.leaked.get((router.name, port.port_id), (0, 0))
                assert router.tcam.usage_for_port(port.port_id) == (
                    mac + leak_mac,
                    l3l4 + leak_l3l4,
                ), (router.name, port.port_id)

    @invariant()
    def incremental_index_equals_scratch_compile(self):
        """The delta-patched index is *structurally* the scratch compile.

        Verdict parity alone would let a mis-spliced group hide behind
        rules that never claim rows; structural equality (same keys and
        ranks per signature group, same rule list) pins the incremental
        maintenance itself after every install / install_many / remove /
        clear interleaving.
        """
        for asn in MEMBERS:
            policy = self.policy(asn)
            incremental = policy.compiled_index()
            scratch = RuleMatchIndex(policy.sorted_rules())
            assert incremental.structure() == scratch.structure(), asn

    @invariant()
    def every_shape_rule_has_its_own_shaper(self):
        for asn in MEMBERS:
            policy = self.policy(asn)
            shape_rules = [r for r in policy.rules() if r.action is FilterAction.SHAPE]
            ids = [r.rule_id for r in shape_rules]
            assert all(ids), "SHAPE rule left without an id"
            assert len(set(ids)) == len(ids), "duplicate SHAPE rule ids"
            shapers = [policy.shaper_for(rule_id) for rule_id in ids]
            assert all(s is not None for s in shapers)
            assert len({id(s) for s in shapers}) == len(shapers), (
                "SHAPE rules sharing one RateLimiter"
            )
            for shape_rule, shaper in zip(shape_rules, shapers):
                assert shaper.rate_bps == shape_rule.shape_rate_bps


TestRuleStateMachine = RuleStateMachine.TestCase
