"""Naive per-record models of the five mitigation strategies.

Each reference reads a production strategy's configuration (blackhole
events, ACL entries, installed Flowspec rules, pre-filter rules, the
scrubbing centre) and partitions one interval the slow, obvious way:
flow by flow over a list of :class:`~oracle.records.FlowRecord`, with
the scalar matchers (``RtbhService.event_for``, :func:`flowspec_matches`,
``record_matches`` over an ACL entry's or a rule's ``FlowMatch``) and
none of the vectorized masks of :mod:`repro.mitigation`.  A :class:`ReferenceOutcome` carries the same
accounting properties as ``MitigationOutcome``, summed over records, so
parity tests compare them with ``==``.

The scrubber is stateful like the production one: it rebuilds its RNG
from the same seed and draws once per flow, in row order.
"""

from dataclasses import dataclass, field

from oracle.records import record_matches, to_records
from repro.bgp.flowspec import FlowspecActionType
from repro.ixp.qos import FilterAction
from repro.sim.rng import make_rng

BUCKETS = ("delivered", "discarded", "shaped")

#: The ``MitigationOutcome`` accounting properties parity tests compare.
ACCOUNTING = (
    "delivered_bits",
    "discarded_bits",
    "delivered_attack_bits",
    "collateral_damage_bits",
    "discarded_attack_bits",
    "delivered_legitimate_bits",
    "delivered_peers",
)


def bits_of(flows, attack=None):
    return float(sum(flow.bits for flow in flows if attack is None or flow.is_attack == attack))


@dataclass
class ReferenceOutcome:
    delivered: list = field(default_factory=list)
    discarded: list = field(default_factory=list)
    shaped: list = field(default_factory=list)

    @property
    def delivered_bits(self):
        return bits_of(self.delivered) + bits_of(self.shaped)

    @property
    def discarded_bits(self):
        return bits_of(self.discarded)

    @property
    def delivered_attack_bits(self):
        return bits_of(self.delivered, True) + bits_of(self.shaped, True)

    @property
    def collateral_damage_bits(self):
        return bits_of(self.discarded, False)

    @property
    def discarded_attack_bits(self):
        return bits_of(self.discarded, True)

    @property
    def delivered_legitimate_bits(self):
        return bits_of(self.delivered, False) + bits_of(self.shaped, False)

    @property
    def delivered_peers(self):
        peers = {flow.ingress_member_asn for flow in self.delivered}
        peers |= {flow.ingress_member_asn for flow in self.shaped if flow.bytes > 0}
        return peers - {0}


def record_key(flow):
    key = flow.key
    return (
        key.src_ip, key.dst_ip, int(key.protocol), key.src_port, key.dst_port,
        flow.start, flow.duration, flow.bytes, flow.packets,
        flow.ingress_member_asn, flow.egress_member_asn, flow.is_attack,
    )


def assert_matches_reference(outcome, reference):
    """Same flows in every bucket (as multisets) and ``==`` accounting."""
    for bucket in BUCKETS:
        produced = sorted(map(record_key, to_records(getattr(outcome, f"{bucket}_table"))))
        expected = sorted(map(record_key, getattr(reference, bucket)))
        assert produced == expected, f"{bucket} populations differ"
    for name in ACCOUNTING:
        assert getattr(outcome, name) == getattr(reference, name), name


def rtbh(service, flows):
    """Drop a flow when the most specific covering blackhole's honouring
    members include its ingress peer."""
    outcome = ReferenceOutcome()
    for flow in flows:
        event = service.event_for(flow.dst_ip)
        if event is not None and event.drops_traffic_from(flow.ingress_member_asn):
            outcome.discarded.append(flow)
        else:
            outcome.delivered.append(flow)
    return outcome


def flowspec_matches(rule, flow, packet_length=None):
    """Whether ``flow`` meets every component of a ``FlowspecRule``.

    Flows carry no packet length; a rule with a length bound matches only
    when a ``packet_length`` within it is given.
    """
    return (
        (rule.dest_prefix is None or rule.dest_prefix.contains_address(flow.dst_ip))
        and (rule.source_prefix is None or rule.source_prefix.contains_address(flow.src_ip))
        and (rule.ip_protocol is None or int(flow.protocol) == rule.ip_protocol)
        and (rule.source_port is None or flow.src_port == rule.source_port)
        and (rule.dest_port is None or flow.dst_port == rule.dest_port)
        and (
            rule.packet_length_max is None
            or (packet_length is not None and packet_length <= rule.packet_length_max)
        )
    )


def acl(access_list, flows):
    """First matching entry decides; no match means permit."""
    outcome = ReferenceOutcome()
    for flow in flows:
        action = next(
            (e.action for e in access_list.entries() if record_matches(e.match, flow)), "permit"
        )
        (outcome.discarded if action == "deny" else outcome.delivered).append(flow)
    return outcome


def traffic_rates(rule):
    """The byte rates of a Flowspec rule's traffic-rate actions."""
    return [
        action.rate_bytes_per_second
        for action in rule.actions
        if action.action_type is FlowspecActionType.TRAFFIC_RATE
        and action.rate_bytes_per_second >= 0
    ]


def flowspec(service, flows, interval):
    """First installed rule (announcement order) whose installing peers
    include the flow's ingress decides; rate limits scale each rule's
    matched flows to its byte budget, and a rule without a traffic-rate
    action delivers its flows unchanged."""
    rules = service.installed_rules()
    outcome = ReferenceOutcome()
    rate_limited = {}
    for flow in flows:
        for index, installed in enumerate(rules):
            if flow.ingress_member_asn in installed.installing_peers and flowspec_matches(
                installed.rule, flow
            ):
                if installed.rule.is_discard:
                    outcome.discarded.append(flow)
                elif traffic_rates(installed.rule):
                    rate_limited.setdefault(index, []).append(flow)
                else:
                    outcome.delivered.append(flow)
                break
        else:
            outcome.delivered.append(flow)
    for index, matched in rate_limited.items():
        rate = max(traffic_rates(rules[index].rule))
        offered = sum(flow.bytes for flow in matched)
        scale = min(1.0, rate * interval / offered) if offered > 0 else 0.0
        outcome.shaped.extend(flow.scaled(scale) for flow in matched)
    return outcome


class ReferenceScrubber:
    """A scrubbing centre with its own RNG, seeded like the production one."""

    def __init__(self, center, active_since, seed):
        self.center = center
        self.active_since = active_since
        self._rng = make_rng(seed)
        self.scrubbed_bits_total = 0.0

    def cost_of(self, bits):
        return bits / 8 / 1e9 * self.center.cost_per_scrubbed_gbyte

    def apply(self, flows, interval):
        outcome = ReferenceOutcome()
        start = min((flow.start for flow in flows), default=0.0)
        if start < self.active_since + self.center.activation_delay_seconds:
            outcome.delivered.extend(flows)
            return outcome
        offered = bits_of(flows)
        capacity = self.center.capacity_bps * interval
        scale = min(1.0, capacity / offered) if offered > 0 else 1.0
        admitted_bits = []
        for flow in flows:
            admitted = flow if scale >= 1.0 else flow.scaled(scale)
            admitted_bits.append(admitted.bits)
            rate = (
                self.center.true_positive_rate
                if flow.is_attack
                else self.center.false_positive_rate
            )
            if self._rng.random() < rate:
                outcome.discarded.append(flow)
            elif scale >= 1.0:
                outcome.delivered.append(flow)
            else:
                outcome.shaped.append(admitted)
                if admitted.bits < flow.bits:
                    outcome.discarded.append(flow.scaled(1 - scale))
        self.scrubbed_bits_total += float(sum(admitted_bits))
        return outcome


@dataclass
class ReferenceCombined:
    outcome: ReferenceOutcome
    prefiltered_bits: float
    scrubbed_bits: float
    scrubbing_cost: float


def combined(rules, scrubber, flows, interval):
    """The most specific matching pre-filter drops a flow, or shapes it
    to a sample the scrubber sees; unmatched flows go to the scrubber."""
    prefiltered, shaped, remaining = [], [], []
    for flow in flows:
        matching = [rule.qos for rule in rules if record_matches(rule.qos.match, flow)]
        if not matching:
            remaining.append(flow)
            continue
        rule = max(matching, key=lambda rule: rule.match.specificity)
        if rule.action is FilterAction.DROP:
            prefiltered.append(flow)
            continue
        scale = min(1.0, rule.shape_rate_bps * interval / flow.bits) if flow.bits else 0.0
        shaped.append(flow.scaled(scale))
        if scale < 1.0:
            prefiltered.append(flow.scaled(1.0 - scale))
    scrub_input = remaining + shaped
    scrubbed = scrubber.apply(scrub_input, interval)
    scrubbed.discarded = prefiltered + scrubbed.discarded
    scrubbed_bits = bits_of(scrub_input)
    return ReferenceCombined(
        outcome=scrubbed,
        prefiltered_bits=bits_of(prefiltered),
        scrubbed_bits=scrubbed_bits,
        scrubbing_cost=scrubber.cost_of(scrubbed_bits),
    )
