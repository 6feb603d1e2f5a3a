"""A batch install is the one-row installs of its rules.

``EdgeRouter.install_rules`` places a member's rules with one policy
version bump; ``install_rule`` is its one-row call.  The property below
checks that a batch leaves exactly the state its rules leave when they are
installed one row at a time, stopping at the first rule the TCAM refuses:
every port's rules in policy (and classification) order, every port's TCAM
usage, ``installed_rules()``, the configuration-operation count and the
number of rules placed before the refusal (``TcamExhaustedError.installed``).

The TCAM is tiny and the id pool small, so batches replace ids already on
the port and ids earlier in the same batch, run out of TCAM part-way, and
name ids the policy hands out to anonymous SHAPE rules (``anon-<n>``).
"""

from hypothesis import given
from hypothesis import strategies as st

from fuzz.strategies import flow_matches, router_fabric, shape_rate_pool
from repro.ixp import (
    EdgeRouter,
    FilterAction,
    FlowMatch,
    HardwareProfile,
    IxpMember,
    QosRule,
    TcamExhaustedError,
)

MEMBERS = (64500, 64501)

#: Named ids collide often; ``anon-1``/``anon-2`` are also the first ids
#: the policy gives anonymous SHAPE rules.
RULE_IDS = ("a", "b", "c", "anon-1", "anon-2")


@st.composite
def batch_rules(draw) -> QosRule:
    match = draw(flow_matches())
    action = draw(st.sampled_from(list(FilterAction)))
    rule_id = draw(st.sampled_from(RULE_IDS + ("",)))
    if action is FilterAction.SHAPE:
        return QosRule(match, action, shape_rate_bps=draw(shape_rate_pool), rule_id=rule_id)
    return QosRule(match, action, rule_id=rule_id)


def build_router(mac_capacity, l3l4_capacity):
    router = EdgeRouter("tiny", profile=HardwareProfile("tiny", 4, mac_capacity, l3l4_capacity))
    router_fabric(router, *(IxpMember(asn=asn) for asn in MEMBERS))
    return router


def install_one_row_at_a_time(router, asn, rules):
    """Rules placed before the first refusal, or None if all fit."""
    for placed, rule in enumerate(rules):
        try:
            router.install_rule(asn, rule)
        except TcamExhaustedError:
            return placed
    return None


def install_as_batch(router, asn, rules):
    try:
        router.install_rules(asn, rules)
    except TcamExhaustedError as exc:
        return exc.installed
    return None


def state(router):
    ports = router.ports()
    return (
        [port.qos.rules() for port in ports],
        [port.qos.sorted_rules() for port in ports],
        [router.tcam.usage_for_port(port.port_id) for port in ports],
        router.installed_rules(),
        router.config_operations,
    )


@given(
    mac_capacity=st.integers(1, 3),
    l3l4_capacity=st.integers(1, 16),
    staged=st.lists(st.tuples(st.sampled_from(MEMBERS), batch_rules()), max_size=6),
    member=st.sampled_from(MEMBERS),
    batch=st.lists(batch_rules(), max_size=12),
)
def test_a_batch_leaves_what_one_row_installs_leave(
    mac_capacity, l3l4_capacity, staged, member, batch
):
    batched = build_router(mac_capacity, l3l4_capacity)
    one_row = build_router(mac_capacity, l3l4_capacity)
    for router in (batched, one_row):
        for asn, rule in staged:
            install_one_row_at_a_time(router, asn, [rule])
    assert state(batched) == state(one_row)

    placed = install_as_batch(batched, member, batch)
    assert placed == install_one_row_at_a_time(one_row, member, batch)
    assert state(batched) == state(one_row)

    # Both policies hand the next anonymous SHAPE rule the same id (a
    # catch-all match needs no TCAM, so it always fits).
    anonymous = QosRule(FlowMatch(), FilterAction.SHAPE, shape_rate_bps=1e6)
    for router in (batched, one_row):
        router.install_rule(member, anonymous)
    assert state(batched) == state(one_row)
