"""The per-member population builder and the one-at-a-time placement.

``make_member_objects`` draws a population the way ``make_member_population``
did before it returned columns: the same RNG calls, one ``IxpMember`` per
row.  ``expected_placement`` works out, as plain data, where connecting
members one at a time puts each: the least-loaded router of the member's
PoP, or of the whole fabric when the PoP has none, ties to the router added
first; port ids numbered from 1 in attach order per router; the connect
index as the counter slot.  It uses no fabric or router code.
``placement`` reads back where a fabric put each member, in the same shape.
"""

from repro.ixp.member import IxpMember
from repro.ixp.topology import de_cix_class_port_mix
from repro.sim.rng import make_rng


def make_member_objects(
    member_count,
    pop_count=4,
    base_asn=65000,
    port_mix=None,
    honors_rtbh_fraction=0.30,
    seed=None,
):
    """The population of ``make_member_population``, as a list of objects."""
    rng = make_rng(seed)
    mix = port_mix if port_mix is not None else de_cix_class_port_mix()
    capacities = mix.sample(rng, member_count)
    pops = rng.integers(1, pop_count + 1, size=member_count)
    honors = rng.random(member_count) < honors_rtbh_fraction
    return [
        IxpMember(
            asn=base_asn + index,
            name=f"member-{index}",
            port_capacity_bps=float(capacities[index]),
            pop=f"pop-{int(pops[index])}",
            honors_rtbh=bool(honors[index]),
        )
        for index in range(member_count)
    ]


def expected_placement(routers, members):
    """``{asn: (router name, port id, counter slot)}`` of ``members``
    connected one at a time, in order, to an empty fabric whose routers are
    ``routers``: ``(name, pop)`` pairs in the order they were added."""
    loads = {name: 0 for name, _ in routers}
    placed = {}
    for slot, member in enumerate(members):
        candidates = [name for name, pop in routers if pop == member.pop]
        if not candidates:
            candidates = [name for name, _ in routers]
        chosen = candidates[0]
        for name in candidates[1:]:
            if loads[name] < loads[chosen]:
                chosen = name
        loads[chosen] += 1
        placed[member.asn] = (chosen, loads[chosen], slot)
    return placed


def placement(fabric):
    """``{asn: (router name, port id, counter slot)}`` of every member."""
    placed = {}
    for asn in sorted(fabric.member_asns):
        port = fabric.port_for_member(asn)
        placed[asn] = (fabric.router_for_member(asn).name, port.port_id, port.counter_slot)
    return placed
