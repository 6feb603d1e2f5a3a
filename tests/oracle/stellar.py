"""Replay reference for Stellar's management layer.

Stellar's controller enqueues every rule change on a
``ControlPlaneService``.  :func:`record_stellar_services` patches the
service so a scenario run leaves behind each service together with a
copy of its fabric taken just before the first change was enqueued: all
members connected, no rule installed.  :func:`replay_onto_blank` applies
the service's request log to that copy one rule at a time, through
direct router calls; :func:`rule_state` is what both fabrics must then
agree on.
"""

import copy
from contextlib import contextmanager

from oracle.service import replay_request_log
from repro.ixp.service import ControlPlaneService


@contextmanager
def record_stellar_services(monkeypatch):
    """Yield a ``{service: blank fabric}`` dict the run fills in."""
    blanks = {}
    enqueue = ControlPlaneService.enqueue

    def recording_enqueue(service, request):
        if service not in blanks:
            blanks[service] = copy.deepcopy(service.fabric)
        return enqueue(service, request)

    with monkeypatch.context() as patch:
        patch.setattr(ControlPlaneService, "enqueue", recording_enqueue)
        yield blanks


def replay_onto_blank(service, blank):
    """Replay ``service``'s request log onto ``blank``; return entries applied."""
    return replay_request_log(blank, service.sorted_log(), sequential=True)


def rule_state(fabric):
    """Every port's rules (in policy order) and TCAM footprint, per router."""
    return {
        router.name: {
            port.asn: (
                [repr(rule) for rule in port.qos.rules()],
                router.tcam.usage_for_port(port.port_id),
            )
            for port in router.ports()
        }
        for router in fabric.edge_routers()
    }
