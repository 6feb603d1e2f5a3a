"""repro — a reproduction of "Stellar: Network Attack Mitigation using
Advanced Blackholing" (Dietzel et al., CoNEXT 2018).

The package is organised bottom-up:

* :mod:`repro.sim` — deterministic RNG and time-span validation.
* :mod:`repro.bgp` — BGP substrate (prefixes, communities, RIBs, route
  server with IRR/RPKI/bogon policy, Flowspec).
* :mod:`repro.traffic` — flow records, amplification-attack catalogue,
  synthetic IXP trace generation, IPFIX collection.
* :mod:`repro.ixp` — IXP members, ports, TCAM, QoS data plane, edge
  routers, switching fabric, and the control-plane service every rule
  change goes through.
* :mod:`repro.mitigation` — baselines: RTBH, ACL filters, Flowspec,
  traffic scrubbing, and the qualitative comparison of Table 1.
* :mod:`repro.core` — the paper's contribution: Advanced Blackholing rules,
  extended-community signalling, the blackholing controller (which
  enqueues its rule changes on the control-plane service, paced by the
  paper's token bucket), telemetry and the
  :class:`~repro.core.stellar.Stellar` facade.
* :mod:`repro.analysis` — statistics used by the evaluation (Welch's t-test,
  CDFs, collateral-damage and compliance analyses).
* :mod:`repro.experiments` — one driver per table/figure of the paper.

Quick start::

    from repro.core import Stellar, BlackholingRule
    from repro.ixp import IxpMember, SwitchingFabric, EdgeRouter

    fabric = SwitchingFabric()
    fabric.add_edge_router(EdgeRouter("edge-1"))
    stellar = Stellar(ixp_asn=6695, fabric=fabric)
    stellar.add_member(IxpMember(asn=64500, prefixes=["100.10.10.0/24"]))
    rule = BlackholingRule.drop_udp_source_port(64500, "100.10.10.10/32", 123)
    stellar.request_mitigation(rule)
"""

from ._lazy import lazy_exports

__version__ = "1.1.0"

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "BlackholingRule": "core.rules",
    "Stellar": "core.stellar",
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
