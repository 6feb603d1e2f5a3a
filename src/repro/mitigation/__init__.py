"""Mitigation baselines: RTBH, ACL filters, Flowspec, scrubbing, comparison."""

from .._lazy import lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "CombinedMitigation": "combined",
    "CombinedOutcome": "combined",
    "scrubbing_cost_saving": "combined",
    "AccessControlList": "acl",
    "AclEntry": "acl",
    "AclMitigation": "acl",
    "Dimension": "base",
    "MitigationOutcome": "base",
    "MitigationTechnique": "base",
    "Rating": "base",
    "PAPER_TABLE_1": "comparison",
    "TECHNIQUE_ORDER": "comparison",
    "ComparisonTable": "comparison",
    "build_comparison_table": "comparison",
    "FlowspecMitigation": "flowspec",
    "FlowspecService": "flowspec",
    "InstalledFlowspecRule": "flowspec",
    "BlackholeEvent": "rtbh",
    "RtbhMitigation": "rtbh",
    "RtbhService": "rtbh",
    "ScrubbingCenter": "scrubbing",
    "ScrubbingMitigation": "scrubbing",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
