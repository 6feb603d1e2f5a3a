"""BGP substrate: prefixes, communities, messages, RIBs, sessions and the
IXP route server with its import policy (IRR / RPKI / bogons)."""

from .._lazy import lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "Origin": "attributes",
    "PathAttributes": "attributes",
    "BogonFilter": "bogons",
    "ExtendedCommunity": "communities",
    "StandardCommunity": "communities",
    "rtbh_community": "communities",
    "FlowspecAction": "flowspec",
    "FlowspecActionType": "flowspec",
    "FlowspecRule": "flowspec",
    "drop_rule": "flowspec",
    "rate_limit_rule": "flowspec",
    "IrrDatabase": "irr",
    "OpenMessage": "messages",
    "RouteAnnouncement": "messages",
    "RouteWithdrawal": "messages",
    "UpdateMessage": "messages",
    "announcement": "messages",
    "ImportPolicy": "policy",
    "PolicyAction": "policy",
    "PolicyResult": "policy",
    "RejectReason": "policy",
    "permissive_policy": "policy",
    "Prefix": "prefix",
    "parse_prefix": "prefix",
    "RoutingInformationBase": "rib",
    "PolicyControl": "route_server",
    "RouteServer": "route_server",
    "Roa": "rpki",
    "RpkiValidator": "rpki",
    "RpkiValidity": "rpki",
    "BgpSession": "session",
    "SessionError": "session",
    "SessionState": "session",
    "SessionType": "session",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
