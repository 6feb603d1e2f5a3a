"""IXP substrate: members, ports, TCAM, QoS data plane, edge routers, fabric."""

from .._lazy import lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "DEFAULT_CPU_LIMIT_PERCENT": "control_plane",
    "PAPER_MEDIAN_UPDATE_RATE": "control_plane",
    "ControlPlaneCpuModel": "control_plane",
    "EdgeRouter": "edge_router",
    "PortNotFoundError": "edge_router",
    "FabricDeliveryPlan": "delivery",
    "FabricIntervalReport": "fabric",
    "SwitchingFabric": "fabric",
    "PARALLEL_RTBH_95TH_PERCENTILE": "hardware_profiles",
    "HardwareProfile": "hardware_profiles",
    "l_ixp_edge_router_profile": "hardware_profiles",
    "small_ixp_edge_router_profile": "hardware_profiles",
    "IxpMember": "member",
    "MemberPopulation": "member",
    "default_mac": "member",
    "MemberPort": "port",
    "PortCounters": "port",
    "FilterAction": "qos",
    "FlowMatch": "qos",
    "PortQosPolicy": "qos",
    "PortQosResult": "qos",
    "QosRule": "qos",
    "RateLimiter": "queues",
    "TokenBucket": "queues",
    "CHANGE_OPS": "service",
    "SERVICE_OPS": "service",
    "AppliedChange": "service",
    "ChangeRequest": "service",
    "ControlPlaneService": "service",
    "ServiceResponse": "service",
    "ServiceStats": "service",
    "TokenBucketPacing": "service",
    "MatchSignature": "ruleindex",
    "RuleMatchIndex": "ruleindex",
    "ShardPlanner": "shard",
    "ShardSpec": "shard",
    "merge_interval_columns": "shard",
    "TcamExhaustedError": "tcam",
    "TcamModel": "tcam",
    "TcamStatus": "tcam",
    "PortSpeedMix": "topology",
    "build_multi_pop_fabric": "topology",
    "de_cix_class_port_mix": "topology",
    "make_member_population": "topology",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
