"""IXP substrate: members, ports, TCAM, QoS data plane, edge routers, fabric."""

from .control_plane import (
    DEFAULT_CPU_LIMIT_PERCENT,
    PAPER_MEDIAN_UPDATE_RATE,
    ControlPlaneCpuModel,
)
from .delivery import CompiledRule, FabricDeliveryPlan
from .edge_router import EdgeRouter, PortNotFoundError, RuleInstallation
from .fabric import FabricIntervalReport, SwitchingFabric
from .hardware_profiles import (
    PARALLEL_RTBH_95TH_PERCENTILE,
    HardwareProfile,
    l_ixp_edge_router_profile,
    small_ixp_edge_router_profile,
)
from .member import IxpMember, MemberPopulation, default_mac
from .port import MemberPort, PortCounters
from .qos import FilterAction, FlowMatch, PortQosPolicy, PortQosResult, QosRule
from .queues import RateLimiter, TokenBucket
from .service import (
    CHANGE_OPS,
    SERVICE_OPS,
    AppliedChange,
    ChangeRequest,
    ControlPlaneService,
    ServiceResponse,
    ServiceStats,
)
from .ruleindex import MatchSignature, RuleMatchIndex
from .shard import (
    ShardLookup,
    ShardPlanner,
    ShardSpec,
    columns_to_report_dict,
    merge_interval_columns,
    shard_for_member,
)
from .tcam import TcamExhaustedError, TcamModel, TcamStatus
from .topology import (
    PortSpeedMix,
    build_multi_pop_fabric,
    de_cix_class_port_mix,
    make_member_population,
)

__all__ = [
    "DEFAULT_CPU_LIMIT_PERCENT",
    "PAPER_MEDIAN_UPDATE_RATE",
    "ControlPlaneCpuModel",
    "EdgeRouter",
    "PortNotFoundError",
    "RuleInstallation",
    "CompiledRule",
    "FabricDeliveryPlan",
    "FabricIntervalReport",
    "SwitchingFabric",
    "PARALLEL_RTBH_95TH_PERCENTILE",
    "HardwareProfile",
    "l_ixp_edge_router_profile",
    "small_ixp_edge_router_profile",
    "IxpMember",
    "MemberPopulation",
    "default_mac",
    "MemberPort",
    "PortCounters",
    "FilterAction",
    "FlowMatch",
    "PortQosPolicy",
    "PortQosResult",
    "QosRule",
    "RateLimiter",
    "TokenBucket",
    "CHANGE_OPS",
    "SERVICE_OPS",
    "AppliedChange",
    "ChangeRequest",
    "ControlPlaneService",
    "ServiceResponse",
    "ServiceStats",
    "MatchSignature",
    "RuleMatchIndex",
    "ShardPlanner",
    "ShardSpec",
    "ShardLookup",
    "columns_to_report_dict",
    "merge_interval_columns",
    "shard_for_member",
    "TcamExhaustedError",
    "TcamModel",
    "TcamStatus",
    "PortSpeedMix",
    "build_multi_pop_fabric",
    "de_cix_class_port_mix",
    "make_member_population",
]
