"""Traffic substrate: flow records, amplification attacks, synthetic traces."""

from .amplification import (
    AMPLIFICATION_PRONE_PORTS,
    VECTORS,
    AmplificationVector,
    get_vector,
    vector_for_port,
)
from .attack_variants import CarpetBombingAttack, MultiVectorAttack, PulseAttack
from .attacks import AmplificationAttack, BenignTrafficSource, BooterAttack
from .flow import (
    FiveTuple,
    FlowRecord,
    distinct_ingress_members,
    distinct_sources,
    total_bytes,
    total_rate_bps,
)
from .flowtable import FlowTable, derived_mac, ints_to_ips, ip_to_int
from .generator import IxpTraceGenerator, MemberAttackScenarioGenerator, RtbhEvent
from .ipfix import ExportedTable, IpfixCollector, IpfixExporter
from .packet import ETHERNET_MTU, IpProtocol, PacketTemplate, WellKnownPort
from .sharedtable import SharedFlowTable, SharedMemberTable
from .profiles import (
    TrafficProfile,
    attack_profile,
    benign_web_profile,
    blackholed_traffic_profile,
    other_traffic_profile,
)
from .trace import TrafficTrace

__all__ = [
    "AMPLIFICATION_PRONE_PORTS",
    "VECTORS",
    "AmplificationVector",
    "get_vector",
    "vector_for_port",
    "AmplificationAttack",
    "BenignTrafficSource",
    "BooterAttack",
    "CarpetBombingAttack",
    "MultiVectorAttack",
    "PulseAttack",
    "FiveTuple",
    "FlowRecord",
    "distinct_ingress_members",
    "distinct_sources",
    "total_bytes",
    "total_rate_bps",
    "FlowTable",
    "derived_mac",
    "ints_to_ips",
    "ip_to_int",
    "IxpTraceGenerator",
    "MemberAttackScenarioGenerator",
    "RtbhEvent",
    "SharedFlowTable",
    "SharedMemberTable",
    "ExportedTable",
    "IpfixCollector",
    "IpfixExporter",
    "ETHERNET_MTU",
    "IpProtocol",
    "PacketTemplate",
    "WellKnownPort",
    "TrafficProfile",
    "attack_profile",
    "benign_web_profile",
    "blackholed_traffic_profile",
    "other_traffic_profile",
    "TrafficTrace",
]
