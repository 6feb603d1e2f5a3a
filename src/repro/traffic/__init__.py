"""Traffic substrate: flow tables, amplification attacks, synthetic traces."""

from .._lazy import lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "AMPLIFICATION_PRONE_PORTS": "amplification",
    "VECTORS": "amplification",
    "AmplificationVector": "amplification",
    "get_vector": "amplification",
    "AmplificationAttack": "attacks",
    "BenignTrafficSource": "attacks",
    "BooterAttack": "attacks",
    "CarpetBombingAttack": "attack_variants",
    "MultiVectorAttack": "attack_variants",
    "PulseAttack": "attack_variants",
    "FlowTable": "flowtable",
    "derived_mac": "flowtable",
    "ints_to_ips": "flowtable",
    "ip_to_int": "flowtable",
    "IxpTraceGenerator": "generator",
    "MemberAttackScenarioGenerator": "generator",
    "RtbhEvent": "generator",
    "SharedFlowTable": "sharedtable",
    "SharedMemberTable": "sharedtable",
    "ExportedTable": "ipfix",
    "IpfixCollector": "ipfix",
    "IpfixExporter": "ipfix",
    "IpProtocol": "packet",
    "WellKnownPort": "packet",
    "TrafficProfile": "profiles",
    "benign_web_profile": "profiles",
    "blackholed_traffic_profile": "profiles",
    "other_traffic_profile": "profiles",
    "TrafficTrace": "trace",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
