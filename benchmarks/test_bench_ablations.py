"""Ablation benches for the design choices called out in DESIGN.md.

* Egress vs. ingress filtering (paper §4.5): configuration-change count and
  platform load carried across the fabric.
* Signalling interface (paper §4.2.1): BGP extended communities vs. the
  customer API, measured as end-to-end signal-to-installed latency and
  message overhead.
* RTBH compliance sweep: residual attack traffic as a function of the
  fraction of peers honouring the blackhole — the reason RTBH alone is not
  sufficient (§2.4).
"""

from bench_utils import print_table

from repro.core import BlackholingRule, Stellar
from repro.experiments import RtbhAttackConfig, run_rtbh_attack_experiment
from repro.ixp import EdgeRouter, IxpMember, SwitchingFabric, small_ixp_edge_router_profile


def _egress_vs_ingress(peer_count: int = 40, attack_rate_bps: float = 1e9):
    """Compare the two filter placements for one blackholing rule."""
    # Egress filtering (Stellar's choice): one rule on the victim's port; the
    # attack still crosses the switching platform before being dropped.
    egress_config_changes = 1
    egress_platform_load = attack_rate_bps
    # Ingress filtering: one rule on every other member port; the attack is
    # dropped before crossing the platform.
    ingress_config_changes = peer_count
    ingress_platform_load = 0.0
    return {
        "egress": {
            "config_changes": egress_config_changes,
            "platform_load_bps": egress_platform_load,
        },
        "ingress": {
            "config_changes": ingress_config_changes,
            "platform_load_bps": ingress_platform_load,
        },
    }


def test_bench_ablation_egress_vs_ingress(benchmark):
    result = benchmark(_egress_vs_ingress)
    rows = [
        ("placement", "config changes per rule", "attack load carried across fabric"),
        (
            "egress (Stellar)",
            result["egress"]["config_changes"],
            f"{result['egress']['platform_load_bps'] / 1e9:.1f} Gbps",
        ),
        (
            "ingress",
            result["ingress"]["config_changes"],
            f"{result['ingress']['platform_load_bps'] / 1e9:.1f} Gbps",
        ),
    ]
    print_table("Ablation: egress vs. ingress filtering", rows)
    assert result["egress"]["config_changes"] < result["ingress"]["config_changes"]
    assert result["egress"]["platform_load_bps"] > result["ingress"]["platform_load_bps"]


def _signalling_latency(via: str) -> float:
    """Seconds from signal to installed rule for one mitigation request."""
    fabric = SwitchingFabric()
    fabric.add_edge_router(EdgeRouter("er-1", profile=small_ixp_edge_router_profile()))
    stellar = Stellar(ixp_asn=64700, fabric=fabric)
    stellar.add_member(IxpMember(asn=64500, prefixes=["100.10.10.0/24"]))
    rule = BlackholingRule.drop_udp_source_port(64500, "100.10.10.10/32", 123)
    stellar.request_mitigation(rule, via=via)
    # Walk the control plane forward in 0.1 s steps until the rule is live.
    t = 0.0
    while stellar.installed_rule_count() == 0 and t < 60.0:
        stellar.advance(now=t)
        t += 0.1
    return t


def test_bench_ablation_signalling_interface(benchmark):
    def run():
        return {"bgp": _signalling_latency("bgp"), "api": _signalling_latency("api")}

    result = benchmark(run)
    rows = [
        ("interface", "signal → installed latency", "cooperation needed", "tooling"),
        (
            "BGP extended communities",
            f"{result['bgp']:.1f} s",
            "none (victim + IXP only)",
            "existing BGP toolchain",
        ),
        ("customer API", f"{result['api']:.1f} s", "none (victim + IXP only)", "new API client"),
    ]
    print_table("Ablation: signalling interface", rows)
    # Both paths deploy within the first token-bucket window.
    assert result["bgp"] < 5.0
    assert result["api"] < 5.0


def test_bench_ablation_rtbh_compliance_sweep(benchmark):
    rates = (0.1, 0.3, 0.7, 1.0)

    def run():
        residuals = {}
        for rate in rates:
            config = RtbhAttackConfig(
                duration=600.0, interval=20.0, compliance_rate=rate, peer_count=30, seed=7
            )
            result = run_rtbh_attack_experiment(config)
            residuals[rate] = result.residual_mbps / max(result.peak_attack_mbps, 1e-9)
        return residuals

    residuals = benchmark(run)
    rows = [("compliance rate", "residual attack fraction")]
    for rate in rates:
        rows.append((f"{rate:.0%}", f"{residuals[rate]:.0%}"))
    print_table("Ablation: RTBH effectiveness vs. peer compliance", rows)
    # Residual attack traffic decreases monotonically with compliance and
    # only full compliance approaches full mitigation.
    assert residuals[0.1] > residuals[0.3] > residuals[0.7] > residuals[1.0]
    assert residuals[1.0] < 0.2
    assert residuals[0.3] > 0.5
