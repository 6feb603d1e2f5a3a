"""Ablation (paper §6) — combining Advanced Blackholing with traffic scrubbing.

Quantifies the discussion-section claim that Stellar pre-filters drastically
reduce the cost of a scrubbing service: known attack signatures are dropped
at the IXP for free, so only the unclassified residue is diverted to the
scrubbing centre.
"""

from bench_utils import print_table

from repro.core import BlackholingRule
from repro.experiments import build_attack_scenario
from repro.mitigation import ScrubbingCenter, ScrubbingMitigation, scrubbing_cost_saving
from repro.traffic import FlowTable


def _scrubber():
    return ScrubbingMitigation(
        ScrubbingCenter(activation_delay_seconds=0.0), active_since=0.0, seed=19
    )


def _run():
    scenario = build_attack_scenario(peer_count=30, attack_peak_bps=1e9, seed=19)
    interval = 10.0
    flows = FlowTable.concat(
        [scenario.attack.flow_table(300.0, interval), scenario.benign.flow_table(300.0, interval)]
    )
    rules = [
        BlackholingRule.drop_udp_source_port(scenario.victim.asn, f"{scenario.victim_ip}/32", 123)
    ]
    return scrubbing_cost_saving(
        flows,
        interval=interval,
        prefilter_rules=rules,
        scrubbing=_scrubber(),
        scrubbing_alone=_scrubber(),
    )


def test_bench_ablation_stellar_plus_scrubbing(benchmark):
    saving = benchmark(_run)
    rows = [
        ("deployment", "traffic sent to the scrubber", "scrubbing cost / interval"),
        (
            "scrubbing alone",
            f"{saving['scrubbed_bits_alone'] / 8e9:.2f} GB",
            f"${saving['cost_alone']:.3f}",
        ),
        (
            "Stellar pre-filter + scrubbing",
            f"{saving['scrubbed_bits_combined'] / 8e9:.2f} GB",
            f"${saving['cost_combined']:.3f}",
        ),
        ("cost saving", "", f"{saving['cost_saving_fraction']:.0%}"),
    ]
    print_table("Ablation (§6): Advanced Blackholing in front of a scrubbing service", rows)

    # The NTP reflection attack dominates the victim's traffic, so dropping
    # its signature at the IXP removes the bulk of the scrubbing bill.
    assert saving["cost_saving_fraction"] > 0.8
    assert saving["cost_combined"] < saving["cost_alone"]
