"""Table 1: qualitative comparison of DDoS mitigation techniques.

Assembles the comparison matrix from the mitigation classes' declared
ratings (plus Advanced Blackholing's) and checks it against the transcribed
paper table.  The quantitative companion —
:func:`run_quantitative_comparison` — applies every technique to the same
attack interval and reports residual attack traffic and collateral damage,
so the qualitative claims can be sanity-checked against behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.collateral import collateral_damage
from ..bgp.flowspec import drop_rule
from ..mitigation.acl import AccessControlList, AclMitigation
from ..mitigation.base import Dimension, MitigationTechnique, Rating
from ..mitigation.comparison import (
    PAPER_TABLE_1,
    ComparisonTable,
    build_comparison_table,
)
from ..mitigation.flowspec import FlowspecMitigation, FlowspecService
from ..mitigation.rtbh import RtbhMitigation, RtbhService
from ..mitigation.scrubbing import ScrubbingMitigation
from ..traffic.flowtable import FlowTable, population_bits
from ..traffic.packet import IpProtocol
from .results import JsonResultMixin
from .scenario import build_attack_scenario


class AdvancedBlackholingRatings(MitigationTechnique):
    """Rating-only stand-in so the table can include Advanced Blackholing.

    The quantitative comparison uses the real Stellar system; this class
    only contributes the Table 1 column.
    """

    name = "Advanced Blackholing"
    ratings = dict(PAPER_TABLE_1["Advanced Blackholing"])

    def _partition(self, table, interval):  # pragma: no cover - not used
        raise NotImplementedError("use the Stellar facade for quantitative runs")


def build_table1() -> ComparisonTable:
    """The Table 1 comparison matrix built from the technique classes."""
    techniques = [
        ScrubbingMitigation(),
        AclMitigation(),
        RtbhMitigation(RtbhService(ixp_asn=64700)),
        FlowspecMitigation(FlowspecService()),
        AdvancedBlackholingRatings(),
    ]
    return build_comparison_table(techniques)


@dataclass
class QuantitativeComparisonResult(JsonResultMixin):
    """Residual attack and collateral damage per technique on one scenario."""

    residual_attack_fraction: dict[str, float]
    collateral_damage_fraction: dict[str, float]

    def summary(self) -> dict[str, float]:
        summary = {}
        for name, value in self.residual_attack_fraction.items():
            summary[f"residual_attack_{name}"] = value
        for name, value in self.collateral_damage_fraction.items():
            summary[f"collateral_{name}"] = value
        return summary


@dataclass
class Table1Config:
    """Parameters of the Table 1 experiment (the registry entry point)."""

    seed: int = 19


@dataclass
class Table1Result(JsonResultMixin):
    """Qualitative matrix check plus the quantitative comparison."""

    config: Table1Config
    matches_paper: bool
    comparison: QuantitativeComparisonResult

    def summary(self) -> dict[str, float]:
        return {
            "matches_paper": float(self.matches_paper),
            **self.comparison.summary(),
        }


def run_table1_experiment(config: Table1Config | None = None) -> Table1Result:
    """Run the full Table 1 experiment: matrix check + quantitative runs."""
    config = config if config is not None else Table1Config()
    return Table1Result(
        config=config,
        matches_paper=build_table1().matches_paper(),
        comparison=run_quantitative_comparison(seed=config.seed),
    )


def run_quantitative_comparison(seed: int = 19) -> QuantitativeComparisonResult:
    """Apply each baseline to the same attack interval and compare outcomes.

    Every technique is applied to the same interval, one
    :class:`FlowTable` batch.
    """
    scenario = build_attack_scenario(peer_count=30, seed=seed)
    interval = 10.0
    t = 300.0
    flows = FlowTable.concat(
        [scenario.attack.flow_table(t, interval), scenario.benign.flow_table(t, interval)]
    )
    victim_prefix = f"{scenario.victim_ip}/32"
    peer_asns = scenario.peer_asns

    rtbh_service = RtbhService(ixp_asn=64700, compliance_rate=0.30, seed=seed)
    rtbh_service.request_blackhole(scenario.victim.asn, victim_prefix, peer_asns)

    acl = AccessControlList()
    acl.deny(victim_prefix, protocol=IpProtocol.UDP, src_port=123)

    flowspec_service = FlowspecService(acceptance_rate=0.4, seed=seed)
    flowspec_service.announce_rule(
        drop_rule(victim_prefix, source_port=123, ip_protocol=int(IpProtocol.UDP)),
        peer_asns,
    )

    techniques: dict[str, MitigationTechnique] = {
        "TSS": ScrubbingMitigation(active_since=-1e9, seed=seed),
        "ACL filters": AclMitigation(acl),
        "RTBH": RtbhMitigation(rtbh_service),
        "Flowspec": FlowspecMitigation(flowspec_service),
    }

    residual: dict[str, float] = {}
    collateral: dict[str, float] = {}
    for name, technique in techniques.items():
        outcome = technique.apply(flows, interval)
        report = collateral_damage(outcome)
        residual[name] = 1.0 - report.attack_removed_fraction
        collateral[name] = report.collateral_damage_fraction

    # Advanced Blackholing via the real Stellar deployment.
    from ..core.rules import BlackholingRule

    stellar = scenario.stellar
    rule = BlackholingRule.drop_udp_source_port(scenario.victim.asn, victim_prefix, 123)
    stellar.request_mitigation(rule)
    stellar.process_control_plane(now=t)
    report = stellar.deliver_traffic(flows, interval, interval_start=t)
    result = report.fabric_report.results_by_member[scenario.victim.asn]
    attack_total = population_bits(flows, attack=True)
    legit_total = population_bits(flows, attack=False)
    attack_delivered = population_bits(result.forwarded_table, attack=True)
    legit_dropped = population_bits(result.dropped_table, attack=False)
    residual["Advanced Blackholing"] = (
        attack_delivered / attack_total if attack_total else 0.0
    )
    collateral["Advanced Blackholing"] = legit_dropped / legit_total if legit_total else 0.0

    return QuantitativeComparisonResult(
        residual_attack_fraction=residual, collateral_damage_fraction=collateral
    )
