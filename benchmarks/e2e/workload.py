"""One repeat of one end-to-end benchmark workload, in a fresh process.

``run.py`` launches this file as a script once per repeat, so peak RSS,
import caches and worker pools never leak between repeats or workloads
(and spawned shard workers can re-import ``__main__`` from a file).  The
last line of standard output is one JSON object describing the repeat.

    PYTHONPATH=src python benchmarks/e2e/workload.py --workload churn --seed 0 \
        [--quick] [--trace OUT.json]

The workload runs through the program's public experiment runner.  The
timeline is read off probes on the fabric and the shard merge (see
:class:`IntervalProbe`); an untraced repeat also times a fixed kernel at
every interval boundary to measure the host's speed (see
:func:`host_probe`).  ``--trace`` instead wraps every layer's public
callables in spans and writes them to ``OUT.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import platform
import resource
import statistics
import sys
import time
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Optional

from instrument import Recorder


@dataclass(frozen=True)
class Workload:
    """A registered experiment at a fixed input size, plus its correctness pins."""

    name: str
    why: str
    #: Registry name of the experiment the workload runs.
    experiment: str
    #: Config overrides of the measured (full-size) run.
    overrides: Mapping[str, Any]
    #: Overrides applied on top of the registry's quick overrides.
    quick_overrides: Mapping[str, Any]
    #: Result fields whose SHA-256 digests are the correctness output
    #: (``"to_dict"`` digests the canonical JSON of the whole result).
    digest_fields: tuple[str, ...]
    #: Digests at seed offset 0: ``{"full": {...}, "quick": {...}}``.
    pinned: Mapping[str, Mapping[str, str]]
    #: Workload whose digests must equal this one's for every seed.
    parity_with: Optional[str] = None

    def make_config(self, seed: int, quick: bool) -> Any:
        """The experiment config; ``seed`` offsets the experiment's default seed."""
        from repro.experiments import get_experiment

        spec = get_experiment(self.experiment)
        default_seed = next(
            field.default for field in spec.config_fields() if field.name == "seed"
        )
        overrides = dict(self.quick_overrides if quick else self.overrides)
        return spec.make_config(quick=quick, seed=default_seed + seed, **overrides)


# The city timeline is the default one (attack at 1/6, mitigation at 1/3 of
# the run) scaled to 20 intervals, so the one mitigation rule is installed
# mid-run.
_CITY_TIMELINE = {
    "duration": 600.0,
    "attack_start": 100.0,
    "attack_duration": 300.0,
    "mitigation_time": 200.0,
}

# Serial and sharded execution share the digests (the parity contract).
_CITY_PINNED = {
    "full": {
        "report_digest": "a6a0094cf0cb5ae01cf615a79eaa26bb7f0f7377b50af6e3af3f06ff9023bb78"
    },
    "quick": {
        "report_digest": "227ef17d19a2922a59a0ff434d7631515934184d566e21c29a86586611936a8f"
    },
}

WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="rules_dense",
            why=(
                "12,040 fine-grained rules on 20 ports, 60k flows per interval: "
                "rule-index classification and the filtered-verdict scatter dominate"
            ),
            experiment="fine_grained",
            overrides={"duration": 200.0, "late_rule_time": 100.0},
            quick_overrides={},
            digest_fields=("to_dict",),
            pinned={
                "full": {
                    "to_dict": "74446e30d9dfcfcaa46974692873487443d73c4e30dcc80f0259ccc370802bc3"
                },
                "quick": {
                    "to_dict": "1fd986427d0eeb683fc3ae3135aa3f93dd129daf55c4cd5283fc7d6bc9fc8088"
                },
            },
        ),
        Workload(
            name="churn",
            why=(
                "open-loop Poisson rule churn through the asyncio service on 1k members: "
                "rule writes run beside classification reads on the same index"
            ),
            experiment="rule_churn",
            overrides={"member_count": 1000, "duration": 300.0},
            quick_overrides={},
            digest_fields=("report_digest", "request_log_digest"),
            pinned={
                "full": {
                    "report_digest": (
                        "e254d794ba0dd09ed4a15e92e016cec87c98e0fd9c0813b58933b34c1d62a87f"
                    ),
                    "request_log_digest": (
                        "4695cd0300a83d8cc06b6793896291a32fe82e279fbae15f0b9981e39de2b146"
                    ),
                },
                "quick": {
                    "report_digest": (
                        "caef6dba2937215d5b7e44f2c248d1827639cf9ae191cbeef649bd92db63c2f3"
                    ),
                    "request_log_digest": (
                        "c1633565caca1b7f79aae110a4194dc04a2dfcb992e01dd95e5e6e7f65567919"
                    ),
                },
            },
        ),
        Workload(
            name="city_serial",
            why=(
                "10k members, 10 PoPs, one rule, shards run in-process: the per-member "
                "passthrough scatter dominates and no process is spawned"
            ),
            experiment="city_scale",
            overrides={"execution": "serial", **_CITY_TIMELINE},
            quick_overrides={"execution": "serial"},
            digest_fields=("report_digest",),
            pinned=_CITY_PINNED,
        ),
        Workload(
            name="city_sharded",
            why=(
                "city_serial's compute on a spawned worker beside the parent: adds spawn, "
                "dispatch, shared-memory transport and the parent-side merge"
            ),
            experiment="city_scale",
            # One worker plus the parent keeps nproc = 2 processes busy; two
            # workers plus the parent oversubscribe the two cores, and the
            # scheduling noise that adds nearly doubled the run-to-run spread.
            overrides={"execution": "sharded", "workers": 1, "chunk_intervals": 2,
                       **_CITY_TIMELINE},
            quick_overrides={"execution": "sharded", "workers": 1, "chunk_intervals": 2},
            digest_fields=("report_digest",),
            pinned=_CITY_PINNED,
            parity_with="city_serial",
        ),
    )
}


def result_digests(workload: Workload, result: Any) -> dict[str, str]:
    digests = {}
    for name in workload.digest_fields:
        if name == "to_dict":
            payload = json.dumps(result.to_dict(), sort_keys=True)
            digests[name] = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        else:
            digests[name] = getattr(result, name)
    return digests


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: Time of one :func:`probe_kernel` run at the reference host speed.  Every
#: timed phase of an untraced repeat is also reported scaled by
#: ``REFERENCE_PROBE_S / probe``, with ``probe`` measured right beside it:
#: the phase's time at the reference speed.
REFERENCE_PROBE_S = 1.5e-3


def probe_kernel() -> int:
    """A fixed stretch of interpreter work, the same on every call."""
    total = 0
    for value in range(25_000):
        total += value * value
    return total


def host_probe() -> tuple[float, float]:
    """``(kernel time, probe cost)``: the fastest of three kernel runs and
    the time the whole probe took, in seconds.

    The shared host this benchmark targets changes speed by up to 1.6x for
    tens of seconds at a time (other tenants, CPU frequency), and the
    program's interval times move with this kernel's time.
    """
    started = time.perf_counter()
    fastest = math.inf
    for _ in range(3):
        start = time.perf_counter()
        probe_kernel()
        fastest = min(fastest, time.perf_counter() - start)
    return fastest, time.perf_counter() - started


# ----------------------------------------------------------------------
# Per-interval probes (installed in every run)
# ----------------------------------------------------------------------
class IntervalProbe:
    """Interval boundaries, delivered rows and bit conservation, from outside.

    In-process workloads start their first interval at the first
    ``SwitchingFabric.deliver`` call; the sharded workload at the first
    parent-side ``merge_interval_columns`` call, so its set-up includes
    spawning the shard worker and computing its first chunk.  An interval
    ends at its ``deliver`` return, or at its merge return on the city
    workloads (one interval = one merge of every shard's report).

    Sharded workers hand their intervals over ``chunk`` at a time, so the
    parent waits once per chunk and merges the rest back to back; each
    interval's host time is then its chunk's time divided evenly, which
    keeps the median from reading the chunk size instead of the work.

    With ``speed`` set, a :func:`host_probe` runs at every boundary; its
    cost is left out of the next interval's time.
    """

    def __init__(self, recorder: Recorder, merged: bool, chunk: int, speed: bool) -> None:
        self.recorder = recorder
        self.merged = merged
        self.chunk = chunk
        self.speed = speed
        self.first_start: Optional[float] = None
        self.boundaries: list[float] = []
        #: Per boundary: the probe's kernel time and its whole cost (speed only).
        self.kernel_s: list[float] = []
        self.probe_cost_s: list[float] = []
        self.deliver_rows = 0
        self.shared_rows = 0
        self.failed_intervals: set[int] = set()
        self.failures: list[str] = []
        self.fabrics: dict[int, Any] = {}

    def install(self) -> None:
        from repro.experiments import city_scale
        from repro.ixp.fabric import SwitchingFabric
        from repro.traffic.sharedtable import SharedFlowTable

        self.recorder.wrap(SwitchingFabric, "deliver", "ixp.fabric.deliver", self._on_deliver)
        self.recorder.wrap(
            city_scale, "merge_interval_columns", "ixp.shard.merge", self._on_merge
        )
        self.recorder.wrap(SharedFlowTable, "table", "traffic.sharedtable", self._on_table)

    def _check(self, where: str, offered: float, delivered: float, filtered: float,
               congested: float) -> None:
        residual = offered - delivered - filtered - congested
        if abs(residual) > 1e-9 * offered:
            interval = self.recorder.interval
            self.failed_intervals.add(interval)
            self.failures.append(
                f"interval {interval}: {where} does not conserve bits (residual {residual!r})"
            )

    def _on_deliver(self, args: tuple, report: Any, start: float, end: float) -> None:
        if self.first_start is None:
            self.first_start = start
        self.fabrics[id(args[0])] = args[0]
        self.deliver_rows += len(args[1])
        self._check(
            "deliver",
            report.offered_bits,
            report.delivered_bits,
            report.filtered_bits,
            report.congestion_dropped_bits,
        )
        if not self.merged:
            self._boundary(end)

    def _on_merge(self, args: tuple, merged: Any, start: float, end: float) -> None:
        if self.first_start is None:
            self.first_start = start
        totals = merged["totals"]
        self._check(
            "merge",
            totals["offered_bits"],
            totals["delivered_bits"],
            totals["filtered_bits"],
            totals["congestion_dropped_bits"],
        )
        self._boundary(end)

    def _on_table(self, args: tuple, table: Any, start: float, end: float) -> None:
        self.shared_rows += len(table)

    def _boundary(self, end: float) -> None:
        self.boundaries.append(end)
        self.recorder.interval += 1
        if self.speed:
            kernel, cost = host_probe()
            self.kernel_s.append(kernel)
            self.probe_cost_s.append(cost)

    def probe_s(self) -> float:
        return sum(self.probe_cost_s)

    def interval_ms(self, scaled: bool = False) -> list[float]:
        """Host time of each interval, from the previous one's end (or set-up
        end); ``scaled`` gives it at the reference host speed, by the probe
        that ran at the interval's end."""
        if self.first_start is None:
            return []
        costs = self.probe_cost_s or [0.0] * len(self.boundaries)
        starts = [self.first_start, *(end + cost for end, cost in zip(self.boundaries, costs))]
        spans = [(end - start) * 1e3 for start, end in zip(starts, self.boundaries)]
        if scaled:
            spans = [span * REFERENCE_PROBE_S / kernel
                     for span, kernel in zip(spans, self.kernel_s)]
        samples: list[float] = []
        for first in range(0, len(spans), self.chunk):
            chunk = spans[first:first + self.chunk]
            samples.extend([sum(chunk) / len(chunk)] * len(chunk))
        return samples


# ----------------------------------------------------------------------
# Layer spans (traced runs only)
# ----------------------------------------------------------------------
def install_spans(recorder: Recorder) -> None:
    """Wrap each layer's public callables, at the names their callers resolve."""
    from repro.experiments import city_scale, fine_grained, rule_churn, scenario
    from repro.experiments.parallel import ShardWorkerPool
    from repro.ixp.delivery import FabricDeliveryPlan
    from repro.ixp.edge_router import EdgeRouter
    from repro.ixp.fabric import FabricIntervalReport, SwitchingFabric
    from repro.ixp.qos import PortQosPolicy, PortQosResult
    from repro.ixp.queues import RateLimiter
    from repro.ixp.ruleindex import RuleMatchIndex
    from repro.ixp.service import ControlPlaneService
    from repro.traffic.attacks import BenignTrafficSource, BooterAttack
    from repro.traffic.flowtable import FlowTable
    from repro.traffic.generator import IxpTraceGenerator
    from repro.traffic.ipfix import IpfixExporter
    from repro.traffic.sharedtable import SharedFlowTable, SharedMemberTable

    wrap = recorder.wrap
    versions: dict[int, int] = {}

    def on_execute(args: tuple, report: Any, start: float, end: float) -> None:
        recorder.add("ixp.delivery.execute.rows", len(args[1]))

    def on_generate(args: tuple, generated: Any, start: float, end: float) -> None:
        # iter_interval_tables yields (interval_start, table) pairs.
        table = generated[1] if isinstance(generated, tuple) else generated
        recorder.add("traffic.generate.rows", len(table))

    def on_assign(args: tuple, ranks: Any, start: float, end: float) -> None:
        recorder.add("ixp.ruleindex.assign.rows", len(ranks))
        recorder.add("ixp.ruleindex.assign.matched", int((ranks >= 0).sum()))

    def on_compiled_index(args: tuple, index: Any, start: float, end: float) -> None:
        policy = args[0]
        if versions.get(id(policy)) != policy.rules_version:
            versions[id(policy)] = policy.rules_version
            recorder.add("ixp.qos.compile.rebuilds")

    def count(key: str) -> Any:
        return lambda args, result, start, end: recorder.add(key)

    # Data plane.
    wrap(FabricDeliveryPlan, "execute", "ixp.delivery.execute", on_execute)
    wrap(SwitchingFabric, "current_delivery_plan", "ixp.delivery.plan")
    wrap(FabricDeliveryPlan, "__init__", hook=count("ixp.delivery.plan.compiles"))
    wrap(PortQosPolicy, "compiled_index", "ixp.qos.compile", on_compiled_index)
    wrap(RuleMatchIndex, "__init__", hook=count("ixp.ruleindex.scratch"))
    wrap(RuleMatchIndex, "with_installed", "ixp.ruleindex.delta")
    wrap(RuleMatchIndex, "with_removed", "ixp.ruleindex.delta")
    wrap(RuleMatchIndex, "assign", "ixp.ruleindex.assign", on_assign)
    wrap(RateLimiter, "shape", "ixp.queues.shape")
    wrap(FabricIntervalReport, "to_dict", "ixp.fabric.report")
    wrap(FabricIntervalReport, "to_columns", "ixp.fabric.report")
    wrap(IpfixExporter, "export", "traffic.ipfix")
    # Control plane.
    wrap(ControlPlaneService, "make_request", "ixp.service.request")
    wrap(ControlPlaneService, "enqueue", "ixp.service.enqueue")
    wrap(ControlPlaneService, "advance", "ixp.service.advance")
    for method in ("install_rule", "install_rules", "remove_rule", "clear_rules"):
        wrap(EdgeRouter, method, "ixp.edge_router.mutate")
    # Traffic generation and analysis.
    wrap(fine_grained.FineGrainedTrafficSource, "interval_table", "traffic.generate",
         on_generate)
    wrap(IxpTraceGenerator, "interval_table", "traffic.generate", on_generate)
    wrap(IxpTraceGenerator, "iter_interval_tables", "traffic.generate", on_generate)
    wrap(BooterAttack, "flow_table", "traffic.generate", on_generate)
    wrap(BenignTrafficSource, "flow_table", "traffic.generate", on_generate)
    wrap(FlowTable, "concat", "traffic.concat")
    wrap(FlowTable, "service_ports", "traffic.analysis")
    wrap(city_scale, "group_sum", "traffic.analysis")
    wrap(PortQosResult, "delivered_attack_bits", "traffic.analysis")
    wrap(PortQosResult, "delivered_peer_asns", "traffic.analysis")
    for module in (city_scale, rule_churn):
        wrap(module, "record_delivery", "traffic.analysis")
    # Set-up: topology and the scenario's rule staging.
    wrap(SwitchingFabric, "connect_member", "ixp.topology.build")
    for module in (city_scale, rule_churn, scenario):
        wrap(module, "build_multi_pop_fabric", "ixp.topology.build")
        wrap(module, "make_member_population", "ixp.topology.build")
    wrap(rule_churn, "generate_churn_requests", "experiments.churn.requests")
    # Shard pipeline (parent side; workers are traced through city_serial).
    # A shard runtime's own per-interval Python (the per-member utilisation
    # scan) runs in process only on city_serial; without its own span it
    # would read as parallel-layer waiting.
    wrap(city_scale._ShardRuntime, "run_interval", "experiments.city.interval")
    wrap(city_scale, "iter_shard_intervals", "experiments.parallel")
    wrap(ShardWorkerPool, "submit", "experiments.parallel.dispatch")
    wrap(ShardWorkerPool, "shutdown", "experiments.parallel.shutdown")
    wrap(SharedFlowTable, "release", "traffic.sharedtable")
    wrap(SharedMemberTable, "from_members", "traffic.sharedtable")
    wrap(SharedMemberTable, "members_for", "traffic.sharedtable")


def layer_metrics(
    recorder: Recorder, probe: IntervalProbe, root: Optional[int], result: Any
) -> dict[str, float]:
    """Per-layer values of one repeat: span totals, counters and service stats."""
    metrics: dict[str, float] = dict(recorder.counts)
    for name, totals in recorder.layer_totals().items():
        metrics[f"{name}.calls"] = totals["calls"]
        metrics[f"{name}.self_s"] = totals["self_s"]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics["ixp.ruleindex.assign.match_ratio"] = ratio(
        metrics.get("ixp.ruleindex.assign.matched", 0.0),
        metrics.get("ixp.ruleindex.assign.rows", 0.0),
    )
    metrics["ixp.qos.compile.fresh_ratio"] = ratio(
        metrics.get("ixp.ruleindex.scratch", 0.0),
        metrics.get("ixp.qos.compile.rebuilds", 0.0),
    )
    plan_calls = metrics.get("ixp.delivery.plan.calls", 0.0)
    metrics["ixp.delivery.plan.reuse_ratio"] = ratio(
        plan_calls - metrics.get("ixp.delivery.plan.compiles", 0.0), plan_calls
    )
    metrics["experiments.parallel.wait_s"] = metrics.get("experiments.parallel.self_s", 0.0)
    metrics["ixp.fabric.retained_reports"] = float(
        sum(len(fabric.reports) for fabric in probe.fabrics.values())
    )
    stats = getattr(result, "stats", None)
    if isinstance(stats, Mapping):
        rejected = sum(value for key, value in stats.items() if key.startswith("rejected_"))
        metrics["ixp.service.coalesce_ratio"] = ratio(
            stats["coalesced_ops"], stats["applied_ops"]
        )
        metrics["ixp.service.reject_ratio"] = ratio(rejected, stats["submitted"])
        metrics["ixp.service.max_queue_depth"] = float(stats["max_queue_depth_seen"])
    if root is not None:
        name, start, end, _, _ = recorder.spans[root]
        wall = end - start
        metrics["trace.wall_s"] = wall
        metrics["trace.coverage"] = 1.0 - ratio(metrics[f"{name}.self_s"], wall)
    return metrics


# ----------------------------------------------------------------------
def _peak_rss_mb(who: int) -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_repeat(workload: Workload, seed: int, quick: bool, trace_path: Optional[str]) -> dict:
    """Run the workload once and describe it: timeline, digests, failures, layers."""
    speed = trace_path is None
    kernel_at_start = host_probe()[0] if speed else math.nan
    started = time.perf_counter()
    # The program's own import is part of what a user waits for.
    from repro.experiments import get_experiment

    imported = time.perf_counter()
    import numpy
    from repro.experiments.results import to_jsonable

    spec = get_experiment(workload.experiment)
    config = workload.make_config(seed, quick)
    recorder = Recorder(tracing=trace_path is not None)
    probe = IntervalProbe(
        recorder,
        merged=workload.experiment == "city_scale",
        chunk=config.chunk_intervals if getattr(config, "execution", "") == "sharded" else 1,
        speed=speed,
    )
    probe.install()
    if recorder.tracing:
        install_spans(recorder)

    root = recorder.begin("experiments.run")
    # Inside the root span, so every collection span nests under it.
    if recorder.tracing:
        gc.callbacks.append(recorder.on_gc)
    run_start = time.perf_counter()
    try:
        result = spec.runner(config)
    finally:
        run_end = time.perf_counter()
        if recorder.tracing:
            gc.callbacks.remove(recorder.on_gc)
        recorder.end(root)

    if probe.first_start is None:
        raise RuntimeError(f"{workload.name}: no interval was delivered")
    if recorder.nesting_errors:
        raise RuntimeError(f"{recorder.nesting_errors} span(s) closed out of order")
    requests = float(getattr(result, "stats", {}).get("submitted", 0))
    setup = probe.first_start - started
    tail = run_end - probe.boundaries[-1] - (probe.probe_cost_s or [0.0])[-1]
    record = {
        "workload": workload.name,
        "seed": seed,
        "quick": quick,
        "traced": recorder.tracing,
        "config": to_jsonable(config),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "import_s": imported - started,
        # Host times, without the probes' own cost.
        "setup_s": setup,
        "wall_s": run_end - started - probe.probe_s(),
        "run_s": run_end - run_start - probe.probe_s(),
        "interval_ms": probe.interval_ms(),
        "tail_s": tail,
        "intervals": len(probe.boundaries),
        "expected_intervals": int(config.duration / config.interval + 1e-9),
        "rows": probe.deliver_rows or probe.shared_rows,
        "requests": requests,
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
        "worker_peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN),
        "digests": result_digests(workload, result),
        "failed_intervals": sorted(probe.failed_intervals),
        "failures": probe.failures,
        "layers": layer_metrics(recorder, probe, root, result),
    }
    if speed:
        # Set-up is bracketed by the probe before it and the one after the
        # first interval; the tail follows the last probe.
        kernels = probe.kernel_s
        record["host_speed"] = REFERENCE_PROBE_S / statistics.median(kernels)
        record["scaled"] = {
            "setup_s": setup * REFERENCE_PROBE_S / ((kernel_at_start + kernels[0]) / 2),
            "interval_ms": probe.interval_ms(scaled=True),
            "tail_s": tail * REFERENCE_PROBE_S / kernels[-1],
        }
    if trace_path is not None:
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "workload": workload.name,
                    "seed": seed,
                    "setup_end": probe.first_start,
                    "fields": ["name", "start", "end", "parent", "interval"],
                    "spans": recorder.spans,
                },
                handle,
            )
    return record


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", metavar="OUT.json", default=None)
    args = parser.parse_args(argv)
    record = run_repeat(WORKLOADS[args.workload], args.seed, args.quick, args.trace)
    print(json.dumps(record, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
