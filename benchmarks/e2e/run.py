"""End-to-end benchmark of the Stellar reproduction.

Runs the four workloads of ``workload.py`` through the public experiment
runners, prints every end-to-end metric by name with its unit, checks the
outputs (bit conservation, pinned digests, sharded = serial) and ends with
one JSON line ``{"correct", "attempted", "failed", "metrics"}``.

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds N]
                                  [--trace 0|1] [--quick] [--json OUT]
    python3 benchmarks/e2e/run.py compare BASE.json NEW.json

Each repeat runs in its own ``python`` process (``workload.py``).  A run
makes at least three repeats (one under ``--quick``) and starts another
while it is expected to finish within ``--seconds``; each phase of the
workload is then taken at the reference host speed and at its median
over the repeats (see :func:`summarise`).  ``--trace 1`` alternates
untraced and traced repeats and reports the per-layer metrics instead.
Every run appends a stamped record to ``--json OUT`` (default
``benchmarks/e2e/out/runs-<workload>.json``); ``compare`` reads two such
files and applies the pairs rule of README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from workload import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: End-to-end metrics: name -> (unit, better).  BENCHMARK.json lists the same.
E2E_METRICS: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "flows_per_s": ("flows/s", "higher"),
    "intervals_per_s": ("1/s", "higher"),
    "interval_ms.p50": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Per-layer metrics of the traced run: name -> unit.  BENCHMARK.json
#: lists the same.  A layer a workload never calls reads 0.
LAYER_METRICS: dict[str, str] = {
    "ixp.delivery.execute.self_s": "s",
    "ixp.delivery.execute.rows": "rows",
    "ixp.ruleindex.assign.calls": "count",
    "ixp.ruleindex.assign.self_s": "s",
    "ixp.ruleindex.assign.rows": "rows",
    "ixp.ruleindex.assign.match_ratio": "fraction",
    "ixp.ruleindex.delta.calls": "count",
    "ixp.ruleindex.delta.self_s": "s",
    "ixp.qos.compile.calls": "count",
    "ixp.qos.compile.self_s": "s",
    "ixp.qos.compile.fresh_ratio": "fraction",
    "ixp.delivery.plan.calls": "count",
    "ixp.delivery.plan.self_s": "s",
    "ixp.delivery.plan.reuse_ratio": "fraction",
    "ixp.service.request.self_s": "s",
    "ixp.service.enqueue.calls": "count",
    "ixp.service.enqueue.self_s": "s",
    "ixp.service.advance.calls": "count",
    "ixp.service.advance.self_s": "s",
    "ixp.edge_router.mutate.calls": "count",
    "ixp.edge_router.mutate.self_s": "s",
    "ixp.service.coalesce_ratio": "fraction",
    "ixp.service.reject_ratio": "fraction",
    "ixp.service.max_queue_depth": "count",
    "ixp.service.requests_per_s": "requests/s",
    "ixp.fabric.deliver.self_s": "s",
    "ixp.fabric.report.self_s": "s",
    "ixp.fabric.retained_reports": "count",
    "ixp.queues.shape.calls": "count",
    "ixp.queues.shape.self_s": "s",
    "ixp.topology.build.self_s": "s",
    "experiments.churn.requests.self_s": "s",
    "traffic.generate.calls": "count",
    "traffic.generate.self_s": "s",
    "traffic.generate.rows": "rows",
    "traffic.concat.self_s": "s",
    "traffic.ipfix.self_s": "s",
    "traffic.analysis.self_s": "s",
    "traffic.sharedtable.self_s": "s",
    "ixp.shard.merge.self_s": "s",
    "experiments.city.interval.self_s": "s",
    "experiments.parallel.wait_s": "s",
    "experiments.parallel.dispatch.self_s": "s",
    "experiments.parallel.shutdown.self_s": "s",
    "experiments.parallel.worker_peak_rss_mb": "MB",
    "python.gc.calls": "count",
    "python.gc.self_s": "s",
    "experiments.run.self_s": "s",
    "repro.import_s": "s",
    "trace.wall_s": "s",
    "trace.coverage": "fraction",
    "trace.overhead_frac": "fraction",
}

#: Fewest untraced repeats of a full run: the least that has a median.
MIN_REPEATS = 3

#: Stop starting repeats of a workload once this much of its 180 s budget
#: is spent.
DEADLINE_S = 150.0


# ----------------------------------------------------------------------
# Repeats
# ----------------------------------------------------------------------
def run_child(
    workload: str, seed: int, quick: bool, trace_path: Optional[Path], timeout: float
) -> tuple[Optional[dict], str]:
    """One repeat in a fresh interpreter; returns ``(record, error)``."""
    command = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
               "--seed", str(seed)]
    if quick:
        command.append("--quick")
    if trace_path is not None:
        command += ["--trace", str(trace_path)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    # Keep the program's temporary files inside the checkout.
    env["TMPDIR"] = str(OUT / "tmp")
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    # A session of its own, so a timeout can stop the repeat together with
    # any shard workers it spawned.
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"{workload}: repeat exceeded {timeout:.0f} s"
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
    if child.returncode != 0:
        return None, f"{workload}: repeat exited with code {child.returncode}"
    return json.loads(stdout.strip().splitlines()[-1]), ""


def summarise(records: list[dict]) -> dict[str, float]:
    """End-to-end metrics of a run, from each phase at the reference host speed.

    The repeats of a run execute identical intervals (same seed, same
    inputs).  Each phase (set-up, every interval, the tail after the last
    interval) is taken at the reference host speed (``scaled`` in the
    repeat records, see ``workload.host_probe``) and at its median over the
    repeats.
    """
    scaled = [record["scaled"] for record in records]
    intervals = [statistics.median(samples) for samples in zip(*(s["interval_ms"] for s in scaled))]
    busy = sum(intervals) / 1e3
    setup = statistics.median(s["setup_s"] for s in scaled)
    tail = statistics.median(s["tail_s"] for s in scaled)
    return {
        "setup_s": setup,
        "wall_s": setup + busy + tail,
        "flows_per_s": records[0]["rows"] / busy,
        "intervals_per_s": len(intervals) / busy,
        "interval_ms.p50": statistics.median(intervals),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }


def fastest(records: list[dict], key: str) -> float:
    return min(record[key] for record in records)


class Check:
    """Correctness of one run: attempted vs failed intervals, with reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def repeat(self, record: Optional[dict], expected: int, error: str,
               reference: Optional[dict[str, str]]) -> None:
        self.attempted += expected
        if record is None:
            self.failed += expected
            self.failures.append(error)
            return
        wrong = {
            name: digest
            for name, digest in record["digests"].items()
            if reference is not None and reference.get(name) != digest
        }
        if wrong:
            self.failed += expected
            self.failures.append(f"digest mismatch {wrong} (expected {reference})")
            return
        missing = expected - record["intervals"]
        self.failed += len(record["failed_intervals"]) + max(0, missing)
        self.failures.extend(record["failures"])
        if missing:
            self.failures.append(f"{missing} interval(s) never completed")


def run_workload(workload: Workload, args: argparse.Namespace) -> dict:
    """All repeats of one workload; returns the stamped run record."""
    traced_mode = args.trace == 1
    min_repeats = 1 if args.quick else (2 if traced_mode else MIN_REPEATS)
    seconds = args.seconds if args.seconds is not None else (0 if args.quick else 30)
    trace_path = OUT / f"trace-{workload.name}.json"
    pinned = workload.pinned["quick" if args.quick else "full"] if args.seed == 0 else None
    check = Check()
    untraced: list[dict] = []
    traced: list[dict] = []
    reference: Optional[dict[str, str]] = dict(pinned) if pinned else None
    started = time.perf_counter()
    # The untimed parity repeat runs first, inside the time budget; it also
    # warms the file cache for the timed repeats.
    parity, parity_error = (
        run_child(workload.parity_with, args.seed, args.quick, None, 170.0)
        if workload.parity_with else (None, "")
    )
    durations: list[float] = []
    while True:
        counts = (len(untraced), len(traced)) if traced_mode else (len(untraced),)
        elapsed = time.perf_counter() - started
        mean_repeat = statistics.fmean(durations) if durations else 0.0
        if min(counts) >= min_repeats and elapsed + mean_repeat > seconds:
            break
        if elapsed + 1.2 * max(durations, default=0.0) > DEADLINE_S:
            print(f"  {workload.name}: deadline reached, stopping early", file=sys.stderr)
            break
        trace = traced_mode and len(traced) < len(untraced)
        repeat_start = time.perf_counter()
        record, error = run_child(
            workload.name, args.seed, args.quick, trace_path if trace else None,
            timeout=max(10.0, 170.0 - elapsed),
        )
        durations.append(time.perf_counter() - repeat_start)
        expected = record["expected_intervals"] if record else 0
        check.repeat(record, expected or 1, error, reference)
        if record is None:
            break
        if reference is None:
            reference = dict(record["digests"])
        (traced if trace else untraced).append(record)
        print(
            f"  {workload.name} repeat {len(untraced) + len(traced)}"
            f"{' (traced)' if trace else ''}: wall {record['wall_s']:.3f} s",
            file=sys.stderr,
        )

    if workload.parity_with and untraced:
        # Sharded and serial runs of one seed must agree bit for bit.
        if parity is None or parity["digests"] != untraced[0]["digests"]:
            check.failed += sum(r["expected_intervals"] for r in untraced + traced)
            check.failures.append(
                parity_error or f"{workload.name} digests {untraced[0]['digests']} differ "
                f"from {workload.parity_with} digests {parity['digests']}"
            )

    metrics: dict[str, float] = {}
    layers: dict[str, float] = {}
    if untraced:
        metrics = summarise(untraced)
    if traced and untraced:
        layers = {
            name: statistics.median(record["layers"].get(name, 0.0) for record in traced)
            for name in LAYER_METRICS
        }
        layers["ixp.service.requests_per_s"] = max(
            record["requests"] / record["run_s"] for record in untraced
        )
        layers["experiments.parallel.worker_peak_rss_mb"] = statistics.median(
            record["worker_peak_rss_mb"] for record in untraced
        )
        layers["repro.import_s"] = fastest(untraced, "import_s")
        layers["trace.overhead_frac"] = (
            fastest(traced, "run_s") / fastest(untraced, "run_s") - 1.0
        )

    sample = (untraced or traced or [{}])[0]
    return {
        "workload": workload.name,
        "seed": args.seed,
        "quick": args.quick,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": sample.get("numpy"),
        "git_commit": git_commit(),
        "config": sample.get("config"),
        "digests": sample.get("digests"),
        "repeats": [
            {
                key: record[key]
                for key in ("setup_s", "wall_s", "tail_s", "peak_rss_mb", "interval_ms",
                            "host_speed", "scaled")
            }
            for record in untraced
        ],
        "metrics": metrics,
        "layers": layers,
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "failures": check.failures,
    }


def git_commit() -> str:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def print_record(record: dict) -> None:
    print(
        f"== {record['workload']}  seed {record['seed']}  "
        f"{len(record['repeats'])} untraced repeat(s)  cpu_count {record['cpu_count']}"
    )
    if record["metrics"]:
        speeds = [repeat["host_speed"] for repeat in record["repeats"]]
        print(f"  host speed {min(speeds):.3g}-{max(speeds):.3g} of the reference; "
              "times below are at the reference speed")
    for name, (unit, _) in E2E_METRICS.items():
        if name in record["metrics"]:
            note = ""
            if "_ms." in name:
                samples = len(record["repeats"][0]["interval_ms"])
                note = f"  ({samples} intervals, each the median of its repeats)"
            print(f"  {name:<40} {record['metrics'][name]:>14.6g} {unit}{note}")
    for name, value in record["layers"].items():
        print(f"  {name:<40} {value:>14.6g} {LAYER_METRICS[name]}")
    print(
        f"  correct: {record['correct']}  "
        f"({record['attempted']} intervals attempted, {record['failed']} failed)"
    )
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")


def result_line(record: dict, traced: bool) -> str:
    units = LAYER_METRICS if traced else {k: u for k, (u, _) in E2E_METRICS.items()}
    values = record["layers"] if traced else record["metrics"]
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": values[name], "unit": unit}
                for name, unit in units.items()
                if name in values
            },
        }
    )


def append_run(path: Path, record: dict) -> None:
    runs = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    runs.append(record)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(runs, indent=1), encoding="utf-8")


# ----------------------------------------------------------------------
# compare: the pairs rule
# ----------------------------------------------------------------------
def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], better: str, bound: Optional[float]) -> dict:
    """Compare two sets of runs of one metric by the pairs rule."""
    lower = better == "lower"
    b1, b2, b3 = quartiles(base)
    n1, n2, n3 = quartiles(new)

    def beats(a: float, b: float) -> bool:
        return a < b if lower else a > b

    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if beats(n, b))
    worse_by = ((n2 - b2) if lower else (b2 - n2)) / b2
    spread = (b3 - b1) / b2
    everything_better = all(beats(n, b) for n in new for b in base)
    if bound is not None and spread > bound and not everything_better:
        outcome = "unresolved"
    elif bound is not None and worse_by > bound:
        outcome = "regressed"
    elif pairs and wins >= 0.9 * len(pairs) and worse_by < 0 and abs(n2 - b2) > b3 - b1:
        outcome = "improved"
    else:
        outcome = "unchanged"
    return {
        "base": (b1, b2, b3), "new": (n1, n2, n3), "change": -worse_by,
        "wins": wins, "pairs": len(pairs), "bound": bound, "outcome": outcome,
    }


def compare(base_path: Path, new_path: Path) -> int:
    bounds: dict[str, float] = {}
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.exists():
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
        bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}

    def load(path: Path) -> dict[str, list[dict]]:
        by_workload: dict[str, list[dict]] = {}
        for run in json.loads(path.read_text(encoding="utf-8")):
            if run["metrics"]:
                by_workload.setdefault(run["workload"], []).append(run["metrics"])
        return by_workload

    base, new = load(base_path), load(new_path)
    regressed = False
    for workload in sorted(set(base) & set(new)):
        print(f"== {workload}: {len(base[workload])} base run(s), {len(new[workload])} new")
        print(f"  {'metric':<18} {'base median [q1, q3]':>30} {'new median [q1, q3]':>30}"
              f" {'change':>8} {'won':>7} {'bound':>6}  outcome")
        for name, (unit, better) in E2E_METRICS.items():
            row = verdict(
                [run[name] for run in base[workload]],
                [run[name] for run in new[workload]],
                better,
                bounds.get(name),
            )
            regressed |= row["outcome"] == "regressed"
            b, n = row["base"], row["new"]
            bound = "n/a" if row["bound"] is None else f"{row['bound']:.0%}"
            print(
                f"  {name:<18} {b[1]:>10.4g} [{b[0]:.4g}, {b[2]:.4g}] {unit:<5}"
                f"{n[1]:>10.4g} [{n[0]:.4g}, {n[2]:.4g}] {unit:<5}"
                f" {row['change']:>+7.1%} {row['wins']:>3}/{row['pairs']:<3} {bound:>6}"
                f"  {row['outcome']}"
            )
    return 1 if regressed else 0


# ----------------------------------------------------------------------
def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base", type=Path)
        parser.add_argument("new", type=Path)
        parsed = parser.parse_args(argv[1:])
        return compare(parsed.base, parsed.new)

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="offset added to each experiment's default seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="start repeats while they fit in this time (default 30; "
                        "0 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, nargs="?", const=1,
                        help="1: report per-layer metrics from traced repeats")
    parser.add_argument("--quick", action="store_true",
                        help="the registry's quick configs, one repeat (smoke runs)")
    parser.add_argument("--json", type=Path, default=None,
                        help="append the stamped run record to this JSON list")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    correct = True
    for name in names:
        record = run_workload(WORKLOADS[name], args)
        append_run(args.json or OUT / f"runs-{name}.json", record)
        print_record(record)
        print(result_line(record, traced=args.trace == 1), flush=True)
        correct &= record["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
