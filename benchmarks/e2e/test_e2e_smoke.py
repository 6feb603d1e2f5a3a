"""Smoke test of the end-to-end benchmark on the registry's quick configs.

No timing is asserted: the test checks that every metric BENCHMARK.json
names is printed with its unit, that the correctness gate passes (no
failed interval, sharded digest = serial digest), that a trace is written
whose self times add up to the traced wall time, and that the benchmark
refuses to run without the program's source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def assert_metrics_printed(stdout: str, metrics: list[dict]) -> None:
    lines = stdout.splitlines()
    for metric in metrics:
        assert any(
            line.split()[:1] == [metric["name"]] and line.split()[2:3] == [metric["unit"]]
            for line in lines
        ), f"{metric['name']} ({metric['unit']}) not printed"


def test_quick_run_is_correct_and_prints_every_metric(tmp_path):
    runs = tmp_path / "runs.json"
    completed = run_benchmark("--quick", "--json", str(runs))
    assert completed.returncode == 0, completed.stdout + completed.stderr

    assert_metrics_printed(completed.stdout, SPEC["end_to_end"])
    results = result_lines(completed.stdout)
    assert len(results) == len(SPEC["workloads"])
    names = {metric["name"] for metric in SPEC["end_to_end"]}
    for result in results:
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) == names
        assert all(entry["value"] > 0 for entry in result["metrics"].values())

    records = {record["workload"]: record for record in json.loads(runs.read_text())}
    assert records["city_sharded"]["digests"] == records["city_serial"]["digests"]

    compared = run_benchmark("compare", str(runs), str(runs))
    assert compared.returncode == 0, compared.stdout + compared.stderr
    assert "regressed" not in compared.stdout


def test_quick_trace_covers_the_traced_wall_time(tmp_path):
    runs = tmp_path / "runs.json"
    completed = run_benchmark(
        "--quick", "--workload", "city_serial", "--trace", "1", "--json", str(runs)
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert_metrics_printed(completed.stdout, SPEC["per_layer"])
    (result,) = result_lines(completed.stdout)
    assert set(result["metrics"]) == {metric["name"] for metric in SPEC["per_layer"]}

    trace = json.loads((HERE / "out" / "trace-city_serial.json").read_text())
    spans = trace["spans"]
    children = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    self_total = sum(end - start - children[i] for i, (_, start, end, _, _) in enumerate(spans))
    roots = [span for span in spans if span[3] < 0]
    assert [span[0] for span in roots] == ["experiments.run"]
    wall = roots[0][2] - roots[0][1]
    assert abs(self_total - wall) <= 0.01 * wall


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out"))
    completed = run_benchmark("--workload", "churn", "--seed", "1", cwd=tmp_path)
    assert completed.returncode != 0
    assert result_lines(completed.stdout) == []
