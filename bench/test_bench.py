"""Smoke test of the benchmark: every workload at tiny size.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


def assert_metrics_printed(proc, specs):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], float)
        assert any(line.startswith(f"{spec['name']} ") and line.endswith(f" {spec['unit']}")
                   for line in lines[:-1])
    return lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    lines = assert_metrics_printed(run_bench(workload, 0), SPEC["end_to_end"])
    assert any(line.startswith("failed_frac 0 fraction") for line in lines)
    record = json.loads((BENCH / "out" / f"result-{workload}-seed3-trace0.json").read_text())
    assert set(record["environment"]) >= {"cpu_count", "python", "numpy", "git_commit"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    assert_metrics_printed(run_bench(workload, 1), SPEC["per_layer"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("check_random", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_corrupted_report_counts_as_failed(tmp_path):
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    import worker
    import workloads
    from treespectra import census, cli

    calls = []

    def flaky_main(argv):
        calls.append(argv)
        if len(calls) == 1:
            sys.stdout.write('{"payload": {"oracles": ')  # truncated report
            return 0
        if len(calls) == 2:
            raise RuntimeError("request blew up")
        return cli.main(argv)

    requests = workloads.build("check_random", "tiny", 3, tmp_path, ROOT, census)
    runner = workloads.Runner(SimpleNamespace(main=flaky_main), census)
    phase = worker.timed_phase(requests, runner, budget=0.0)
    attempted, failed = worker.check_phase(requests, phase)
    assert (attempted, failed) == (len(requests), 2)

    probe = SimpleNamespace(slowdown=lambda a, b: None, reference_seconds=lambda a, b: b - a)
    metrics, info = worker.end_to_end(phase, attempted, failed, probe)
    assert info["failed_frac"] == 2 / len(requests)
    assert metrics["throughput_per_s"][0] > 0
