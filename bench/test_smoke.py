"""Smoke test of the benchmark: one short pass of each workload at a small size.

    python3 -m pytest bench

Keeps bench/run.py from rotting: every workload runs in both modes and must
print exactly the metrics BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [
        sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
        "--seed", "0", "--seconds", "0", "--trace", str(trace), "--smoke",
    ]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_pass_prints_declared_metrics(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    if not trace:
        assert all(value > 0 for value in values.values())
    elif workload == "calibrate-sweep":
        assert values["events.stroke_profile.calls"] == 0
        assert values["identify.run_trace.calls"] > 0
    else:
        assert values["events.enumerate_per_eval"] == 2
        if workload == "optimize-long":
            assert values["optimize.revisit_ratio"] == 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "calibrate-sweep", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
