"""Smoke test of the benchmark: every workload at tiny size, all checks.

Run with ``python -m pytest bench`` from the repository root (about 15 s).
It is not collected by the repository's default test run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = SPEC["command"][1:]
    return subprocess.run([sys.executable, *cmd, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    p = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, p.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        layers = json.loads((BENCH / "runs" / workload / "layers.json").read_text())
        assert layers["spans"] > 0
        assert (BENCH / "runs" / workload / "spans.npz").is_file()


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for d in SPEC["paths"]:
        shutil.copytree(ROOT / d, tmp_path / d,
                        ignore=shutil.ignore_patterns("runs", "__pycache__"))
    p = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
