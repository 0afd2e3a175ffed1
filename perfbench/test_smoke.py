"""Smoke runs of every workload at tiny size.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    report_line, result_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], json.loads(report_line)["report"]["check_errors"]
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    machine = json.loads(report_line)["report"]["machine"]
    assert machine["threads_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert machine["threads_env"]["REACHCTL_THREADS"] is None


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "synth2d", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
