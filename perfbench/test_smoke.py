"""Smoke tests of the benchmark itself: every workload at minimal size.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_benchmark(*args, cwd=ROOT, root=ROOT):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
def test_workload_reports_every_metric_and_passes_its_check(workload, trace):
    done = run_benchmark("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in declared}
    for entry in declared:
        value = result["metrics"][entry["name"]]["value"]
        assert isinstance(value, (int, float))
        if not trace:
            assert value > 0, entry["name"]


def session_members(sid):
    """Pids of the live or zombie processes in session ``sid``."""
    members = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text(encoding="ascii")
        except (OSError, ValueError):
            continue
        if int(stat.rpartition(")")[2].split()[3]) == sid:
            members.append(int(entry.name))
    return members


@pytest.mark.parametrize("trace", [0, 1])
def test_leaves_no_process_behind(trace):
    # table1-lanes is the workload whose shm plane starts a resource tracker.
    bench = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "table1-lanes",
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    assert bench.wait(timeout=300) == 0
    assert session_members(bench.pid) == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark("--workload", "table1-serial", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path, root=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
