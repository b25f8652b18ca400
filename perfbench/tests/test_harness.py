"""Self-test of the benchmark harness at tiny input sizes.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = 0.01


def test_contract_names_the_harness_workloads():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_and_nothing_fails(name, trace):
    result = run.run_workload(name, seed=5, seconds=0, trace=trace, scale=TINY)
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: m["unit"] for k, m in result["metrics"].items()
    }
    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] >= 2


def _reference_report(name: str, scratch: Path) -> dict:
    inv = run.Invoker(name, 5, scratch, TINY)
    inv.invoke("run")
    assert inv.failed == 0
    return json.loads(inv.reference)


@pytest.mark.parametrize("name", ["table2-simulate", "filter-sweep"])
def test_checker_flags_a_changed_transmitted_count(name, tmp_path):
    report = _reference_report(name, tmp_path)
    runs = report["runs"]
    block = runs["mist_fog_cloud"] if isinstance(runs, dict) else runs[0]
    block["sensors"]["S1"]["transmitted"] += 1
    problems = checks.check_report(report, run.ROOT, tmp_path)
    assert any("sensor S1" in p for p in problems), problems


def test_checker_flags_broken_conservation(tmp_path):
    report = _reference_report("sensor-bank", tmp_path)
    report["runs"]["cloud_only"]["network"]["messages_delivered"] -= 1
    problems = checks.check_report(report, run.ROOT, tmp_path)
    assert len(problems) == 1 and "delivered" in problems[0], problems


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "table2-simulate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
