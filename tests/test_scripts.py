"""Smoke tests for the helper scripts, so an API change cannot break them silently."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_table2_comparison_runs():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_table2_comparison.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "cloud-only baseline" in proc.stdout


def test_office_fixture_regenerates_byte_identical(tmp_path, office_csv_path):
    spec = importlib.util.spec_from_file_location(
        "make_office_fixture", SCRIPTS / "make_office_fixture.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.OUT = tmp_path / "office_temperature.csv"
    module.main()
    assert module.OUT.read_bytes() == office_csv_path.read_bytes()
