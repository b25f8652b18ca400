"""Smoke test for the helper script, so an API change cannot break it silently."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_office_fixture_regenerates_byte_identical(tmp_path, office_csv_path):
    spec = importlib.util.spec_from_file_location(
        "make_office_fixture", SCRIPTS / "make_office_fixture.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.OUT = tmp_path / "office_temperature.csv"
    module.main()
    assert module.OUT.read_bytes() == office_csv_path.read_bytes()
