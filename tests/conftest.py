from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = Path(__file__).resolve().parent / "data"

# Make the sibling oracles module importable regardless of rootdir layout.
sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture(scope="session")
def table2_cfg_path() -> Path:
    return REPO_ROOT / "table2.cfg"


@pytest.fixture(scope="session")
def office_csv_path() -> Path:
    return DATA_DIR / "office_temperature.csv"


@pytest.fixture(autouse=True)
def no_child_process_left():
    """After every test, this process has no child left: every worker it
    forked, and every subprocess it started, was reaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
