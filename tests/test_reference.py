"""The per-sample reference implementations live in ``mistsim.reference``.

No command imports that module.  Every name that moved there is still
reachable at its old path, through a module ``__getattr__`` that imports
``mistsim.reference`` on first lookup; any other missing name is missing
as before.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mistsim import reference

REPO_ROOT = Path(__file__).resolve().parent.parent

# Each module with a hook, and the names it finds in mistsim.reference.
MOVED = {
    "mistsim": "EventFilter Reason Sample TransmitDecision TransmissionLog build_log error_report "
    "reconstruct_zoh SplitMix64",
    "mistsim.mist_filter": "EventFilter Reason Sample TransmitDecision",
    "mistsim.reconstruction": "TransmissionLog build_log error_report reconstruct_zoh",
    "mistsim.rng": "SplitMix64",
    "mistsim.cli": "build_log error_report reconstruct_zoh",
    "mistsim.engine": "build_log error_report reconstruct_zoh",
    "mistsim.report": "reconstruct_zoh",
}
ALL_MOVED = MOVED["mistsim"].split()


def _python_stdout(code: str) -> str:
    """The stdout of ``code`` run by a new interpreter in the repo root."""
    path = [str(REPO_ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=REPO_ROOT, env=env, capture_output=True, text=True, check=True
    )
    return out.stdout


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in MOVED.items() for name in names.split()]
)
def test_each_old_path_is_the_reference_object(module, name):
    moved = getattr(reference, name)
    assert getattr(importlib.import_module(module), name) is moved
    namespace: dict = {}
    exec(f"from {module} import {name}", namespace)
    assert namespace[name] is moved


@pytest.mark.parametrize(
    "module, name",
    [
        (module, name)
        for module, names in MOVED.items()
        # A name that moved from another module is not found here either.
        for name in ["no_such_name", "__wrapped__", *sorted(set(ALL_MOVED) - set(names.split()))]
    ],
)
def test_any_other_missing_name_is_missing(module, name):
    with pytest.raises(AttributeError) as raised:
        getattr(importlib.import_module(module), name)
    assert str(raised.value) == f"module {module!r} has no attribute {name!r}"


def test_a_probe_for_a_missing_name_imports_nothing():
    code = (
        "import sys, importlib\n"
        f"modules = [importlib.import_module(m) for m in {list(MOVED)!r}]\n"
        "before = set(sys.modules)\n"
        "names = ('__wrapped__', 'no_such_name', 'step')\n"
        "probes = [hasattr(m, name) for m in modules for name in names]\n"
        "print(any(probes), sorted(set(sys.modules) - before))\n"
    )
    assert _python_stdout(code) == "False []\n"


def test_the_commands_run_without_the_reference(tmp_path):
    # A cold start compiles and builds only what the commands run: after a
    # simulate and a filter run, the reference module was never imported
    # and no hooked name was looked up.
    simulate = ["simulate", "--config", "table2.cfg", "--out", str(tmp_path / "sim")]
    office = ["--dataset", "tests/data/office_temperature.csv", "--column", "temp_c"]
    filter_ = ["filter", *office, "--out", str(tmp_path / "filter")]
    code = (
        "import sys\n"
        "from mistsim import cli, mist_filter\n"
        f"assert cli.main({simulate!r}) == 0\n"
        f"assert cli.main({filter_!r}) == 0\n"
        "print('mistsim.reference' in sys.modules, 'EventFilter' in vars(mist_filter))\n"
    )
    assert _python_stdout(code).splitlines()[-1] == "False False"


def test_only_a_rejected_stream_loads_the_reference():
    code = (
        "import sys\n"
        "from array import array\n"
        "from mistsim.mist_filter import Stream, check_stream\n"
        "check_stream(Stream(array('d', [0.0, 1.0]), array('d', [1.0, 2.0])))\n"
        "print('mistsim.reference' in sys.modules)\n"
        "try:\n"
        "    check_stream(Stream(array('d', [1.0, 0.0]), array('d', [1.0, 2.0])))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "print('mistsim.reference' in sys.modules)\n"
    )
    assert _python_stdout(code) == (
        "False\nout-of-order sample: timestamp 0.0 does not exceed 1.0\nTrue\n"
    )
