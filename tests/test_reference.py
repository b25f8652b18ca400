"""The per-sample reference implementations live in ``mistsim.reference``.

Their one import path is ``mistsim.reference``.  No command and no product
path imports that module.  The names the benchmark's tracing wraps on
``cli``, ``engine``, ``report`` and ``mist_filter`` are still found there,
through a module ``__getattr__`` that imports ``mistsim.reference`` on first
lookup; every other module lacks every moved name, as any module lacks a
name it never had.
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
    "mistsim.mist_filter": "EventFilter",
    "mistsim.cli": "build_log error_report reconstruct_zoh",
    "mistsim.engine": "build_log error_report reconstruct_zoh",
    "mistsim.report": "reconstruct_zoh",
}
ALL_MOVED = (
    "EventFilter Reason Sample TransmitDecision TransmissionLog build_log error_report "
    "reconstruct_zoh SplitMix64"
).split()
# The modules whose hooks are gone, and the hooked ones.
MODULES = ["mistsim", "mistsim.reconstruction", "mistsim.rng", *MOVED]


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
        for module in MODULES
        # A name that moved from another module is not found here either.
        for name in ["no_such_name", "__wrapped__", *sorted(ALL_MOVED)]
        if name not in MOVED.get(module, "").split()
    ],
)
def test_any_other_missing_name_is_missing(module, name):
    with pytest.raises(AttributeError) as raised:
        getattr(importlib.import_module(module), name)
    assert str(raised.value) == f"module {module!r} has no attribute {name!r}"


def test_a_probe_for_a_missing_name_imports_nothing():
    code = (
        "import sys, importlib\n"
        f"modules = [importlib.import_module(m) for m in {MODULES!r}]\n"
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


def test_a_rejected_stream_leaves_the_reference_unloaded(tmp_path):
    # check_stream and window_averages name the first failure themselves,
    # with step's message, and a command that exits 2 on it loads nothing
    # more.
    csv = tmp_path / "huge.csv"
    csv.write_text("timestamp,value\n0,1e308\n1,1e308\n2,1.0\n", encoding="utf-8")
    filter_ = ["filter", "--dataset", str(csv), "--n", "2", "--out", str(tmp_path / "out")]
    code = (
        "import sys\n"
        "from array import array\n"
        "from mistsim import cli\n"
        "from mistsim.mist_filter import Stream, check_stream, window_averages\n"
        "check_stream(Stream(array('d', [0.0, 1.0]), array('d', [1.0, 2.0])))\n"
        "for call in (\n"
        "    lambda: check_stream(Stream(array('d', [1.0, 0.0]), array('d', [1.0, 2.0]))),\n"
        "    lambda: window_averages(Stream(array('d', [0.0, 1.0]), array('d', [1e308, 1e308])), 2),\n"
        "):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
        f"print(cli.main({filter_!r}))\n"
        "print('mistsim.reference' in sys.modules)\n"
    )
    assert _python_stdout(code) == (
        "out-of-order sample: timestamp 0.0 does not exceed 1.0\n"
        "window average overflowed to inf at timestamp 1.0; the sum of the last n values exceeds the float range\n"
        "2\n"
        "False\n"
    )
