"""Event-triggered telemetry filtering and a deterministic mist/fog/cloud simulator.

The package has three layers:

* ``mist_filter`` and ``reconstruction``: the dead-band filter a sensor runs
  on its own readings, plus zero-order-hold reconstruction and the error and
  reduction accounting used to judge it.
* ``topology``, ``engine``, ``sources``: a small device graph, a deterministic
  engine that computes each run's network and energy metrics in closed form
  per sensor, and reproducible sample streams (synthetic or replayed from
  CSV).
* ``config``, ``report``, ``cli``: the flat config format, byte-stable report
  writing, and the ``mistsim`` command line front end.

``reference`` holds the per-sample implementations the kernels must match
(``EventFilter``, ``SplitMix64``, ...), and they are imported from there.
No command and no product path imports it, so a run compiles less.  Only the
names the benchmark's tracing wraps on ``cli``, ``engine``, ``report`` and
``mist_filter`` still resolve there, through :func:`_reference_names`.
"""


def _reference_names(module: str, names: str):
    """A module ``__getattr__`` (PEP 562) finding ``names`` in :mod:`mistsim.reference`."""

    def __getattr__(name: str):
        if name in names.split():
            from . import reference
            return getattr(reference, name)
        raise AttributeError(f"module {module!r} has no attribute {name!r}")
    return __getattr__


# The submodules import _reference_names, so they load after it.
from .mist_filter import FilterConfig, Stream, check_stream
from .reconstruction import ErrorReport, Measurement, measure_grid
from .rng import derive_seed
from .sources import IngestReport, ReplaySpec, SensorSpec, gen_normal, load_csv
from .topology import Device, Link, Topology, validate
from .engine import EnergyModel, EnergyParams, Mode, RunMetrics, account_energy, compare, run, simulate
from .config import ConfigError, Scenario, load_config, parse_config, serialize_scenario

__version__ = "0.1.0"

__all__ = [
    "FilterConfig",
    "Stream",
    "check_stream",
    "ErrorReport",
    "Measurement",
    "measure_grid",
    "derive_seed",
    "IngestReport",
    "ReplaySpec",
    "SensorSpec",
    "gen_normal",
    "load_csv",
    "Device",
    "Link",
    "Topology",
    "validate",
    "EnergyModel",
    "EnergyParams",
    "Mode",
    "RunMetrics",
    "account_energy",
    "compare",
    "run",
    "simulate",
    "ConfigError",
    "Scenario",
    "load_config",
    "parse_config",
    "serialize_scenario",
    "__version__",
]
