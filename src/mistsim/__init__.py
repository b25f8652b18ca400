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
"""

from .mist_filter import (
    EventFilter,
    FilterConfig,
    Reason,
    Sample,
    Stream,
    TransmitDecision,
    check_stream,
)
from .reconstruction import (
    ErrorReport,
    Measurement,
    TransmissionLog,
    build_log,
    error_report,
    measure_grid,
    reconstruct_zoh,
)
from .rng import SplitMix64, derive_seed
from .sources import (
    IngestReport,
    ReplaySpec,
    SensorSpec,
    gen_normal,
    load_csv,
)
from .topology import Device, Link, Topology, validate
from .engine import (
    EnergyModel,
    EnergyParams,
    Mode,
    RunMetrics,
    account_energy,
    compare,
    run,
    simulate,
)
from .config import ConfigError, Scenario, load_config, parse_config, serialize_scenario

__version__ = "0.1.0"

__all__ = [
    "EventFilter",
    "FilterConfig",
    "Reason",
    "Sample",
    "Stream",
    "TransmitDecision",
    "check_stream",
    "ErrorReport",
    "Measurement",
    "TransmissionLog",
    "build_log",
    "error_report",
    "measure_grid",
    "reconstruct_zoh",
    "SplitMix64",
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
