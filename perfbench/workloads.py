"""The benchmark's three workloads and the inputs each one builds from a seed.

Every workload is one ``mistsim`` command line.  The seed reaches the program
only through that command line or through a config file written here, into a
scratch directory the caller owns.  ``scale`` shrinks the inputs for the
harness self-test; runs from ``run.py`` always use ``scale = 1``.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Callable

TABLE2 = "table2.cfg"
OFFICE_CSV = "tests/data/office_temperature.csv"

# sensor-bank shape: about as many raw samples as table2 (50,000 against
# 60,000), spread over many sensors, so per-sensor costs dominate instead of
# per-sample ones.
BANK_SENSORS = 1000
BANK_GATEWAYS = 20
BANK_SAMPLES_PER_SENSOR = 50

# filter-sweep grid: three window sizes by three band fractions.
SWEEP_N = "5,10,50"
SWEEP_P = "0.01,0.05,0.1"


def _table2_argv(root: Path, scratch: Path, seed: int, scale: float) -> list[str]:
    config = TABLE2
    if scale != 1:
        count = max(20, round(10_000 * scale))
        text = (root / TABLE2).read_text(encoding="utf-8")
        config = str(scratch / "table2-small.cfg")
        Path(config).write_text(text.replace("count = 10000", f"count = {count}"), encoding="utf-8")
    return ["simulate", "--config", config, "--seed", str(seed)]


def bank_config(seed: int, sensors: int) -> str:
    """INI text for a two-level tree of ``sensors`` sensors under the gateways.

    Link latencies, means and standard deviations are drawn from ``seed``;
    the sensor and gateway counts are fixed by the caller.
    """
    rng = random.Random(seed)
    lines = [
        "[run]",
        f"seed = {seed}",
        f"duration_ms = {BANK_SAMPLES_PER_SENSOR * 1000}",
        "",
        "[filter]",
        "n = 10",
        "p = 0.05",
        "",
        "[device cloud]",
        "kind = cloud",
        "",
    ]
    gateways = [f"gw{g:02d}" for g in range(BANK_GATEWAYS)]
    names = [f"s{s:04d}" for s in range(sensors)]
    for gw in gateways:
        lines += [f"[device {gw}]", "kind = gateway", ""]
    for name in names:
        lines += [f"[device {name}]", "kind = sensor", ""]
    for gw in gateways:
        lines += [f"[link {gw} cloud]", f"latency_ms = {rng.randint(20, 80)}", ""]
    for i, name in enumerate(names):
        gw = gateways[i % BANK_GATEWAYS]
        lines += [f"[link {name} {gw}]", f"latency_ms = {rng.randint(1, 20)}", ""]
    for name in names:
        lines += [
            f"[source {name}]",
            "kind = normal",
            f"mean = {rng.uniform(15.0, 35.0):.3f}",
            f"stddev = {rng.uniform(0.5, 8.0):.3f}",
            "period_ms = 1000",
            f"count = {BANK_SAMPLES_PER_SENSOR}",
            "",
        ]
    return "\n".join(lines)


def _bank_argv(root: Path, scratch: Path, seed: int, scale: float) -> list[str]:
    sensors = max(BANK_GATEWAYS, round(BANK_SENSORS * scale))
    config = scratch / "sensor-bank.cfg"
    config.write_text(bank_config(seed, sensors), encoding="utf-8")
    return ["simulate", "--config", str(config)]


def sweep_config(root: Path, scale: float) -> str:
    """INI text: table2's six normal sources plus the office replay trace."""
    text = (root / TABLE2).read_text(encoding="utf-8")
    sources = text[text.index("[source S1]"):]
    if scale != 1:
        sources = sources.replace("count = 10000", f"count = {max(60, round(10_000 * scale))}")
    return (
        "[run]\nplot_data = true\n\n"
        f"[filter]\nn = {SWEEP_N}\np = {SWEEP_P}\n\n"
        f"{sources}\n"
        "[source office_temperature]\nkind = replay\n"
        f"file = {OFFICE_CSV}\nvalue_column = temp_c\n"
    )


def _sweep_argv(root: Path, scratch: Path, seed: int, scale: float) -> list[str]:
    config = scratch / "filter-sweep.cfg"
    config.write_text(sweep_config(root, scale), encoding="utf-8")
    return ["filter", "--config", str(config), "--seed", str(seed)]


# name -> (repo root, scratch dir, seed, scale) -> CLI arguments without --out.
# BENCHMARK.json and README.md say why each workload exists.
WORKLOADS: dict[str, Callable[[Path, Path, int, float], list[str]]] = {
    "table2-simulate": _table2_argv,
    "sensor-bank": _bank_argv,
    "filter-sweep": _sweep_argv,
}
