"""Output checks for one ``mistsim`` invocation, with oracles of their own.

Nothing here imports ``mistsim``.  The streams are regenerated from the
report's config echo with the pinned splitmix64 + Box-Muller recipe (see
``docs/config_format.md``), the office trace is re-read with ``csv``, and
every transmitted count is recomputed with a brute-force dead band that
rebuilds each window mean from a slice.  Each check returns a list of
readable problems; an empty list means the report passed.
"""

from __future__ import annotations

import configparser
import csv
import math
from pathlib import Path

_MASK64 = (1 << 64) - 1


def normal_stream(seed: int, mean: float, stddev: float, count: int) -> list[float]:
    """``count`` values of ``mean + stddev * z`` from the pinned recipe."""
    state = seed & _MASK64
    out: list[float] = []
    while len(out) < count:
        units = []
        for _ in range(2):
            state = (state + 0x9E3779B97F4A7C15) & _MASK64
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            z ^= z >> 31
            units.append(((z >> 11) + 1) * 2.0**-53)
        r = math.sqrt(-2.0 * math.log(units[0]))
        theta = 2.0 * math.pi * units[1]
        out.append(mean + stddev * (r * math.cos(theta)))
        out.append(mean + stddev * (r * math.sin(theta)))
    return out[:count]


def transmitted_count(values: list[float], n: int, p: float) -> int:
    """Dead-band transmissions: warm-up, then values on or outside the band."""
    sent = min(n, len(values))
    for i in range(n, len(values)):
        avg = sum(values[i - n : i]) / n
        band = p * abs(avg)
        v = values[i]
        if v >= avg + band or v <= avg - band:
            sent += 1
    return sent


def _csv_values(root: Path, section: configparser.SectionProxy) -> list[float]:
    delimiter = "\t" if section["delimiter"] == "\\t" else section["delimiter"]
    with open(root / section["file"], newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle, delimiter=delimiter))
    return [float(row[section["value_column"]]) for row in rows]


def _echo(report: dict) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_string(report["config_echo"])
    return parser


def _streams(root: Path, echo: configparser.ConfigParser) -> dict[str, list[float]]:
    """Raw values per source, inside the run horizon when one is set."""
    horizon = echo["run"].getfloat("duration_ms", math.inf)
    streams = {}
    for name in echo.sections():
        if not name.startswith("source "):
            continue
        sec = echo[name]
        if sec["kind"] == "replay":
            values = _csv_values(root, sec)
        else:
            count = sec.getint("count")
            period = sec.getfloat("period_ms")
            kept = sum(1 for k in range(count) if k * period < horizon)
            values = normal_stream(
                sec.getint("seed"), sec.getfloat("mean"), sec.getfloat("stddev"), count
            )[:kept]
        streams[name.split()[1]] = values
    return streams


def check_simulate(report: dict, root: Path) -> list[str]:
    """Conservation laws per mode plus per-sensor counts from the oracle."""
    problems: list[str] = []
    echo = _echo(report)
    streams = _streams(root, echo)
    n = int(echo["filter"]["n"])
    p = float(echo["filter"]["p"])
    size = echo["run"].getint("message_size_bytes")
    cloud = next(
        s.split()[1]
        for s in echo.sections()
        if s.startswith("device ") and echo[s]["kind"] == "cloud"
    )
    expected_modes = ["cloud_only", "mist_fog_cloud"]
    if sorted(report["runs"]) != expected_modes:
        problems.append(f"modes run {sorted(report['runs'])}, expected {expected_modes}")
    for mode, run in sorted(report["runs"].items()):
        net = run["network"]
        sensors = run["sensors"]
        if net["messages_delivered"] != 2 * net["messages_emitted"]:
            problems.append(
                f"{mode}: {net['messages_delivered']} delivered, "
                f"expected 2 x {net['messages_emitted']} emitted"
            )
        sent = sum(s["transmitted"] for s in sensors.values())
        received = run["devices"][cloud]["messages"]
        if received != sent:
            problems.append(f"{mode}: cloud received {received}, sensors sent {sent}")
        if net["messages_emitted"] != sent:
            problems.append(f"{mode}: {net['messages_emitted']} emitted, sensors sent {sent}")
        for link, usage in sorted(run["links"].items()):
            if usage["bytes"] != usage["messages"] * size:
                problems.append(
                    f"{mode}: link {link} carries {usage['bytes']} bytes "
                    f"for {usage['messages']} messages"
                )
        if sorted(sensors) != sorted(streams):
            problems.append(f"{mode}: sensors {sorted(sensors)} differ from the sources")
            continue
        for sensor_id, values in streams.items():
            got = sensors[sensor_id]
            want = len(values) if mode == "cloud_only" else transmitted_count(values, n, p)
            if got["total"] != len(values) or got["transmitted"] != want:
                problems.append(
                    f"{mode}: sensor {sensor_id} reports {got['transmitted']}/{got['total']} "
                    f"transmitted, oracle gives {want}/{len(values)}"
                )
    return problems


def check_filter(report: dict, root: Path, out_dir: Path) -> list[str]:
    """Per-grid-point counts from the oracle, ingest accounting, plot files."""
    problems: list[str] = []
    streams = _streams(root, _echo(report))
    for sensor_id, ingest in sorted(report.get("ingest", {}).items()):
        if ingest["rows_read"] != ingest["samples"] + ingest["rows_skipped"]:
            problems.append(f"ingest {sensor_id}: rows_read != samples + rows_skipped")
        read = len(streams[sensor_id])
        if ingest["samples"] != read:
            problems.append(f"ingest {sensor_id}: {ingest['samples']} samples, oracle read {read}")
    for block in report["runs"]:
        n, p = block["n"], block["p"]
        if sorted(block["sensors"]) != sorted(streams):
            problems.append(f"n={n} p={p}: sensors {sorted(block['sensors'])} differ from sources")
            continue
        for sensor_id, values in streams.items():
            got = block["sensors"][sensor_id]
            want = transmitted_count(values, n, p)
            counts = (got["total"], got["transmitted"], got["suppressed"])
            if counts != (len(values), want, len(values) - want):
                problems.append(
                    f"n={n} p={p}: sensor {sensor_id} reports {got['transmitted']}/{got['total']} "
                    f"transmitted, oracle gives {want}/{len(values)}"
                )
    plots = len(list(out_dir.glob("plot_*.csv")))
    if plots != len(report["runs"]) * len(streams):
        problems.append(f"{plots} plot files, expected {len(report['runs']) * len(streams)}")
    return problems


def check_report(report: dict, root: Path, out_dir: Path) -> list[str]:
    if report.get("command") == "simulate":
        return check_simulate(report, root)
    if report.get("command") == "filter":
        return check_filter(report, root, out_dir)
    return [f"unknown report command {report.get('command')!r}"]
