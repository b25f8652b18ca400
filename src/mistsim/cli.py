"""Command line front end.

Two subcommands mirror the two experiments:

* ``mistsim filter``    run streams through the dead-band filter and report
  reduction and reconstruction error per sensor (optionally sweeping n, p).
* ``mistsim simulate``  run the discrete-event simulation, by default both
  with and without filtering on the same seed, and report the network and
  energy reduction.

Exit codes: 0 success, 1 usage or config error, 2 runtime error, 3 a
``--assert`` gate failed.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections.abc import Mapping
from pathlib import Path
from typing import Optional, Sequence

from . import __version__, _reference_names
from .config import MODES, ConfigError, Overrides, Scenario, load_config, parse_config, serialize_scenario
from .engine import Mode, compare, fork_map, measure_stream, simulate
from .mist_filter import Stream
from .report import check_assertion, emit_report, parse_assertion
from .sources import ReplaySpec, SensorSpec, gen_normal, load_csv
from .topology import TopologyError
# Unused here; perfbench/tracing.py wraps these names on this module.
from .engine import run  # noqa: F401
__getattr__ = _reference_names(__name__, "build_log error_report reconstruct_zoh")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here is 1.
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mistsim", description=__doc__, add_help=True)
    parser.add_argument("--version", action="version", version=f"mistsim {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="{filter,simulate}")
    sub.required = True

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH", help="scenario config file")
        p.add_argument("--out", metavar="DIR", default="out", help="output directory (default: out)")
        p.add_argument("--seed", type=int, metavar="U64", help="override the run seed")
        p.add_argument("--n", metavar="N[,N...]", help="override window size(s)")
        p.add_argument("--p", metavar="P[,P...]", help="override band fraction(s)")
        p.add_argument("--quiet", action="store_true", help="suppress the stdout summary")
        p.add_argument(
            "--assert",
            dest="assertions",
            action="append",
            metavar="EXPR",
            default=[],
            help="gate on a report field, e.g. 'runs.0.sensors.S1.reduction_percent >= 99'; "
            "repeatable, any failure exits 3",
        )

    f = sub.add_parser("filter", help="dead-band filter an input stream and measure it")
    common(f)
    f.add_argument("--dataset", metavar="PATH", help="CSV file to replay instead of configured sources")
    f.add_argument("--column", metavar="NAME", help="value column for --dataset (default: value)")

    s = sub.add_parser("simulate", help="run the discrete-event comparison")
    common(s)
    s.add_argument(
        "--mode",
        choices=MODES,
        help="which pipeline(s) to simulate (default: both)",
    )
    return parser


def _load_scenario(args, command: str) -> Scenario:
    replace_sources = None
    if command == "filter" and args.dataset:
        dataset = Path(args.dataset)
        replace_sources = (
            ReplaySpec(
                device_id=re.sub(r'[\s,"]+', "_", dataset.stem) or "dataset",
                path=args.dataset,
                value_column="value" if args.column is None else args.column,
            ),
        )
    elif getattr(args, "column", None) is not None:
        raise UsageError("--column requires --dataset")

    overrides = Overrides(
        seed=args.seed,
        n_text=args.n,
        p_text=args.p,
        mode=getattr(args, "mode", None),
        plot_data_default=(command == "filter"),
        replace_sources=replace_sources,
    )
    if args.config:
        return load_config(args.config, overrides)
    if replace_sources is not None:
        return parse_config("[run]\n", origin="<builtin>", overrides=overrides)
    if command == "filter":
        raise UsageError("filter needs --config or --dataset")
    raise UsageError("simulate needs --config")


def _check_out(out: str) -> None:
    """Reject an ``--out`` that cannot be made a directory, before any work."""
    for path in (Path(out), *Path(out).parents):
        if path.exists() or path.is_symlink():
            if not path.is_dir():
                raise UsageError(f"--out {out}: {path} exists and is not a directory")
            return


class _LazyStreams(Mapping):
    """Each source's stream, generated or replayed only when looked up.

    Keys, ``len`` and iteration load nothing.  A lookup records a replay
    source's ingest block, which :meth:`note` hands over; the caller holds
    the only reference to the stream itself.  With ``duration_ms``, a source
    that starts at or past it is rejected.
    """

    def __init__(self, scenario: Scenario, duration_ms: Optional[float]) -> None:
        self._specs = {spec.device_id: spec for spec in scenario.sources}
        self._duration_ms = duration_ms
        self._plot = scenario.plot_data
        self._ingest: dict[str, dict] = {}

    def __getitem__(self, source_id: str) -> Stream:
        spec = self._specs[source_id]
        if isinstance(spec, SensorSpec):
            stream = gen_normal(spec)
        else:
            stream, rep = load_csv(spec)
            self._ingest[source_id] = rep._asdict()
        # The engine would drop every sample and report an empty run.
        duration_ms = self._duration_ms
        if duration_ms is not None and stream and stream.timestamps[0] >= duration_ms:
            raise ValueError(
                f"source {source_id!r} starts at timestamp {stream.timestamps[0]!r}, at or "
                f"past duration_ms = {duration_ms!r}, so every sample would be "
                "dropped; replay timestamps are epoch seconds, while the run counts "
                "milliseconds from 0"
            )
        return stream

    def note(self, source_id: str, kept: Stream) -> tuple[Optional[dict], Optional[tuple]]:
        """``(ingest block, plot columns)`` of a measured source: the block
        this process's lookup of ``source_id`` recorded, removed (``None``
        for a synthetic source), and, with plots on, ``kept``'s two columns
        (``None`` otherwise)."""
        columns = (kept.timestamps, kept.values) if self._plot else None
        return self._ingest.pop(source_id, None), columns

    def __contains__(self, source_id) -> bool:
        return source_id in self._specs

    def __iter__(self):
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)


# sensor_metrics.csv columns taken from each sensor's report block.
_SENSOR_COLUMNS = (
    "total", "transmitted", "suppressed", "reduction_percent", "avg_abs_error", "max_abs_error"
)
_SENSOR_HEADER_FILTER = ("n", "p", "sensor", *_SENSOR_COLUMNS)


def _cmd_filter(args) -> tuple[dict, list, list[str]]:
    """Filter and measure each source over the whole grid, each on its own.

    Each source goes through :func:`mistsim.engine.measure_stream`, the
    step ``simulate`` uses, with no horizon, spread by
    :func:`mistsim.engine.fork_map` over the CPUs the process may run on.
    Each process holds one source's stream at a time and keeps only its
    report blocks and, with plots on, its flags and the stream's two
    columns.  The first source, in declaration order, that fails to load,
    check or measure raises, and nothing is written.
    """
    scenario = _load_scenario(args, "filter")
    if not scenario.sources:
        raise ConfigError("no sources configured; add [source <id>] sections or pass --dataset")
    grid = scenario.grid
    keep = scenario.plot_data
    streams = _LazyStreams(scenario, None)

    def measure(s: str) -> tuple:
        """``((ingest block, plot columns), blocks)`` of source ``s``,
        ``blocks`` being ``[(report block, flags)]`` per grid point."""
        kept, measured = measure_stream(s, streams, grid, None, "source")
        blocks = [(m.report.to_dict(), m.flags if keep else None) for m in measured]
        return streams.note(s, kept), blocks

    ids = [spec.device_id for spec in scenario.sources]
    results = list(fork_map(measure, ids))

    runs = []
    sensor_rows = []
    plot_series: dict = {}
    for k, cfg in enumerate(grid):
        sensors = {}
        for source_id, ((_, columns), measured) in zip(ids, results):
            block, flags = measured[k]
            sensors[source_id] = block
            sensor_rows.append((cfg.n, cfg.p, source_id, *(block[c] for c in _SENSOR_COLUMNS)))
            if keep:
                plot_series[f"plot_{source_id}_n{cfg.n}_p{cfg.p!r}"] = (*columns, flags)
        runs.append({"n": cfg.n, "p": cfg.p, "sensors": sensors})

    notes = {source_id: noted for source_id, (noted, _) in zip(ids, results)}
    report, written = _write(
        args.out, scenario, "filter", {"runs": runs}, notes,
        sensor_rows=sensor_rows,
        sensor_header=_SENSOR_HEADER_FILTER,
        plot_series=plot_series,
    )
    return report, written, _summarise_filter(report)


_SENSOR_HEADER_SIM = ("mode", "sensor", *_SENSOR_COLUMNS)


def _cmd_simulate(args) -> tuple[dict, list, list[str]]:
    scenario = _load_scenario(args, "simulate")
    if scenario.duration_ms is None:
        raise ConfigError(
            "duration_ms is required in [run] (it is derived only when every source "
            "is synthetic and the largest count * period_ms is > 0)"
        )
    sensor_ids = [d.id for d in scenario.topology.sensors()]
    source_ids = [s.device_id for s in scenario.sources]
    missing = sorted(set(sensor_ids) - set(source_ids))
    if missing:
        raise ConfigError(f"sensors without a [source] section: {missing}")
    extra = sorted(set(source_ids) - set(sensor_ids))
    if extra:
        raise ConfigError(f"sources for devices that are not sensors: {extra}")

    streams = _LazyStreams(scenario, scenario.duration_ms)

    # The cloud-only baseline first, then one filtered run per grid point.
    configs: list = [] if scenario.mode == Mode.MIST_FOG_CLOUD else [None]
    if scenario.mode != Mode.CLOUD_ONLY:
        configs += scenario.grid
    # The engine checks the topology before it fetches any stream.  Forked
    # workers fetch the streams: each source's ingest block and plot
    # columns come back as the note on its sensor.
    results = simulate(
        scenario.topology, streams, configs, scenario.energy, scenario.duration_ms,
        message_size_bytes=scenario.message_size_bytes, seed=scenario.seed,
        note=streams.note,
    )
    notes = results[0].notes

    # In a sweep, each filtered run carries its grid point: as leading keys
    # of its run block and comparison row, and as the label suffix of its
    # CSV rows and plot files.
    sweep = len(scenario.grid) > 1
    points = [{"n": cfg.n, "p": cfg.p} if cfg is not None and sweep else {} for cfg in configs]
    suffixes = [f"_n{pt['n']}_p{pt['p']!r}" if pt else "" for pt in points]
    blocks = [metrics.to_dict() for metrics in results]
    runs: dict = {}
    for metrics, point, block in zip(results, points, blocks):
        if point:
            runs.setdefault(metrics.mode, []).append({**point, **block})
        else:
            runs[metrics.mode] = block
    body = {"modes_run": list(runs), "runs": runs}
    # Every filtered run against the cloud-only baseline, when that ran.
    comparisons = [
        {**point, **compare(results[0], metrics)}
        for point, metrics in zip(points[1:], results[1:])
        if configs[0] is None
    ]
    if comparisons:
        body["comparison"] = comparisons if sweep else comparisons[0]

    sensor_rows = []
    link_rows = []
    plot_series: dict = {}
    # Plot the filtered runs when they ran; cloud-only transmits every sample.
    # A plot covers only the samples the runs kept, those before the horizon.
    plotted = results[-1].mode
    for metrics, suffix, block in zip(results, suffixes, blocks):
        label = metrics.mode + suffix
        for sensor_id, stats in sorted(block["sensors"].items()):
            sensor_rows.append((label, sensor_id, *(stats[k] for k in _SENSOR_COLUMNS)))
        for link_name in sorted(metrics.link_usage):
            usage = metrics.link_usage[link_name]
            link_rows.append((label, link_name, usage["messages"], usage["bytes"], usage["byte_ms"]))
        if scenario.plot_data and metrics.mode == plotted:
            for sensor_id, flags in metrics.flags.items():
                plot_series[f"plot_{sensor_id}{suffix}"] = (*notes[sensor_id][1], flags)

    report, written = _write(
        args.out, scenario, "simulate", body, notes,
        sensor_rows=sensor_rows,
        sensor_header=_SENSOR_HEADER_SIM,
        link_rows=link_rows,
        plot_series=plot_series,
    )
    return report, written, _summarise_simulate(results, suffixes, comparisons, sweep)


def _write(
    out: str, scenario: Scenario, command: str, body: dict, notes: Mapping, **tables
) -> tuple[dict, list]:
    """``(report, written paths)`` of ``command``: the report is the header
    both commands share, then ``body``, then the ingest block of each
    replayed source, ``notes`` mapping each source id to its ``(ingest
    block, plot columns)``.  :func:`emit_report` writes it to ``out`` with
    its side ``tables``, and then ``resolved.cfg`` gets the scenario it
    echoes."""
    report = {
        "tool": {"name": "mistsim", "version": __version__},
        "command": command,
        "seed": scenario.seed,
        "config_echo": serialize_scenario(scenario),
        **body,
    }
    ingest = {source_id: block for source_id, (block, _) in notes.items() if block is not None}
    if ingest:
        report["ingest"] = ingest
    written = emit_report(report, out, **tables)
    echo = Path(out) / "resolved.cfg"
    echo.write_text(report["config_echo"], encoding="utf-8")
    return report, [*written, echo]


def _summarise_filter(report: dict) -> list[str]:
    lines = []
    for block in report["runs"]:
        for sensor_id, stats in sorted(block["sensors"].items()):
            lines.append(
                f"n={block['n']} p={block['p']} {sensor_id}: "
                f"{stats['transmitted']}/{stats['total']} transmitted, "
                f"reduction {stats['reduction_percent']:.2f}%, "
                f"avg error {stats['avg_abs_error']:.4f}"
            )
    return lines


def _summarise_simulate(
    results: list, suffixes: list[str], comparisons: list[dict], sweep: bool
) -> list[str]:
    """One line per run, then the comparison; a sweep appends each grid
    point's reductions to its run's line instead."""
    keys = ("network_total_bytes", "cloud_energy_j")

    def pct(row: dict) -> str:
        value = row["reduction_percent"]
        return "n/a" if value is None else f"{value:.3f}%"

    lines = [
        f"{metrics.mode}{suffix}: {metrics.messages_emitted} messages, "
        f"{metrics.total_bytes} bytes on the wire"
        for metrics, suffix in zip(results, suffixes)
    ]
    for i, row in enumerate(comparisons, start=1):  # row i compares results[i]
        if sweep:
            lines[i] += "".join(f", {key} reduction {pct(row[key])}" for key in keys)
        else:
            lines += [
                f"{key}: baseline {row[key]['baseline']} candidate {row[key]['candidate']} "
                f"reduction {pct(row[key])}"
                for key in keys
            ]
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    # Every gate is parsed before any work, so a bad one writes nothing.
    try:
        gates = [parse_assertion(expression) for expression in args.assertions]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        command = _cmd_filter if args.command == "filter" else _cmd_simulate
        _check_out(args.out)
        report, written, summary = command(args)
    except (UsageError, ConfigError, TopologyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2

    if not args.quiet:
        for line in summary:
            print(line)
        for path in written:
            print(f"wrote {path}")

    failed = [
        expression
        for expression, gate in zip(args.assertions, gates)
        if not check_assertion(report, gate)
    ]
    if failed:
        for expression in failed:
            print(f"assertion failed: {expression}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
