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
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .config import ConfigError, Overrides, Scenario, load_config, parse_config, serialize_scenario
from .engine import Mode, compare, run
from .mist_filter import Sample
from .reconstruction import measure_stream
# Unused here; perfbench/tracing.py wraps these names on this module.
from .reconstruction import build_log, error_report, reconstruct_zoh  # noqa: F401
from .report import check_assertion, emit_report
from .sources import ReplaySpec, SensorSpec, gen_normal, load_csv


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
        choices=["cloud_only", "mist_fog_cloud", "both"],
        help="which pipeline(s) to simulate (default: both)",
    )
    return parser


def _parse_values(flag: str, text: Optional[str], conv):
    if text is None:
        return None
    cells = [c.strip() for c in text.split(",") if c.strip()]
    if not cells:
        raise UsageError(f"{flag} needs at least one value")
    try:
        return tuple(conv(c) for c in cells)
    except ValueError:
        raise UsageError(f"{flag} must be comma-separated numbers, got {text!r}") from None


def _load_scenario(args, command: str) -> Scenario:
    replace_sources = None
    if command == "filter" and args.dataset:
        dataset = Path(args.dataset)
        replace_sources = (
            ReplaySpec(
                device_id=dataset.stem or "dataset",
                path=args.dataset,
                value_column=args.column or "value",
            ),
        )
    elif getattr(args, "column", None):
        raise UsageError("--column requires --dataset")

    overrides = Overrides(
        seed=args.seed,
        n_values=_parse_values("--n", args.n, int),
        p_values=_parse_values("--p", args.p, float),
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


def _build_streams(scenario: Scenario):
    """Materialise every source once; returns (streams, ingest_blocks)."""
    streams: dict[str, list[Sample]] = {}
    ingest: dict[str, dict] = {}
    for spec in scenario.sources:
        if isinstance(spec, SensorSpec):
            streams[spec.device_id] = gen_normal(spec)
        else:
            samples, rep = load_csv(spec)
            streams[spec.device_id] = samples
            ingest[spec.device_id] = {
                "rows_read": rep.rows_read,
                "rows_skipped": rep.rows_skipped,
                "samples": rep.samples,
                "gaps_detected": rep.gaps_detected,
            }
    return streams, ingest


# sensor_metrics.csv columns taken from each sensor's report block.
_SENSOR_COLUMNS = (
    "total", "transmitted", "suppressed", "reduction_percent", "avg_abs_error", "max_abs_error"
)
_SENSOR_HEADER_FILTER = ("n", "p", "sensor", *_SENSOR_COLUMNS)


def _cmd_filter(args) -> tuple[dict, list, Optional[Path]]:
    scenario = _load_scenario(args, "filter")
    if not scenario.sources:
        raise ConfigError("no sources configured; add [source <id>] sections or pass --dataset")
    streams, ingest = _build_streams(scenario)

    runs = []
    sensor_rows = []
    plot_series: dict = {}
    for cfg in scenario.grid:
        sensors = {}
        for spec in scenario.sources:
            samples = streams[spec.device_id]
            measured = measure_stream(samples, cfg)
            block = sensors[spec.device_id] = measured.report.to_dict()
            sensor_rows.append((cfg.n, cfg.p, spec.device_id, *(block[k] for k in _SENSOR_COLUMNS)))
            if scenario.plot_data:
                stem = f"plot_{spec.device_id}_n{cfg.n}_p{cfg.p!r}"
                plot_series[stem] = (samples, measured.flags)
        runs.append({"n": cfg.n, "p": cfg.p, "sensors": sensors})

    report = {
        "tool": {"name": "mistsim", "version": __version__},
        "command": "filter",
        "seed": scenario.seed,
        "config_echo": serialize_scenario(scenario),
        "runs": runs,
    }
    if ingest:
        report["ingest"] = ingest

    written = emit_report(
        report,
        args.out,
        sensor_rows=sensor_rows,
        sensor_header=_SENSOR_HEADER_FILTER,
        plot_series=plot_series,
    )
    echo_path = _write_echo(scenario, args.out)
    return report, written + [echo_path], None


_SENSOR_HEADER_SIM = ("mode", "sensor", *_SENSOR_COLUMNS)


def _cmd_simulate(args) -> tuple[dict, list, Optional[dict]]:
    scenario = _load_scenario(args, "simulate")
    from .topology import validate

    violations = validate(scenario.topology)
    if violations:
        raise ConfigError("invalid topology: " + "; ".join(violations))
    if scenario.duration_ms is None:
        raise ConfigError(
            "duration_ms is required in [run] (it can only be derived when every "
            "source is synthetic)"
        )
    sensor_ids = [d.id for d in scenario.topology.sensors()]
    source_ids = [s.device_id for s in scenario.sources]
    missing = sorted(set(sensor_ids) - set(source_ids))
    if missing:
        raise ConfigError(f"sensors without a [source] section: {missing}")
    extra = sorted(set(source_ids) - set(sensor_ids))
    if extra:
        raise ConfigError(f"sources for devices that are not sensors: {extra}")

    fc = scenario.filter_config()
    streams, ingest = _build_streams(scenario)

    if scenario.mode == "both":
        modes = [Mode.CLOUD_ONLY, Mode.MIST_FOG_CLOUD]
    else:
        modes = [Mode(scenario.mode)]

    results = {}
    for mode in modes:
        results[mode.value] = run(
            scenario.topology,
            streams,
            mode,
            fc,
            scenario.energy,
            scenario.duration_ms,
            message_size_bytes=scenario.message_size_bytes,
            seed=scenario.seed,
        )

    report = {
        "tool": {"name": "mistsim", "version": __version__},
        "command": "simulate",
        "seed": scenario.seed,
        "config_echo": serialize_scenario(scenario),
        "modes_run": [m.value for m in modes],
        "runs": {mode_name: metrics.to_dict() for mode_name, metrics in results.items()},
    }
    comparison = None
    if len(modes) == 2:
        comparison = compare(results[Mode.CLOUD_ONLY.value], results[Mode.MIST_FOG_CLOUD.value])
        report["comparison"] = comparison
    if ingest:
        report["ingest"] = ingest

    sensor_rows = []
    link_rows = []
    plot_series: dict = {}
    for mode_name, metrics in results.items():
        for sensor_id in sorted(metrics.sensor_reports):
            block = metrics.sensor_reports[sensor_id].to_dict()
            sensor_rows.append((mode_name, sensor_id, *(block[k] for k in _SENSOR_COLUMNS)))
        for link_name in sorted(metrics.link_usage):
            usage = metrics.link_usage[link_name]
            link_rows.append(
                (mode_name, link_name, usage["messages"], usage["bytes"], usage["byte_ms"])
            )
        if scenario.plot_data and mode_name == Mode.MIST_FOG_CLOUD.value:
            for sensor_id, flags in metrics.flags.items():
                plot_series[f"plot_{sensor_id}"] = (streams[sensor_id], flags)

    written = emit_report(
        report,
        args.out,
        sensor_rows=sensor_rows,
        sensor_header=_SENSOR_HEADER_SIM,
        link_rows=link_rows,
        plot_series=plot_series,
    )
    echo_path = _write_echo(scenario, args.out)
    return report, written + [echo_path], comparison


def _write_echo(scenario: Scenario, out_dir) -> Path:
    path = Path(out_dir) / "resolved.cfg"
    path.write_text(serialize_scenario(scenario), encoding="utf-8")
    return path


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


def _summarise_simulate(report: dict, comparison: Optional[dict]) -> list[str]:
    lines = []
    for mode_name, metrics in sorted(report["runs"].items()):
        net = metrics["network"]
        lines.append(
            f"{mode_name}: {net['messages_emitted']} messages, {net['total_bytes']} bytes on the wire"
        )
    if comparison is not None:
        for key in ("network_total_bytes", "cloud_energy_j"):
            row = comparison[key]
            pct = row["reduction_percent"]
            pct_text = "n/a" if pct is None else f"{pct:.3f}%"
            lines.append(
                f"{key}: baseline {row['baseline']} candidate {row['candidate']} reduction {pct_text}"
            )
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "filter":
            report, written, _ = _cmd_filter(args)
            summary = _summarise_filter(report)
        else:
            report, written, comparison = _cmd_simulate(args)
            summary = _summarise_simulate(report, comparison)
    except (UsageError, ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2

    if not args.quiet:
        for line in summary:
            print(line)
        for path in written:
            print(f"wrote {path}")

    failed = []
    for expression in args.assertions:
        try:
            ok = check_assertion(report, expression)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if not ok:
            failed.append(expression)
    if failed:
        for expression in failed:
            print(f"assertion failed: {expression}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
