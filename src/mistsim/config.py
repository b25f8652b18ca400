"""Flat INI-style configuration: one file describes a whole scenario.

Section grammar (full key reference in ``docs/config_format.md``)::

    [run]                    seed, duration_ms, message_size_bytes, mode, plot_data
    [filter]                 n, p (comma-separated lists sweep the filter grid;
                             --n/--p replace them and are parsed alike)
    [energy]                 <kind>_busy_w, <kind>_idle_w, <kind>_busy_ms_per_message
    [device <id>]            kind, level, uplink_kbps, downlink_kbps, ram_mb
    [link <src> <dst>]       latency_ms
    [source <device_id>]     kind=normal: mean, stddev, period_ms, count, seed
                             kind=replay: file, value_column, timestamp_column,
                                          delimiter, expected_period

Unknown sections or keys are hard errors, never silently ignored.  Loading
a file, serializing the result, and loading it again reproduces the same
scenario (and the identical topology), which is what lets a report's config
echo re-run bit-for-bit.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

from .engine import DEFAULT_ENERGY_PARAMS, EnergyModel, EnergyParams, Mode
from .mist_filter import FilterConfig
from .rng import derive_seed
from .sources import ReplaySpec, SensorSpec, SourceSpec
from .topology import DEFAULT_LEVELS, KINDS, Device, Link, Topology

MODES = ("both", *(m.value for m in Mode))

DEFAULT_SEED = 42
DEFAULT_MESSAGE_SIZE = 100


class ConfigError(ValueError):
    """A config file could not be parsed or failed validation."""


@dataclass(frozen=True)
class Overrides:
    """Command-line knobs folded in during parsing, before seed resolution."""

    seed: Optional[int] = None
    n_text: Optional[str] = None  # the --n text, parsed like [filter] n
    p_text: Optional[str] = None  # the --p text, parsed like [filter] p
    mode: Optional[str] = None
    plot_data_default: Optional[bool] = None
    replace_sources: Optional[tuple[SourceSpec, ...]] = None


@dataclass
class Scenario:
    """A fully resolved run description."""

    topology: Topology
    sources: tuple[SourceSpec, ...]
    n_values: tuple[int, ...]
    p_values: tuple[float, ...]
    energy: EnergyModel
    seed: int
    duration_ms: Optional[float]
    message_size_bytes: int
    mode: str
    plot_data: Optional[bool]

    @property
    def grid(self) -> tuple[FilterConfig, ...]:
        """The filter grid, n-major: every ``p`` for the first ``n``, then the next ``n``."""
        return tuple(FilterConfig(n=n, p=p) for n in self.n_values for p in self.p_values)


def _section_error(origin: str, section: str, message: str) -> ConfigError:
    return ConfigError(f"{origin}: [{section}]: {message}")


def _check_keys(origin: str, section: str, present: Sequence[str], allowed: Sequence[str]) -> None:
    unknown = sorted(set(present) - set(allowed))
    if unknown:
        raise _section_error(
            origin, section, f"unknown keys {unknown}; allowed keys are {sorted(allowed)}"
        )


def _get_number(conv, origin: str, section: str, raw: dict, key: str, default=None):
    """``conv(raw[key])`` for ``conv`` float or int; ``default`` when absent."""
    if key not in raw:
        return default
    try:
        return conv(raw[key])
    except ValueError:
        what = "an integer" if conv is int else "a number"
        raise _section_error(origin, section, f"{key} must be {what}, got {raw[key]!r}") from None


_get_float = partial(_get_number, float)
_get_int = partial(_get_number, int)


def _get_bool(origin: str, section: str, raw: dict, key: str, default=None) -> Optional[bool]:
    if key not in raw:
        return default
    text = raw[key].strip().lower()
    if text in ("true", "yes", "on", "1"):
        return True
    if text in ("false", "no", "off", "0"):
        return False
    raise _section_error(origin, section, f"{key} must be a boolean, got {raw[key]!r}")


def _decode_delimiter(value: str) -> str:
    return "\t" if value == "\\t" else value


def _encode_delimiter(value: str) -> str:
    return "\\t" if value == "\t" else value


def parse_config(
    text: str, origin: str = "<config>", overrides: Optional[Overrides] = None
) -> Scenario:
    """Parse config text into a resolved :class:`Scenario`.

    Resolution fills every default: filter grid, per-source seeds (derived as
    ``seed + i`` for the i-th declared source, 1-based, unless the source
    pins its own), and the run duration (largest ``count * period_ms`` when
    every source is synthetic, otherwise left unset; an infinite one is a
    :class:`ConfigError`).
    """
    ov = overrides or Overrides()
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str  # keys are case sensitive
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None
    if parser.defaults():
        raise ConfigError(f"{origin}: a [DEFAULT] section is not supported")
    if not parser.sections():
        raise ConfigError(f"{origin}: empty config, at least a [run] section is required")

    devices: list[Device] = []
    links: list[Link] = []
    raw_sources: list[tuple[str, dict]] = []
    run_raw: dict = {}
    filter_raw: dict = {}
    energy_raw: dict = {}

    for section in parser.sections():
        tokens = section.split()
        raw = dict(parser[section])
        head = tokens[0] if tokens else ""
        if head == "run" and len(tokens) == 1:
            run_raw = raw
        elif head == "filter" and len(tokens) == 1:
            filter_raw = raw
        elif head == "energy" and len(tokens) == 1:
            energy_raw = raw
        elif head == "device" and len(tokens) == 2:
            devices.append(_parse_device(origin, section, tokens[1], raw))
        elif head == "link" and len(tokens) == 3:
            links.append(_parse_link(origin, section, tokens[1], tokens[2], raw))
        elif head == "source" and len(tokens) == 2:
            raw_sources.append((tokens[1], raw))
        else:
            raise ConfigError(
                f"{origin}: unknown section [{section}]; expected [run], [filter], "
                f"[energy], [device <id>], [link <src> <dst>] or [source <id>]"
            )

    _check_keys(
        origin, "run", run_raw, ("seed", "duration_ms", "message_size_bytes", "mode", "plot_data")
    )
    seed = ov.seed if ov.seed is not None else _get_int(origin, "run", run_raw, "seed", DEFAULT_SEED)
    if not 0 <= seed < 1 << 64:
        raise _section_error(origin, "run", f"seed must fit in 64 bits, got {seed!r}")
    duration_ms = _get_float(origin, "run", run_raw, "duration_ms")
    if duration_ms is not None and not (math.isfinite(duration_ms) and duration_ms > 0):
        raise _section_error(
            origin, "run", f"duration_ms must be finite and > 0, got {duration_ms!r}"
        )
    message_size = _get_int(origin, "run", run_raw, "message_size_bytes", DEFAULT_MESSAGE_SIZE)
    if message_size < 1:
        raise _section_error(origin, "run", f"message_size_bytes must be >= 1, got {message_size!r}")
    mode = ov.mode if ov.mode is not None else run_raw.get("mode", "both")
    if mode not in MODES:
        raise _section_error(origin, "run", f"mode must be one of {MODES}, got {mode!r}")
    plot_data = _get_bool(origin, "run", run_raw, "plot_data", ov.plot_data_default)

    n_values, p_values = _parse_filter_grid(origin, filter_raw, ov)
    energy = _parse_energy(origin, energy_raw)

    sources: list[SourceSpec]
    if ov.replace_sources is not None:
        sources = list(ov.replace_sources)
    else:
        sources = _build_sources(origin, raw_sources, seed)

    if duration_ms is None and sources and all(isinstance(s, SensorSpec) for s in sources):
        duration_ms = max(s.count * s.period_ms for s in sources)
        if not math.isfinite(duration_ms):
            raise _section_error(
                origin,
                "run",
                f"derived duration_ms = max(count * period_ms) must be finite, got "
                f"{duration_ms!r}; set duration_ms explicitly",
            )
        if duration_ms <= 0:
            duration_ms = None

    return Scenario(
        topology=Topology(devices=devices, links=links),
        sources=tuple(sources),
        n_values=n_values,
        p_values=p_values,
        energy=energy,
        seed=seed,
        duration_ms=duration_ms,
        message_size_bytes=message_size,
        mode=mode,
        plot_data=plot_data,
    )


def _parse_device(origin: str, section: str, device_id: str, raw: dict) -> Device:
    _check_keys(origin, section, raw, ("kind", "level", "uplink_kbps", "downlink_kbps", "ram_mb"))
    kind = raw.get("kind")
    if kind not in KINDS:
        raise _section_error(origin, section, f"kind must be one of {KINDS}, got {kind!r}")
    level = _get_int(origin, section, raw, "level", DEFAULT_LEVELS[kind])
    try:
        return Device(
            id=device_id,
            kind=kind,
            level=level,
            uplink_kbps=_get_float(origin, section, raw, "uplink_kbps", 0.0),
            downlink_kbps=_get_float(origin, section, raw, "downlink_kbps", 0.0),
            ram_mb=_get_float(origin, section, raw, "ram_mb", 0.0),
        )
    except ValueError as exc:
        raise _section_error(origin, section, str(exc)) from None


def _parse_link(origin: str, section: str, src: str, dst: str, raw: dict) -> Link:
    _check_keys(origin, section, raw, ("latency_ms",))
    latency = _get_float(origin, section, raw, "latency_ms")
    if latency is None:
        raise _section_error(origin, section, "latency_ms is required")
    return Link(src=src, dst=dst, latency_ms=latency)


def _parse_filter_grid(
    origin: str, filter_raw: dict, ov: Overrides
) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """The ``n`` and ``p`` lists, each parsed from its flag (``--n``), else its
    ``[filter]`` key, else :class:`FilterConfig`'s default; errors name the source."""
    _check_keys(origin, "filter", filter_raw, ("n", "p"))
    lists = []
    for key, conv, flag_text in (("n", int, ov.n_text), ("p", float, ov.p_text)):
        if flag_text is not None:
            where, text = f"--{key}", flag_text
        else:
            where, text = f"{origin}: [filter]", filter_raw.get(key)
        if text is None:
            lists.append((getattr(FilterConfig(), key),))
            continue
        try:
            values = tuple(conv(cell) for cell in text.split(",") if cell.strip())
        except ValueError:
            raise ConfigError(f"{where}: {key} must be comma-separated numbers, got {text!r}") from None
        if not values:
            raise ConfigError(f"{where}: {key} must list at least one value")
        for i, value in enumerate(values):
            try:
                FilterConfig(**{key: value})
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from None
            if value in values[:i]:  # 0.0 and -0.0 count as one value
                raise ConfigError(
                    f"{where}: {key} values must be distinct; {value!r} repeats an earlier one"
                )
        lists.append(values)
    return tuple(lists)


def _parse_energy(origin: str, energy_raw: dict) -> EnergyModel:
    fields = ("busy_w", "idle_w", "busy_ms_per_message")
    allowed = [f"{kind}_{field}" for kind in KINDS for field in fields]
    _check_keys(origin, "energy", energy_raw, allowed)
    params = {}
    for kind in KINDS:
        defaults = DEFAULT_ENERGY_PARAMS[kind]
        values = {
            field: _get_float(origin, "energy", energy_raw, f"{kind}_{field}", getattr(defaults, field))
            for field in fields
        }
        try:
            params[kind] = EnergyParams(**values)
        except ValueError as exc:
            raise _section_error(origin, "energy", f"{kind}: {exc}") from None
    return EnergyModel(params=params)


def _build_sources(
    origin: str, raw_sources: list[tuple[str, dict]], seed_base: int
) -> list[SourceSpec]:
    sources: list[SourceSpec] = []
    seen: set[str] = set()
    for ordinal, (device_id, raw) in enumerate(raw_sources, start=1):
        section = f"source {device_id}"
        if device_id in seen:
            raise _section_error(origin, section, "duplicate source for this device")
        seen.add(device_id)
        kind = raw.get("kind")
        if kind == "normal":
            _check_keys(origin, section, raw, ("kind", "mean", "stddev", "period_ms", "count", "seed"))
            try:
                spec = SensorSpec(
                    device_id=device_id,
                    mean=_get_float(origin, section, raw, "mean", 0.0),
                    stddev=_get_float(origin, section, raw, "stddev", 1.0),
                    period_ms=_get_float(origin, section, raw, "period_ms", 1000.0),
                    count=_get_int(origin, section, raw, "count", 10_000),
                    seed=_get_int(origin, section, raw, "seed", derive_seed(seed_base, ordinal)),
                )
            except ValueError as exc:
                raise _section_error(origin, section, str(exc)) from None
        elif kind == "replay":
            _check_keys(
                origin,
                section,
                raw,
                ("kind", "file", "value_column", "timestamp_column", "delimiter", "expected_period"),
            )
            if "file" not in raw:
                raise _section_error(origin, section, "file is required for replay sources")
            try:
                spec = ReplaySpec(
                    device_id=device_id,
                    path=raw["file"],
                    value_column=raw.get("value_column", "value"),
                    timestamp_column=raw.get("timestamp_column", "timestamp"),
                    delimiter=_decode_delimiter(raw.get("delimiter", ",")),
                    expected_period=_get_float(origin, section, raw, "expected_period"),
                )
            except ValueError as exc:
                raise _section_error(origin, section, str(exc)) from None
        else:
            raise _section_error(
                origin, section, f"kind must be 'normal' or 'replay', got {kind!r}"
            )
        sources.append(spec)
    return sources


def load_config(path: str | Path, overrides: Optional[Overrides] = None) -> Scenario:
    """Read and parse a config file.  See :func:`parse_config`."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    return parse_config(text, origin=str(path), overrides=overrides)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical config text for a scenario; parsing it back is the identity.

    Every resolved value is written explicitly (seeds, defaults, grid), so
    the output is a complete standalone description of the run.
    """
    lines: list[str] = []

    lines.append("[run]")
    lines.append(f"seed = {scenario.seed}")
    if scenario.duration_ms is not None:
        lines.append(f"duration_ms = {_fmt(scenario.duration_ms)}")
    lines.append(f"message_size_bytes = {scenario.message_size_bytes}")
    lines.append(f"mode = {scenario.mode}")
    if scenario.plot_data is not None:
        lines.append(f"plot_data = {_fmt(scenario.plot_data)}")
    lines.append("")

    lines.append("[filter]")
    lines.append("n = " + ",".join(map(str, scenario.n_values)))
    lines.append("p = " + ",".join(map(repr, scenario.p_values)))
    lines.append("")

    lines.append("[energy]")
    for kind in KINDS:
        params = scenario.energy.for_kind(kind)
        lines.append(f"{kind}_busy_w = {_fmt(params.busy_w)}")
        lines.append(f"{kind}_idle_w = {_fmt(params.idle_w)}")
        lines.append(f"{kind}_busy_ms_per_message = {_fmt(params.busy_ms_per_message)}")
    lines.append("")

    for dev in scenario.topology.devices:
        lines.append(f"[device {dev.id}]")
        lines.append(f"kind = {dev.kind}")
        lines.append(f"level = {dev.level}")
        lines.append(f"uplink_kbps = {_fmt(dev.uplink_kbps)}")
        lines.append(f"downlink_kbps = {_fmt(dev.downlink_kbps)}")
        lines.append(f"ram_mb = {_fmt(dev.ram_mb)}")
        lines.append("")

    for link in scenario.topology.links:
        lines.append(f"[link {link.src} {link.dst}]")
        lines.append(f"latency_ms = {_fmt(link.latency_ms)}")
        lines.append("")

    for source in scenario.sources:
        lines.append(f"[source {source.device_id}]")
        if isinstance(source, SensorSpec):
            lines.append("kind = normal")
            lines.append(f"mean = {_fmt(source.mean)}")
            lines.append(f"stddev = {_fmt(source.stddev)}")
            lines.append(f"period_ms = {_fmt(source.period_ms)}")
            lines.append(f"count = {source.count}")
            lines.append(f"seed = {source.seed}")
        else:
            lines.append("kind = replay")
            lines.append(f"file = {source.path}")
            lines.append(f"value_column = {source.value_column}")
            lines.append(f"timestamp_column = {source.timestamp_column}")
            lines.append(f"delimiter = {_encode_delimiter(source.delimiter)}")
            if source.expected_period is not None:
                lines.append(f"expected_period = {_fmt(source.expected_period)}")
        lines.append("")

    return "\n".join(lines)
