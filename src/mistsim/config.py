"""Flat INI-style configuration: one file describes a whole scenario.

Sections are ``[run]``, ``[filter]``, ``[energy]``, ``[device <id>]``,
``[link <src> <dst>]`` and ``[source <device_id>]``, whose ``kind`` (normal
or replay) picks its keys.  ``_KEYS`` lists each section's keys with their
parsers and defaults, in the order ``resolved.cfg`` writes them; the full
reference is ``docs/config_format.md``.  The flags ``--seed``, ``--mode``,
``--n`` and ``--p`` replace the key of the same name, unread, and an error
in a flag's value names the flag.

Unknown sections or keys are hard errors, never silently ignored.  Loading
a file, serializing the result, and loading it again reproduces the same
scenario (and the identical topology), which is what lets a report's config
echo re-run bit-for-bit.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple, Optional

from .engine import DEFAULT_ENERGY_PARAMS, EnergyModel, EnergyParams, Mode
from .mist_filter import FilterConfig
from .rng import derive_seed
from .sources import ReplaySpec, SensorSpec, SourceSpec, undecodable_line
from .topology import DEFAULT_LEVELS, KINDS, Device, Link, Topology

MODES = ("both", *(m.value for m in Mode))

DEFAULT_SEED = 42
DEFAULT_MESSAGE_SIZE = 100
_ENERGY_FIELDS = ("busy_w", "idle_w", "busy_ms_per_message")


class ConfigError(ValueError):
    """A config file could not be parsed or failed validation."""


class Overrides(NamedTuple):
    """Command-line knobs folded in during parsing, before seed resolution."""

    seed: Optional[int] = None
    n_text: Optional[str] = None  # the --n text, parsed like [filter] n
    p_text: Optional[str] = None  # the --p text, parsed like [filter] p
    mode: Optional[str] = None
    plot_data_default: Optional[bool] = None
    replace_sources: Optional[tuple[SourceSpec, ...]] = None


class Scenario(NamedTuple):
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


def _bool(text: str) -> bool:
    text = text.strip().lower()
    if text in ("true", "yes", "on", "1"):
        return True
    if text in ("false", "no", "off", "0"):
        return False
    raise ValueError(text)


def _decode_delimiter(value: str) -> str:
    return "\t" if value == "\\t" else value


def _encode_delimiter(value: str) -> str:
    return "\\t" if value == "\t" else value


def _grid(key: str, conv):
    """The parser of a ``[filter]`` list: distinct ``conv`` values, each valid
    as ``FilterConfig``'s ``key``."""

    def parse(text: str) -> tuple:
        try:
            values = tuple(conv(cell) for cell in text.split(",") if cell.strip())
        except ValueError:
            raise ConfigError(f"{key} must be comma-separated numbers, got {text!r}") from None
        if not values:
            raise ConfigError(f"{key} must list at least one value")
        for i, value in enumerate(values):
            try:
                FilterConfig(**{key: value})
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
            if value in values[:i]:  # 0.0 and -0.0 count as one value
                raise ConfigError(
                    f"{key} values must be distinct; {value!r} repeats an earlier one"
                )
        return values

    return parse


# None passes: an unset link latency_ms is reported as required by _parse_link.
_FINITE_NON_NEGATIVE = (
    lambda v: v is None or (math.isfinite(v) and v >= 0),
    "must be finite and >= 0",
)

# Each section kind's keys, in resolved.cfg order, as key -> (parser, default,
# check).  A parser raises ValueError on text it cannot read, or ConfigError
# with its own message.  A check, (predicate, phrase) or None, tests every
# resolved value, default and flag included, and fails as "<key> <phrase>,
# got <value>".  A None default is filled in by code (level, source seed,
# plot_data), means required (device kind, link latency_ms, replay file), or
# means unset.
_KEYS = {
    "run": {
        "seed": (int, DEFAULT_SEED, (lambda v: 0 <= v < 1 << 64, "must fit in 64 bits")),
        "duration_ms": (
            float,
            None,
            (lambda v: v is None or (math.isfinite(v) and v > 0), "must be finite and > 0"),
        ),
        "message_size_bytes": (int, DEFAULT_MESSAGE_SIZE, (lambda v: v >= 1, "must be >= 1")),
        "mode": (str, "both", (lambda v: v in MODES, f"must be one of {MODES}")),
        "plot_data": (_bool, None, None),
    },
    "filter": {
        key: (_grid(key, conv), (getattr(FilterConfig(), key),), None)
        for key, conv in (("n", int), ("p", float))
    },
    "energy": {
        f"{kind}_{field}": (float, getattr(DEFAULT_ENERGY_PARAMS[kind], field), None)
        for kind in KINDS
        for field in _ENERGY_FIELDS
    },
    "device": {
        "kind": (str, None, (lambda v: v in KINDS, f"must be one of {KINDS}")),
        "level": (int, None, None),
        "uplink_kbps": (float, 0.0, _FINITE_NON_NEGATIVE),
        "downlink_kbps": (float, 0.0, _FINITE_NON_NEGATIVE),
        "ram_mb": (float, 0.0, _FINITE_NON_NEGATIVE),
    },
    "link": {"latency_ms": (float, None, _FINITE_NON_NEGATIVE)},
    "normal": {
        "kind": (str, None, None),
        "mean": (float, 0.0, None),
        "stddev": (float, 1.0, None),
        "period_ms": (float, 1000.0, None),
        "count": (int, 10_000, None),
        "seed": (int, None, None),
    },
    "replay": {
        "kind": (str, None, None),
        "file": (str, None, None),
        "value_column": (str, "value", None),
        "timestamp_column": (str, "timestamp", None),
        "delimiter": (_decode_delimiter, ",", None),
        "expected_period": (float, None, None),
    },
}
_NOUNS = {int: "an integer", float: "a number", _bool: "a boolean"}


def _read(origin: str, section: str, kind: str, raw: dict, flags: Optional[dict] = None) -> dict:
    """Every key of ``_KEYS[kind]``, in order: its flag's value when given
    (not None), else its parsed text in ``raw``, else its default.  An unknown
    key in ``raw`` is an error; errors name the flag or the section."""
    keys = _KEYS[kind]
    unknown = raw.keys() - keys.keys()
    if unknown:
        raise _section_error(
            origin, section, f"unknown keys {sorted(unknown)}; allowed keys are {sorted(keys)}"
        )
    flags = flags or {}
    values = {}
    for key, (parse, default, check) in keys.items():
        flag = flags.get(key)
        text = raw.get(key) if flag is None else flag
        try:
            value = default if text is None else parse(text)
            if check and not check[0](value):
                raise ConfigError(f"{key} {check[1]}, got {value!r}")
        except ValueError as exc:
            if not isinstance(exc, ConfigError):
                exc = f"{key} must be {_NOUNS[parse]}, got {text!r}"
            where = f"{origin}: [{section}]" if flag is None else f"--{key}"
            raise ConfigError(f"{where}: {exc}") from None
        values[key] = value
    return values


def _line_error(origin: str, number: int, message: str) -> ConfigError:
    return ConfigError(f"{origin}: line {number}: {message}")


def _sections(text: str, origin: str) -> dict[str, dict]:
    """Each section's ``{key: value}``, by name, in file order; the grammar is
    in ``docs/config_format.md``.  A line is a full-line ``#``/``;`` comment,
    a ``[header]``, a ``key = value`` (or ``key: value``) line, or a
    continuation: a line indented deeper than its key line, joined to the
    value with a newline, blank lines between them kept.  The first bad line
    raises :class:`ConfigError` naming it."""
    sections: dict[str, dict] = {}
    name = raw = key = None  # the current section, its keys, the key a continuation extends
    indent = blanks = 0  # that key line's indent; blank lines since its value's last line
    for number, line in enumerate(text.split("\n"), start=1):  # not splitlines(): \x0c is a space
        stripped = line.strip()
        if not stripped:
            blanks += 1
            continue
        if stripped[0] in "#;":
            continue
        depth = len(line) - len(line.lstrip())
        if key is not None and depth > indent:
            raw[key] += "\n" * (blanks + 1) + stripped
            blanks = 0
        elif stripped[0] == "[" and (end := stripped.rfind("]")) > 1:  # name up to the last "]"
            name = stripped[1:end]
            if name == "DEFAULT":
                raise _line_error(origin, number, "a [DEFAULT] section is not supported")
            if name in sections:
                raise _line_error(origin, number, f"duplicate section [{name}]")
            raw = sections[name] = {}
            key = None
        elif raw is None:
            raise _line_error(
                origin, number, f"{stripped!r} comes before the first [section] header"
            )
        else:
            key, delimiter, value = stripped.partition("=")
            if not delimiter or ":" in key:  # the first "=" or ":" splits the line
                key, delimiter, value = stripped.partition(":")
            if not delimiter:
                raise _line_error(
                    origin, number, f"expected 'key = value' or 'key: value', got {stripped!r}"
                )
            key = key.rstrip()
            if not key:
                raise _line_error(origin, number, f"empty key in {stripped!r}")
            if key in raw:
                raise _line_error(origin, number, f"duplicate key {key!r} in [{name}]")
            raw[key] = value.strip()
            indent, blanks = depth, 0
    return sections


def parse_config(
    text: str, origin: str = "<config>", overrides: Optional[Overrides] = None
) -> Scenario:
    """Parse config text into a resolved :class:`Scenario`.

    Resolution fills every default: filter grid, per-source seeds (derived as
    ``seed + i`` for the i-th declared source, 1-based, unless the source
    pins its own), and the run duration (largest ``count * period_ms`` when
    every source is synthetic, otherwise left unset; an infinite one is a
    :class:`ConfigError`).  ``[source]`` sections are checked even when
    ``overrides.replace_sources`` replaces them.
    """
    ov = overrides or Overrides()
    sections = _sections(text, origin)
    if not sections:
        raise ConfigError(f"{origin}: empty config, at least a [run] section is required")

    devices: list[Device] = []
    links: list[Link] = []
    raw_sources: list[tuple[str, dict]] = []
    run_raw: dict = {}
    filter_raw: dict = {}
    energy_raw: dict = {}

    for section, raw in sections.items():
        tokens = section.split()
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

    run = _read(origin, "run", "run", run_raw, {"seed": ov.seed, "mode": ov.mode})
    if run["plot_data"] is None:
        run["plot_data"] = ov.plot_data_default
    n_values, p_values = _read(
        origin, "filter", "filter", filter_raw, {"n": ov.n_text, "p": ov.p_text}
    ).values()
    energy = _parse_energy(origin, energy_raw)
    sources = _build_sources(origin, raw_sources, run["seed"])
    if ov.replace_sources is not None:
        sources = list(ov.replace_sources)

    if run["duration_ms"] is None and sources and all(isinstance(s, SensorSpec) for s in sources):
        duration_ms = max(s.count * s.period_ms for s in sources)
        if not math.isfinite(duration_ms):
            raise _section_error(
                origin,
                "run",
                f"derived duration_ms = max(count * period_ms) must be finite, got "
                f"{duration_ms!r}; set duration_ms explicitly",
            )
        run["duration_ms"] = duration_ms if duration_ms > 0 else None

    return Scenario(
        topology=Topology(devices=devices, links=links),
        sources=tuple(sources),
        n_values=n_values,
        p_values=p_values,
        energy=energy,
        **run,
    )


def _parse_device(origin: str, section: str, device_id: str, raw: dict) -> Device:
    values = _read(origin, section, "device", raw)
    if values["level"] is None:
        values["level"] = DEFAULT_LEVELS[values["kind"]]
    try:
        return Device(device_id, **values)
    except ValueError as exc:
        raise _section_error(origin, section, str(exc)) from None


def _parse_link(origin: str, section: str, src: str, dst: str, raw: dict) -> Link:
    values = _read(origin, section, "link", raw)
    if values["latency_ms"] is None:
        raise _section_error(origin, section, "latency_ms is required")
    return Link(src, dst, **values)


def _parse_energy(origin: str, energy_raw: dict) -> EnergyModel:
    values = _read(origin, "energy", "energy", energy_raw)
    params = {}
    for kind in KINDS:
        try:
            params[kind] = EnergyParams(
                **{field: values[f"{kind}_{field}"] for field in _ENERGY_FIELDS}
            )
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
        if kind not in ("normal", "replay"):
            raise _section_error(
                origin, section, f"kind must be 'normal' or 'replay', got {kind!r}"
            )
        values = _read(origin, section, kind, raw)
        del values["kind"]
        try:
            if kind == "normal":
                if values["seed"] is None:
                    values["seed"] = derive_seed(seed_base, ordinal)
                sources.append(SensorSpec(device_id, **values))
            else:
                values["path"] = values.pop("file")
                if values["path"] is None:
                    raise ValueError("file is required for replay sources")
                sources.append(ReplaySpec(device_id, **values))
        except ValueError as exc:
            raise _section_error(origin, section, str(exc)) from None
    return sources


def load_config(path: str | Path, overrides: Optional[Overrides] = None) -> Scenario:
    """Read and parse a config file.  See :func:`parse_config`."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")  # a byte-order mark is not text
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:  # a directory, say
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        number, exc = undecodable_line(path)
        raise _line_error(str(path), number, str(exc)) from None
    return parse_config(text, origin=str(path), overrides=overrides)


def _write(lines: list[str], header: str, kind: str, values) -> None:
    """Append ``[header]``, then ``key = value`` for each key of ``_KEYS[kind]``
    whose value is not None."""
    lines.append(f"[{header}]")
    for key in _KEYS[kind]:
        value = values[key]
        if value is not None:
            if value is True or value is False:
                value = "true" if value else "false"
            lines.append(f"{key} = {value}")  # a float formats as its repr
    lines.append("")


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical config text for a scenario; parsing it back is the identity.

    Every resolved value is written explicitly (seeds, defaults, grid), so
    the output is a complete standalone description of the run.
    """
    lines: list[str] = []
    _write(lines, "run", "run", {key: getattr(scenario, key) for key in _KEYS["run"]})
    grid = zip(_KEYS["filter"], (scenario.n_values, scenario.p_values))  # n, then p
    _write(lines, "filter", "filter", {key: ",".join(map(str, values)) for key, values in grid})
    energy = {
        f"{kind}_{field}": getattr(scenario.energy.for_kind(kind), field)
        for kind in KINDS
        for field in _ENERGY_FIELDS
    }
    _write(lines, "energy", "energy", energy)
    for dev in scenario.topology.devices:
        _write(lines, f"device {dev.id}", "device", dev._asdict())
    for link in scenario.topology.links:
        _write(lines, f"link {link.src} {link.dst}", "link", link._asdict())
    for source in scenario.sources:
        header = f"source {source.device_id}"
        if isinstance(source, SensorSpec):
            _write(lines, header, "normal", {**source._asdict(), "kind": "normal"})
        else:
            delimiter = _encode_delimiter(source.delimiter)
            replay = {**source._asdict(), "kind": "replay", "file": source.path, "delimiter": delimiter}
            _write(lines, header, "replay", replay)
    return "\n".join(lines)
