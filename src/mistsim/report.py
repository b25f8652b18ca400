"""Byte-stable report emission.

Reports must be reproducible down to the byte: keys are sorted, floats are
rounded to nine significant digits before encoding, and nothing volatile
(wall-clock time, absolute paths picked by the tool, machine names) goes in.
Golden files in the test suite rely on this.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Optional, Sequence

# Unused here; perfbench/tracing.py wraps this name on this module.
from .reconstruction import reconstruct_zoh  # noqa: F401

_OPS = ("<=", ">=", "==", "!=", "<", ">")  # two-char ops first


def round_floats(obj: Any) -> Any:
    """Copy ``obj`` with every float rounded to nine significant digits.

    Rounding happens in decimal ('%.9g') and the result is re-parsed, so the
    JSON encoder later prints the shortest representation of the rounded
    value.  Non-finite floats are rejected; reports must never contain them.
    """
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"reports must not contain non-finite floats, got {obj!r}")
        return float(format(obj, ".9g"))
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def dumps_stable(report: dict) -> str:
    """Deterministic JSON text for a report dict."""
    return json.dumps(round_floats(report), sort_keys=True, indent=2) + "\n"


def _fmt_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt_cell(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def emit_report(
    report: dict,
    out_dir: str | Path,
    *,
    sensor_rows: Optional[list] = None,
    sensor_header: Optional[Sequence[str]] = None,
    link_rows: Optional[list] = None,
    plot_series: Optional[dict] = None,
) -> list[Path]:
    """Write the report document plus its CSV side tables.

    ``plot_series`` maps a file stem to ``(samples, flags)``, ``flags[i]``
    being 1 when ``samples[i]`` was transmitted (0 past its end); each
    becomes a ``<stem>.csv`` with the raw value, its zero-order-hold
    reconstruction and the flag.  Series sharing one ``samples`` list are
    written together, formatting its cells once.  Returns the written paths.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    report_path = out / "report.json"
    report_path.write_text(dumps_stable(report), encoding="utf-8")
    written.append(report_path)

    if sensor_rows is not None:
        path = out / "sensor_metrics.csv"
        write_csv(path, sensor_header or (), sensor_rows)
        written.append(path)

    if link_rows is not None:
        path = out / "link_usage.csv"
        write_csv(path, ("mode", "link", "messages", "bytes", "byte_ms"), link_rows)
        written.append(path)

    plot_series = plot_series or {}
    by_source: dict[int, tuple[Sequence, list]] = {}
    for stem, (samples, flags) in plot_series.items():
        by_source.setdefault(id(samples), (samples, []))[1].append((stem, flags))
    plot_paths: dict[str, Path] = {}
    for samples, series in by_source.values():
        # Timestamps and raw values keep full precision; they are data, not
        # derived metrics.  The held value is the text of a raw value.
        raws = [repr(s.value) for s in samples]
        cells = [f"{s.timestamp!r},{raw}," for s, raw in zip(samples, raws)]
        for stem, flags in series:
            plot_paths[stem] = _write_plot_csv(out / f"{stem}.csv", cells, raws, flags)
        del raws, cells
    written.extend(plot_paths[stem] for stem in plot_series)

    return written


def _write_plot_csv(
    path: Path, cells: Sequence[str], raws: Sequence[str], flags: bytearray
) -> Path:
    """One plot file from a source's ``timestamp,raw,`` cells and raw texts."""
    flags = flags + bytes(len(cells) - len(flags))
    lines = ["timestamp,raw,reconstructed,transmitted_flag"]
    if 1 not in flags:
        # Nothing was transmitted: there is no held value, the raw one stands in.
        lines += [f"{cell}{raw},0" for cell, raw in zip(cells, raws)]
    else:
        held = ""
        for cell, raw, flag in zip(cells, raws, flags):
            if flag:
                held = raw
            lines.append(f"{cell}{held},{flag}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def check_assertion(report: dict, expression: str) -> bool:
    """Evaluate a gating expression like ``comparison.cloud_energy_j.reduction_percent > 0``.

    Grammar: ``<dotted.path> <op> <number>`` with ops ``< <= > >= == !=``.
    The path walks dict keys (and list indices given as integers) in the
    report.  A missing path or a ``None`` value fails the assertion rather
    than erroring, so gates can probe optional fields.
    """
    for op in _OPS:
        if op in expression:
            left, right = expression.split(op, 1)
            break
    else:
        raise ValueError(
            f"bad assertion {expression!r}: expected '<field.path> <op> <number>'"
        )
    path = left.strip()
    if not path:
        raise ValueError(f"bad assertion {expression!r}: empty field path")
    try:
        threshold = float(right.strip())
    except ValueError:
        raise ValueError(
            f"bad assertion {expression!r}: right side must be a number"
        ) from None

    node: Any = report
    for part in path.split("."):
        if isinstance(node, dict) and part in node:
            node = node[part]
        elif isinstance(node, list) and part.lstrip("-").isdigit():
            idx = int(part)
            if -len(node) <= idx < len(node):
                node = node[idx]
            else:
                return False
        else:
            return False
    if node is None or isinstance(node, bool) or not isinstance(node, (int, float)):
        return False
    value = float(node)
    if op == "<":
        return value < threshold
    if op == "<=":
        return value <= threshold
    if op == ">":
        return value > threshold
    if op == ">=":
        return value >= threshold
    if op == "==":
        return value == threshold
    return value != threshold
