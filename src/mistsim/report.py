"""Byte-stable report emission.

Reports must be reproducible down to the byte: keys are sorted, floats are
rounded to nine significant digits before encoding, and nothing volatile
(wall-clock time, absolute paths picked by the tool, machine names) goes in.
Golden files in the test suite rely on this.
"""

from __future__ import annotations

import json
import math
from operator import eq, ge, gt, le, lt, ne
from pathlib import Path
from typing import Any, Optional, Sequence

# Unused here; perfbench/tracing.py wraps this name on this module.
from .reconstruction import reconstruct_zoh  # noqa: F401

_OPS = {"<=": le, ">=": ge, "==": eq, "!=": ne, "<": lt, ">": gt}  # two-char ops first


class _NonFiniteFloat(ValueError):
    """A non-finite float in a report, with the keys that lead to it."""

    def __init__(self, value: float) -> None:
        super().__init__(value)
        self.value = value
        self.path: list = []

    def __str__(self) -> str:
        where = f" at {'.'.join(map(str, self.path))}" if self.path else ""
        return f"reports must not contain non-finite floats, got {self.value!r}{where}"


def round_floats(obj: Any) -> Any:
    """Copy ``obj`` with every float rounded to nine significant digits.

    Rounding happens in decimal ('%.9g') and the result is re-parsed, so the
    JSON encoder later prints the shortest representation of the rounded
    value.  Non-finite floats are rejected; reports must never contain them.
    The ``ValueError`` names the first one's dotted path, dict keys and list
    indices alike (``runs.cloud_only.latency_ms.max``, say).
    """
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise _NonFiniteFloat(obj)
        return float(format(obj, ".9g"))
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        return obj
    rounded = {}
    try:
        for key, value in items:
            rounded[key] = round_floats(value)
    except _NonFiniteFloat as exc:
        exc.path.insert(0, key)
        raise
    return rounded if isinstance(obj, dict) else list(rounded.values())


# The one definition of the report format; ``emit_report`` streams it to disk.
_ENCODER = json.JSONEncoder(sort_keys=True, indent=2)


def dumps_stable(report: dict) -> str:
    """Deterministic JSON text for a report dict."""
    return _ENCODER.encode(round_floats(report)) + "\n"


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

    ``plot_series`` maps a file stem to ``(timestamps, values, flags)``,
    one sample per index, ``flags[i]`` being 1 when sample ``i`` was
    transmitted; each becomes a ``<stem>.csv`` with the timestamp, the raw
    value, its zero-order-hold reconstruction and the flag.  Series sharing
    one pair of ``timestamps`` and ``values`` columns (``array('d')`` in
    the commands) are written together, formatting their cells once.
    ``report.json`` holds the bytes of :func:`dumps_stable`, written chunk
    by chunk rather than built as one string; a report that cannot be
    encoded raises before ``out_dir`` is made.  Returns the written paths.
    """
    rounded = round_floats(report)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    report_path = out / "report.json"
    with report_path.open("w", encoding="utf-8") as fh:
        fh.writelines(_ENCODER.iterencode(rounded))
        fh.write("\n")
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
    by_columns: dict[tuple[int, int], tuple[Sequence, Sequence, list]] = {}
    for stem, (timestamps, values, flags) in plot_series.items():
        key = (id(timestamps), id(values))
        by_columns.setdefault(key, (timestamps, values, []))[2].append((stem, flags))
    plot_paths: dict[str, Path] = {}
    for timestamps, values, series in by_columns.values():
        # Timestamps and raw values keep full precision; they are data, not
        # derived metrics.  The held value is the text of a raw value.
        raws = list(map(repr, values))
        cells = [f"{t!r},{raw}," for t, raw in zip(timestamps, raws)]
        for stem, flags in series:
            plot_paths[stem] = _write_plot_csv(out / f"{stem}.csv", cells, raws, flags)
        del raws, cells
    written.extend(plot_paths[stem] for stem in plot_series)

    return written


def _write_plot_csv(
    path: Path, cells: Sequence[str], raws: Sequence[str], flags: bytearray
) -> Path:
    """One plot file from a source's ``timestamp,raw,`` cells and raw texts."""
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
    return _OPS[op](float(node), threshold)
