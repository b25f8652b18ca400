"""Byte-stable report emission.

Reports must be reproducible down to the byte: keys are sorted, floats are
rounded to nine significant digits, and nothing volatile (wall-clock time,
absolute paths picked by the tool, machine names) goes in.  Golden files in
the test suite rely on this.

``report.json`` is the text ``json.JSONEncoder(sort_keys=True, indent=2)``
gives for the report with its floats rounded, but it is written by one
walk that rounds, sorts and encodes together (the standard library's
encoder runs in pure Python whenever it indents).  The walk folds its text
into bounded blocks, so a report's text is held once, and it finishes
before anything is written: a report that cannot be encoded leaves no
output directory behind.
"""

from __future__ import annotations

import json
import math
from contextlib import ExitStack
from functools import partial
from operator import eq, ge, gt, le, lt, ne
from pathlib import Path
from typing import Any, Optional, Sequence

from . import _reference_names
from .engine import fork_map

# perfbench/tracing.py wraps this name on this module.
__getattr__ = _reference_names(__name__, "reconstruct_zoh")

_OPS = {"<=": le, ">=": ge, "==": eq, "!=": ne, "<": lt, ">": gt}


class _NonFiniteFloat(ValueError):
    """A non-finite float in a report, with the keys that lead to it."""

    def __init__(self, value: float) -> None:
        super().__init__(value)
        self.value = value
        self.path: list = []

    def __str__(self) -> str:
        where = f" at {'.'.join(map(str, self.path))}" if self.path else ""
        return f"reports must not contain non-finite floats, got {self.value!r}{where}"


_float_repr = float.__repr__
_int_repr = int.__repr__
_isfinite = math.isfinite
_quote = json.encoder.encode_basestring_ascii
_BLOCK = 1024  # chunks folded into one block string; plot samples formatted at once
_OPEN_FILES = 32  # plot files one process keeps open at once


def _report_blocks(report: Any) -> list[str]:
    """The report's JSON text, final newline included, as a list of blocks.

    This is the one definition of the report format: the text
    ``json.JSONEncoder(sort_keys=True, indent=2)`` gives for a copy of
    ``report`` with every float rounded to nine significant digits, built
    in one walk without the copy.  Chunks are folded into one block string
    every ``_BLOCK`` of them, so the text is held once plus a bounded tail.
    A non-finite float raises ``ValueError`` naming the first one's dotted
    path, dict keys in insertion order and list indices alike
    (``runs.cloud_only.latency_ms.max``, say); a key that is not a ``str``
    raises ``TypeError``.
    """
    blocks: list[str] = []
    chunks: list[str] = []
    append = chunks.append
    keys: dict[str, str] = {}  # key -> '"key": '

    def key_text(key: Any) -> str:
        if not isinstance(key, str):
            raise TypeError(f"report keys must be str, not {type(key).__name__}")
        text = keys[key] = _quote(key) + ": "
        return text

    def scalar(obj: Any) -> Optional[str]:
        """``obj``'s text, or ``None`` for a container."""
        if isinstance(obj, str):
            return _quote(obj)
        if obj is None:
            return "null"
        if obj is True:
            return "true"
        if obj is False:
            return "false"
        if isinstance(obj, int):
            return _int_repr(obj)
        if isinstance(obj, float):
            if not _isfinite(obj):
                raise _NonFiniteFloat(obj)
            # Round in decimal, then print the rounded value's shortest repr.
            return _float_repr(float(format(obj, ".9g")))
        if isinstance(obj, (dict, list, tuple)):
            return None
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

    def container(obj: Any, indent: str) -> None:
        """Append ``obj``'s text; ``indent`` is a newline plus ``obj``'s own indentation."""
        inner = indent + "  "
        sep = "," + inner
        if isinstance(obj, dict):
            if not obj:
                append("{}")
                return
            head = "{" + inner
            for key in sorted(obj):
                value = obj[key]
                cls = type(value)
                # The common scalars inline; anything else through scalar().
                if cls is float:
                    if not _isfinite(value):
                        raise _NonFiniteFloat(value)
                    text = _float_repr(float(format(value, ".9g")))
                elif cls is str:
                    text = _quote(value)
                elif cls is int:
                    text = _int_repr(value)
                else:
                    text = scalar(value)
                    if text is None:
                        append(head + (keys.get(key) or key_text(key)))
                        container(value, inner)
                        head = sep
                        continue
                append(head + (keys.get(key) or key_text(key)) + text)
                head = sep
                if len(chunks) >= _BLOCK:
                    blocks.append("".join(chunks))
                    chunks.clear()
            append(indent + "}")
        else:
            if not obj:
                append("[]")
                return
            head = "[" + inner
            for value in obj:
                text = scalar(value)
                if text is None:
                    append(head)
                    container(value, inner)
                else:
                    append(head + text)
                head = sep
                if len(chunks) >= _BLOCK:
                    blocks.append("".join(chunks))
                    chunks.clear()
            append(indent + "]")

    try:
        text = scalar(report)
        if text is None:
            container(report, "\n")
        else:
            append(text)
    except (_NonFiniteFloat, TypeError):
        # A non-finite float anywhere is the error, the first one in
        # insertion order, whatever the sorted walk met first.
        _raise_first_non_finite(report)
        raise
    append("\n")
    blocks.append("".join(chunks))
    return blocks


def _raise_first_non_finite(obj: Any) -> None:
    """Raise for the first non-finite float in ``obj``, if there is one."""
    if isinstance(obj, float):
        if not _isfinite(obj):
            raise _NonFiniteFloat(obj)
        return
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        try:
            _raise_first_non_finite(value)
        except _NonFiniteFloat as exc:
            exc.path.insert(0, key)
            raise


def dumps_stable(report: dict) -> str:
    """Deterministic JSON text for a report dict: the bytes ``emit_report`` writes."""
    return "".join(_report_blocks(report))


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
    tables: Optional[dict] = None,
    plot_series: Optional[dict] = None,
) -> list[Path]:
    """Write the report document plus the side tables it is handed.

    ``tables`` maps a file stem to ``(header, rows)``; each becomes a
    ``<stem>.csv`` that :func:`write_csv` writes, in the order given,
    after ``report.json`` and before the plot files.  The caller names
    every table and its header.
    ``plot_series`` maps a file stem to ``(timestamps, values, flags)``,
    one sample per index, ``flags[i]`` being 1 when sample ``i`` was
    transmitted; each becomes a ``<stem>.csv`` with, for each of the first
    ``len(flags)`` samples, the timestamp, the raw value, its
    zero-order-hold reconstruction and the flag.  Series sharing one pair
    of columns and one length are written together, ``_BLOCK`` samples at
    a time: each block's cells are formatted once for all of them and
    written to every file before the next block, so the plot writer's
    memory does not grow with the stream.  The groups are spread by
    :func:`mistsim.engine.fork_map` over the CPUs the process may run on,
    each process writing all of its groups before it reports back.
    ``report.json`` holds the bytes of :func:`dumps_stable`: the report is
    encoded first, in one walk, into a list of bounded blocks, which are
    written in turn and then dropped, so the text is never joined into one
    string.  A report that cannot be encoded (a non-finite float, a
    non-``str`` key) raises before ``out_dir`` is made.  Returns the
    written paths, in the order written.
    """
    blocks = _report_blocks(report)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    report_path = out / "report.json"
    with report_path.open("w", encoding="utf-8") as fh:
        fh.writelines(blocks)
    del blocks
    written.append(report_path)

    for stem, (header, rows) in (tables or {}).items():
        path = out / f"{stem}.csv"
        write_csv(path, header, rows)
        written.append(path)

    plot_series = plot_series or {}
    by_columns: dict[tuple[int, int, int], tuple[Sequence, Sequence, list]] = {}
    for stem, (timestamps, values, flags) in plot_series.items():
        key = (id(timestamps), id(values), len(flags))
        by_columns.setdefault(key, (timestamps, values, []))[2].append((stem, flags))
    list(fork_map(partial(_write_plot_csvs, out), list(by_columns.values())))
    written.extend(out / f"{stem}.csv" for stem in plot_series)

    return written


def _write_plot_csvs(out: Path, group: tuple[Sequence, Sequence, list]) -> None:
    """The plot files of one ``(timestamps, values, [(stem, flags)])`` group.

    The samples go ``_BLOCK`` at a time: each block's cells and transmitted
    lines are formatted once and shared by every series, and each series'
    block is written to its file before the next block is formatted, so
    nothing as long as the stream is built.  A suppressed line is its
    ``timestamp,raw,`` cell plus the held suffix, which changes only on a
    transmission and is carried from block to block.  At most
    ``_OPEN_FILES`` files are open at once: a larger group is written in
    passes of that many series.
    """
    timestamps, values, series = group
    total = len(series[0][1])
    for first in range(0, len(series), _OPEN_FILES):
        chunk = series[first:first + _OPEN_FILES]
        with ExitStack() as stack:
            files = [
                stack.enter_context(open(out / f"{stem}.csv", "w", encoding="utf-8"))
                for stem, _ in chunk
            ]
            for fh in files:
                fh.write("timestamp,raw,reconstructed,transmitted_flag\n")
            # The suffix of a suppressed line: the empty held value before the
            # first transmission, or None when nothing is ever transmitted
            # and the raw value stands in.
            held: list = [",0\n" if 1 in flags else None for _, flags in chunk]
            for start in range(0, total, _BLOCK):
                stop = min(start + _BLOCK, total)
                # Timestamps and raw values keep full precision; they are
                # data, not derived metrics.  The held value is the text of
                # a raw value.
                raws = list(map(repr, values[start:stop]))
                cells = [f"{t!r},{raw}," for t, raw in zip(timestamps[start:stop], raws)]
                sent = [f"{cell}{raw},1\n" for cell, raw in zip(cells, raws)]
                for k, (fh, (_, flags)) in enumerate(zip(files, chunk)):
                    suffix = held[k]
                    if suffix is None:
                        fh.write("".join([f"{cell}{raw},0\n" for cell, raw in zip(cells, raws)]))
                        continue
                    lines = []
                    append = lines.append
                    for cell, raw, line, flag in zip(cells, raws, sent, flags[start:stop]):
                        if flag:
                            append(line)
                            suffix = raw + ",0\n"
                        else:
                            append(cell + suffix)
                    held[k] = suffix
                    fh.write("".join(lines))


def parse_assertion(expression: str) -> tuple[tuple[str, ...], str, float]:
    """Parse a gating expression like ``comparison.cloud_energy_j.reduction_percent > 0``
    into ``(path keys, op, number)``, the gate :func:`check_assertion` evaluates.

    Grammar: ``<dotted.path> <op> <number>`` with ops ``< <= > >= == !=``.
    An expression that does not parse, or whose number is NaN, raises
    ``ValueError`` (``bad assertion ...``).
    """
    # The last operator, the longer where two start there: a path may hold one.
    at, _, op = max((expression.rfind(op), len(op), op) for op in _OPS)
    if at < 0:
        raise ValueError(
            f"bad assertion {expression!r}: expected '<field.path> <op> <number>'"
        )
    left, right = expression[:at], expression[at + len(op):]
    path = left.strip()
    if not path:
        raise ValueError(f"bad assertion {expression!r}: empty field path")
    try:
        threshold = float(right.strip())
    except ValueError:
        threshold = math.nan
    # A NaN gate would pass (!=) or fail (the rest) whatever the report holds.
    if math.isnan(threshold):
        raise ValueError(f"bad assertion {expression!r}: right side must be a number")
    return tuple(path.split(".")), op, threshold


def check_assertion(report: dict, gate: tuple[tuple[str, ...], str, float]) -> bool:
    """Whether ``report`` passes a gate :func:`parse_assertion` made.

    The path walks dict keys (and list indices given as integers) in the
    report.  A missing path or a ``None`` value fails the assertion rather
    than erroring, so gates can probe optional fields.
    """
    path, op, threshold = gate
    node: Any = report
    for part in path:
        digits = part.removeprefix("-")  # a list index: an optional "-", then ASCII digits
        if isinstance(node, dict) and part in node:
            node = node[part]
        elif isinstance(node, list) and digits.isascii() and digits.isdigit():
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
