"""Sample streams: reproducible synthetic generators and CSV replay.

Synthetic streams come from the pinned generator in :mod:`mistsim.rng`, so a
seed fully determines the stream.  CSV replay is deliberately forgiving:
real exports contain broken rows, and dropping a handful of them must not
abort a run.  Skipped rows are counted and reported instead.
"""

from __future__ import annotations

import math
from array import array
from collections import namedtuple
from itertools import chain, repeat
from operator import add, mul
from pathlib import Path
from typing import NamedTuple, Optional, Union

from .mist_filter import Stream
from .rng import normal_blocks

# The most samples one synthetic source may have.  Its stream is built whole:
# 16 B a sample, so about 160 MB.
MAX_COUNT = 10_000_000


class SensorSpec(namedtuple("SensorSpec", "device_id mean stddev period_ms count seed")):
    """A synthetic sensor drawing i.i.d. normal values on a fixed cadence.

    Timestamps are ``k * period_ms`` for ``k = 0 .. count - 1``, with
    ``count <= MAX_COUNT``; the last, which is the largest, must be finite.
    """

    __slots__ = ()

    def __new__(
        cls, device_id: str, mean: float, stddev: float, period_ms: float, count: int, seed: int
    ) -> SensorSpec:
        if not device_id:
            raise ValueError("device_id must be non-empty")
        if not math.isfinite(mean):
            raise ValueError(f"mean must be finite, got {mean!r}")
        if not math.isfinite(stddev) or stddev < 0:
            raise ValueError(f"stddev must be finite and >= 0, got {stddev!r}")
        if not math.isfinite(period_ms) or period_ms <= 0:
            raise ValueError(f"period_ms must be finite and > 0, got {period_ms!r}")
        if not 0 <= count <= MAX_COUNT:
            raise ValueError(f"count must be >= 0 and <= {MAX_COUNT}, got {count!r}")
        last = (count - 1) * period_ms
        if not math.isfinite(last):
            raise ValueError(
                f"the last timestamp (count - 1) * period_ms must be finite, got {last!r}"
            )
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"seed must fit in 64 bits, got {seed!r}")
        return tuple.__new__(cls, (device_id, mean, stddev, period_ms, count, seed))


class ReplaySpec(
    namedtuple(
        "ReplaySpec",
        "device_id path value_column timestamp_column delimiter expected_period",
    )
):
    """A sensor fed from a CSV column instead of a generator."""

    __slots__ = ()

    def __new__(
        cls,
        device_id: str,
        path: str,
        value_column: str = "value",
        timestamp_column: str = "timestamp",
        delimiter: str = ",",
        expected_period: Optional[float] = None,
    ) -> ReplaySpec:
        if not device_id:
            raise ValueError("device_id must be non-empty")
        if len(delimiter) != 1:
            raise ValueError(f"delimiter must be a single character, got {delimiter!r}")
        if expected_period is not None and not (
            math.isfinite(expected_period) and expected_period > 0
        ):
            raise ValueError(
                f"expected_period must be finite and > 0 when given, got {expected_period!r}"
            )
        fields = (device_id, path, value_column, timestamp_column, delimiter, expected_period)
        return tuple.__new__(cls, fields)


class IngestReport(NamedTuple):
    """Bookkeeping for one CSV replay: every data row is accounted for."""

    rows_read: int
    rows_skipped: int
    samples: int
    gaps_detected: int


SourceSpec = Union[SensorSpec, ReplaySpec]


def gen_normal(spec: SensorSpec) -> Stream:
    """Generate ``spec.count`` samples; the seed alone fixes the stream.

    Sample ``k`` is ``(k * period_ms, mean + stddev * z_k)`` with ``z_k``
    the ``k``-th normal of ``SplitMix64(seed)``.  The values are built one
    kernel block at a time, so no list the length of the stream exists
    beside the result.
    """
    mean, stddev, period_ms = spec.mean, spec.stddev, spec.period_ms
    # Both columns are allocated at their final size and filled a block at
    # a time; growing them by appends would leave spare capacity behind.
    timestamps = array("d", [0.0]) * spec.count
    values = array("d", [0.0]) * spec.count
    start = 0
    for normals in normal_blocks(spec.seed, spec.count):
        stop = start + len(normals)
        values[start:stop] = array("d", map(add, repeat(mean), map(mul, repeat(stddev), normals)))
        timestamps[start:stop] = array("d", map(mul, range(start, stop), repeat(period_ms)))
        start = stop
    return Stream(timestamps, values)


def undecodable_line(path: Path) -> tuple[int, UnicodeDecodeError]:
    """The number of the first line of ``path`` that is not UTF-8, and its
    error, for a file a text reader could not decode: the reader decodes a
    block at a time, so its own error does not say where.  Lines are counted
    as the reader counts them: ``\r``, ``\n`` and ``\r\n`` end one."""
    with path.open("rb") as handle:
        for number, line in enumerate(chain.from_iterable(map(bytes.splitlines, handle)), 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return number, exc
    raise ValueError(f"{path}: every line decodes as UTF-8")


def load_csv(spec: ReplaySpec) -> tuple[Stream, IngestReport]:
    """Replay a CSV column as a sample stream.

    A header row is required, and it must name the timestamp and value
    columns once each (after ``strip()``), else ``ValueError``.  Data rows
    that cannot be parsed (missing cells, non-numeric values, unreadable
    timestamps, non-finite values) are skipped and counted, as are rows
    whose timestamp fails to advance.  When ``expected_period`` is set, a
    gap is counted whenever the spacing between consecutive kept samples
    exceeds 1.5 times the expected period.

    A path that is missing or is not a regular file (a directory, say)
    raises ``FileNotFoundError`` saying which.  A file the reader cannot
    read as CSV (a field over ``csv.field_size_limit()``, say) or that is
    not UTF-8 raises ``ValueError`` naming the file and the line.

    Returns the stream plus an :class:`IngestReport`; by construction
    ``rows_read == samples + rows_skipped``.
    """
    # Imported here, once per replay, so a run without one never loads them.
    import csv
    from datetime import datetime, timezone

    def parse_timestamp(cell: str) -> float:
        """Epoch seconds if ``float`` reads the cell, else ISO-8601, so a cell
        such as ``20240101`` means the same on every Python.  Naive datetimes
        count as UTC."""
        text = cell.strip()
        try:
            return float(text)
        except ValueError:
            dt = datetime.fromisoformat(text)
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return dt.timestamp()

    path = Path(spec.path)
    if not path.is_file():
        if path.exists():  # a directory, say
            raise FileNotFoundError(f"dataset path is not a regular file: {path}")
        raise FileNotFoundError(f"dataset file not found: {path}")

    timestamps = array("d")
    values = array("d")
    rows_read = 0
    rows_skipped = 0
    gaps = 0

    try:
        with path.open(newline="", encoding="utf-8-sig") as handle:  # a byte-order mark is not text
            reader = csv.reader(handle, delimiter=spec.delimiter)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError(f"{path}: empty file, a header row is required") from None
            names = [name.strip() for name in header]
            for needed in (spec.timestamp_column, spec.value_column):
                if needed not in names:
                    raise ValueError(f"{path}: column {needed!r} not in header {header!r}")
                if names.count(needed) > 1:
                    raise ValueError(
                        f"{path}: column {needed!r} named more than once in header {header!r}"
                    )
            ts_idx = names.index(spec.timestamp_column)
            val_idx = names.index(spec.value_column)

            for row in reader:
                rows_read += 1
                try:
                    ts = parse_timestamp(row[ts_idx])
                    value = float(row[val_idx])
                except (ValueError, IndexError):
                    rows_skipped += 1
                    continue
                if not (math.isfinite(ts) and math.isfinite(value)):
                    rows_skipped += 1
                    continue
                if timestamps and ts <= timestamps[-1]:
                    # A stalled or rewinding clock; the stream must stay strictly
                    # increasing, so the row is dropped rather than fatal.
                    rows_skipped += 1
                    continue
                if (
                    spec.expected_period is not None
                    and timestamps
                    and ts - timestamps[-1] > 1.5 * spec.expected_period
                ):
                    gaps += 1
                timestamps.append(ts)
                values.append(value)
    except csv.Error as exc:  # a field over csv.field_size_limit(), say
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        number, exc = undecodable_line(path)
        raise ValueError(f"{path}: line {number}: {exc}") from None

    report = IngestReport(
        rows_read=rows_read,
        rows_skipped=rows_skipped,
        samples=len(timestamps),
        gaps_detected=gaps,
    )
    return Stream(timestamps, values), report
