"""Sample streams: reproducible synthetic generators and CSV replay.

Synthetic streams come from the pinned generator in :mod:`mistsim.rng`, so a
seed fully determines the stream.  CSV replay is deliberately forgiving:
real exports contain broken rows, and dropping a handful of them must not
abort a run.  Skipped rows are counted and reported instead.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import repeat
from operator import add, mul
from pathlib import Path
from typing import Optional, Union

from .mist_filter import Stream
from .rng import normal_blocks

# The most samples one synthetic source may have.  Its stream is built whole:
# 16 B a sample, so about 160 MB.
MAX_COUNT = 10_000_000


@dataclass(frozen=True)
class SensorSpec:
    """A synthetic sensor drawing i.i.d. normal values on a fixed cadence.

    Timestamps are ``k * period_ms`` for ``k = 0 .. count - 1``, with
    ``count <= MAX_COUNT``; the last, which is the largest, must be finite.
    """

    device_id: str
    mean: float
    stddev: float
    period_ms: float
    count: int
    seed: int

    def __post_init__(self) -> None:
        if not self.device_id:
            raise ValueError("device_id must be non-empty")
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean!r}")
        if not math.isfinite(self.stddev) or self.stddev < 0:
            raise ValueError(f"stddev must be finite and >= 0, got {self.stddev!r}")
        if not math.isfinite(self.period_ms) or self.period_ms <= 0:
            raise ValueError(f"period_ms must be finite and > 0, got {self.period_ms!r}")
        if not 0 <= self.count <= MAX_COUNT:
            raise ValueError(f"count must be >= 0 and <= {MAX_COUNT}, got {self.count!r}")
        last = (self.count - 1) * self.period_ms
        if not math.isfinite(last):
            raise ValueError(
                f"the last timestamp (count - 1) * period_ms must be finite, got {last!r}"
            )
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed!r}")


@dataclass(frozen=True)
class ReplaySpec:
    """A sensor fed from a CSV column instead of a generator."""

    device_id: str
    path: str
    value_column: str = "value"
    timestamp_column: str = "timestamp"
    delimiter: str = ","
    expected_period: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.device_id:
            raise ValueError("device_id must be non-empty")
        if len(self.delimiter) != 1:
            raise ValueError(f"delimiter must be a single character, got {self.delimiter!r}")
        if self.expected_period is not None and not (
            math.isfinite(self.expected_period) and self.expected_period > 0
        ):
            raise ValueError(
                f"expected_period must be finite and > 0 when given, got {self.expected_period!r}"
            )


@dataclass(frozen=True)
class IngestReport:
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
    mean, stddev = spec.mean, spec.stddev
    values = array("d")
    for normals in normal_blocks(spec.seed, spec.count):
        values.extend(map(add, repeat(mean), map(mul, repeat(stddev), normals)))
    timestamps = array("d", map(mul, range(spec.count), repeat(spec.period_ms)))
    return Stream(timestamps, values)


def _parse_timestamp(cell: str) -> float:
    """ISO-8601 first, then epoch seconds.  Naive datetimes count as UTC."""
    text = cell.strip()
    try:
        dt = datetime.fromisoformat(text)
    except ValueError:
        return float(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def load_csv(spec: ReplaySpec) -> tuple[Stream, IngestReport]:
    """Replay a CSV column as a sample stream.

    A header row is required.  Data rows that cannot be parsed (missing
    cells, non-numeric values, unreadable timestamps, non-finite values) are
    skipped and counted, as are rows whose timestamp fails to advance.  When
    ``expected_period`` is set, a gap is counted whenever the spacing between
    consecutive kept samples exceeds 1.5 times the expected period.

    Returns the stream plus an :class:`IngestReport`; by construction
    ``rows_read == samples + rows_skipped``.
    """
    path = Path(spec.path)
    if not path.is_file():
        raise FileNotFoundError(f"dataset file not found: {path}")

    timestamps = array("d")
    values = array("d")
    rows_read = 0
    rows_skipped = 0
    gaps = 0

    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle, delimiter=spec.delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, a header row is required") from None
        columns = {name.strip(): idx for idx, name in enumerate(header)}
        for needed in (spec.timestamp_column, spec.value_column):
            if needed not in columns:
                raise ValueError(
                    f"{path}: column {needed!r} not in header {header!r}"
                )
        ts_idx = columns[spec.timestamp_column]
        val_idx = columns[spec.value_column]

        for row in reader:
            rows_read += 1
            try:
                ts = _parse_timestamp(row[ts_idx])
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

    report = IngestReport(
        rows_read=rows_read,
        rows_skipped=rows_skipped,
        samples=len(timestamps),
        gaps_detected=gaps,
    )
    return Stream(timestamps, values), report
