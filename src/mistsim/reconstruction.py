"""Zero-order-hold reconstruction and reduction/error accounting.

The receiving side only ever sees the transmitted values.  Reconstruction
holds each transmitted value flat until the next one arrives, then the
reconstructed series is compared point-by-point against the raw series the
sensor actually observed.

:func:`measure_grid` measures one stream, checked once by
:func:`mistsim.mist_filter.check_stream`, under many filter configs with a
two-stage batch kernel.  Stage 1, :func:`mistsim.mist_filter.window_averages`,
runs once per distinct window size ``n`` on the stream's values.  Stage 2
runs once per config on those shared averages: it makes each transmit
decision and accounts the hold error in the same loop, as a running total
and a running maximum, so apart from the flags, which are output, it keeps
nothing per sample.
:meth:`EventFilter.step` per :class:`Sample`, then :func:`build_log`,
:func:`reconstruct_zoh` and :func:`error_report`, are the reference.  Kernel
and reference add every total left to right with no compensation
(:func:`_plain_sum`), so they round alike on every Python version.
"""

from __future__ import annotations

import math
from array import array
from collections import namedtuple
from functools import reduce
from itertools import islice
from operator import add, lt
from typing import NamedTuple, Optional, Sequence

from .mist_filter import FilterConfig, Sample, Stream, TransmitDecision, window_averages


class TransmissionLog(namedtuple("TransmissionLog", "entries total_count")):
    """What actually left a sensor: the transmitted samples, in order.

    ``total_count`` is the number of raw samples the filter stepped through,
    so ``total_count - len(entries)`` values were suppressed.
    """

    __slots__ = ()

    def __new__(cls, entries: tuple[Sample, ...], total_count: int) -> TransmissionLog:
        if total_count < 0:
            raise ValueError("total_count must be >= 0")
        if len(entries) > total_count:
            raise ValueError("log cannot hold more entries than samples seen")
        times = [entry.timestamp for entry in entries]
        if not all(map(lt, times, islice(times, 1, None))):
            raise ValueError("log timestamps must strictly increase")
        return tuple.__new__(cls, (entries, total_count))


def build_log(samples: Sequence[Sample], decisions: Sequence[TransmitDecision]) -> TransmissionLog:
    """Pair raw samples with their decisions and keep the transmitted ones."""
    if len(samples) != len(decisions):
        raise ValueError("samples and decisions must have equal length")
    entries = tuple(s for s, d in zip(samples, decisions) if d.transmit)
    return TransmissionLog(entries=entries, total_count=len(samples))


class ErrorReport(NamedTuple):
    """Reconstruction quality and traffic reduction for one stream.

    ``avg_error_pct_of_mean`` is a secondary convenience figure, the average
    absolute error as a percentage of the mean absolute raw value.  It is not
    authoritative; the absolute fields are.  It is ``None`` when the raw
    stream's mean absolute value is zero.
    """

    total_count: int
    transmitted_count: int
    suppressed_count: int
    reduction_fraction: float
    avg_abs_error: float
    max_abs_error: float
    avg_error_pct_of_mean: Optional[float]

    def to_dict(self) -> dict:
        """The per-sensor block of a report; an empty stream reduces by 0 %."""
        total = self.total_count
        return {
            "total": total,
            "transmitted": self.transmitted_count,
            "suppressed": self.suppressed_count,
            "reduction_percent": (100.0 * self.suppressed_count / total) if total else 0.0,
            "avg_abs_error": self.avg_abs_error,
            "max_abs_error": self.max_abs_error,
            "avg_error_pct_of_mean": self.avg_error_pct_of_mean,
        }


def reconstruct_zoh(log: TransmissionLog, timestamps: Sequence[float]) -> list[float]:
    """Zero-order hold of the log sampled at the raw timestamps.

    For each timestamp the reconstruction is the most recent transmitted
    value at or before it.  Every log timestamp must occur in ``timestamps``
    and the first timestamp must not precede the first log entry (warm-up
    guarantees both whenever anything was transmitted at all).
    """
    entries = log.entries
    if not entries:
        raise ValueError("cannot reconstruct from an empty transmission log")
    known = set(timestamps)
    for entry in entries:
        if entry.timestamp not in known:
            raise ValueError(
                f"log timestamp {entry.timestamp!r} does not occur in the raw timeline"
            )
    if timestamps and timestamps[0] < entries[0].timestamp:
        raise ValueError(
            f"no transmitted value at or before timestamp {timestamps[0]!r}"
        )
    out: list[float] = []
    j = 0
    last = len(entries) - 1
    for t in timestamps:
        while j < last and entries[j + 1].timestamp <= t:
            j += 1
        out.append(entries[j].value)
    return out


def _plain_sum(numbers) -> float:
    """``numbers`` added left to right in floats, with no compensation, as
    ``sum()`` adds them before Python 3.12: the batch kernel's running
    totals round the same way."""
    return reduce(add, numbers, 0.0)


def error_report(
    raw: Sequence[float], reconstructed: Sequence[float], transmitted_count: int
) -> ErrorReport:
    """Compare a raw series against its reconstruction.

    Both series must be non-empty and equally long; ``transmitted_count``
    must lie in ``[0, len(raw)]``.
    """
    total = len(raw)
    if total == 0:
        raise ValueError("raw series must be non-empty")
    if len(reconstructed) != total:
        raise ValueError(
            f"length mismatch: {total} raw values vs {len(reconstructed)} reconstructed"
        )
    if not 0 <= transmitted_count <= total:
        raise ValueError(f"transmitted_count {transmitted_count} out of range 0..{total}")

    abs_errors = [abs(r - v) for r, v in zip(raw, reconstructed)]
    avg_err = _plain_sum(abs_errors) / total
    max_err = max(abs_errors)
    mean_abs_raw = _plain_sum(map(abs, raw)) / total
    # The ratio first: 100 * an error near the float limit overflows.
    pct = 100.0 * (avg_err / mean_abs_raw) if mean_abs_raw > 0 else None
    return ErrorReport(
        total_count=total,
        transmitted_count=transmitted_count,
        suppressed_count=total - transmitted_count,
        reduction_fraction=(total - transmitted_count) / total,
        avg_abs_error=avg_err,
        max_abs_error=max_err,
        avg_error_pct_of_mean=pct,
    )


class Measurement(NamedTuple):
    """A measured stream; ``flags[i]`` is 1 when sample ``i`` was transmitted."""

    report: ErrorReport
    flags: bytearray


def measure_grid(
    stream: Stream, filter_configs: Sequence[Optional[FilterConfig]]
) -> list[Measurement]:
    """Measure one stream under each filter config, in the order given.

    The stream must have passed :func:`~mistsim.mist_filter.check_stream`.
    A ``None`` config means no filter: every sample is transmitted.  Each
    result equals what :func:`build_log`, :func:`reconstruct_zoh` and
    :func:`error_report` give in turn for the decisions of
    :meth:`EventFilter.step`; an empty stream's report is all zero.
    Stage 1, :func:`window_averages`, runs once per distinct ``n`` in order
    of first occurrence and raises ``ValueError`` where ``step`` first
    meets an overflowing window; every ``p`` shares its averages.
    Stage 2 raises ``ValueError`` where the running total of hold errors overflows.
    """
    values = stream.values
    total = len(values)
    mean_abs_raw = _plain_sum(map(abs, values)) / total if total else 0.0
    results = []
    averages_by_n: dict[int, array] = {}
    for config in filter_configs:
        if config is None:
            flags = bytearray(b"\x01" * total)
            results.append(_measurement(stream, flags, 0.0, 0.0, mean_abs_raw))
            continue
        n, p = config.n, config.p
        averages = averages_by_n.get(n)
        if averages is None:
            averages = averages_by_n[n] = window_averages(stream, n)
        # Stage 2: step's band test on the shared averages, with the hold
        # error accounted in the same loop as a running total, left to
        # right, and a running maximum; a transmitted sample's error is 0.0,
        # which changes neither.
        warm = min(n, total)
        flags = bytearray(b"\x01" * warm) + bytes(total - warm)
        error_sum = max_error = 0.0
        held = values[warm - 1] if warm else 0.0
        for i, value, avg in zip(range(n, total), islice(values, n, None), averages):
            band = p * abs(avg)
            if value >= avg + band or value <= avg - band:
                flags[i] = 1
                held = value
            else:
                error = abs(value - held)
                error_sum += error
                if error > max_error:
                    max_error = error
        results.append(_measurement(stream, flags, error_sum, max_error, mean_abs_raw))
    return results


def _measurement(
    stream: Stream, flags: bytearray, error_sum: float, max_error: float, mean_abs_raw: float
) -> Measurement:
    total = len(flags)
    if not total:
        return Measurement(ErrorReport(0, 0, 0, 0.0, 0.0, 0.0, None), flags)
    if not math.isfinite(error_sum):  # errors are >= 0: one inf makes the sum inf
        at = _overflow_index(stream.values, flags)
        raise ValueError(
            f"hold error overflowed to inf at timestamp {stream.timestamps[at]!r}; a suppressed "
            "value's distance from its held value, or the sum of those, exceeds the float range"
        )
    avg_err = error_sum / total
    transmitted = flags.count(1)
    # The ratio first, as error_report does: 100 * an error near the float limit overflows.
    pct = 100.0 * (avg_err / mean_abs_raw) if mean_abs_raw > 0 else None
    report = ErrorReport(
        total_count=total,
        transmitted_count=transmitted,
        suppressed_count=total - transmitted,
        reduction_fraction=(total - transmitted) / total,
        avg_abs_error=avg_err,
        max_abs_error=max_error,
        avg_error_pct_of_mean=pct,
    )
    return Measurement(report, flags)


def _overflow_index(values: array, flags: bytearray) -> int:
    """Where the running total of hold errors, under ``flags``, first reaches inf."""
    error_sum = 0.0
    held = 0.0
    for i, (value, sent) in enumerate(zip(values, flags)):
        if sent:
            held = value
        else:
            error_sum += abs(value - held)
            if error_sum == math.inf:
                return i
    return len(flags) - 1
