"""Zero-order-hold reconstruction and reduction/error accounting.

The receiving side only ever sees the transmitted values.  Reconstruction
holds each transmitted value flat until the next one arrives, then the
reconstructed series is compared point-by-point against the raw series the
sensor actually observed.

:func:`measure_stream` does all of that in one pass and is what the engine
and the command line use; :func:`build_log`, :func:`reconstruct_zoh` and
:func:`error_report` are its steps one at a time, kept as its reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from .mist_filter import EventFilter, FilterConfig, Sample, TransmitDecision


@dataclass(frozen=True)
class TransmissionLog:
    """What actually left a sensor: the transmitted samples, in order.

    ``total_count`` is the number of raw samples the filter stepped through,
    so ``total_count - len(entries)`` values were suppressed.
    """

    entries: tuple[Sample, ...]
    total_count: int

    def __post_init__(self) -> None:
        if self.total_count < 0:
            raise ValueError("total_count must be >= 0")
        if len(self.entries) > self.total_count:
            raise ValueError("log cannot hold more entries than samples seen")
        for prev, cur in zip(self.entries, self.entries[1:]):
            if cur.timestamp <= prev.timestamp:
                raise ValueError("log timestamps must strictly increase")


def build_log(samples: Sequence[Sample], decisions: Sequence[TransmitDecision]) -> TransmissionLog:
    """Pair raw samples with their decisions and keep the transmitted ones."""
    if len(samples) != len(decisions):
        raise ValueError("samples and decisions must have equal length")
    entries = tuple(s for s, d in zip(samples, decisions) if d.transmit)
    return TransmissionLog(entries=entries, total_count=len(samples))


@dataclass(frozen=True)
class ErrorReport:
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


def empty_report() -> ErrorReport:
    """The all-zero report used for a stream that produced no samples."""
    return ErrorReport(
        total_count=0,
        transmitted_count=0,
        suppressed_count=0,
        reduction_fraction=0.0,
        avg_abs_error=0.0,
        max_abs_error=0.0,
        avg_error_pct_of_mean=None,
    )


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
    avg_err = sum(abs_errors) / total
    max_err = max(abs_errors)
    suppressed, _ = reduction_stats(total, transmitted_count)
    mean_abs_raw = sum(abs(r) for r in raw) / total
    pct = 100.0 * avg_err / mean_abs_raw if mean_abs_raw > 0 else None
    return ErrorReport(
        total_count=total,
        transmitted_count=transmitted_count,
        suppressed_count=suppressed,
        reduction_fraction=suppressed / total,
        avg_abs_error=avg_err,
        max_abs_error=max_err,
        avg_error_pct_of_mean=pct,
    )


_value = itemgetter(1)  # Sample.value


class Measurement(NamedTuple):
    """A measured stream; ``flags[i]`` is 1 when sample ``i`` was transmitted."""

    log: TransmissionLog
    report: ErrorReport
    flags: bytearray


def measure_stream(
    samples: Sequence[Sample], filter_config: Optional[FilterConfig]
) -> Measurement:
    """Filter a stream and account its zero-order-hold error in one pass.

    ``filter_config=None`` means no filter: every sample is transmitted.
    The result equals :func:`build_log`, :func:`reconstruct_zoh` and
    :func:`error_report` applied in turn (:func:`empty_report` for an empty
    stream).  Raises ``ValueError`` where :meth:`EventFilter.step` does.
    """
    total = len(samples)
    if filter_config is None:
        flags = bytearray(b"\x01" * total)
        abs_errors = [0.0] * total
    else:
        step = EventFilter(filter_config).step
        flags = bytearray(total)
        abs_errors = []
        append = abs_errors.append
        held = 0.0
        for i, sample in enumerate(samples):
            if step(sample).transmit:
                flags[i] = 1
                held = sample.value
                append(0.0)
            else:
                append(abs(sample.value - held))
    log = TransmissionLog(entries=tuple(compress(samples, flags)), total_count=total)
    if not total:
        return Measurement(log, empty_report(), flags)
    # sum() over the ordered list, as error_report does: a running total
    # rounds differently wherever sum() compensates (Python >= 3.12).
    avg_err = sum(abs_errors) / total
    transmitted = len(log.entries)
    mean_abs_raw = sum(map(abs, map(_value, samples))) / total
    report = ErrorReport(
        total_count=total,
        transmitted_count=transmitted,
        suppressed_count=total - transmitted,
        reduction_fraction=(total - transmitted) / total,
        avg_abs_error=avg_err,
        max_abs_error=max(abs_errors),
        avg_error_pct_of_mean=100.0 * avg_err / mean_abs_raw if mean_abs_raw > 0 else None,
    )
    return Measurement(log, report, flags)


def reduction_stats(total_count: int, transmitted_count: int) -> tuple[int, float]:
    """Suppressed count and reduction percentage for a stream.

    >>> reduction_stats(1000, 10)
    (990, 99.0)
    """
    if total_count < 1:
        raise ValueError("total_count must be >= 1")
    if not 0 <= transmitted_count <= total_count:
        raise ValueError(
            f"transmitted_count {transmitted_count} out of range 0..{total_count}"
        )
    suppressed = total_count - transmitted_count
    return suppressed, 100.0 * suppressed / total_count
