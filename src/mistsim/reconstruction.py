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
``EventFilter.step`` per ``Sample``, then ``build_log``, ``reconstruct_zoh``
and ``error_report`` are the reference; they are importable only from
:mod:`mistsim.reference`, which this module never loads.  Kernel
and reference add every total left to right with no compensation
(:func:`_plain_sum`), so they round alike on every Python version.
"""

from __future__ import annotations

import math
from array import array
from functools import reduce
from itertools import islice
from operator import add
from typing import NamedTuple, Optional, Sequence

from .mist_filter import FilterConfig, Stream, window_averages


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


def _plain_sum(numbers) -> float:
    """``numbers`` added left to right in floats, with no compensation, as
    ``sum()`` adds them before Python 3.12: the batch kernel's running
    totals round the same way."""
    return reduce(add, numbers, 0.0)


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
    result equals what the reference ``build_log``, ``reconstruct_zoh`` and
    ``error_report`` give in turn for the decisions of ``EventFilter.step``;
    an empty stream's report is all zero.
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
        for i, value, avg in zip(range(warm, total), islice(values, warm, None), averages):
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
