"""The per-sample reference implementations the batch kernels must match.

The filter, :class:`EventFilter`, then :func:`build_log`,
:func:`reconstruct_zoh` and :func:`error_report`, give what
:func:`~mistsim.reconstruction.measure_grid` gives; :class:`SplitMix64` draws
the normals :func:`~mistsim.rng.normal_blocks` scales.  No command and no other
module imports this one: the tests and ``scripts/make_office_fixture.py``
import these names from here, and only the hooks the benchmark's tracing
looks names up through (``mistsim.mist_filter.EventFilter``,
``mistsim.cli.build_log``, ...) load it.
"""

from __future__ import annotations

import math
from collections import deque, namedtuple
from enum import Enum
from itertools import islice
from operator import lt
from typing import Deque, NamedTuple, Optional, Sequence

from .mist_filter import _INF, FilterConfig, _isfinite
from .reconstruction import ErrorReport, _plain_sum
from .rng import _GAMMA, _MASK64, _MIX1, _MIX2, _TWO_NEG53, _TWO_PI


class Reason(str, Enum):
    """Why a value was (or was not) transmitted."""

    WARMUP = "warmup"
    EVENT = "event"
    SUPPRESSED = "suppressed"


class Sample(NamedTuple):
    """One timestamped reading.  Timestamps must strictly increase per stream."""

    timestamp: float
    value: float


class TransmitDecision(NamedTuple):
    """Outcome of one filter step.

    ``transmit`` is True exactly when ``reason`` is ``WARMUP`` or ``EVENT``.
    """

    transmit: bool
    reason: Reason


# Shared singletons: step() allocates nothing on the hot path.
_WARMUP = TransmitDecision(True, Reason.WARMUP)
_EVENT = TransmitDecision(True, Reason.EVENT)
_SUPPRESSED = TransmitDecision(False, Reason.SUPPRESSED)


class EventFilter:
    """Streaming filter state for one sensor.

    Attributes mirror what a conforming implementation must track: the
    ``window`` of previous raw values (oldest first), the current ``avg``,
    thresholds ``t_hi``/``t_lo``, and ``seen``, the count of values stepped
    so far.  ``avg`` and the thresholds stay ``None`` until the first full
    window exists.  Treat the attributes as read-only.
    """

    __slots__ = ("n", "p", "window", "avg", "t_hi", "t_lo", "seen", "_last_timestamp")

    def __init__(self, config: FilterConfig) -> None:
        self.n: int = config.n
        self.p: float = config.p
        self.window: Deque[float] = deque(maxlen=config.n)
        self.avg: Optional[float] = None
        self.t_hi: Optional[float] = None
        self.t_lo: Optional[float] = None
        self.seen: int = 0
        # -inf: the first timestamp only has to be finite.
        self._last_timestamp: float = -_INF

    def step(self, sample: Sample) -> TransmitDecision:
        """Classify one sample against the current band, then absorb it.

        The decision uses the window of values seen before this sample.
        Afterwards the sample's raw value enters the window and ``avg`` and
        the thresholds are recomputed, regardless of the decision.

        Raises
        ------
        ValueError
            If the sample's timestamp is NaN or infinite or does not exceed
            the previous one, if its value is NaN or infinite, or if the full
            window's average is not finite (its sum overflowed).  A rejected
            timestamp leaves the filter unchanged.  After either of the last
            two the window holds the offending value; discard the filter.
        """
        timestamp, value = sample
        last = self._last_timestamp
        # Two comparisons on the hot path; a NaN timestamp fails both.
        if not (last < timestamp and timestamp < _INF):
            if not _isfinite(timestamp):
                raise ValueError(f"non-finite timestamp {timestamp!r}")
            raise ValueError(
                f"out-of-order sample: timestamp {timestamp!r} does not exceed {last!r}"
            )
        self._last_timestamp = timestamp

        n = self.n
        seen = self.seen
        if seen < n:
            if not _isfinite(value):
                raise ValueError(f"non-finite value {value!r} at timestamp {timestamp!r}")
            decision = _WARMUP
        elif value >= self.t_hi or value <= self.t_lo:
            decision = _EVENT
        else:
            decision = _SUPPRESSED

        window = self.window
        window.append(value)
        seen += 1
        self.seen = seen
        if seen >= n:  # the window is full
            # Full recompute each step; cheap at telemetry window sizes and
            # immune to incremental-sum drift on adversarial value ranges.
            avg = sum(window) / n
            if not _isfinite(avg):
                # After warm-up a non-finite value always lands here too.
                if not _isfinite(value):
                    raise ValueError(f"non-finite value {value!r} at timestamp {timestamp!r}")
                raise ValueError(
                    f"window average overflowed to {avg!r} at timestamp {timestamp!r}; "
                    "the sum of the last n values exceeds the float range"
                )
            band = self.p * abs(avg)
            self.avg = avg
            self.t_hi = avg + band
            self.t_lo = avg - band
        return decision


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


class SplitMix64:
    """The pinned generator.  See the :mod:`mistsim.rng` docstring for the exact recipe."""

    __slots__ = ("_state", "_spare")

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64
        self._spare: Optional[float] = None

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_unit(self) -> float:
        """Uniform double in (0, 1], 53 usable bits."""
        return ((self.next_u64() >> 11) + 1) * _TWO_NEG53

    def next_normal(self) -> float:
        """Standard normal draw, Box-Muller pairs in the pinned order."""
        spare = self._spare
        if spare is not None:
            self._spare = None
            return spare
        u1 = self.next_unit()
        u2 = self.next_unit()
        r = math.sqrt(-2.0 * math.log(u1))
        theta = _TWO_PI * u2
        self._spare = r * math.sin(theta)
        return r * math.cos(theta)
