"""Event-triggered dead-band filtering for sensor streams.

A sensor keeps a sliding window of the last ``n`` raw values it has already
observed (the current value is never part of the window that judges it).
The window average defines a dead band::

    t_hi = avg + p * |avg|
    t_lo = avg - p * |avg|

A new value is transmitted only when it falls on or outside the band, i.e.
``value >= t_hi or value <= t_lo``.  Values strictly inside the open interval
``(t_lo, t_hi)`` are suppressed.  The first ``n`` values transmit
unconditionally (warm-up) because no full window exists yet.  The window and
the derived quantities are updated with every raw value, transmitted or not,
so suppression never desynchronises the filter from the signal.

Two consequences of the band definition worth spelling out:

* ``p = 0`` or a window average of exactly ``0.0`` gives a zero-width band,
  so every value transmits (boundary equality counts as an event).
* The band scales with ``|avg|``; scaling a strictly positive stream by a
  positive constant leaves every decision unchanged.

The window average is recomputed from the stored window at every step, in
chronological order, so the result is bit-for-bit identical to what a
from-scratch implementation produces on the same values.

Every value, and every full window's average, must be finite; ``step``
rejects a NaN, an infinity or an overflowing window sum with ``ValueError``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Deque, NamedTuple, Optional


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


_isfinite = math.isfinite

# Shared singletons: step() allocates nothing on the hot path.
_WARMUP = TransmitDecision(True, Reason.WARMUP)
_EVENT = TransmitDecision(True, Reason.EVENT)
_SUPPRESSED = TransmitDecision(False, Reason.SUPPRESSED)


@dataclass(frozen=True)
class FilterConfig:
    """Filter parameters.

    Parameters
    ----------
    n:
        Sliding-window length, an integer >= 1.
    p:
        Dead-band half width as a fraction of the window average magnitude,
        >= 0.  ``0.05`` means plus or minus five percent.
    """

    n: int = 10
    p: float = 0.05

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"window size n must be an integer >= 1, got {self.n!r}")
        if not isinstance(self.p, (int, float)) or isinstance(self.p, bool):
            raise ValueError(f"band fraction p must be a number, got {self.p!r}")
        if not math.isfinite(self.p) or self.p < 0:
            raise ValueError(f"band fraction p must be finite and >= 0, got {self.p!r}")


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
        self._last_timestamp: Optional[float] = None

    def step(self, sample: Sample) -> TransmitDecision:
        """Classify one sample against the current band, then absorb it.

        The decision uses the window of values seen before this sample.
        Afterwards the sample's raw value enters the window and ``avg`` and
        the thresholds are recomputed, regardless of the decision.

        Raises
        ------
        ValueError
            If the sample's timestamp does not exceed the previous one, if
            its value is NaN or infinite, or if the full window's average is
            not finite (its sum overflowed).  After either of the last two
            the window holds the offending value; discard the filter.
        """
        timestamp, value = sample
        last = self._last_timestamp
        if last is not None and timestamp <= last:
            raise ValueError(
                f"out-of-order sample: timestamp {timestamp!r} does not exceed {last!r}"
            )
        self._last_timestamp = timestamp

        if self.seen < self.n:
            if not _isfinite(value):
                raise ValueError(f"non-finite value {value!r} at timestamp {timestamp!r}")
            decision = _WARMUP
        elif value >= self.t_hi or value <= self.t_lo:
            decision = _EVENT
        else:
            decision = _SUPPRESSED

        window = self.window
        window.append(value)
        self.seen += 1
        if len(window) == self.n:
            # Full recompute each step; cheap at telemetry window sizes and
            # immune to incremental-sum drift on adversarial value ranges.
            avg = sum(window) / self.n
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

