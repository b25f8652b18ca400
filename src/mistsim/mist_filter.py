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

Every timestamp and value, and every full window's average, must be finite;
``step`` rejects a NaN, an infinity or an overflowing window sum with
``ValueError``.

``EventFilter``, in :mod:`mistsim.reference`, steps one ``Sample`` and is
the reference; this module never imports it (``mist_filter.EventFilter``
resolves there on lookup, for the benchmark's tracing).  A whole
:class:`Stream`, two ``array('d')`` columns, is measured by a two-stage
batch kernel that must agree with it bit for bit
(``tests/test_reconstruction.py`` checks that on random grids).
:func:`check_stream` is the one check of the stream contract (timestamps
finite and strictly increasing, values finite) outside ``step``; a caller
runs it once per stream, and it raises ``step``'s message for the first bad
sample.  Stage 1, :func:`window_averages`, depends only on its values and
``n``: it slides a window of ``n`` values over them as ``step`` does and
returns each full window's average, ``sum(window) / n`` left to right, in an
``array('d')`` of 8 B a window.  It only has to catch a window sum that
overflows, and raises ``step``'s message for it.  Stage 2,
:func:`mistsim.reconstruction.measure_grid`, applies the band for each ``p``
to those shared averages.  Neither stage keeps a Python object per sample.
"""

from __future__ import annotations

import math
from array import array
from collections import deque, namedtuple
from itertools import islice
from operator import lt

from . import _reference_names

__getattr__ = _reference_names(__name__, "EventFilter")


class Stream:
    """A stream as two equal-length ``array('d')`` columns, 16 B a sample.

    Sample ``i`` is ``(timestamps[i], values[i])``; ``len()`` counts them.
    Any other column type is rejected at construction, and the columns
    cannot be reassigned afterwards.
    """

    __slots__ = ("timestamps", "values", "__weakref__")

    def __init__(self, timestamps: array, values: array) -> None:
        for name, column in (("timestamps", timestamps), ("values", values)):
            if not (isinstance(column, array) and column.typecode == "d"):
                got = f"array({column.typecode!r})" if isinstance(column, array) else type(column).__name__
                raise ValueError(f"{name} must be an array('d'), got {got}")
        if len(timestamps) != len(values):
            raise ValueError(f"{len(timestamps)} timestamps but {len(values)} values")
        object.__setattr__(self, "timestamps", timestamps)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return Stream, (self.timestamps, self.values)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Stream:
            return NotImplemented
        return (self.timestamps, self.values) == (other.timestamps, other.values)

    def __repr__(self) -> str:
        return f"Stream(timestamps={self.timestamps!r}, values={self.values!r})"

    def __len__(self) -> int:
        return len(self.timestamps)


_isfinite = math.isfinite
_INF = math.inf


class FilterConfig(namedtuple("FilterConfig", "n p")):
    """Filter parameters.

    Parameters
    ----------
    n:
        Sliding-window length, an integer >= 1.
    p:
        Dead-band half width as a fraction of the window average magnitude,
        >= 0.  ``0.05`` means plus or minus five percent.
    """

    __slots__ = ()

    def __new__(cls, n: int = 10, p: float = 0.05) -> FilterConfig:
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"window size n must be an integer >= 1, got {n!r}")
        if not isinstance(p, (int, float)) or isinstance(p, bool):
            raise ValueError(f"band fraction p must be a number, got {p!r}")
        if not math.isfinite(p) or p < 0:
            raise ValueError(f"band fraction p must be finite and >= 0, got {p!r}")
        return tuple.__new__(cls, (n, p))


def check_stream(stream: Stream) -> None:
    """Return when the stream's timestamps and values pass ``step``'s checks.

    Otherwise raises what :meth:`~mistsim.reference.EventFilter.step` raises
    at the first failing sample, with a window that never fills: a window
    sum that overflows is left to :func:`window_averages`, which finds it
    for each ``n``.
    """
    times, values = stream.timestamps, stream.values
    # Strictly increasing timestamps between finite ends are all finite (a
    # NaN fails every comparison).
    ordered = not times or (
        -_INF < times[0] and times[-1] < _INF and all(map(lt, times, islice(times, 1, None)))
    )
    if ordered and all(map(_isfinite, values)):
        return
    # The first failure, found as step finds it: timestamp before value.
    last = -_INF
    for timestamp, value in zip(times, values):
        if not (last < timestamp and timestamp < _INF):
            if not _isfinite(timestamp):
                raise ValueError(f"non-finite timestamp {timestamp!r}")
            raise ValueError(
                f"out-of-order sample: timestamp {timestamp!r} does not exceed {last!r}"
            )
        if not _isfinite(value):
            raise ValueError(f"non-finite value {value!r} at timestamp {timestamp!r}")
        last = timestamp


def window_averages(stream: Stream, n: int) -> array:
    """Stage 1 of the batch kernel: the full-window averages of a checked stream.

    ``averages[k]`` is the average of ``values[k:k + n]``, computed as
    ``step`` computes it, so it judges ``values[k + n]``; a stream of
    ``total >= n`` samples has ``total - n + 1`` of them, the last judging
    nothing, and a shorter one none.  Returns them as an ``array('d')``.
    Raises what :meth:`~mistsim.reference.EventFilter.step` raises where a
    window sum first overflows.
    """
    values = stream.values
    if n > len(values):  # every sample is warm-up
        return array("d")
    # The window slides as step's does: n floats, summed oldest first.
    window = deque(islice(values, n - 1), maxlen=n)
    averages = array("d")
    push, put = window.append, averages.append
    for value in islice(values, n - 1, None):
        push(value)
        put(sum(window) / n)
    if not all(map(_isfinite, averages)):
        k = list(map(_isfinite, averages)).index(False)
        raise ValueError(
            f"window average overflowed to {averages[k]!r} at timestamp "
            f"{stream.timestamps[k + n - 1]!r}; the sum of the last n values exceeds the float range"
        )
    return averages
