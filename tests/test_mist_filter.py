"""Unit and property tests for the dead-band filter.

The hand-worked cases pin exact decisions derived on paper; the hypothesis
properties check the streaming implementation against the from-scratch
oracle in ``oracles.py`` and the algebraic facts the band definition implies.
"""

from __future__ import annotations

import math
from array import array

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mistsim.mist_filter import (
    EventFilter,
    FilterConfig,
    Reason,
    Sample,
    Stream,
    check_stream,
    window_averages,
)
from oracles import dead_band_flags, dead_band_reasons, to_stream

VALUES = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def run_values(values, n, p):
    """Step a fresh filter over values (index used as timestamp)."""
    filt = EventFilter(FilterConfig(n=n, p=p))
    return [filt.step(Sample(float(i), v)) for i, v in enumerate(values)]


# ---------------------------------------------------------------- config


def test_config_defaults():
    cfg = FilterConfig()
    assert cfg.n == 10
    assert cfg.p == 0.05


@pytest.mark.parametrize("n", [0, -1, 1.5, "10", True, False])
def test_config_rejects_bad_n(n):
    with pytest.raises(ValueError):
        FilterConfig(n=n)


@pytest.mark.parametrize("p", [-0.01, float("nan"), float("inf"), "0.05", True])
def test_config_rejects_bad_p(p):
    with pytest.raises(ValueError):
        FilterConfig(p=p)


def test_config_accepts_edge_values():
    assert FilterConfig(n=1, p=0.0).p == 0.0
    assert FilterConfig(n=1, p=0).p == 0


# ------------------------------------------------ window and band state


def filled(values, n, p):
    """A filter that has stepped through ``values`` (index as timestamp)."""
    filt = EventFilter(FilterConfig(n=n, p=p))
    for i, v in enumerate(values):
        filt.step(Sample(float(i), v))
    return filt


def test_sliding_average_exact():
    assert filled([1.0, 2.0, 3.0, 4.0], n=4, p=0.1).avg == 2.5


def test_sliding_average_requires_full_window():
    # No average until n values were seen; afterwards only the last n count.
    assert filled([1.0, 2.0], n=3, p=0.1).avg is None
    assert filled([1.0, 2.0, 3.0, 4.0], n=3, p=0.1).avg == 3.0


def test_thresholds_positive_average():
    filt = filled([25.0] * 4, n=4, p=0.05)
    assert (filt.t_hi, filt.t_lo) == (26.25, 23.75)


def test_thresholds_negative_average_brackets_it():
    filt = filled([-10.0] * 3, n=3, p=0.1)
    assert (filt.t_hi, filt.t_lo) == (-9.0, -11.0)
    assert filt.t_lo <= filt.avg == -10.0 <= filt.t_hi
    # A value inside the bracket is suppressed, one on either edge is not.
    for probe, reason in ((-9.5, Reason.SUPPRESSED), (-9.0, Reason.EVENT), (-11.0, Reason.EVENT)):
        assert run_values([-10.0] * 3 + [probe], 3, 0.1)[3].reason is reason, probe


def test_thresholds_zero_average_collapse():
    filt = filled([1.0, -1.0], n=2, p=0.3)
    assert (filt.avg, filt.t_hi, filt.t_lo) == (0.0, 0.0, 0.0)


def test_classify_boundary_equality_transmits():
    # Each probe follows its own warm-up of four 25s: band (23.75, 26.25).
    for probe, transmit in ((26.25, True), (23.75, True), (25.0, False)):
        decision = run_values([25.0] * 4 + [probe], n=4, p=0.05)[4]
        assert decision.transmit is transmit, probe


def test_classify_zero_width_band_transmits_everything():
    # p = 0 collapses the band onto the average: every value is an event,
    # including one equal to the average.
    decisions = run_values([5.0, 5.0, -1.0, 0.0, 1.0, 5.0], n=1, p=0.0)
    assert [d.reason for d in decisions[1:]] == [Reason.EVENT] * 5


# ------------------------------------------------------ hand-worked runs


def test_hand_worked_event_after_constant_warmup():
    # Ten 25.0 readings fill the window: avg = 25.0 exactly (integer sums),
    # band = (23.75, 26.25).  30.0 breaks out; afterwards the window holds
    # nine 25s and the 30, so avg = 25.5 and the band is (24.225, 26.775).
    values = [25.0] * 10 + [30.0, 26.0, 27.0]
    decisions = run_values(values, n=10, p=0.05)
    assert [d.reason for d in decisions[:10]] == [Reason.WARMUP] * 10
    assert decisions[10].reason is Reason.EVENT
    assert decisions[11].reason is Reason.SUPPRESSED  # 26.0 inside
    assert decisions[12].reason is Reason.EVENT  # 27.0 above 26.775


def test_hand_worked_low_side_event():
    values = [25.0] * 10 + [23.0]
    decisions = run_values(values, n=10, p=0.05)
    assert decisions[10].reason is Reason.EVENT  # 23.0 <= 23.75


def test_boundary_value_transmits():
    values = [25.0] * 10 + [26.25]
    assert run_values(values, n=10, p=0.05)[10].reason is Reason.EVENT


def test_all_zero_signal_always_transmits():
    # Window average 0 collapses the band to a point; 0 >= 0 is an event.
    decisions = run_values([0.0] * 20, n=5, p=0.05)
    assert all(d.transmit for d in decisions)
    assert [d.reason for d in decisions[5:]] == [Reason.EVENT] * 15


def test_window_shorter_than_stream_stays_warmup():
    decisions = run_values([1.0, 2.0, 3.0], n=10, p=0.05)
    assert [d.reason for d in decisions] == [Reason.WARMUP] * 3


def test_n_equals_one():
    # Window is just the previous value; 5% band around it.
    decisions = run_values([100.0, 102.0, 108.0], n=1, p=0.05)
    assert decisions[0].reason is Reason.WARMUP
    assert decisions[1].reason is Reason.SUPPRESSED  # 102 inside (95, 105)
    assert decisions[2].reason is Reason.EVENT  # 108 outside (96.9, 107.1)


def test_suppressed_values_still_update_window():
    filt = EventFilter(FilterConfig(n=1, p=0.05))
    for i, v in enumerate([100.0, 102.0]):
        filt.step(Sample(float(i), v))
    assert list(filt.window) == [102.0]
    assert filt.avg == 102.0
    assert filt.t_hi == 102.0 + 0.05 * 102.0
    assert filt.t_lo == 102.0 - 0.05 * 102.0


def test_state_trajectory_matches_attributes():
    values = [25.0, 24.0, 26.0, 30.0, 22.0, 25.5]
    filt = EventFilter(FilterConfig(n=3, p=0.1))
    for i, v in enumerate(values):
        filt.step(Sample(float(i), v))
        if filt.seen >= 3:
            window = values[max(0, i - 2) : i + 1]
            assert list(filt.window) == window
            assert filt.avg == sum(window) / 3


def test_timestamps_must_strictly_increase():
    filt = EventFilter(FilterConfig())
    filt.step(Sample(5.0, 1.0))
    with pytest.raises(ValueError, match="out-of-order"):
        filt.step(Sample(5.0, 2.0))
    with pytest.raises(ValueError, match="out-of-order"):
        filt.step(Sample(4.0, 2.0))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "timestamps",
    [[0.0, NAN, 1.0], [NAN], [-INF, 1.0], [0.0, INF], [INF]],
    ids=["nan-midway", "nan-first", "minus-inf-first", "inf-midway", "inf-first"],
)
def test_non_finite_timestamp_is_rejected(timestamps):
    # A NaN timestamp used to pass and then disable the order check for good;
    # a leading -inf passed, and +inf failed only later as "out-of-order".
    filt = EventFilter(FilterConfig(n=2, p=0.1))
    good = []
    for ts in timestamps:
        if math.isfinite(ts):
            filt.step(Sample(ts, 1.0))
            good.append(ts)
            continue
        seen, window = filt.seen, list(filt.window)
        with pytest.raises(ValueError, match=rf"non-finite timestamp {ts!r}"):
            filt.step(Sample(ts, 1.0))
        # The rejected sample leaves the filter as it was.
        assert (filt.seen, list(filt.window)) == (seen, window)
        break
    # The order check still holds afterwards.
    if good:
        with pytest.raises(ValueError, match="out-of-order"):
            filt.step(Sample(good[-1], 1.0))
    filt.step(Sample(good[-1] + 1.0 if good else 0.0, 1.0))


def test_extreme_finite_timestamps_are_accepted():
    filt = EventFilter(FilterConfig(n=1, p=0.1))
    for ts in (-1.7976931348623157e308, -1.0, 0.0, 1.7976931348623157e308):
        filt.step(Sample(ts, 1.0))
    assert filt.seen == 4


@pytest.mark.parametrize("at", [1, 3])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_value_is_rejected(bad, at):
    # A NaN used to be suppressed silently and then poison the window for n
    # steps, so that the outlier of 50 after it was suppressed too.  Now the
    # bad value itself is rejected, during warm-up (at=1) or after it (at=3).
    values = [10.0] * 6 + [50.0]
    values[at] = bad
    filt = EventFilter(FilterConfig(n=3, p=0.1))
    with pytest.raises(ValueError, match=rf"non-finite value {bad!r} at timestamp {at}\.0"):
        for i, v in enumerate(values):
            filt.step(Sample(float(i), v))
    # Without the bad value the outlier is an event.
    assert run_values([10.0] * 6 + [50.0], 3, 0.1)[-1].reason is Reason.EVENT


def test_overflowing_window_average_is_rejected():
    filt = EventFilter(FilterConfig(n=2, p=0.1))
    filt.step(Sample(0.0, 1e308))
    with pytest.raises(ValueError, match=r"overflowed .* at timestamp 1\.0"):
        filt.step(Sample(1.0, 1e308))


def test_reset_returns_fresh_state():
    # A new EventFilter is the reset: nothing carries over from another
    # filter built from the same config, so its timestamps may start over.
    cfg = FilterConfig(n=3, p=0.2)
    filt = EventFilter(cfg)
    for i in range(5):
        filt.step(Sample(float(i), float(i)))
    fresh = EventFilter(cfg)
    assert fresh.seen == 0
    assert fresh.avg is None
    assert fresh.t_hi is None and fresh.t_lo is None
    assert list(fresh.window) == []
    assert fresh.step(Sample(0.0, 9.0)).reason is Reason.WARMUP
    assert filt.seen == 5


def test_decision_transmit_matches_reason():
    decisions = run_values([25.0] * 10 + [30.0, 25.4], n=10, p=0.05)
    for d in decisions:
        assert d.transmit == (d.reason is not Reason.SUPPRESSED)


# ----------------------------------------------------------- properties


@given(
    values=st.lists(VALUES, max_size=120),
    n=st.integers(min_value=1, max_value=25),
    p=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.5)),
)
@settings(max_examples=200, deadline=None)
def test_property_matches_brute_force_oracle(values, n, p):
    decisions = run_values(values, n, p)
    assert [d.transmit for d in decisions] == dead_band_flags(values, n, p)
    assert [(d.transmit, d.reason.value) for d in decisions] == dead_band_reasons(
        values, n, p
    )


@given(
    values=st.lists(VALUES, min_size=1, max_size=80),
    n=st.integers(min_value=1, max_value=15),
    p=st.floats(min_value=0.0, max_value=0.5),
)
@settings(max_examples=150, deadline=None)
def test_property_suppression_is_sound(values, n, p):
    # Whenever the filter suppresses, the value really was strictly inside
    # the band computed from the raw history alone.
    decisions = run_values(values, n, p)
    for i, d in enumerate(decisions):
        if d.reason is Reason.SUPPRESSED:
            avg = sum(values[i - n : i]) / n
            assert avg - p * abs(avg) < values[i] < avg + p * abs(avg)


@given(
    values=st.lists(VALUES, min_size=1, max_size=80),
    n=st.integers(min_value=1, max_value=15),
)
@settings(max_examples=100, deadline=None)
def test_property_zero_band_transmits_all(values, n):
    assert all(d.transmit for d in run_values(values, n, 0.0))


@given(
    value=st.integers(min_value=-1000, max_value=1000).filter(lambda v: v != 0),
    n=st.integers(min_value=1, max_value=20),
    p=st.floats(min_value=1e-6, max_value=1.0),
    extra=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=100, deadline=None)
def test_property_constant_signal_transmits_exactly_n(value, n, p, extra):
    # Integer-valued constants keep the window sums exact, so the average
    # equals the value and everything after warm-up is strictly inside.
    decisions = run_values([float(value)] * (n + extra), n, p)
    assert sum(d.transmit for d in decisions) == n


@given(
    values=st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=60),
    n=st.integers(min_value=1, max_value=12),
    p=st.one_of(st.just(0.0), st.floats(min_value=1e-5, max_value=0.5)),
    scale=st.sampled_from([0.1, 3.0, 1000.0]),
)
@settings(max_examples=150, deadline=None)
def test_property_scale_covariance(values, n, p, scale):
    # The band scales with |avg|, so scaling a positive stream by a positive
    # constant cannot change any decision.  Float rounding could flip a value
    # sitting within ~1e-16 of a band edge, so streams that come that close
    # are discarded rather than counted against the algebraic claim.
    stream = [float(v) for v in values]
    filt = EventFilter(FilterConfig(n=n, p=p))
    decisions = []
    if p > 0:
        for i, v in enumerate(stream):
            if filt.seen >= n:
                margin = min(abs(v - filt.t_hi), abs(v - filt.t_lo))
                assume(margin > 1e-9 * max(1.0, abs(filt.avg)))
            decisions.append(filt.step(Sample(float(i), v)))
    else:
        decisions = [filt.step(Sample(float(i), v)) for i, v in enumerate(stream)]
    scaled = run_values([v * scale for v in stream], n, p)
    assert [d.transmit for d in scaled] == [d.transmit for d in decisions]


@given(
    values=st.lists(VALUES, min_size=1, max_size=80),
    n=st.integers(min_value=1, max_value=15),
    p=st.floats(min_value=0.0, max_value=0.5),
)
@settings(max_examples=100, deadline=None)
def test_property_average_equals_full_recompute(values, n, p):
    filt = EventFilter(FilterConfig(n=n, p=p))
    for i, v in enumerate(values):
        filt.step(Sample(float(i), v))
        if filt.seen >= n:
            expected = sum(values[i + 1 - n : i + 1]) / n
            assert filt.avg == expected  # same order of operations, bit equal
            assert filt.t_hi == expected + p * abs(expected)
            assert filt.t_lo == expected - p * abs(expected)
        else:
            assert filt.avg is None


@given(
    values=st.lists(VALUES, min_size=1, max_size=60),
    n=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=100, deadline=None)
def test_property_warmup_is_exactly_first_n(values, n):
    decisions = run_values(values, n, 0.05)
    for i, d in enumerate(decisions):
        if i < n:
            assert d.reason is Reason.WARMUP
        else:
            assert d.reason is not Reason.WARMUP


def test_oracle_agrees_on_pathological_magnitudes():
    # Mixed tiny/huge magnitudes stress the full-recompute guarantee.
    values = [1e-300, 1e300, -1e300, 3.0, -2.5e-8, 7e7, 1e-12, 0.0, -0.0, 42.0]
    for n in (1, 2, 3, 5):
        for p in (0.0, 0.01, 0.3):
            got = [d.transmit for d in run_values(values, n, p)]
            assert got == dead_band_flags(values, n, p)


# ------------------------------------------------------- stream check split


def test_check_stream_passes_or_raises_steps_error_for_its_window():
    rows = [(0.0, 1e308), (1.0, 1e308), (2.0, math.nan)]
    assert check_stream(to_stream(rows[:2])) is None
    # The same broken stream, judged by check_stream's window that never
    # fills and by stage 1's window of 2, which overflows before it reaches
    # the NaN.
    with pytest.raises(ValueError, match="^non-finite value nan at timestamp 2.0$"):
        check_stream(to_stream(rows))
    with pytest.raises(ValueError, match="overflowed to inf at timestamp 1.0"):
        window_averages(to_stream(rows), 2)


def test_window_averages_reads_only_the_checked_values():
    # Stage 1 trusts check_stream: timestamps are not looked at again, and
    # the samples are replayed only for an overflowing window's message.
    unchecked = to_stream([(math.nan, 1.0), (math.nan, 2.0), (math.nan, 4.0)])
    averages = window_averages(unchecked, 2)
    assert averages.typecode == "d" and list(averages) == [1.5, 3.0]
    stream = to_stream([(0.0, 1e308), (1.0, 1e308)])
    check_stream(stream)
    with pytest.raises(ValueError, match="overflowed to inf at timestamp 1.0"):
        window_averages(stream, 2)


def test_stream_columns_must_have_equal_length():
    stream = to_stream([(0.0, 1.0), (1.0, 2.0)])
    assert len(stream) == 2 and not to_stream([])
    with pytest.raises(ValueError, match="^2 timestamps but 1 values$"):
        Stream(stream.timestamps, stream.values[:1])


@pytest.mark.parametrize(
    "timestamps, values, message",
    [
        ([0.0, 1.0], array("d", [1.0, 2.0]), r"^timestamps must be an array\('d'\), got list$"),
        (array("d", [0.0, 1.0]), (1.0, 2.0), r"^values must be an array\('d'\), got tuple$"),
        (array("d", [0.0, 1.0]), array("f", [1.0, 2.0]), r"^values must be an array\('d'\), got array\('f'\)$"),
    ],
)
def test_stream_columns_must_be_double_arrays(timestamps, values, message):
    # Rejected at construction, not deep in measuring or packing.
    with pytest.raises(ValueError, match=message):
        Stream(timestamps, values)
