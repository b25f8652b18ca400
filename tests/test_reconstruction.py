"""Zero-order-hold reconstruction and error accounting."""

from __future__ import annotations

import math
import random
import statistics
import tracemalloc
from itertools import compress

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mistsim import reconstruction
from mistsim.mist_filter import FilterConfig, check_stream, window_averages
from mistsim.reconstruction import ErrorReport, measure_grid
from mistsim.reference import (
    EventFilter,
    Reason,
    Sample,
    TransmissionLog,
    TransmitDecision,
    build_log,
    error_report,
    reconstruct_zoh,
)
from mistsim.sources import SensorSpec, gen_normal
from oracles import dead_band_flags, hold_last, normal_suppression_rate, to_stream

VALUES = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def samples_of(values):
    return [Sample(float(i), v) for i, v in enumerate(values)]


def measure_stream(samples, cfg):
    """One checked stream under one config (None: no filter)."""
    return measure_checked(samples, [cfg])[0]


def measure_checked(samples, configs):
    """measure_grid after the check a caller runs."""
    stream = to_stream(samples)
    check_stream(stream)
    return measure_grid(stream, configs)


def log_of(samples, flags):
    """The transmission log that a measurement's flags select."""
    return TransmissionLog(tuple(compress(samples, flags)), len(samples))


# ------------------------------------------------------------------- log


def test_log_rejects_more_entries_than_samples():
    with pytest.raises(ValueError):
        TransmissionLog(entries=(Sample(0.0, 1.0),), total_count=0)


def test_log_rejects_negative_total():
    with pytest.raises(ValueError):
        TransmissionLog(entries=(), total_count=-1)


def test_log_rejects_non_increasing_timestamps():
    with pytest.raises(ValueError):
        TransmissionLog(entries=(Sample(1.0, 1.0), Sample(1.0, 2.0)), total_count=5)


def test_build_log_keeps_transmitted_only():
    values = [25.0] * 10 + [30.0, 25.1]
    samples = samples_of(values)
    filt = EventFilter(FilterConfig(n=10, p=0.05))
    decisions = [filt.step(s) for s in samples]
    log = build_log(samples, decisions)
    assert log.total_count == 12
    assert len(log.entries) == 11  # warm-up plus the 30.0 event
    assert log.entries[-1] == Sample(10.0, 30.0)


def test_build_log_length_mismatch():
    samples = samples_of([1.0, 2.0])
    with pytest.raises(ValueError):
        build_log(samples, [])


# ------------------------------------------------------------------- zoh


def test_zoh_holds_between_entries():
    log = TransmissionLog(entries=(Sample(0.0, 10.0), Sample(2.0, 20.0)), total_count=4)
    assert reconstruct_zoh(log, [0.0, 1.0, 2.0, 3.0]) == [10.0, 10.0, 20.0, 20.0]


def test_zoh_empty_log_errors():
    log = TransmissionLog(entries=(), total_count=0)
    with pytest.raises(ValueError, match="empty transmission log"):
        reconstruct_zoh(log, [0.0])


def test_zoh_entry_must_be_on_timeline():
    log = TransmissionLog(entries=(Sample(0.5, 1.0),), total_count=1)
    with pytest.raises(ValueError, match="does not occur"):
        reconstruct_zoh(log, [0.0, 1.0])


def test_zoh_nothing_before_first_entry():
    log = TransmissionLog(entries=(Sample(1.0, 5.0),), total_count=2)
    with pytest.raises(ValueError, match="no transmitted value"):
        reconstruct_zoh(log, [0.0, 1.0])


def test_zoh_transmit_everything_is_identity():
    samples = samples_of([3.0, 1.0, 4.0, 1.0, 5.0])
    log = TransmissionLog(entries=tuple(samples), total_count=5)
    assert reconstruct_zoh(log, [s.timestamp for s in samples]) == [3.0, 1.0, 4.0, 1.0, 5.0]


@given(
    values=st.lists(VALUES, min_size=1, max_size=60),
    n=st.integers(min_value=1, max_value=8),
    p=st.floats(min_value=0.0, max_value=0.5),
)
@settings(max_examples=150, deadline=None)
def test_property_zoh_matches_linear_scan(values, n, p):
    samples = samples_of(values)
    flags = dead_band_flags(values, n, p)
    decisions = [
        TransmitDecision(f, Reason.EVENT if f else Reason.SUPPRESSED) for f in flags
    ]
    log = build_log(samples, decisions)
    times = [s.timestamp for s in samples]
    got = reconstruct_zoh(log, times)
    expected = hold_last(
        times,
        [e.timestamp for e in log.entries],
        [e.value for e in log.entries],
    )
    assert got == expected


@given(
    values=st.lists(VALUES, min_size=1, max_size=60),
    n=st.integers(min_value=1, max_value=8),
    p=st.floats(min_value=0.0, max_value=0.5),
)
@settings(max_examples=100, deadline=None)
def test_property_transmitted_points_reconstruct_exactly(values, n, p):
    samples = samples_of(values)
    filt = EventFilter(FilterConfig(n=n, p=p))
    decisions = [filt.step(s) for s in samples]
    log = build_log(samples, decisions)
    recon = reconstruct_zoh(log, [s.timestamp for s in samples])
    for sample, decision, held in zip(samples, decisions, recon):
        if decision.transmit:
            assert held == sample.value


# ---------------------------------------------------------------- errors


def test_error_report_zero_when_identical():
    rep = error_report([1.0, 2.0], [1.0, 2.0], 2)
    assert rep.avg_abs_error == 0.0
    assert rep.max_abs_error == 0.0
    assert rep.reduction_fraction == 0.0
    assert rep.suppressed_count == 0


def test_error_report_hand_case():
    rep = error_report([10.0, 12.0, 8.0, 10.0], [10.0, 10.0, 10.0, 10.0], 1)
    assert rep.avg_abs_error == 1.0  # (0 + 2 + 2 + 0) / 4
    assert rep.max_abs_error == 2.0
    assert rep.transmitted_count == 1
    assert rep.suppressed_count == 3
    assert rep.reduction_fraction == 0.75
    assert rep.avg_error_pct_of_mean == 10.0  # mean |raw| = 10


def test_error_report_pct_none_for_all_zero_raw():
    rep = error_report([0.0, 0.0], [0.0, 0.0], 2)
    assert rep.avg_error_pct_of_mean is None


def test_error_report_validation():
    with pytest.raises(ValueError):
        error_report([], [], 0)
    with pytest.raises(ValueError):
        error_report([1.0], [1.0, 2.0], 1)
    with pytest.raises(ValueError):
        error_report([1.0], [1.0], 2)
    with pytest.raises(ValueError):
        error_report([1.0], [1.0], -1)


def test_empty_report_is_all_zero():
    (measured,) = measure_grid(to_stream([]), [FilterConfig(n=10, p=0.05)])
    rep = measured.report
    assert rep.total_count == 0
    assert rep.transmitted_count == 0
    assert rep.suppressed_count == 0
    assert rep.reduction_fraction == 0.0
    assert rep.avg_abs_error == 0.0
    assert rep.avg_error_pct_of_mean is None


# ------------------------------------------------------- single-pass path


def reference_measurement(samples, filter_config):
    """The step-by-step chain that check_stream and measure_grid fold into one pass."""
    # No filter transmits everything: a window that never fills, which
    # still checks every sample.
    filt = EventFilter(filter_config or FilterConfig(n=len(samples) + 1))
    decisions = [filt.step(s) for s in samples]
    log = build_log(samples, decisions)
    if not samples:
        return log, ErrorReport(0, 0, 0, 0.0, 0.0, 0.0, None), bytearray()
    recon = reconstruct_zoh(log, [s.timestamp for s in samples])
    report = error_report([s.value for s in samples], recon, len(log.entries))
    return log, report, bytearray(d.transmit for d in decisions)


@given(
    values=st.one_of(
        st.lists(VALUES, max_size=60),
        st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -7.0]), max_size=40),
    ),
    shift=st.sampled_from([0.0, -100.0, 100.0]),
    n=st.one_of(st.just(1), st.integers(min_value=1, max_value=70)),
    p=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.5)),
    filtered=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_property_measure_stream_matches_reference_chain(values, shift, n, p, filtered):
    # Empty streams, streams shorter than n, n=1, p=0, negative and zero
    # means, and no filter at all.  Every field must match bit for bit.
    samples = samples_of([v + shift for v in values])
    config = FilterConfig(n=n, p=p) if filtered else None
    log, report, flags = reference_measurement(samples, config)
    got = measure_stream(samples, config)
    assert log_of(samples, got.flags) == log
    assert repr(got.report) == repr(report)
    assert got.flags == flags
    assert len(got.flags) == len(samples) and set(got.flags) <= {0, 1}


def test_measure_stream_hand_case():
    samples = samples_of([25.0] * 3 + [30.0, 26.0, 25.0])
    got = measure_stream(samples, FilterConfig(n=3, p=0.1))
    # Band (22.5, 27.5) lets 30 through; then the bands (24.0, 29.33) and
    # (24.3, 29.7) suppress 26 and 25, which are held at 30.
    assert list(got.flags) == [1, 1, 1, 1, 0, 0]
    assert log_of(samples, got.flags).entries == tuple(samples[:4])
    assert got.report.max_abs_error == 5.0
    assert got.report.avg_abs_error == 9.0 / 6
    assert got.report.to_dict()["reduction_percent"] == 100.0 * 2 / 6


# ------------------------------------------------------- batch grid kernel

# Small n repeat within a grid; large n often exceeds the stream.  Round p
# and small integer values put samples exactly on a band edge.
FILTER_CONFIGS = st.builds(
    FilterConfig,
    n=st.one_of(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=70)),
    p=st.one_of(st.sampled_from([0.0, 0.25, 0.5]), st.floats(min_value=0.0, max_value=0.5)),
)


def reference_grid(samples, configs):
    """Each config through the step chain, in order; the first error is raised."""
    return [reference_measurement(samples, config) for config in configs]


def assert_same_measurements(samples, got, expected):
    assert len(got) == len(expected)
    for measured, (log, report, flags) in zip(got, expected):
        assert measured.flags == flags
        assert log_of(samples, measured.flags) == log
        assert repr(measured.report) == repr(report)


@given(
    values=st.one_of(
        st.lists(VALUES, max_size=60),
        st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 3.0, 4.0, -6.0]), max_size=40),
    ),
    shift=st.sampled_from([0.0, -100.0, 100.0]),
    configs=st.lists(st.one_of(st.none(), FILTER_CONFIGS), min_size=1, max_size=7),
)
# The upper band edge (3.0) at sample 2, the lower one (1.0) at sample 5.
@example(
    values=[2.0, 2.0, 3.0, 2.0, 2.0, 1.0], shift=0.0, configs=[FilterConfig(n=2, p=0.5)]
)
@settings(max_examples=300, deadline=None)
def test_property_measure_grid_matches_step_reference(values, shift, configs):
    # Repeated and unsorted n, n past the stream's end, empty streams, p=0,
    # zero and negative means, and unfiltered entries mixed in.
    samples = samples_of([v + shift for v in values])
    assert_same_measurements(
        samples, measure_checked(samples, configs), reference_grid(samples, configs)
    )


@given(
    noise=st.lists(
        st.one_of(st.floats(min_value=-1.0, max_value=1.0), st.sampled_from([0.0, 1.0, -1.0])),
        max_size=60,
    ),
    mean=st.sampled_from([0.0, 1e-9, -1e-9, 1.0, -25.0, 1e6]),
    spread=st.sampled_from([0.0, 1e-12, 1e-3, 1.0, 1e3]),
    n=st.integers(min_value=1, max_value=8),
    ps=st.lists(
        st.one_of(st.sampled_from([0.0, 0.05, 0.1, 1.0]), st.floats(min_value=0.0, max_value=2.0)),
        min_size=2,
        max_size=6,
        unique=True,
    ),
)
@settings(max_examples=300, deadline=None)
def test_property_decisions_nest_in_p(noise, mean, spread, n, ps):
    # For a fixed n, every sample sent under a wider band is sent under a
    # narrower one: the window averages do not depend on p.
    samples = samples_of([mean + spread * x for x in noise])
    grid = measure_checked(samples, [FilterConfig(n=n, p=p) for p in sorted(ps)])
    for narrow, wide in zip(grid, grid[1:]):
        assert all(w <= m for w, m in zip(wide.flags, narrow.flags))


FAULTS = (
    "nan value", "inf value", "-inf value",
    "nan timestamp", "inf timestamp", "-inf timestamp", "repeated timestamp",
    "earlier timestamp", "overflow", "-overflow",
)


@given(
    values=st.lists(VALUES, min_size=1, max_size=30),
    fault=st.sampled_from(FAULTS),
    where=st.integers(min_value=0, max_value=29),
    run=st.integers(min_value=1, max_value=4),
    configs=st.lists(st.one_of(st.none(), FILTER_CONFIGS), min_size=1, max_size=5),
)
@settings(max_examples=400, deadline=None)
def test_property_measure_grid_fails_like_step(values, fault, where, run, configs):
    # A fault at one sample (or, for overflow, a run of +-1e308 values):
    # measure_grid raises the ValueError of the first config whose step
    # chain fails, message for message, or matches the chain when none does.
    # An unfiltered entry fails as a window that never fills does.
    times = [float(i) for i in range(len(values))]
    at = where % len(values)
    if fault.endswith("value"):
        values[at] = float(fault.split()[0])
    elif fault.endswith("overflow"):
        big = -1e308 if fault.startswith("-") else 1e308
        values[at:at + run] = [big] * run
        times = [float(i) for i in range(len(values))]
    elif fault == "repeated timestamp":
        times[at] = times[at - 1] if at else times[at]
    elif fault == "earlier timestamp":
        times[at] = times[at - 1] - 0.5 if at else times[at]
    else:
        times[at] = float(fault.split()[0])
    samples = [Sample(t, v) for t, v in zip(times, values)]
    try:
        expected = reference_grid(samples, configs)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            measure_checked(samples, configs)
        assert str(got.value) == str(exc)
    else:
        assert_same_measurements(samples, measure_checked(samples, configs), expected)


def test_unfiltered_measurement_checks_the_stream():
    # With no filter config nothing used to be checked: this measured as
    # zero error.
    with pytest.raises(ValueError, match="non-finite value nan at timestamp 0.0"):
        measure_stream([Sample(0.0, math.nan), Sample(1.0, 1.0)], None)


@pytest.mark.parametrize(
    "values, timestamp",
    [
        # One hold error, |-1e308 - 1e308|, is inf by itself.
        ([1e308, -1e308, 1e308], "1.0"),
        # Each error is 1.7e308; their running total overflows at the second.
        ([1e308, -0.7e308, -0.7e308, -0.7e308], "2.0"),
    ],
)
def test_measure_grid_rejects_an_overflowing_hold_error(values, timestamp):
    # p = 1e300 makes every band infinite, so all but the first sample is
    # suppressed and held at 1e308.
    samples = samples_of(values)
    config = FilterConfig(n=1, p=1e300)
    assert measure_stream(samples[:1], config).report.avg_abs_error == 0.0
    with pytest.raises(ValueError, match=f"^hold error overflowed to inf at timestamp {timestamp};"):
        measure_checked(samples, [None, config])


def test_measure_grid_window_longer_than_the_stream_sends_everything():
    # n = 2**63 does not fit a C ssize_t: every sample is warm-up, sent and
    # exact, as for any window longer than the stream.
    stream = to_stream([(float(t), 20.0 + t % 3) for t in range(50)])
    (measured,) = measure_grid(stream, [FilterConfig(n=2**63, p=0.05)])
    assert measured.flags == bytearray(b"\x01" * 50)
    assert (measured.report.avg_abs_error, measured.report.max_abs_error) == (0.0, 0.0)


def test_measure_grid_shares_one_window_pass_per_n(monkeypatch):
    calls = []

    def counted(stream, n):
        calls.append(n)
        return window_averages(stream, n)

    monkeypatch.setattr(reconstruction, "window_averages", counted)
    configs = [FilterConfig(n=5, p=0.1), None, FilterConfig(n=2, p=0.0), FilterConfig(n=5, p=0.0)]
    measure_checked(samples_of([1.0, 2.0, 3.0] * 4), configs)
    assert calls == [5, 2]


def compensated_sum(numbers, start=0):
    """``sum()`` of floats as Python 3.12 and later compute it: with
    Neumaier's compensation, which keeps the low-order bits a plain
    left-to-right addition rounds away."""
    total, compensation = float(start), 0.0
    for x in numbers:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation


def test_kernel_and_reference_add_left_to_right_whatever_sum_does(monkeypatch):
    # A band of 1e20 * |avg| suppresses all but the first sample, held at
    # 2.0: the hold errors are 0, 1e16, 1, 1, and the raw magnitudes 2,
    # 1e16 + 2, 3, 3.  Added left to right each 1 (and each 3) rounds to an
    # even neighbour of 1e16; a compensated sum keeps them.  Neither the
    # kernel nor its reference may follow the sum() of the Python it runs on.
    samples = samples_of([2.0, 1e16 + 2.0, 3.0, 3.0])
    config = FilterConfig(n=1, p=1e20)

    def measured():
        (got,) = measure_checked(samples, [config])
        _, expected, _ = reference_measurement(samples, config)
        return got.report, expected

    plain = measured()
    assert plain[0] == plain[1]
    assert plain[0].avg_abs_error == 1e16 / 4
    assert plain[0].avg_error_pct_of_mean == 100.0 * ((1e16 / 4) / ((1e16 + 12.0) / 4))
    assert compensated_sum([1e16, 1.0, 1.0]) == 1e16 + 2.0
    monkeypatch.setattr(reconstruction, "sum", compensated_sum, raising=False)
    assert measured() == plain


def test_measure_grid_holds_no_python_object_per_sample():
    # Stage 1's averages are an array('d'), 8 B a sample, and stage 2 keeps
    # running totals; each run's flags add 1 B a sample.  A Python float
    # kept per sample (a list of values, averages or hold errors) costs
    # 32 B or more.
    count = 200_000
    stream = gen_normal(SensorSpec("s", 20.0, 1.0, 10.0, count, 7))
    check_stream(stream)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        measure_grid(stream, [None, FilterConfig(n=10, p=0.05)])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 12 * count + 1_000_000, f"measure_grid peaked at {peak} B for {count} samples"


def test_measure_grid_suppresses_normal_sources_at_the_closed_form_rate():
    # Random sources whose band is 0.2 to 2 standard deviations wide at the
    # mean, so the rate lies well inside (0, 1).  Overlapping windows
    # correlate neighbouring decisions, so the tolerance comes from the
    # spread of batch means, each batch hundreds of windows long, rather
    # than from the binomial error of independent draws.
    rng = random.Random(2019)
    count, batches = 30_000, 20
    for _ in range(8):
        n = rng.randint(1, 20)
        mu = rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-0.3, 1.7)
        sd = 10 ** rng.uniform(-0.7, 0.7)
        p = rng.uniform(0.2, 2.0) * sd / abs(mu)
        stream = gen_normal(SensorSpec("s", mu, sd, 1.0, count, rng.getrandbits(64)))
        (measured,) = measure_grid(stream, [FilterConfig(n, p)])
        judged = measured.flags[n:]
        size = len(judged) // batches
        means = [1.0 - sum(judged[b * size:(b + 1) * size]) / size for b in range(batches)]
        rate = measured.report.suppressed_count / len(judged)
        expected = normal_suppression_rate(mu, sd, n, p)
        tolerance = 5.0 * statistics.stdev(means) / math.sqrt(batches)
        assert abs(rate - expected) < tolerance, (mu, sd, n, p, rate, expected, tolerance)
