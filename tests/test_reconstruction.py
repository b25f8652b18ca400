"""Zero-order-hold reconstruction and error accounting."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mistsim.mist_filter import (
    EventFilter,
    FilterConfig,
    Reason,
    Sample,
    TransmitDecision,
)
from mistsim.reconstruction import (
    TransmissionLog,
    build_log,
    empty_report,
    error_report,
    measure_stream,
    reconstruct_zoh,
    reduction_stats,
)
from oracles import dead_band_flags, hold_last

VALUES = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def samples_of(values):
    return [Sample(float(i), v) for i, v in enumerate(values)]


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
    rep = empty_report()
    assert rep.total_count == 0
    assert rep.transmitted_count == 0
    assert rep.suppressed_count == 0
    assert rep.reduction_fraction == 0.0
    assert rep.avg_abs_error == 0.0
    assert rep.avg_error_pct_of_mean is None


def test_reduction_stats_doc_example():
    assert reduction_stats(1000, 10) == (990, 99.0)


def test_reduction_stats_bounds():
    assert reduction_stats(4, 4) == (0, 0.0)
    assert reduction_stats(4, 0) == (4, 100.0)
    with pytest.raises(ValueError):
        reduction_stats(0, 0)
    with pytest.raises(ValueError):
        reduction_stats(10, 11)
    with pytest.raises(ValueError):
        reduction_stats(10, -1)


@given(
    total=st.integers(min_value=1, max_value=10**6),
    transmitted=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=100, deadline=None)
def test_property_reduction_stats_consistent(total, transmitted):
    transmitted = min(transmitted, total)
    suppressed, pct = reduction_stats(total, transmitted)
    assert suppressed + transmitted == total
    assert pct == 100.0 * suppressed / total
    assert 0.0 <= pct <= 100.0


# ------------------------------------------------------- single-pass path


def reference_measurement(samples, filter_config):
    """The step-by-step chain that measure_stream folds into one pass."""
    if filter_config is None:
        decisions = [TransmitDecision(True, Reason.EVENT)] * len(samples)
    else:
        filt = EventFilter(filter_config)
        decisions = [filt.step(s) for s in samples]
    log = build_log(samples, decisions)
    if not samples:
        return log, empty_report(), bytearray()
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
    assert got.log == log
    assert repr(got.report) == repr(report)
    assert got.flags == flags
    assert len(got.flags) == len(samples) and set(got.flags) <= {0, 1}


def test_measure_stream_hand_case():
    samples = samples_of([25.0] * 3 + [30.0, 26.0, 25.0])
    got = measure_stream(samples, FilterConfig(n=3, p=0.1))
    # Band (22.5, 27.5) lets 30 through; then the bands (24.0, 29.33) and
    # (24.3, 29.7) suppress 26 and 25, which are held at 30.
    assert list(got.flags) == [1, 1, 1, 1, 0, 0]
    assert got.log.entries == tuple(samples[:4])
    assert got.report.max_abs_error == 5.0
    assert got.report.avg_abs_error == 9.0 / 6
    assert got.report.to_dict()["reduction_percent"] == 100.0 * 2 / 6

