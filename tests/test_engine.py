"""Engine: latency, accounting, determinism, conservation, heap-oracle agreement."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import signal
import struct
import subprocess
import sys
import threading
import time
import weakref
from array import array
from collections.abc import Mapping
from contextlib import closing, nullcontext
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mistsim import cli, engine
from mistsim.engine import (
    DEFAULT_ENERGY_PARAMS,
    EnergyModel,
    EnergyParams,
    Mode,
    account_energy,
    compare,
    fork_map,
    measure_stream,
    run,
    simulate,
)
from mistsim.mist_filter import FilterConfig
from mistsim.reference import Sample
from mistsim.sources import SensorSpec, gen_normal
from mistsim.topology import Device, Link, Topology, TopologyError, validate
from oracles import (
    dead_band_flags, delivery_trace, heap_network, loop_check_stream, to_rows, to_stream,
)

FC = FilterConfig(n=10, p=0.05)
ENERGY = EnergyModel()


def small_topology(sensor_count=2, sensor_latency=4.0, uplink_latency=50.0):
    devices = [Device("cloud", "cloud", 0), Device("gw", "gateway", 1)]
    links = [Link("gw", "cloud", uplink_latency)]
    for i in range(1, sensor_count + 1):
        devices.append(Device(f"s{i}", "sensor", 2))
        links.append(Link(f"s{i}", "gw", sensor_latency))
    return Topology(devices=devices, links=links)


def constant_stream(count, value=25.0, period=1000.0):
    return to_stream((k * period, value) for k in range(count))


def traced_run(topo, streams, *args, **kwargs):
    """``run`` and its delivery trace, derived from the flags it returns."""
    metrics = run(topo, streams, *args, **kwargs)
    sent = {s: itertools.compress(to_rows(streams[s]), flags) for s, flags in metrics.flags.items()}
    return metrics, delivery_trace(topo, sent)


# ---------------------------------------------------------------- energy


def test_energy_params_validation():
    with pytest.raises(ValueError):
        EnergyParams(busy_w=1.0, idle_w=2.0, busy_ms_per_message=1.0)
    with pytest.raises(ValueError):
        EnergyParams(busy_w=-1.0, idle_w=-2.0, busy_ms_per_message=1.0)
    with pytest.raises(ValueError):
        EnergyParams(busy_w=float("inf"), idle_w=0.0, busy_ms_per_message=1.0)
    with pytest.raises(ValueError):
        EnergyParams(busy_w=2.0, idle_w=1.0, busy_ms_per_message=-1.0)


def test_energy_model_unknown_kind():
    with pytest.raises(ValueError, match="router"):
        ENERGY.for_kind("router")


def test_account_energy_hand_case():
    params = EnergyParams(busy_w=107.339, idle_w=83.433, busy_ms_per_message=1.0)
    busy_ms, energy_j = account_energy(1000, params, 10_000.0)
    assert busy_ms == 1000.0
    # 1000 ms busy + 9000 ms idle: (1000*107.339 + 9000*83.433) / 1000
    assert energy_j == pytest.approx(858.236, abs=1e-9)


def test_account_energy_clamps_busy_time():
    params = EnergyParams(busy_w=2.0, idle_w=1.0, busy_ms_per_message=1.0)
    busy_ms, energy_j = account_energy(20_000, params, 10_000.0)
    assert busy_ms == 10_000.0
    assert energy_j == 20.0  # fully busy


def test_account_energy_idle_burn_with_zero_messages():
    params = EnergyParams(busy_w=2.0, idle_w=1.0, busy_ms_per_message=1.0)
    assert account_energy(0, params, 10_000.0) == (0.0, 10.0)


def test_account_energy_validation():
    params = DEFAULT_ENERGY_PARAMS["cloud"]
    with pytest.raises(ValueError):
        account_energy(-1, params, 100.0)
    with pytest.raises(ValueError):
        account_energy(1, params, float("nan"))


# ---------------------------------------------------------------- timing


def test_single_message_latency_is_sum_of_hops():
    topo = small_topology(sensor_count=1, sensor_latency=4.0, uplink_latency=50.0)
    streams = {"s1": to_stream([(0.0, 25.0)])}
    metrics, trace = traced_run(topo, streams, Mode.CLOUD_ONLY, FC, ENERGY, 1000.0)
    assert metrics.latency_count == 1
    assert metrics.latency_min_ms == 54.0
    assert metrics.latency_max_ms == 54.0
    assert [(t, d) for t, d, _, _ in trace] == [(4.0, "gw"), (54.0, "cloud")]


def test_latency_offsets_track_emission_time():
    topo = small_topology(sensor_count=1, sensor_latency=4.0, uplink_latency=50.0)
    streams = {"s1": to_stream([(100.5, 25.0)])}
    _, trace = traced_run(topo, streams, Mode.CLOUD_ONLY, FC, ENERGY, 1000.0)
    assert [t for t, _, _, _ in trace] == [104.5, 154.5]


@pytest.mark.parametrize("workers", [1, 3])
def test_latency_is_each_sent_samples_time_to_the_cloud(monkeypatch, workers):
    # Fractional latencies and timestamps, so the hops round: each sent
    # sample's latency is ((t + l1) + l2) - t, and the mean is the exact sum
    # of each sensor's latencies, added in topology order, over the count.
    monkeypatch.setattr(engine, "_cpu_count", lambda: workers)
    hops = {"s1": 0.1, "s2": 0.2, "s3": 0.7}
    topo = Topology(
        devices=[Device("cloud", "cloud", 0), Device("gw", "gateway", 1)]
        + [Device(s, "sensor", 2) for s in hops],
        links=[Link("gw", "cloud", 0.7)] + [Link(s, "gw", l1) for s, l1 in hops.items()],
    )
    rng = random.Random(5)
    streams = {
        s: to_stream((k * 0.3 + i * 0.01, rng.gauss(25.0, 4.0)) for k in range(200))
        for i, s in enumerate(hops)
    }
    differs = False
    for metrics in simulate(topo, streams, [None, FilterConfig(n=3, p=0.05)], ENERGY, 1e3):
        sent = {
            s: [((t + l1) + 0.7) - t for t, f in zip(streams[s].timestamps, metrics.flags[s]) if f]
            for s, l1 in hops.items()
        }
        every = [x for s in hops for x in sent[s]]
        total = 0.0
        for s in hops:
            total += math.fsum(sent[s])
        assert metrics.latency_count == len(every) > 0
        assert metrics.latency_min_ms == min(every)
        assert metrics.latency_max_ms == max(every)
        assert metrics.latency_mean_ms == total / len(every)
        in_turn = 0.0
        for x in every:
            in_turn += x
        differs |= in_turn / len(every) != total / len(every)
    assert differs  # a running sum over every sample would fail this test


@st.composite
def _integral_latency_case(draw):
    """``(timestamps, l1, l2, flags)``: ordered integral timestamps whose
    largest magnitude plus the two integral latencies lies near ``2**53``
    (at, just past, or anywhere off it), latencies given as ``int`` or
    ``float`` (``-0.0`` too), and flags sending 0 to all of the samples."""
    def latency():
        value = draw(st.one_of(st.integers(0, 100), st.integers(0, 2**53), st.sampled_from([2**52, 2**53])))
        if draw(st.booleans()):
            return value
        return -0.0 if value == 0 and draw(st.booleans()) else float(value)

    l1, l2 = latency(), latency()
    slack = draw(st.one_of(st.sampled_from([-2, -1, 0, 1, 2]), st.integers(-(2**53), 2**53)))
    m = max(0, 2**53 - int(l1) - int(l2) + slack)
    extreme = -m if draw(st.booleans()) else m
    others = draw(st.lists(st.integers(-m, m), max_size=12))
    timestamps = sorted({float(t) for t in [extreme, *others]})
    if draw(st.booleans()):
        timestamps = timestamps[-1:] if timestamps[-1] == float(extreme) else timestamps[:1]
    n = len(timestamps)
    flags = bytearray(n)
    for k in draw(st.permutations(range(n)))[: draw(st.integers(0, n))]:
        flags[k] = 1
    return timestamps, l1, l2, flags


@settings(max_examples=300, deadline=None)
@given(case=_integral_latency_case())
@example(case=([2.0**53 - 2], 1, 1, bytearray([1])))  # at the guard: exact
@example(case=([2.0**53 - 1], 1, 1, bytearray([1])))  # just past: the hops round
@example(case=([0.0, 1.0, 2.0**53 - 1], 1.0, 1.0, bytearray([0, 1, 1])))
@example(case=([-(2.0**52) - 2, 0.0], 2**51, 2**51 - 2, bytearray([1, 0])))  # at, by the first
@example(case=([-(2.0**53) - 2, 0.0], 1, 0, bytearray([1, 1])))  # past, by the first
@example(case=([0.0], -0.0, -0.0, bytearray([1])))  # a zero latency is +0.0
@example(case=([], 4.0, 50.0, bytearray()))
def test_property_integral_latency_summary_in_closed_form(case):
    # The summary of the samples a run sent equals the per-sample one, of
    # ((t + l1) + l2) - t; within the guard it is taken in closed form.
    timestamps, l1, l2, flags = case
    latencies = [((t + l1) + l2) - t for t in timestamps]
    want_sent = engine._latency_summary([x for x, f in zip(latencies, flags) if f])
    want_all = engine._latency_summary(latencies)
    exact = bool(timestamps) and max(map(abs, map(int, timestamps))) + int(l1) + int(l2) <= 2**53
    # Within the guard, no per-sample summary may run.
    no_list = mock.patch.object(engine, "_latency_summary", side_effect=AssertionError)
    with no_list if exact else nullcontext():
        summary = engine._latency_summaries(array("d", timestamps), l1, l2)
        got_sent, got_all = summary(flags), summary(None)
    assert got_sent == want_sent and repr(got_sent) == repr(want_sent)
    assert got_all == want_all and repr(got_all) == repr(want_all)


def test_messages_in_flight_at_horizon_still_deliver():
    topo = small_topology(sensor_count=1)
    streams = {"s1": to_stream([(999.0, 25.0)])}  # cloud arrival at 1053, past the horizon
    metrics = run(topo, streams, Mode.CLOUD_ONLY, FC, ENERGY, 1000.0)
    assert metrics.messages_emitted == 1
    assert metrics.messages_delivered == 2  # gateway hop + cloud hop
    assert metrics.latency_count == 1


def test_samples_at_or_past_horizon_are_dropped():
    topo = small_topology(sensor_count=1)
    streams = {"s1": to_stream([(0.0, 25.0), (1000.0, 25.0), (2000.0, 25.0)])}
    metrics = run(topo, streams, Mode.CLOUD_ONLY, FC, ENERGY, 1000.0)
    assert metrics.sensor_reports["s1"].total_count == 1


def test_trace_times_are_non_decreasing_and_fifo_per_sensor():
    topo = small_topology(sensor_count=2)
    streams = {
        "s1": constant_stream(50, period=7.0),
        "s2": constant_stream(40, period=11.0),
    }
    _, trace = traced_run(topo, streams, Mode.CLOUD_ONLY, FC, ENERGY, 10_000.0)
    times = [t for t, _, _, _ in trace]
    assert times == sorted(times)
    for sensor in ("s1", "s2"):
        arrivals = [t for t, d, s, _ in trace if d == "cloud" and s == sensor]
        assert arrivals == sorted(arrivals)
        assert len(arrivals) == len(streams[sensor])


# ----------------------------------------------------------- validation


def test_run_rejects_invalid_topology():
    topo = small_topology()
    topo.links.append(Link("s1", "cloud", 1.0))
    with pytest.raises(ValueError, match="invalid topology"):
        run(topo, {"s1": to_stream([]), "s2": to_stream([])}, Mode.CLOUD_ONLY, FC, ENERGY, 1000.0)


def test_simulate_checks_the_topology_before_fetching_any_stream():
    # A sensor linked straight to the cloud: simulate raises the topology's
    # own error, still a ValueError, before any stream is looked up.
    topo = small_topology()
    topo.links[1] = Link("s1", "cloud", 4.0)

    class NoLookup(dict):
        def __getitem__(self, sensor_id):
            pytest.fail(f"stream {sensor_id!r} fetched")

    streams = NoLookup(s1=to_stream([]), s2=to_stream([]))
    with pytest.raises(TopologyError) as caught:
        simulate(topo, streams, [None, FC], ENERGY, 1000.0)
    assert isinstance(caught.value, ValueError)
    assert str(caught.value) == (
        "invalid topology: link 's1'->'cloud': only sensor-gateway and "
        "gateway-cloud links are allowed, got cloud-sensor"
    )


def test_run_rejects_bad_duration_and_size():
    topo = small_topology()
    streams = {"s1": to_stream([]), "s2": to_stream([])}
    with pytest.raises(ValueError, match="duration"):
        run(topo, streams, Mode.CLOUD_ONLY, FC, ENERGY, 0.0)
    with pytest.raises(ValueError, match="message_size_bytes"):
        run(topo, streams, Mode.CLOUD_ONLY, FC, ENERGY, 1000.0, message_size_bytes=0)


def test_run_rejects_stream_mismatches():
    topo = small_topology()
    with pytest.raises(ValueError, match="no stream for sensors"):
        run(topo, {"s1": to_stream([])}, Mode.CLOUD_ONLY, FC, ENERGY, 1000.0)
    with pytest.raises(ValueError, match="unknown sensors"):
        run(
            topo,
            {"s1": to_stream([]), "s2": to_stream([]), "s3": to_stream([])},
            Mode.CLOUD_ONLY,
            FC,
            ENERGY,
            1000.0,
        )


def test_run_rejects_bad_timestamps():
    topo = small_topology(sensor_count=1)
    with pytest.raises(
        ValueError, match=r"sensor 's1': out-of-order sample: timestamp 5\.0 does not exceed 5\.0"
    ):
        run(
            topo,
            {"s1": to_stream([(5.0, 1.0), (5.0, 2.0)])},
            Mode.CLOUD_ONLY,
            FC,
            ENERGY,
            1000.0,
        )
    with pytest.raises(ValueError, match=r"sensor 's1': negative timestamp -1\.0"):
        run(topo, {"s1": to_stream([(-1.0, 1.0)])}, Mode.CLOUD_ONLY, FC, ENERGY, 1000.0)


@pytest.mark.parametrize("mode", list(Mode))
def test_run_rejects_non_finite_values(mode):
    # Cloud-only never steps a filter, so the engine checks values itself.
    stream = to_stream([(0.0, 1.0), (1.0, float("nan"))])
    with pytest.raises(ValueError, match=r"sensor 's1': non-finite value nan at timestamp 1\.0"):
        run(small_topology(sensor_count=1), {"s1": stream}, mode, FC, ENERGY, 1000.0)


# ----------------------------------------------------------- empty runs


def test_zero_sample_run_burns_idle_energy_only():
    topo = small_topology()
    streams = {"s1": to_stream([]), "s2": to_stream([])}
    metrics = run(topo, streams, Mode.MIST_FOG_CLOUD, FC, ENERGY, 60_000.0)
    assert metrics.messages_emitted == 0
    assert metrics.messages_delivered == 0
    assert metrics.total_bytes == 0
    assert metrics.latency_count == 0
    assert metrics.latency_mean_ms == 0.0
    report = metrics.sensor_reports["s1"]
    assert report.total_count == 0 and report.avg_error_pct_of_mean is None
    # Devices idle for the whole configured duration.
    assert metrics.device_energy_j["cloud"] == pytest.approx(60.0 * 83.433)
    assert metrics.device_energy_j["s1"] == pytest.approx(60.0 * 0.1)


# ------------------------------------------------------------- modes


def test_filtered_mode_sends_no_more_than_cloud_only():
    topo = small_topology(sensor_count=2)
    streams = {
        "s1": gen_normal(SensorSpec("s1", 25, 4, 100.0, 400, seed=5)),
        "s2": gen_normal(SensorSpec("s2", 28, 1, 100.0, 400, seed=6)),
    }
    base = run(topo, streams, Mode.CLOUD_ONLY, FC, ENERGY, 40_000.0)
    mist = run(topo, streams, Mode.MIST_FOG_CLOUD, FC, ENERGY, 40_000.0)
    assert mist.total_bytes < base.total_bytes
    assert mist.total_byte_ms < base.total_byte_ms
    assert mist.device_messages["cloud"] < base.device_messages["cloud"]
    for sensor_id in ("s1", "s2"):
        rep = mist.sensor_reports[sensor_id]
        assert rep.transmitted_count + rep.suppressed_count == rep.total_count
        assert rep.transmitted_count <= rep.total_count
        # cloud-only transmits everything and reconstructs exactly
        assert base.sensor_reports[sensor_id].avg_abs_error == 0.0
        assert base.sensor_reports[sensor_id].suppressed_count == 0


def test_cloud_message_count_equals_transmissions():
    topo = small_topology(sensor_count=2)
    streams = {"s1": constant_stream(100), "s2": constant_stream(80)}
    metrics = run(topo, streams, Mode.MIST_FOG_CLOUD, FC, ENERGY, 100_000.0)
    transmitted = sum(r.transmitted_count for r in metrics.sensor_reports.values())
    assert metrics.device_messages["cloud"] == transmitted
    assert metrics.messages_emitted == transmitted


# -------------------------------------------------------- determinism


def test_repeated_runs_are_bit_identical():
    topo = small_topology(sensor_count=2)
    streams = {
        "s1": gen_normal(SensorSpec("s1", 25, 4, 100.0, 300, seed=1)),
        "s2": gen_normal(SensorSpec("s2", 22, 6, 100.0, 300, seed=2)),
    }
    first = run(topo, streams, Mode.MIST_FOG_CLOUD, FC, ENERGY, 30_000.0)
    second = run(topo, streams, Mode.MIST_FOG_CLOUD, FC, ENERGY, 30_000.0)
    assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
        second.to_dict(), sort_keys=True
    )


def test_to_dict_shape():
    topo = small_topology(sensor_count=1)
    metrics = run(topo, {"s1": constant_stream(20)}, Mode.MIST_FOG_CLOUD, FC, ENERGY, 20_000.0)
    doc = metrics.to_dict()
    assert doc["mode"] == "mist_fog_cloud"
    assert set(doc["sensors"]["s1"]) == {
        "total",
        "transmitted",
        "suppressed",
        "reduction_percent",
        "avg_abs_error",
        "max_abs_error",
        "avg_error_pct_of_mean",
        "log_digest",
    }
    assert doc["sensors"]["s1"]["reduction_percent"] == 50.0  # 10 warmup of 20
    assert set(doc["links"]) == {"gw->cloud", "s1->gw"}
    assert doc["network"]["messages_emitted"] == 10
    assert len(doc["sensors"]["s1"]["log_digest"]) == 64


# ------------------------------------------------------- conservation


def test_per_link_message_conservation():
    topo = small_topology(sensor_count=2)
    streams = {"s1": constant_stream(60), "s2": constant_stream(45)}
    for mode in (Mode.CLOUD_ONLY, Mode.MIST_FOG_CLOUD):
        metrics = run(topo, streams, mode, FC, ENERGY, 60_000.0)
        for sensor_id in ("s1", "s2"):
            emitted = metrics.flags[sensor_id].count(1)
            assert metrics.link_usage[f"{sensor_id}->gw"]["messages"] == emitted
        uplink = metrics.link_usage["gw->cloud"]["messages"]
        assert uplink == metrics.messages_emitted
        assert metrics.messages_delivered == 2 * metrics.messages_emitted
        assert sum(u["messages"] for u in metrics.link_usage.values()) == (
            metrics.messages_delivered
        )
        assert metrics.total_bytes == 100 * metrics.messages_delivered


# ------------------------------------------------------------- compare


def run_pair(streams, duration=100_000.0):
    topo = small_topology(sensor_count=len(streams))
    base = run(topo, streams, Mode.CLOUD_ONLY, FC, ENERGY, duration)
    mist = run(topo, streams, Mode.MIST_FOG_CLOUD, FC, ENERGY, duration)
    return base, mist


def test_compare_identical_runs_is_zero_reduction():
    streams = {"s1": constant_stream(50)}
    topo = small_topology(sensor_count=1)
    a = run(topo, streams, Mode.CLOUD_ONLY, FC, ENERGY, 50_000.0)
    b = run(topo, streams, Mode.CLOUD_ONLY, FC, ENERGY, 50_000.0)
    rows = compare(a, b)
    assert rows["network_total_bytes"]["reduction_percent"] == 0.0
    assert rows["cloud_energy_j"]["reduction_percent"] == 0.0


def test_compare_arithmetic():
    streams = {"s1": constant_stream(100)}
    base, mist = run_pair(streams)
    rows = compare(base, mist)
    # Constant stream: 10 of 100 transmitted, so bytes drop by exactly 90%.
    assert rows["network_total_bytes"]["baseline"] == 100 * 200
    assert rows["network_total_bytes"]["candidate"] == 10 * 200
    assert rows["network_total_bytes"]["reduction_percent"] == 90.0
    assert rows["cloud_messages"]["reduction_percent"] == 90.0
    assert rows["cloud_energy_j"]["reduction_percent"] > 0.0
    assert rows["baseline_mode"] == "cloud_only"
    assert rows["candidate_mode"] == "mist_fog_cloud"


def test_compare_zero_baseline_gives_none():
    streams = {"s1": to_stream([])}
    topo = small_topology(sensor_count=1)
    a = run(topo, streams, Mode.CLOUD_ONLY, FC, ENERGY, 1000.0)
    b = run(topo, streams, Mode.MIST_FOG_CLOUD, FC, ENERGY, 1000.0)
    rows = compare(a, b)
    assert rows["network_total_bytes"]["reduction_percent"] is None
    assert rows["cloud_messages"]["reduction_percent"] is None
    # Energy baseline is pure idle burn, not zero.
    assert rows["cloud_energy_j"]["reduction_percent"] == 0.0


def test_compare_rejects_mismatched_scenarios():
    streams = {"s1": constant_stream(30)}
    topo = small_topology(sensor_count=1)
    a = run(topo, streams, Mode.CLOUD_ONLY, FC, ENERGY, 30_000.0)
    b = run(topo, streams, Mode.MIST_FOG_CLOUD, FC, ENERGY, 30_000.0, seed=1)
    with pytest.raises(ValueError, match="seed"):
        compare(a, b)
    # The same samples survive both horizons, so only the duration differs.
    short = {"s1": constant_stream(10)}
    c = run(topo, short, Mode.CLOUD_ONLY, FC, ENERGY, 30_000.0)
    d = run(topo, short, Mode.MIST_FOG_CLOUD, FC, ENERGY, 20_000.0)
    with pytest.raises(ValueError, match="duration"):
        compare(c, d)
    other = {"s1": constant_stream(30, value=99.0)}
    e = run(topo, other, Mode.MIST_FOG_CLOUD, FC, ENERGY, 30_000.0)
    with pytest.raises(ValueError, match="sources_fp"):
        compare(a, e)


# ------------------------------------------------------ heap oracle

LATENCIES = st.one_of(
    st.sampled_from([0.0, 1.0, 4.0, 50.0]),
    st.floats(min_value=0.0, max_value=100.0),
)
TIME_STEPS = st.one_of(
    st.integers(min_value=1, max_value=300).map(float),
    st.floats(min_value=0.25, max_value=300.0),
)
VALUES = st.one_of(
    st.integers(min_value=-50, max_value=50).map(float),
    st.floats(min_value=-1e3, max_value=1e3),
)


@st.composite
def network_scenarios(draw):
    """A valid tree in random declaration order, one stream per sensor, a horizon."""
    gateways = [f"g{i}" for i in range(draw(st.integers(min_value=1, max_value=4)))]
    owner = {
        f"s{i}": draw(st.sampled_from(gateways))
        for i in range(draw(st.integers(min_value=1, max_value=8)))
    }
    devices = (
        [Device("cloud", "cloud", 0)]
        + [Device(gw, "gateway", 1) for gw in gateways]
        + [Device(sensor, "sensor", 2) for sensor in owner]
    )
    links = [Link(gw, "cloud", draw(LATENCIES)) for gw in gateways] + [
        Link(sensor, gw, draw(LATENCIES)) for sensor, gw in owner.items()
    ]
    links = [
        link if draw(st.booleans()) else Link(link.dst, link.src, link.latency_ms)
        for link in draw(st.permutations(links))
    ]
    topology = Topology(devices=list(draw(st.permutations(devices))), links=links)
    duration = draw(
        st.one_of(
            st.integers(min_value=1, max_value=2000).map(float),
            st.floats(min_value=1.0, max_value=2000.0),
        )
    )
    streams = {}
    for sensor in owner:
        start = draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=100.0)))
        times = list(itertools.accumulate([start] + draw(st.lists(TIME_STEPS, max_size=12))))
        values = draw(st.lists(VALUES, min_size=len(times), max_size=len(times)))
        streams[sensor] = to_stream(zip(times, values))
    return topology, streams, duration


def transmitted(samples, mode, n, p):
    if mode is Mode.CLOUD_ONLY:
        return list(samples)
    flags = dead_band_flags([s.value for s in samples], n, p)
    return [s for s, flag in zip(samples, flags) if flag]


def packed_log_digest(total, sent):
    """SHA-256 of the little-endian kept count, then each sent (timestamp, value)."""
    pairs = [x for sample in sent for x in sample]
    packed = struct.pack("<q", total) + struct.pack(f"<{len(pairs)}d", *pairs)
    return hashlib.sha256(packed).hexdigest()


PACKED_FLOATS = st.floats(allow_nan=False) | st.sampled_from([-0.0, 5e-324, -5e-324, 1e-310])


@given(rows=st.lists(st.tuples(PACKED_FLOATS, PACKED_FLOATS, st.booleans()), max_size=40))
@example(rows=[])
@example(rows=[(-0.0, 5e-324, True)])
@example(rows=[(1e-310, -0.0, False)])
@settings(max_examples=300, deadline=None)
def test_property_column_packing_matches_the_row_form(rows):
    # The bytes that sources_fp and each log digest hash: every sample, or
    # every flagged one, as its (timestamp, value) little-endian doubles.
    stream = to_stream((t, v) for t, v, _ in rows)
    flags = bytearray(flag for _, _, flag in rows)

    def row_form(selected):
        pairs = [x for t, v, _ in selected for x in (t, v)]
        return struct.pack(f"<{len(pairs)}d", *pairs)

    assert engine._packed(stream) == row_form(rows)
    assert engine._packed_sent(stream, flags) == row_form([row for row in rows if row[2]])


@given(
    scenario=network_scenarios(),
    n=st.integers(min_value=1, max_value=4),
    p=st.floats(min_value=0.0, max_value=0.3),
    size=st.integers(min_value=1, max_value=500),
)
@settings(max_examples=200, deadline=None)
def test_property_closed_form_matches_heap_oracle(scenario, n, p, size):
    topo, streams, duration = scenario
    sensor_ids = [d.id for d in topo.devices if d.kind == "sensor"]
    kept = {s: [x for x in to_rows(streams[s]) if x.timestamp < duration] for s in sensor_ids}
    energy_params = {
        kind: (e.busy_w, e.idle_w, e.busy_ms_per_message)
        for kind, e in DEFAULT_ENERGY_PARAMS.items()
    }
    # Integer-valued inputs make every float sum exact, whatever its order.
    integral = all(
        float(x).is_integer()
        for x in [l.latency_ms for l in topo.links]
        + [s.timestamp for samples in kept.values() for s in samples]
    )
    for mode in Mode:
        sent = {s: transmitted(kept[s], mode, n, p) for s in sensor_ids}
        emitted = {s: [x.timestamp for x in sent[s]] for s in sensor_ids}
        want = heap_network(
            [(d.id, d.kind) for d in topo.devices],
            [(l.src, l.dst, l.latency_ms) for l in topo.links],
            emitted,
            size,
            duration,
            energy_params,
        )
        got, trace = traced_run(
            topo, streams, mode, FilterConfig(n=n, p=p), ENERGY, duration, message_size_bytes=size
        )

        assert {k: (u["messages"], u["bytes"]) for k, u in got.link_usage.items()} == {
            k: (u["messages"], u["bytes"]) for k, u in want["link_usage"].items()
        }
        assert got.device_messages == want["device_messages"]
        assert got.messages_emitted == want["messages_emitted"]
        assert got.messages_delivered == want["messages_delivered"]
        assert got.latency_count == want["latency_count"]
        assert got.latency_min_ms == want["latency_min_ms"]
        assert got.latency_max_ms == want["latency_max_ms"]
        assert trace == want["trace"]
        assert got.log_digests == {s: packed_log_digest(len(kept[s]), sent[s]) for s in sensor_ids}

        pairs = [
            (got.link_usage[k]["byte_ms"], want["link_usage"][k]["byte_ms"])
            for k in got.link_usage
        ]
        pairs += [(got.device_energy_j[d], want["device_energy_j"][d]) for d in got.device_energy_j]
        pairs += [
            (got.total_byte_ms, want["total_byte_ms"]),
            (got.latency_mean_ms, want["latency_mean_ms"]),
        ]
        for closed_form, oracle in pairs:
            if integral:
                assert closed_form == oracle
            else:
                assert math.isclose(closed_form, oracle, rel_tol=1e-12)


@given(
    scenario=network_scenarios(),
    n=st.integers(min_value=1, max_value=4),
    p=st.floats(min_value=0.0, max_value=0.3),
    shuffle_seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_property_metrics_ignore_declaration_order(scenario, n, p, shuffle_seed):
    topo, streams, duration = scenario
    rng = random.Random(shuffle_seed)
    shuffled = Topology(devices=list(topo.devices), links=list(topo.links))
    rng.shuffle(shuffled.devices)
    rng.shuffle(shuffled.links)
    for mode in Mode:
        runs, traces = [], []
        for t in (topo, shuffled):
            metrics, trace = traced_run(t, streams, mode, FilterConfig(n=n, p=p), ENERGY, duration)
            runs.append(metrics)
            traces.append(sorted(d[:3] for d in trace))
        a, b = runs
        assert a.sensor_reports == b.sensor_reports
        assert a.log_digests == b.log_digests and a.flags == b.flags
        assert {k: (u["messages"], u["bytes"]) for k, u in a.link_usage.items()} == {
            k: (u["messages"], u["bytes"]) for k, u in b.link_usage.items()
        }
        assert a.device_messages == b.device_messages
        assert a.device_busy_ms == b.device_busy_ms
        for name in ("total_bytes", "messages_emitted", "messages_delivered",
                     "latency_count", "latency_min_ms", "latency_max_ms"):
            assert getattr(a, name) == getattr(b, name), name
        # Sums taken in declaration order may round differently.
        pairs = [(a.link_usage[k]["byte_ms"], b.link_usage[k]["byte_ms"]) for k in a.link_usage]
        pairs += [(a.device_energy_j[d], b.device_energy_j[d]) for d in a.device_energy_j]
        pairs += [(a.total_byte_ms, b.total_byte_ms), (a.latency_mean_ms, b.latency_mean_ms)]
        for x, y in pairs:
            assert math.isclose(x, y, rel_tol=1e-12)
        # The trace's seq numbers follow declaration order; its deliveries do not.
        assert traces[0] == traces[1]


@st.composite
def config_lists(draw):
    """Distinct grid points, with cloud-only's ``None`` drawn in anywhere or left out."""
    configs = draw(
        st.lists(
            st.builds(
                FilterConfig,
                n=st.integers(min_value=1, max_value=4),
                p=st.one_of(st.sampled_from([0.0, 0.05, 0.1]), st.floats(0.0, 0.3)),
            ),
            max_size=5,
            unique=True,
        )
    )
    if not configs or draw(st.booleans()):
        configs.insert(draw(st.integers(min_value=0, max_value=len(configs))), None)
    return configs


@given(
    scenario=network_scenarios(),
    configs=config_lists(),
    size=st.integers(min_value=1, max_value=500),
)
@settings(max_examples=150, deadline=None)
def test_property_simulate_equals_one_run_per_mode(scenario, configs, size):
    # Each config's run equals a one-config run: cloud-only for None, else
    # mist_fog_cloud under that config.
    topo, streams, duration = scenario
    got = simulate(topo, streams, configs, ENERGY, duration, message_size_bytes=size, seed=3)
    assert len(got) == len(configs)
    for config, metrics in zip(configs, got):
        mode = Mode.CLOUD_ONLY if config is None else Mode.MIST_FOG_CLOUD
        single = run(
            topo, streams, mode, config or FC, ENERGY, duration, message_size_bytes=size, seed=3
        )
        assert metrics.mode == mode.value
        assert json.dumps(metrics.to_dict()) == json.dumps(single.to_dict())
        assert metrics.log_digests == single.log_digests and metrics.flags == single.flags


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def checked_streams(draw):
    """A stream with at most one fault drawn in, and a horizon that may cut it.

    A fault is a NaN, infinite or negative timestamp, a timestamp repeated
    from or stepping back to another sample's, or a NaN or infinite value.
    The start may be negative too.
    """
    start = draw(st.one_of(st.just(0.0), st.floats(min_value=-5.0, max_value=100.0)))
    times = list(itertools.accumulate([start] + draw(st.lists(TIME_STEPS, max_size=12))))
    values = draw(st.lists(VALUES, min_size=len(times), max_size=len(times)))
    samples = [Sample(t, v) for t, v in zip(times, values)]
    if draw(st.booleans()):
        i = draw(st.integers(min_value=0, max_value=len(samples) - 1))
        t, v = samples[i]
        if draw(st.booleans()):
            t = draw(
                st.one_of(
                    NON_FINITE,
                    st.floats(max_value=-1e-9, allow_infinity=False),
                    st.sampled_from(times),
                )
            )
        else:
            v = draw(NON_FINITE)
        samples[i] = Sample(t, v)
    duration = draw(st.floats(min_value=1.0, max_value=2000.0))
    return samples, duration


@given(scenario=checked_streams())
@settings(max_examples=400, deadline=None)
def test_property_stream_check_matches_the_loop_it_replaced(scenario):
    # The shared step checks and cuts the stream; simulate adds the rule
    # that the first timestamp is not negative.
    samples, duration = scenario
    topo = small_topology(sensor_count=1)
    try:
        want = loop_check_stream("s1", samples, duration)
    except ValueError:
        with pytest.raises(ValueError, match="^sensor 's1': "):
            simulate(topo, {"s1": to_stream(samples)}, [None], ENERGY, duration)
        return
    stream = to_stream(samples)
    got, grid = measure_stream("s1", {"s1": stream}, [None], duration, "sensor")
    assert to_rows(got) == want
    assert grid[0].report.total_count == len(want)
    if len(want) == len(samples):
        assert got is stream  # a stream the horizon does not cut is not copied
    (metrics,) = simulate(topo, {"s1": stream}, [None], ENERGY, duration)
    (whole,) = simulate(topo, {"s1": to_stream(want)}, [None], ENERGY, duration)
    assert metrics.to_dict() == whole.to_dict()


def test_simulate_rejects_empty_or_repeated_configs():
    topo = small_topology(sensor_count=1)
    streams = {"s1": constant_stream(3)}
    for configs in ([], [None, None], [FC, None, FilterConfig(n=10, p=0.05)]):
        with pytest.raises(ValueError, match="configs must be non-empty and distinct"):
            simulate(topo, streams, configs, ENERGY, 10_000.0)


def test_simulate_raises_the_first_sensor_to_fail_its_check_or_its_measure():
    # One sensor's window sum overflows in the filter, the other is out of
    # order: whichever comes first in the topology raises.
    topo = small_topology(sensor_count=2)
    overflowing = to_stream([(float(t), 1e308) for t in range(4)])
    out_of_order = to_stream([(1.0, 1.0), (0.0, 1.0)])
    configs = [None, FilterConfig(n=2, p=0.1)]
    with pytest.raises(ValueError, match="^sensor 's1': window average overflowed"):
        simulate(topo, {"s1": overflowing, "s2": out_of_order}, configs, ENERGY, 1000.0)
    with pytest.raises(
        ValueError, match=r"^sensor 's1': out-of-order sample: timestamp 0\.0 does not exceed 1\.0"
    ):
        simulate(topo, {"s1": out_of_order, "s2": overflowing}, configs, ENERGY, 1000.0)


def test_simulate_measures_no_sensor_after_one_fails(monkeypatch):
    # s1's window sum overflows: it raises there, and s2 is not measured.
    # In one process: this one cannot see calls made in forked workers.
    monkeypatch.setattr(engine, "_cpu_count", lambda: 1)
    measured = []

    def measure_grid(stream, *args):
        measured.append(stream.values[0])
        return real(stream, *args)

    real = engine.measure_grid
    monkeypatch.setattr(engine, "measure_grid", measure_grid)
    streams = {"s1": to_stream([(float(t), 1e308) for t in range(4)]), "s2": constant_stream(2)}
    with pytest.raises(ValueError, match="^sensor 's1': window average overflowed"):
        simulate(small_topology(sensor_count=2), streams, [FilterConfig(n=2, p=0.1)], ENERGY, 1e3)
    assert measured == [1e308]


def _overflowing(start):
    """A stream whose window sum overflows at n=2, from timestamp ``start``."""
    return to_stream([(start + t, 1e308) for t in range(4)])


@pytest.mark.parametrize("workers", [1, 3])
def test_simulate_measuring_error_beats_a_later_check_error(monkeypatch, workers):
    # s2 fails to measure (worker 1 of 3) and s4, later, fails its check
    # (share 0, this process): the earlier sensor's error wins under any
    # worker count.  Without s2's failure, s4's check error raises.
    monkeypatch.setattr(engine, "_cpu_count", lambda: workers)
    streams = {f"s{i}": constant_stream(4) for i in range(1, 5)}
    streams["s2"] = _overflowing(0.0)
    streams["s4"] = to_stream([(1.0, 1.0), (0.0, 1.0)])
    topo, configs = small_topology(sensor_count=4), [FilterConfig(n=2, p=0.1)]
    with pytest.raises(ValueError, match=r"^sensor 's2': window average overflowed"):
        simulate(topo, streams, configs, ENERGY, 1e3)
    streams["s2"] = constant_stream(4)
    with pytest.raises(ValueError, match=r"^sensor 's4': out-of-order sample"):
        simulate(topo, streams, configs, ENERGY, 1e3)


@pytest.mark.parametrize("workers", [1, 3])
def test_simulate_raises_the_first_measuring_error(monkeypatch, workers):
    # s2, s3 and s4 all fail to measure, in three processes under three
    # workers: s2's error is raised under any worker count.
    monkeypatch.setattr(engine, "_cpu_count", lambda: workers)
    streams = {"s1": constant_stream(4)}
    streams.update({f"s{i}": _overflowing(float(i)) for i in range(2, 5)})
    with pytest.raises(ValueError, match=r"^sensor 's2': window average overflowed to inf at timestamp 3\.0"):
        simulate(small_topology(sensor_count=4), streams, [FilterConfig(n=2, p=0.1)], ENERGY, 1e3)


@pytest.mark.parametrize("workers", [1, 3])
def test_simulate_measuring_error_beats_a_later_negative_timestamp(monkeypatch, workers):
    # s1 fails to measure at n=2 (this process) and s3 (worker 2 of 3)
    # starts before 0: s1's error wins under any worker count.  Without
    # s1's failure, the negative timestamp raises.
    monkeypatch.setattr(engine, "_cpu_count", lambda: workers)
    streams = {f"s{i}": constant_stream(4) for i in range(1, 5)}
    streams["s1"] = _overflowing(0.0)
    streams["s3"] = to_stream([(-1.0, 1.0), (0.0, 1.0)])
    topo, configs = small_topology(sensor_count=4), [None, FilterConfig(n=2, p=0.1)]
    with pytest.raises(ValueError, match=r"^sensor 's1': window average overflowed"):
        simulate(topo, streams, configs, ENERGY, 1e3)
    streams["s1"] = constant_stream(4)
    with pytest.raises(ValueError, match=r"^sensor 's3': negative timestamp -1\.0$"):
        simulate(topo, streams, configs, ENERGY, 1e3)


class FetchOnce(Mapping):
    """Streams generated on lookup, recording the order of lookups.

    Each lookup asserts that no stream it handed out before is still alive.
    """

    def __init__(self, specs):
        self.specs = specs
        self.fetched = []
        self.refs = []

    def __getitem__(self, sensor_id):
        assert [ref() for ref in self.refs] == [None] * len(self.refs)
        self.fetched.append(sensor_id)
        stream = gen_normal(self.specs[sensor_id])
        self.refs.append(weakref.ref(stream))
        return stream

    def __iter__(self):
        return iter(sorted(self.specs, reverse=True))  # not the topology's order

    def __len__(self):
        return len(self.specs)


def test_simulate_fetches_each_stream_once_in_topology_order_and_drops_it(monkeypatch):
    # In one process: this one cannot see lookups made in forked workers.
    monkeypatch.setattr(engine, "_cpu_count", lambda: 1)
    topo = small_topology(sensor_count=4)
    # The horizon cuts the 300-sample streams and leaves the others whole:
    # neither the cut-off original nor a whole stream outlives its sensor.
    specs = {
        f"s{i}": SensorSpec(f"s{i}", 25.0, 4.0, 100.0, 200 + 100 * (i % 2), seed=i)
        for i in range(1, 5)
    }
    configs = [None, FC, FilterConfig(n=5, p=0.1)]
    lazy = FetchOnce(specs)
    got = simulate(topo, lazy, configs, ENERGY, 25_000.0, seed=3)
    assert lazy.fetched == ["s1", "s2", "s3", "s4"]
    assert [ref() for ref in lazy.refs] == [None] * 4
    eager = {s: gen_normal(spec) for s, spec in specs.items()}
    want = simulate(topo, eager, configs, ENERGY, 25_000.0, seed=3)
    for a, b in zip(got, want, strict=True):
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)
        assert a.flags == b.flags and a.log_digests == b.log_digests


def test_simulate_runs_this_process_share_to_its_end_before_accounting(three_workers, monkeypatch):
    # Of seven sensors, this process measures the 1st, 4th and 7th: it
    # fetches all three before it accounts any sensor.
    specs = {f"s{i}": SensorSpec(f"s{i}", 25.0, 4.0, 100.0, 50, seed=i) for i in range(1, 8)}
    lazy = FetchOnce(specs)
    real_add = engine._Traffic.add

    def add(self, sensor_id, *args):
        lazy.fetched.append(("add", sensor_id))
        real_add(self, sensor_id, *args)

    monkeypatch.setattr(engine._Traffic, "add", add)
    simulate(small_topology(sensor_count=7), lazy, [None, FC], ENERGY, 25_000.0)
    assert lazy.fetched[:4] == ["s1", "s4", "s7", ("add", "s1")]


@pytest.mark.parametrize("workers", [1, 3])
def test_simulate_notes_each_sensor_once_where_it_was_measured(monkeypatch, workers):
    # The note of each of five sensors sees its stream cut at the horizon
    # (300 samples every 100 ms, cut at 25,000 ms), and is called right
    # after that sensor's measure in the same process: each process's
    # measures and notes go in step, on fork_map's schedule.
    monkeypatch.setattr(engine, "_cpu_count", lambda: workers)
    specs = {f"s{i}": SensorSpec(f"s{i}", 25.0, 4.0, 100.0, 300, seed=i) for i in range(1, 6)}
    measured, noted = [], []  # each forked worker appends to its own copies
    real = engine.measure_grid

    def measure_grid(stream, configs):
        measured.append(len(stream))
        return real(stream, configs)

    def note(sensor_id, kept):
        noted.append(sensor_id)
        return os.getpid(), tuple(noted), len(measured), list(kept.timestamps), list(kept.values)

    monkeypatch.setattr(engine, "measure_grid", measure_grid)
    streams = {s: gen_normal(spec) for s, spec in specs.items()}
    (metrics,) = simulate(small_topology(sensor_count=5), streams, [FC], ENERGY, 25_000.0, note=note)
    ids = list(specs)
    assert list(metrics.notes) == ids
    pids = [metrics.notes[s][0] for s in ids]
    assert pids[0] == os.getpid() and len(set(pids)) == workers
    for i, s in enumerate(ids):
        pid, seen, measures, timestamps, values = metrics.notes[s]
        assert pid == pids[i % workers]
        assert seen == tuple(ids[i % workers:i + 1:workers])  # once per sensor, in turn
        assert measures == len(seen)
        assert timestamps == [100.0 * k for k in range(250)]
        assert values == list(streams[s].values[:250])


def test_measure_stream_holds_no_stream_at_the_next_fetch():
    # The shared step itself: the horizon cuts every stream, and nothing
    # holds a fetched stream once its step has returned the cut copy.
    specs = {f"s{i}": SensorSpec(f"s{i}", 25.0, 0.0, 100.0, 300, seed=i) for i in range(1, 5)}
    lazy = FetchOnce(specs)
    totals = []
    for s in ["s1", "s2", "s3", "s4"]:
        kept, grid = measure_stream(s, lazy, [FC], 25_000.0, "sensor")
        assert len(kept) == 250
        totals.append(grid[0].report.total_count)
    assert lazy.fetched == ["s1", "s2", "s3", "s4"]
    assert [ref() for ref in lazy.refs] == [None] * 4
    assert totals == [250] * 4


def test_measure_stream_raises_where_a_stream_fails_to_measure(monkeypatch):
    # s2's windows overflow: its step raises, labelled, and fork_map takes
    # no item after it, so s3 and s4 are never fetched.  In one process,
    # which sees every lookup.
    monkeypatch.setattr(engine, "_cpu_count", lambda: 1)
    specs = {
        f"s{i}": SensorSpec(f"s{i}", 1e308 if i == 2 else 25.0, 0.0, 100.0, 300, seed=i)
        for i in range(1, 5)
    }
    lazy = FetchOnce(specs)
    measured = []

    def measure(s):
        kept, _ = measure_stream(s, lazy, [FC], 25_000.0, "sensor")
        measured.append(s)
        return len(kept)

    with pytest.raises(ValueError, match="^sensor 's2': window average overflowed to inf"):
        list(fork_map(measure, ["s1", "s2", "s3", "s4"]))
    assert measured == ["s1"]
    assert lazy.fetched == ["s1", "s2"]


@pytest.mark.parametrize("command", ["simulate", "filter"])
def test_each_command_drops_each_source_before_the_next_is_generated(
    tmp_path, monkeypatch, command
):
    # Through the CLI: neither the command, the pass nor the loader holds a
    # source's samples when the same process generates its next source.
    # Each generation appends to a file how many of the streams its process
    # generated before are still alive.  In one process, whose weak
    # references see every stream.
    monkeypatch.setattr(engine, "_cpu_count", lambda: 1)
    refs = []
    log = tmp_path / "generated.log"

    def watched(spec):
        alive = sum(ref() is not None for ref in refs)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {alive}\n")
        stream = gen_normal(spec)
        refs.append(weakref.ref(stream))
        return stream

    monkeypatch.setattr(cli, "gen_normal", watched)
    text = "[run]\nduration_ms = 25000\nplot_data = true\n\n[device cloud]\nkind = cloud\n"
    text += "\n[device gw]\nkind = gateway\n\n[link gw cloud]\nlatency_ms = 50\n"
    for i in range(4):
        text += f"\n[device s{i}]\nkind = sensor\n\n[link s{i} gw]\nlatency_ms = 4\n"
        text += f"\n[source s{i}]\nkind = normal\nmean = 25\nstddev = 4\nperiod_ms = 100\n"
        text += f"count = {200 + 100 * (i % 2)}\n"
    cfg = tmp_path / "four.cfg"
    cfg.write_text(text, encoding="utf-8")
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    records = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
    assert [alive for _, alive in records] == ["0"] * 4


@pytest.mark.parametrize(
    "n_gateways, uplinks_first",
    [(20, True), (1, False)],
    ids=["20-gateways-uplinks-first", "1-gateway-uplinks-last"],
)
def test_large_sensor_bank_runs_in_linear_time(n_gateways, uplinks_first):
    # 10,000 sensors, one sample each.  Under 1 s with indexed lookups;
    # quadratic per-sensor scans took about 70 s.  With the uplinks declared
    # after the sensor links, a per-sensor walk of the gateway's links to find
    # its uplink is quadratic too.
    gateways = [f"g{i}" for i in range(n_gateways)]
    devices = [Device("cloud", "cloud", 0)] + [Device(g, "gateway", 1) for g in gateways]
    uplinks = [Link(g, "cloud", 50.0) for g in gateways]
    links = list(uplinks) if uplinks_first else []
    streams = {}
    for i in range(10_000):
        devices.append(Device(f"s{i}", "sensor", 2))
        links.append(Link(f"s{i}", gateways[i % n_gateways], 4.0))
        streams[f"s{i}"] = to_stream([(0.0, 25.0)])
    if not uplinks_first:
        links += uplinks
    topo = Topology(devices=devices, links=links)
    started = time.perf_counter()
    assert validate(topo) == []
    for mode in Mode:
        metrics = run(topo, streams, mode, FC, ENERGY, 1000.0)
        assert metrics.messages_delivered == 20_000
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"10,000-sensor validate + run took {elapsed:.2f}s"


# ------------------------------------------------------------ fork_map


REPO_ROOT = Path(__file__).resolve().parent.parent


def _python_stdout(code: str) -> str:
    """The stdout of ``code`` run by a new interpreter, stdout on a pipe."""
    code = f"import sys\nsys.path.insert(0, {str(REPO_ROOT / 'src')!r})\n{code}"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return out.stdout


@pytest.fixture
def three_workers(monkeypatch):
    """Three CPUs, so fork_map and simulate fork up to two workers and take
    share 0 here."""
    monkeypatch.setattr(engine, "_cpu_count", lambda: 3)


def _tagged(x):
    return x * x, os.getpid()


@pytest.mark.parametrize("count", [1, 3, 10])
def test_fork_map_keeps_item_order(three_workers, count):
    # One item runs here; three take one worker each; ten go round-robin.
    got = list(fork_map(_tagged, range(count)))
    assert [value for value, _ in got] == [x * x for x in range(count)]
    pids = [pid for _, pid in got]
    assert pids[0] == os.getpid()
    assert len(set(pids)) == min(count, 3)
    assert all(pids[i] == pids[i % 3] for i in range(count))


def test_fork_map_returns_results_larger_than_a_pipe_buffer(three_workers):
    # A worker blocks on its full pipe until this process reads it: each
    # pipe is drained before its worker is reaped.
    def big(x):
        return bytes([x]) * 300_000

    assert list(fork_map(big, range(3))) == [big(x) for x in range(3)]


def _fails_from_item_4(x):
    if x == 4:
        raise LookupError("item 4")
    if x >= 5:
        raise ValueError(f"item {x}")
    return x


def test_fork_map_raises_the_earliest_failing_item(three_workers):
    # Items 4 and 5 fail in two children, item 6 in this process's share:
    # item 4's exception is raised, with its type and message.
    with pytest.raises(LookupError) as excinfo:
        list(fork_map(_fails_from_item_4, range(8)))
    assert excinfo.type is LookupError and str(excinfo.value) == "item 4"


def test_fork_map_runs_this_process_share_to_its_end_before_reading_a_worker(three_workers):
    # Item 1 raises in worker 1.  This process runs its whole share, items
    # 0 and 3, before it reads a worker's pipe, so it has computed item 3
    # when item 1's exception is raised; streamed in step, it would not.
    computed = []  # what this process computed: each worker has its own copy

    def func(x):
        computed.append(x)
        if x == 1:
            raise LookupError("item 1")
        return x

    with pytest.raises(LookupError, match="^item 1$"):
        list(fork_map(func, range(6)))
    assert computed == [0, 3]


def _dies_at_item_2(x):
    if x == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return x


def test_fork_map_reports_a_worker_that_died(three_workers):
    with pytest.raises(OSError, match=r"exit status -9"):
        list(fork_map(_dies_at_item_2, range(6)))


class _ExitWhilePickled:
    """An object whose pickling ends the process with exit status 3."""

    def __reduce__(self):
        os._exit(3)


def test_fork_map_reports_a_result_cut_short_after_a_pipe_buffer(three_workers):
    # Each worker sends 300 KB of its result, more than a pipe holds, then
    # exits while pickling the rest: the part already read is not mistaken
    # for a result, and no worker is left behind.
    with pytest.raises(OSError, match=r"exit status 3\)"):
        list(fork_map(lambda x: (bytes(300_000), _ExitWhilePickled()), range(3)))


def test_fork_map_children_never_flush_inherited_stdout():
    # Stdout on a pipe is block-buffered: text printed before the fork is
    # still in the buffer each child inherits, and must appear once.
    code = (
        "from mistsim import engine\n"
        "engine._cpu_count = lambda: 3\n"
        "print('before the fork', end=' ')\n"
        "print(list(engine.fork_map(abs, [-1, -2, -3, -4])))\n"
    )
    assert _python_stdout(code) == "before the fork [1, 2, 3, 4]\n"


def test_fork_map_runs_inline_while_another_thread_runs(three_workers):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        got = list(fork_map(_tagged, range(5)))
        assert got == [(x * x, os.getpid()) for x in range(5)]
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_a_run_that_never_forks_leaves_pickle_unloaded(tmp_path):
    # One source is one worker, so filter runs in this process, and pickle,
    # which only forked workers need, stays unloaded.
    csv = REPO_ROOT / "tests" / "data" / "office_temperature.csv"
    code = (
        "import sys\n"
        "from mistsim.cli import main\n"
        f"args = ['filter', '--dataset', {str(csv)!r}, '--column', 'temp_c']\n"
        f"assert main([*args, '--out', {str(tmp_path)!r}, '--quiet']) == 0\n"
        "print('pickle' in sys.modules)\n"
    )
    assert _python_stdout(code) == "False\n"


def test_a_simulate_run_that_never_forks_leaves_pickle_unloaded(tmp_path):
    # One sensor is one worker, so simulate measures in this process, and
    # pickle stays unloaded.
    cfg = tmp_path / "one.cfg"
    cfg.write_text(
        "[run]\nduration_ms = 1000\n\n[device cloud]\nkind = cloud\n\n"
        "[device gw]\nkind = gateway\n\n[device s]\nkind = sensor\n\n"
        "[link s gw]\nlatency_ms = 4\n\n[link gw cloud]\nlatency_ms = 50\n\n"
        "[source s]\nkind = normal\nmean = 20\nstddev = 1\nperiod_ms = 10\ncount = 50\n",
        encoding="utf-8",
    )
    code = (
        "import sys\n"
        "from mistsim.cli import main\n"
        f"args = ['simulate', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}]\n"
        "assert main([*args, '--quiet']) == 0\n"
        "print('pickle' in sys.modules)\n"
    )
    assert _python_stdout(code) == "False\n"


def test_cold_start_leaves_unused_modules_unloaded(tmp_path):
    # Importing the CLI loads neither dataclasses nor inspect, which it
    # would pull in, nor hashlib, which loads OpenSSL: a filter run, which
    # makes no digest, leaves it unloaded, and a simulate run loads it.  A
    # simulate over normal sources only also leaves the CSV reader's csv
    # and datetime unloaded.
    cfg = tmp_path / "normal.cfg"
    cfg.write_text(
        "[run]\nduration_ms = 1000\n\n[device cloud]\nkind = cloud\n\n"
        "[device gw]\nkind = gateway\n\n[device s]\nkind = sensor\n\n"
        "[link s gw]\nlatency_ms = 4\n\n[link gw cloud]\nlatency_ms = 50\n\n"
        "[source s]\nkind = normal\nmean = 20\nstddev = 1\nperiod_ms = 10\ncount = 50\n",
        encoding="utf-8",
    )
    code = (
        "import sys\n"
        "def loaded(*names):\n"
        "    print(sorted(name for name in names if name in sys.modules))\n"
        "import mistsim.cli\n"
        "loaded('dataclasses', 'inspect', 'hashlib', '_hashlib')\n"
        f"args = ['--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}, '--quiet']\n"
        "assert mistsim.cli.main(['filter', *args]) == 0\n"
        "loaded('hashlib', '_hashlib')\n"
        "assert mistsim.cli.main(['simulate', *args]) == 0\n"
        "loaded('csv', 'datetime', 'dataclasses', 'inspect', 'hashlib', '_hashlib')\n"
    )
    assert _python_stdout(code) == "[]\n[]\n['_hashlib', 'hashlib']\n"


def _numbered():
    """Each item with its place among its process's items, and that process's pid."""
    places = itertools.count()  # each forked worker counts on its own copy
    return lambda x: (x, next(places), os.getpid())


def _assert_one_share_per_worker(got, count):
    """Item i came from worker i % workers, which numbered its items from 0."""
    workers = min(count, 3)
    assert [x for x, _, _ in got] == list(range(count))
    assert [k for _, k, _ in got] == [i // workers for i in range(count)]
    pids = [pid for _, _, pid in got]
    assert pids[0] == os.getpid()
    assert len(set(pids)) == workers
    assert all(pids[i] == pids[i % workers] for i in range(count))


# The test_fork_stream_* tests take fork_map's results one item at a time, as
# simulate takes them (fork_stream was the name of that use), where the
# test_fork_map_* tests take them whole with list(), as filter and the plot
# writer do.


@pytest.mark.parametrize("count", [1, 3, 10])
def test_fork_stream_keeps_item_order_with_one_share_per_worker(three_workers, count):
    # Taken one item at a time under closing(), as simulate takes it.
    with closing(fork_map(_numbered(), range(count))) as results:
        got = [next(results) for _ in range(count)]
        assert next(results, None) is None
    _assert_one_share_per_worker(got, count)


@pytest.mark.parametrize("count", [1, 3, 10])
def test_fork_map_keeps_item_order_with_one_share_per_worker(three_workers, count):
    # The same, taken whole with list(), as filter and the plot writer take it.
    _assert_one_share_per_worker(list(fork_map(_numbered(), range(count))), count)


def test_fork_stream_raises_the_earliest_failing_item_after_the_items_before_it(three_workers):
    # Items 4 and 5 fail in two workers, item 6 in this process's share.
    got = []
    with pytest.raises(LookupError) as excinfo:
        for x in fork_map(_fails_from_item_4, range(8)):
            got.append(x)
    assert got == [0, 1, 2, 3]
    assert excinfo.type is LookupError and str(excinfo.value) == "item 4"


def test_fork_stream_reaps_workers_blocked_on_a_full_pipe_when_closed(three_workers):
    # Each item is larger than a pipe buffer, so the workers are blocked
    # writing when the consumer stops after the first two items.
    results = fork_map(lambda x: bytes([x]) * 300_000, range(9))
    assert next(results) == bytes([0]) * 300_000
    assert next(results) == bytes([1]) * 300_000
    results.close()


def test_fork_stream_reports_a_worker_that_died(three_workers):
    # Item 2's worker dies: items 0 and 1 are yielded before it is reported.
    got = []
    with pytest.raises(OSError, match=r"exit status -9"):
        for x in fork_map(_dies_at_item_2, range(6)):
            got.append(x)
    assert got == [0, 1]


def test_fork_map_kills_the_workers_when_it_raises():
    # Item 0 raises in this process while each worker's item sleeps for a
    # minute: the error is raised at once, not after the workers' items.
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(REPO_ROOT / 'src')!r})\n"
        "from mistsim import engine\n"
        "engine._cpu_count = lambda: 3\n"
        "def item(x):\n"
        "    if x == 0:\n"
        "        raise LookupError('item 0')\n"
        "    time.sleep(60)\n"
        "    return x\n"
        "list(engine.fork_map(item, range(3)))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=10)
    assert done.returncode == 1
    assert done.stderr.endswith("LookupError: item 0\n")


def test_fork_map_workers_stop_once_their_parent_is_killed(tmp_path):
    # Three processes share 30 items of 0.2 s each, and each logs when it
    # starts an item.  Once the parent is killed, its two workers finish the
    # item they are on and start no other; before, they ran their whole
    # share, starting items up to 1.6 s after the kill.
    log = tmp_path / "started.log"
    code = (
        "import os, sys, time\n"
        f"sys.path.insert(0, {str(REPO_ROOT / 'src')!r})\n"
        "from mistsim import engine\n"
        "engine._cpu_count = lambda: 3\n"
        "def item(x):\n"
        "    with open(sys.argv[1], 'a') as fh:\n"
        "        fh.write(f'{os.getpid()} {time.time()!r}\\n')\n"
        "    time.sleep(0.2)\n"
        "    return x\n"
        "list(engine.fork_map(item, range(30)))\n"
    )

    def started():
        text = log.read_text(encoding="utf-8") if log.exists() else ""
        return [(int(pid), float(t)) for pid, t in map(str.split, text.splitlines())]

    parent = subprocess.Popen([sys.executable, "-c", code, str(log)])
    try:
        deadline = time.monotonic() + 30
        while len(started()) < 4:  # some process is on its second item
            assert time.monotonic() < deadline, "the workers never started"
            time.sleep(0.01)
        killed = time.time()
        parent.terminate()
        parent.wait(timeout=30)
    finally:
        if parent.returncode is None:
            parent.kill()
            parent.wait()
    time.sleep(1.0)
    late = [t - killed for pid, t in started() if pid != parent.pid and t > killed + 0.6]
    assert late == [], "a worker started items after its parent was killed"
