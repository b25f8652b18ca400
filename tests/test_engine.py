"""Engine: latency, accounting, determinism, conservation, heap-oracle agreement."""

from __future__ import annotations

import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mistsim.engine import (
    DEFAULT_ENERGY_PARAMS,
    EnergyModel,
    EnergyParams,
    Mode,
    account_energy,
    compare,
    run,
)
from mistsim.mist_filter import FilterConfig, Sample
from mistsim.sources import SensorSpec, gen_normal
from mistsim.topology import Device, Link, Topology
from oracles import dead_band_flags, heap_network

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
    return [Sample(k * period, value) for k in range(count)]


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
    streams = {"s1": [Sample(0.0, 25.0)]}
    trace = []
    metrics = run(
        topo, streams, Mode.CLOUD_ONLY, FC, ENERGY, 1000.0, trace=trace
    )
    assert metrics.latency_count == 1
    assert metrics.latency_min_ms == 54.0
    assert metrics.latency_max_ms == 54.0
    assert [(t, d) for t, d, _, _ in trace] == [(4.0, "gw"), (54.0, "cloud")]


def test_latency_offsets_track_emission_time():
    topo = small_topology(sensor_count=1, sensor_latency=4.0, uplink_latency=50.0)
    streams = {"s1": [Sample(100.5, 25.0)]}
    trace = []
    run(topo, streams, Mode.CLOUD_ONLY, FC, ENERGY, 1000.0, trace=trace)
    assert [t for t, _, _, _ in trace] == [104.5, 154.5]


def test_messages_in_flight_at_horizon_still_deliver():
    topo = small_topology(sensor_count=1)
    streams = {"s1": [Sample(999.0, 25.0)]}  # cloud arrival at 1053, past the horizon
    metrics = run(topo, streams, Mode.CLOUD_ONLY, FC, ENERGY, 1000.0)
    assert metrics.messages_emitted == 1
    assert metrics.messages_delivered == 2  # gateway hop + cloud hop
    assert metrics.latency_count == 1


def test_samples_at_or_past_horizon_are_dropped():
    topo = small_topology(sensor_count=1)
    streams = {"s1": [Sample(0.0, 25.0), Sample(1000.0, 25.0), Sample(2000.0, 25.0)]}
    metrics = run(topo, streams, Mode.CLOUD_ONLY, FC, ENERGY, 1000.0)
    assert metrics.sensor_reports["s1"].total_count == 1


def test_trace_times_are_non_decreasing_and_fifo_per_sensor():
    topo = small_topology(sensor_count=2)
    streams = {
        "s1": constant_stream(50, period=7.0),
        "s2": constant_stream(40, period=11.0),
    }
    trace = []
    run(topo, streams, Mode.CLOUD_ONLY, FC, ENERGY, 10_000.0, trace=trace)
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
        run(topo, {"s1": [], "s2": []}, Mode.CLOUD_ONLY, FC, ENERGY, 1000.0)


def test_run_rejects_bad_duration_and_size():
    topo = small_topology()
    streams = {"s1": [], "s2": []}
    with pytest.raises(ValueError, match="duration"):
        run(topo, streams, Mode.CLOUD_ONLY, FC, ENERGY, 0.0)
    with pytest.raises(ValueError, match="message_size_bytes"):
        run(topo, streams, Mode.CLOUD_ONLY, FC, ENERGY, 1000.0, message_size_bytes=0)


def test_run_rejects_stream_mismatches():
    topo = small_topology()
    with pytest.raises(ValueError, match="no stream for sensors"):
        run(topo, {"s1": []}, Mode.CLOUD_ONLY, FC, ENERGY, 1000.0)
    with pytest.raises(ValueError, match="unknown sensors"):
        run(
            topo,
            {"s1": [], "s2": [], "s3": []},
            Mode.CLOUD_ONLY,
            FC,
            ENERGY,
            1000.0,
        )


def test_run_rejects_bad_timestamps():
    topo = small_topology(sensor_count=1)
    with pytest.raises(ValueError, match="strictly increase"):
        run(
            topo,
            {"s1": [Sample(5.0, 1.0), Sample(5.0, 2.0)]},
            Mode.CLOUD_ONLY,
            FC,
            ENERGY,
            1000.0,
        )
    with pytest.raises(ValueError, match="finite"):
        run(topo, {"s1": [Sample(-1.0, 1.0)]}, Mode.CLOUD_ONLY, FC, ENERGY, 1000.0)


@pytest.mark.parametrize("mode", list(Mode))
def test_run_rejects_non_finite_values(mode):
    # Cloud-only never steps a filter, so the engine checks values itself.
    stream = [Sample(0.0, 1.0), Sample(1.0, float("nan"))]
    with pytest.raises(ValueError, match="non-finite value at timestamp 1.0"):
        run(small_topology(sensor_count=1), {"s1": stream}, mode, FC, ENERGY, 1000.0)


# ----------------------------------------------------------- empty runs


def test_zero_sample_run_burns_idle_energy_only():
    topo = small_topology()
    metrics = run(topo, {"s1": [], "s2": []}, Mode.MIST_FOG_CLOUD, FC, ENERGY, 60_000.0)
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
        "s1": [Sample(t.timestamp, t.value) for t in gen_normal(SensorSpec("s1", 25, 4, 100.0, 400, seed=5))],
        "s2": [Sample(t.timestamp, t.value) for t in gen_normal(SensorSpec("s2", 28, 1, 100.0, 400, seed=6))],
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
        "s1": [Sample(s.timestamp, s.value) for s in gen_normal(SensorSpec("s1", 25, 4, 100.0, 300, seed=1))],
        "s2": [Sample(s.timestamp, s.value) for s in gen_normal(SensorSpec("s2", 22, 6, 100.0, 300, seed=2))],
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
            emitted = len(metrics.logs[sensor_id].entries)
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
    streams = {"s1": []}
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
        streams[sensor] = [Sample(t, v) for t, v in zip(times, values)]
    return topology, streams, duration


def transmitted_times(samples, mode, n, p):
    if mode is Mode.CLOUD_ONLY:
        return [s.timestamp for s in samples]
    flags = dead_band_flags([s.value for s in samples], n, p)
    return [s.timestamp for s, flag in zip(samples, flags) if flag]


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
    kept = {s: [x for x in streams[s] if x.timestamp < duration] for s in sensor_ids}
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
        emitted = {s: transmitted_times(kept[s], mode, n, p) for s in sensor_ids}
        want = heap_network(
            [(d.id, d.kind) for d in topo.devices],
            [(l.src, l.dst, l.latency_ms) for l in topo.links],
            emitted,
            size,
            duration,
            energy_params,
        )
        trace = []
        got = run(
            topo,
            streams,
            mode,
            FilterConfig(n=n, p=p),
            ENERGY,
            duration,
            message_size_bytes=size,
            trace=trace,
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
