"""The record types' public behaviour: construction, checks, equality, repr.

Every value type of the package is pinned here the same way: positional and
keyword construction with its defaults, every check message, ``==`` (and
``hash`` for the immutable types), the ``repr`` text that error messages and
the README print, a ``pickle`` round trip (forked workers send results
through pipes) and, for the immutable types, that no attribute can be set.
"""

from __future__ import annotations

import math
import pickle
from array import array

import pytest

from mistsim.config import Overrides, Scenario
from mistsim.engine import DEFAULT_ENERGY_PARAMS, EnergyModel, EnergyParams, RunMetrics
from mistsim.mist_filter import FilterConfig, Stream
from mistsim.reconstruction import ErrorReport
from mistsim.reference import Sample, TransmissionLog
from mistsim.sources import MAX_COUNT, IngestReport, ReplaySpec, SensorSpec
from mistsim.topology import Device, Link, Topology


def _message(build) -> str:
    with pytest.raises(ValueError) as excinfo:
        build()
    return str(excinfo.value)


def _frozen(record, field: str) -> None:
    """No field of ``record`` can be set or deleted, and no attribute added."""
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1


def _round_trips(record) -> None:
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(record, protocol))
        assert type(copy) is type(record)
        assert copy == record


# ------------------------------------------------------------------ topology


def test_device_construction_defaults_and_repr():
    device = Device("s1", "sensor", 2)
    assert device == Device(id="s1", kind="sensor", level=2, uplink_kbps=0.0,
                            downlink_kbps=0.0, ram_mb=0.0)
    assert (device.uplink_kbps, device.downlink_kbps, device.ram_mb) == (0.0, 0.0, 0.0)
    full = Device("gw", "gateway", 1, 1000.0, 500.0, 64.0)
    assert full == Device(id="gw", kind="gateway", level=1, uplink_kbps=1000.0,
                          downlink_kbps=500.0, ram_mb=64.0)
    assert repr(full) == (
        "Device(id='gw', kind='gateway', level=1, uplink_kbps=1000.0, "
        "downlink_kbps=500.0, ram_mb=64.0)"
    )


def test_device_checks_equality_hash_pickle_and_frozen():
    assert _message(lambda: Device("", "cloud", 0)) == "device id must be non-empty"
    assert _message(lambda: Device("x", "router", 1)) == (
        "device kind must be one of ('cloud', 'gateway', 'sensor'), got 'router'"
    )
    a, b = Device("s1", "sensor", 2), Device("s1", "sensor", 2)
    assert a == b and hash(a) == hash(b)
    assert a != Device("s1", "sensor", 3)
    _round_trips(Device("gw", "gateway", 1, 1000.0, 500.0, 64.0))
    _frozen(a, "kind")


def test_link_construction_equality_repr_pickle_and_frozen():
    link = Link("s1", "gw", 4.0)
    assert link == Link(src="s1", dst="gw", latency_ms=4.0)
    assert (link.src, link.dst, link.latency_ms) == ("s1", "gw", 4.0)
    assert hash(link) == hash(Link("s1", "gw", 4.0))
    assert link != Link("s1", "gw", 5.0)
    assert repr(link) == "Link(src='s1', dst='gw', latency_ms=4.0)"
    _round_trips(link)
    _frozen(link, "latency_ms")


def test_topology_defaults_equality_repr_and_pickle():
    empty = Topology()
    assert empty == Topology(devices=[], links=[])
    assert empty.devices == [] and empty.links == []
    assert Topology().devices is not empty.devices  # a fresh list each time
    assert repr(empty) == "Topology(devices=[], links=[])"

    devices = [Device("cloud", "cloud", 0), Device("gw", "gateway", 1), Device("s", "sensor", 2)]
    links = [Link("s", "gw", 4.0), Link("gw", "cloud", 50.0)]
    topo = Topology(devices, links)
    assert topo == Topology(devices=list(devices), links=list(links))
    assert topo != Topology(devices, links[:1])
    assert repr(Topology([Device("c", "cloud", 0)], [Link("a", "b", 1.0)])) == (
        "Topology(devices=[Device(id='c', kind='cloud', level=0, uplink_kbps=0.0, "
        "downlink_kbps=0.0, ram_mb=0.0)], links=[Link(src='a', dst='b', latency_ms=1.0)])"
    )
    # The cached check is neither compared nor printed.
    checked = Topology(list(devices), list(links))
    checked.uplink_paths()
    assert checked == topo and repr(checked) == repr(topo)
    _round_trips(checked)
    _round_trips(topo)
    with pytest.raises(TypeError):
        hash(topo)


def test_topology_fields_can_be_replaced():
    topo = Topology()
    topo.devices = [Device("c", "cloud", 0)]
    topo.links = [Link("a", "b", 1.0)]
    assert topo == Topology([Device("c", "cloud", 0)], [Link("a", "b", 1.0)])


# ------------------------------------------------------------------- filter


def test_filter_config_construction_defaults_and_repr():
    assert FilterConfig() == FilterConfig(10, 0.05) == FilterConfig(n=10, p=0.05)
    assert (FilterConfig().n, FilterConfig().p) == (10, 0.05)
    assert FilterConfig(3) == FilterConfig(n=3, p=0.05)
    assert FilterConfig(p=0.5) == FilterConfig(10, 0.5)
    assert repr(FilterConfig(n=10, p=0.05)) == "FilterConfig(n=10, p=0.05)"
    assert repr(FilterConfig(5, 0)) == "FilterConfig(n=5, p=0)"


def test_filter_config_checks_equality_hash_pickle_and_frozen():
    assert _message(lambda: FilterConfig(n=0)) == "window size n must be an integer >= 1, got 0"
    assert _message(lambda: FilterConfig(n=True)) == (
        "window size n must be an integer >= 1, got True"
    )
    assert _message(lambda: FilterConfig(n=2.0)) == (
        "window size n must be an integer >= 1, got 2.0"
    )
    assert _message(lambda: FilterConfig(p="0.1")) == "band fraction p must be a number, got '0.1'"
    assert _message(lambda: FilterConfig(p=False)) == "band fraction p must be a number, got False"
    assert _message(lambda: FilterConfig(p=-0.1)) == (
        "band fraction p must be finite and >= 0, got -0.1"
    )
    assert _message(lambda: FilterConfig(p=math.inf)) == (
        "band fraction p must be finite and >= 0, got inf"
    )
    a = FilterConfig(5, 0.1)
    assert a == FilterConfig(5, 0.1) and hash(a) == hash(FilterConfig(5, 0.1))
    assert a != FilterConfig(5, 0.2) and a != FilterConfig(6, 0.1)
    assert len({FilterConfig(5, 0.1), FilterConfig(5, 0.1), FilterConfig()}) == 2
    _round_trips(a)
    _frozen(a, "p")


def test_stream_construction_len_equality_and_repr():
    ts, vs = array("d", [0.0, 1.0]), array("d", [20.5, 20.7])
    stream = Stream(ts, vs)
    assert stream == Stream(timestamps=array("d", [0.0, 1.0]), values=array("d", [20.5, 20.7]))
    assert stream.timestamps is ts and stream.values is vs
    assert len(stream) == 2 and len(Stream(array("d"), array("d"))) == 0
    assert stream != Stream(ts, array("d", [20.5, 20.8]))
    assert repr(stream) == (
        "Stream(timestamps=array('d', [0.0, 1.0]), values=array('d', [20.5, 20.7]))"
    )
    with pytest.raises(TypeError):
        hash(stream)


def test_stream_checks_pickle_and_frozen():
    d = array("d", [1.0])
    assert _message(lambda: Stream([0.0], d)) == "timestamps must be an array('d'), got list"
    assert _message(lambda: Stream(d, array("f", [1.0]))) == (
        "values must be an array('d'), got array('f')"
    )
    assert _message(lambda: Stream(d, (1.0,))) == "values must be an array('d'), got tuple"
    assert _message(lambda: Stream(d, array("d", [1.0, 2.0]))) == "1 timestamps but 2 values"
    stream = Stream(array("d", [0.0, 1.0]), array("d", [2.0, 3.0]))
    _round_trips(stream)
    _frozen(stream, "values")


def test_transmission_log_construction_checks_and_repr():
    entries = (Sample(0.0, 1.0), Sample(2.0, 3.0))
    log = TransmissionLog(entries, 3)
    assert log == TransmissionLog(entries=entries, total_count=3)
    assert log != TransmissionLog(entries, 4)
    assert hash(log) == hash(TransmissionLog(entries, 3))
    assert repr(TransmissionLog((Sample(0.0, 1.0),), 1)) == (
        "TransmissionLog(entries=(Sample(timestamp=0.0, value=1.0),), total_count=1)"
    )
    assert _message(lambda: TransmissionLog((), -1)) == "total_count must be >= 0"
    assert _message(lambda: TransmissionLog(entries, 1)) == (
        "log cannot hold more entries than samples seen"
    )
    assert _message(lambda: TransmissionLog(entries[::-1], 2)) == (
        "log timestamps must strictly increase"
    )
    _round_trips(log)
    _frozen(log, "total_count")


def _error_report(**changes) -> ErrorReport:
    fields = dict(total_count=10, transmitted_count=4, suppressed_count=6,
                  reduction_fraction=0.6, avg_abs_error=0.25, max_abs_error=1.5,
                  avg_error_pct_of_mean=None)
    return ErrorReport(**{**fields, **changes})


def test_error_report_construction_equality_repr_pickle_and_frozen():
    report = _error_report()
    assert report == ErrorReport(10, 4, 6, 0.6, 0.25, 1.5, None)
    assert report.to_dict() == {
        "total": 10, "transmitted": 4, "suppressed": 6, "reduction_percent": 60.0,
        "avg_abs_error": 0.25, "max_abs_error": 1.5, "avg_error_pct_of_mean": None,
    }
    assert hash(report) == hash(_error_report())
    assert report != _error_report(max_abs_error=2.0)
    assert repr(report) == (
        "ErrorReport(total_count=10, transmitted_count=4, suppressed_count=6, "
        "reduction_fraction=0.6, avg_abs_error=0.25, max_abs_error=1.5, "
        "avg_error_pct_of_mean=None)"
    )
    _round_trips(report)
    _frozen(report, "avg_abs_error")


# ------------------------------------------------------------------ sources


def test_sensor_spec_construction_equality_repr_pickle_and_frozen():
    spec = SensorSpec("s1", 20.0, 1.5, 1000.0, 50, 7)
    assert spec == SensorSpec(device_id="s1", mean=20.0, stddev=1.5, period_ms=1000.0,
                              count=50, seed=7)
    assert hash(spec) == hash(SensorSpec("s1", 20.0, 1.5, 1000.0, 50, 7))
    assert spec != SensorSpec("s1", 20.0, 1.5, 1000.0, 50, 8)
    assert repr(spec) == (
        "SensorSpec(device_id='s1', mean=20.0, stddev=1.5, period_ms=1000.0, count=50, seed=7)"
    )
    _round_trips(spec)
    _frozen(spec, "seed")


def test_sensor_spec_checks():
    def spec(**changes):
        fields = dict(device_id="s", mean=0.0, stddev=1.0, period_ms=1.0, count=1, seed=0)
        return lambda: SensorSpec(**{**fields, **changes})

    assert _message(spec(device_id="")) == "device_id must be non-empty"
    assert _message(spec(mean=math.nan)) == "mean must be finite, got nan"
    assert _message(spec(stddev=-1.0)) == "stddev must be finite and >= 0, got -1.0"
    assert _message(spec(stddev=math.inf)) == "stddev must be finite and >= 0, got inf"
    assert _message(spec(period_ms=0.0)) == "period_ms must be finite and > 0, got 0.0"
    assert _message(spec(count=-1)) == f"count must be >= 0 and <= {MAX_COUNT}, got -1"
    assert _message(spec(count=MAX_COUNT + 1)) == (
        f"count must be >= 0 and <= {MAX_COUNT}, got {MAX_COUNT + 1}"
    )
    assert _message(spec(count=3, period_ms=1e308)) == (
        "the last timestamp (count - 1) * period_ms must be finite, got inf"
    )
    assert _message(spec(seed=-1)) == "seed must fit in 64 bits, got -1"
    assert _message(spec(seed=1 << 64)) == f"seed must fit in 64 bits, got {1 << 64}"


def test_replay_spec_construction_defaults_and_repr():
    spec = ReplaySpec("r", "data.csv")
    assert spec == ReplaySpec(device_id="r", path="data.csv", value_column="value",
                              timestamp_column="timestamp", delimiter=",",
                              expected_period=None)
    assert ReplaySpec("r", "d.csv", "temp", "ts", ";", 2.0) == ReplaySpec(
        device_id="r", path="d.csv", value_column="temp", timestamp_column="ts",
        delimiter=";", expected_period=2.0,
    )
    assert repr(spec) == (
        "ReplaySpec(device_id='r', path='data.csv', value_column='value', "
        "timestamp_column='timestamp', delimiter=',', expected_period=None)"
    )


def test_replay_spec_checks_equality_hash_pickle_and_frozen():
    assert _message(lambda: ReplaySpec("", "d.csv")) == "device_id must be non-empty"
    assert _message(lambda: ReplaySpec("r", "d.csv", delimiter=";;")) == (
        "delimiter must be a single character, got ';;'"
    )
    assert _message(lambda: ReplaySpec("r", "d.csv", expected_period=0.0)) == (
        "expected_period must be finite and > 0 when given, got 0.0"
    )
    assert _message(lambda: ReplaySpec("r", "d.csv", expected_period=math.nan)) == (
        "expected_period must be finite and > 0 when given, got nan"
    )
    spec = ReplaySpec("r", "d.csv", expected_period=2.0)
    assert spec == ReplaySpec("r", "d.csv", expected_period=2.0)
    assert hash(spec) == hash(ReplaySpec("r", "d.csv", expected_period=2.0))
    assert spec != ReplaySpec("r", "d.csv")
    _round_trips(spec)
    _frozen(spec, "path")


def test_ingest_report_construction_equality_repr_pickle_and_frozen():
    report = IngestReport(5, 1, 4, 0)
    assert report == IngestReport(rows_read=5, rows_skipped=1, samples=4, gaps_detected=0)
    assert hash(report) == hash(IngestReport(5, 1, 4, 0))
    assert report != IngestReport(5, 1, 4, 1)
    assert repr(report) == "IngestReport(rows_read=5, rows_skipped=1, samples=4, gaps_detected=0)"
    _round_trips(report)
    _frozen(report, "rows_read")


# ------------------------------------------------------------------- engine


def test_energy_params_construction_checks_and_repr():
    params = EnergyParams(2.0, 1.0, 0.5)
    assert params == EnergyParams(busy_w=2.0, idle_w=1.0, busy_ms_per_message=0.5)
    assert hash(params) == hash(EnergyParams(2.0, 1.0, 0.5))
    assert params != EnergyParams(2.0, 1.0, 0.25)
    assert repr(params) == "EnergyParams(busy_w=2.0, idle_w=1.0, busy_ms_per_message=0.5)"
    assert _message(lambda: EnergyParams(math.inf, 1.0, 0.5)) == "power figures must be finite"
    assert _message(lambda: EnergyParams(2.0, math.nan, 0.5)) == "power figures must be finite"
    assert _message(lambda: EnergyParams(1.0, 2.0, 0.5)) == (
        "need busy_w >= idle_w >= 0, got busy=1.0 idle=2.0"
    )
    assert _message(lambda: EnergyParams(1.0, -1.0, 0.5)) == (
        "need busy_w >= idle_w >= 0, got busy=1.0 idle=-1.0"
    )
    assert _message(lambda: EnergyParams(2.0, 1.0, -0.5)) == (
        "busy_ms_per_message must be finite and >= 0"
    )
    assert _message(lambda: EnergyParams(2.0, 1.0, math.inf)) == (
        "busy_ms_per_message must be finite and >= 0"
    )
    _round_trips(params)
    _frozen(params, "idle_w")


def test_energy_model_defaults_equality_repr_pickle_and_frozen():
    model = EnergyModel()
    assert model.params == DEFAULT_ENERGY_PARAMS
    assert model.params is not DEFAULT_ENERGY_PARAMS
    assert EnergyModel().params is not model.params  # a fresh dict each time
    assert model == EnergyModel(dict(DEFAULT_ENERGY_PARAMS))
    own = {"sensor": EnergyParams(1.0, 0.5, 1.0)}
    assert EnergyModel(params=own).params is own
    assert EnergyModel(own) != model
    assert repr(EnergyModel(own)) == (
        "EnergyModel(params={'sensor': EnergyParams(busy_w=1.0, idle_w=0.5, "
        "busy_ms_per_message=1.0)})"
    )
    assert model.for_kind("cloud") == DEFAULT_ENERGY_PARAMS["cloud"]
    assert _message(lambda: EnergyModel(own).for_kind("cloud")) == (
        "no energy parameters for device kind 'cloud'"
    )
    with pytest.raises(TypeError):
        hash(model)  # the params dict is not hashable
    _round_trips(model)
    _frozen(model, "params")


def _run_metrics_fields() -> dict:
    return dict(
        mode="mist_fog_cloud", seed=42, duration_ms=1000.0, message_size_bytes=100,
        topology_fp="t" * 8, sources_fp="s" * 8,
        sensor_reports={"s": _error_report()}, flags={"s": bytearray(b"\x01\x00")},
        log_digests={"s": "d" * 8}, link_usage={"s->gw": {"messages": 1}},
        device_messages={"s": 1}, device_busy_ms={"s": 1.0}, device_energy_j={"s": 0.5},
        total_bytes=100, total_byte_ms=400.0, messages_emitted=1, messages_delivered=1,
        latency_count=1, latency_min_ms=54.0, latency_max_ms=54.0, latency_mean_ms=54.0,
        cloud_id="cloud",
    )


def test_run_metrics_construction_defaults_equality_and_repr():
    fields = _run_metrics_fields()
    metrics = RunMetrics(**fields)
    assert metrics.notes is None
    assert metrics == RunMetrics(*fields.values())
    assert metrics == RunMetrics(*fields.values(), None)
    assert metrics != RunMetrics(**{**fields, "total_bytes": 101})
    assert metrics != RunMetrics(**fields, notes={})
    noted = RunMetrics(**fields, notes={"s": 1})
    assert noted == RunMetrics(*fields.values(), {"s": 1}) and noted.notes == {"s": 1}
    for record, notes in ((metrics, None), (noted, {"s": 1})):
        every = {**fields, "notes": notes}
        assert repr(record) == (
            "RunMetrics(" + ", ".join(f"{k}={v!r}" for k, v in every.items()) + ")"
        )
    with pytest.raises(TypeError):
        hash(metrics)
    _round_trips(metrics)
    _round_trips(noted)
    _frozen(metrics, "total_bytes")
    _frozen(noted, "notes")


def _scenario_fields() -> dict:
    topo = Topology([Device("c", "cloud", 0)], [])
    return dict(
        topology=topo, sources=(SensorSpec("s", 1.0, 0.0, 1.0, 1, 0),), n_values=(5, 10),
        p_values=(0.05,), energy=EnergyModel(), seed=42, duration_ms=None,
        message_size_bytes=100, mode="both", plot_data=None,
    )


def test_scenario_construction_equality_repr_grid_and_pickle():
    fields = _scenario_fields()
    scenario = Scenario(**fields)
    assert scenario == Scenario(*fields.values())
    assert scenario != Scenario(**{**fields, "seed": 43})
    assert scenario.grid == (FilterConfig(5, 0.05), FilterConfig(10, 0.05))
    assert repr(scenario) == "Scenario(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"
    with pytest.raises(TypeError):
        hash(scenario)
    _round_trips(scenario)
    _frozen(scenario, "seed")


# ------------------------------------------------------------------- config


def test_overrides_construction_defaults_equality_repr_pickle_and_frozen():
    none = Overrides()
    assert none == Overrides(None, None, None, None, None, None)
    assert (none.seed, none.n_text, none.p_text, none.mode) == (None, None, None, None)
    assert (none.plot_data_default, none.replace_sources) == (None, None)
    spec = ReplaySpec("r", "d.csv")
    full = Overrides(7, "5,10", "0.1", "both", True, (spec,))
    assert full == Overrides(seed=7, n_text="5,10", p_text="0.1", mode="both",
                             plot_data_default=True, replace_sources=(spec,))
    assert Overrides(seed=7) == Overrides(7)
    assert hash(full) == hash(Overrides(7, "5,10", "0.1", "both", True, (spec,)))
    assert full != none
    assert repr(Overrides(seed=3, mode="both")) == (
        "Overrides(seed=3, n_text=None, p_text=None, mode='both', "
        "plot_data_default=None, replace_sources=None)"
    )
    _round_trips(full)
    _frozen(full, "seed")


def test_star_import_binds_every_name_in_all():
    import mistsim

    namespace: dict = {}
    exec("from mistsim import *", namespace)  # raises for a name the package lacks
    assert set(mistsim.__all__) <= namespace.keys()


@pytest.mark.parametrize("bad", ["a/b", "a\0b"], ids=["slash", "nul"])
def test_ids_that_cannot_name_a_file_are_rejected(bad):
    rule = f"{bad!r} names files, so it must not contain '/' or NUL"
    assert _message(lambda: Device(bad, "sensor", 2)) == f"device id {rule}"
    assert _message(lambda: SensorSpec(bad, 0.0, 1.0, 1.0, 1, 1)) == f"device_id {rule}"
    assert _message(lambda: ReplaySpec(bad, "d.csv")) == f"device_id {rule}"


@pytest.mark.parametrize(
    "bad", ["a,b", 'a"b', ",", '"'], ids=["comma", "quote", "lone-comma", "lone-quote"]
)
def test_ids_that_cannot_name_a_csv_cell_are_rejected(bad):
    # sensor_metrics.csv and link_usage.csv write an id as a bare cell: a
    # comma would add a cell to its row, a quote would open a quoted one.
    rule = f"{bad!r} names CSV cells, so it must not contain ',' or '\"'"
    assert _message(lambda: Device(bad, "sensor", 2)) == f"device id {rule}"
    assert _message(lambda: SensorSpec(bad, 0.0, 1.0, 1.0, 1, 1)) == f"device_id {rule}"
    assert _message(lambda: ReplaySpec(bad, "d.csv")) == f"device_id {rule}"


@pytest.mark.parametrize("bad", ["a->b", "->", "a->"])
def test_device_ids_that_cannot_name_a_link_are_rejected(bad):
    # Links are reported as "<src>-><dst>", so with gateways "y->z" and
    # "x->y" the links x -> y->z and x->y -> z would share one name.  A
    # source id names no link.
    rule = f"{bad!r} names links, reported as '<src>-><dst>', so it must not contain '->'"
    assert _message(lambda: Device(bad, "gateway", 1)) == f"device id {rule}"
    assert SensorSpec(bad, 0.0, 1.0, 1.0, 1, 1).device_id == ReplaySpec(bad, "d.csv").device_id == bad


@pytest.mark.parametrize("bad", ["a b", "a\tb", " a", "a\n", "a\u3000b"])
def test_ids_that_cannot_name_a_config_section_are_rejected(bad):
    # A [device <id>] or [source <id>] header splits on whitespace, so a
    # config echo could not name such an id.
    rule = f"{bad!r} names a config section, so it must not contain whitespace"
    assert _message(lambda: Device(bad, "sensor", 2)) == f"device id {rule}"
    assert _message(lambda: SensorSpec(bad, 0.0, 1.0, 1.0, 1, 1)) == f"device_id {rule}"
    assert _message(lambda: ReplaySpec(bad, "d.csv")) == f"device_id {rule}"
