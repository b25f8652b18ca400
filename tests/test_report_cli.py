"""Report serialization stability, assertion grammar, and the CLI contract."""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from array import array
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mistsim import cli, engine, reconstruction
from mistsim import topology as topology_module
from mistsim.cli import main
from mistsim.config import load_config
from mistsim.engine import Mode
from mistsim.mist_filter import FilterConfig, check_stream
from mistsim.reconstruction import measure_grid
from mistsim.reference import Sample, TransmissionLog, reconstruct_zoh
from mistsim.report import (
    _BLOCK,
    _OPEN_FILES,
    check_assertion,
    dumps_stable,
    emit_report,
    parse_assertion,
    write_csv,
)
from mistsim.sources import MAX_COUNT, SensorSpec, gen_normal, load_csv
from mistsim.topology import Topology
from oracles import first_failure, report_text, round_floats, to_stream, write_plot_csv

SIM_CFG = """\
[run]
seed = 11
duration_ms = 200000
mode = both

[filter]
n = 10
p = 0.05

[device cloud]
kind = cloud

[device gw]
kind = gateway

[device a]
kind = sensor

[device b]
kind = sensor

[link a gw]
latency_ms = 4

[link b gw]
latency_ms = 6

[link gw cloud]
latency_ms = 50

[source a]
kind = normal
mean = 25
stddev = 4
period_ms = 100
count = 2000

[source b]
kind = normal
mean = 28
stddev = 1
period_ms = 100
count = 2000
"""


@pytest.fixture
def sim_cfg(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(SIM_CFG, encoding="utf-8")
    return path


# -------------------------------------------------------- serialization


def test_round_floats_nine_significant_digits():
    # round_floats is the reference rounding in tests/oracles.py.
    assert round_floats(0.123456789123) == 0.123456789
    assert round_floats(1234567891234.0) == 1234567890000.0
    assert round_floats({"a": [1.00000000049, 2]}) == {"a": [1.0, 2]}
    assert round_floats(7) == 7
    assert round_floats(True) is True
    assert round_floats("x") == "x"
    assert round_floats(None) is None


def test_round_floats_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite floats, got nan$"):
        round_floats(float("nan"))
    with pytest.raises(ValueError, match=r"got inf at deep\.1$"):
        round_floats({"ok": 1.0, "deep": [2.0, float("inf")]})


def test_dumps_stable_rounds_to_nine_significant_digits():
    assert dumps_stable(0.123456789123) == "0.123456789\n"
    assert dumps_stable(1234567891234.0) == "1234567890000.0\n"
    assert dumps_stable({"a": [1.00000000049, 2]}) == '{\n  "a": [\n    1.0,\n    2\n  ]\n}\n'
    assert dumps_stable(7) == "7\n"
    assert dumps_stable(True) == "true\n"
    assert dumps_stable("x") == '"x"\n'
    assert dumps_stable(None) == "null\n"


def test_dumps_stable_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite floats, got nan$"):
        dumps_stable(float("nan"))
    with pytest.raises(ValueError, match=r"got inf at deep\.1$"):
        dumps_stable({"ok": 1.0, "deep": [2.0, float("inf")]})
    # The first non-finite float in insertion order is named, although the
    # sorted walk meets "a" first.
    with pytest.raises(ValueError, match=r"got nan at z$"):
        dumps_stable({"z": math.nan, "a": [math.inf]})


def test_dumps_stable_rejects_a_key_that_is_not_a_str():
    # Reports only ever use str keys; the stdlib encoder would print 1 as "1".
    with pytest.raises(TypeError, match="report keys must be str, not int"):
        dumps_stable({"runs": {1: 2.0}})
    with pytest.raises(TypeError, match="not JSON serializable"):
        dumps_stable({"runs": {1.5}})


def test_dumps_stable_is_order_insensitive():
    a = {"x": 1, "y": {"b": 2.0, "a": 3.0}}
    b = {"y": {"a": 3.0, "b": 2.0}, "x": 1}
    assert dumps_stable(a) == dumps_stable(b)
    assert dumps_stable(a).endswith("\n")


class _Float(float):
    pass


class _Int(int):
    pass


# Keys and strings: any text, plus the characters JSON escapes or a
# surrogate the ASCII escaper writes as \ud800.
TEXTS = st.one_of(
    st.text(max_size=6),
    st.text(st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028\ud800 a'), max_size=6),
)
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    # Decimal ties at the ninth significant digit, either sign, from about
    # 1e-320 to 1e307.
    st.builds(
        lambda m, e, sign: sign * float(f"{m}5e{e}"),
        st.integers(min_value=10**8, max_value=10**9 - 1),
        st.integers(min_value=-330, max_value=297),
        st.sampled_from([1.0, -1.0]),
    ),
    st.sampled_from([0.0, -0.0, 0.1, 1e-7, 1e16, 1e308, 2.2250738585072014e-308]),
    st.sampled_from([5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False).map(_Float),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.integers().map(_Int),
    FLOATS,
    TEXTS,
    st.sampled_from(list(Mode)),
)
REPORTS = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(TEXTS, children, max_size=5),
    ),
    max_leaves=40,
)


@given(report=REPORTS)
@settings(max_examples=400, deadline=None)
def test_property_dumps_stable_matches_the_stdlib_encoder(report):
    # The one-walk writer against the reference: round a copy, then encode
    # it with json.JSONEncoder(sort_keys=True, indent=2).
    assert dumps_stable(report) == report_text(report)


@given(
    report=st.dictionaries(TEXTS, REPORTS, max_size=5),
    bad=st.lists(st.sampled_from([math.nan, math.inf, -math.inf]), min_size=1, max_size=3),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_property_non_finite_float_fails_like_the_oracle(report, bad, data):
    # Put each non-finite float into a random dict or list of the report;
    # the error names the same one, at the same dotted path.
    for value in bad:
        targets = []
        stack = [report]
        while stack:
            node = stack.pop()
            if isinstance(node, (dict, list)):
                targets.append(node)
            if isinstance(node, dict):
                stack.extend(node.values())
            elif isinstance(node, (list, tuple)):
                stack.extend(node)
        target = data.draw(st.sampled_from(targets))
        if isinstance(target, dict):
            target[data.draw(TEXTS)] = value
        else:
            target.insert(data.draw(st.integers(0, len(target))), value)
    with pytest.raises(ValueError) as want:
        report_text(report)
    with pytest.raises(ValueError) as got:
        dumps_stable(report)
    assert str(got.value) == str(want.value)


def test_emit_report_rejects_a_non_finite_float_before_making_the_directory(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=r"got inf at runs\.0\.sensors\.s1\.avg_abs_error$"):
        emit_report({"runs": [{"sensors": {"s1": {"avg_abs_error": math.inf}}}]}, out)
    assert not out.exists()


@pytest.mark.parametrize(
    "grid", [[], ["--n", "5,10,50", "--p", "0.01,0.05,0.1"]], ids=["table2", "sweep"]
)
def test_emit_report_writes_the_dumps_stable_bytes(tmp_path, table2_cfg_path, monkeypatch, grid):
    # report.json is written block by block from one walk; the bytes are
    # dumps_stable's text.
    reports = []

    def emit(report, *args, **kwargs):
        reports.append(report)
        return emit_report(report, *args, **kwargs)

    monkeypatch.setattr(cli, "emit_report", emit)
    monkeypatch.chdir(table2_cfg_path.parent)
    args = ["simulate", "--config", "table2.cfg", *grid, "--out", str(tmp_path), "--quiet"]
    assert main(args) == 0
    (report,) = reports
    assert (tmp_path / "report.json").read_bytes() == dumps_stable(report).encode()


def _sensor_bank_report(sensors):
    """A report shaped like simulate's, with ``sensors`` sensor blocks."""
    blocks = {
        f"s{i:04d}": {
            "avg_abs_error": i * 0.0123456789123,
            "avg_error_pct_of_mean": i / 7.0,
            "log_digest": f"{i:064x}",
            "max_abs_error": i * 1.000000001,
            "reduction_percent": 100.0 * i / (sensors + 1),
            "suppressed": i,
            "total": 50,
            "transmitted": 50 - i % 50,
        }
        for i in range(sensors)
    }
    run = {"mode": Mode.CLOUD_ONLY, "sensors": blocks}
    return {"command": "simulate", "runs": {"cloud_only": run}}


def test_emit_report_holds_the_text_once_plus_a_bounded_tail(tmp_path):
    # The report is encoded before anything is written, so its text is held
    # once; the chunks of the walk are folded into blocks as it goes.  The
    # writer measured about 1.4x the text above its inputs; one list of
    # every chunk, joined at the end, measured about 4.8x.
    report = _sensor_bank_report(2000)
    size = len(dumps_stable(report))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        emit_report(report, tmp_path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert (tmp_path / "report.json").stat().st_size == size
    assert peak < 2.0 * size, f"emit_report peaked {peak} B above its inputs for {size} B of text"


def test_write_csv_formatting(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b", "c", "d"), [(1, 0.123456789123, None, True)])
    assert path.read_text() == "a,b,c,d\n1,0.123456789,,true\n"


def test_emit_report_writes_expected_files(tmp_path):
    timestamps, values = array("d", [0.0, 1.0, 2.0]), array("d", [1.0, 2.0, 3.0])
    written = emit_report(
        {"k": 1.0},
        tmp_path,
        sensor_rows=[("x", 1)],
        sensor_header=("sensor", "total"),
        link_rows=[("m", "a->b", 1, 100, 400.0)],
        plot_series={"plot_x": (timestamps, values, bytearray([1, 0, 1]))},
    )
    names = [p.name for p in written]
    assert names == ["report.json", "sensor_metrics.csv", "link_usage.csv", "plot_x.csv"]
    plot_lines = (tmp_path / "plot_x.csv").read_text().splitlines()
    assert plot_lines[0] == "timestamp,raw,reconstructed,transmitted_flag"
    assert len(plot_lines) == 4  # header + one row per sample
    flags = [int(line.split(",")[-1]) for line in plot_lines[1:]]
    assert flags == [1, 0, 1]
    # Suppressed sample holds the last transmitted value.
    assert plot_lines[2].split(",")[2] == "1.0"


def test_plot_holds_nothing_before_the_first_transmission(tmp_path):
    # Until the first transmission there is no held value: the
    # reconstruction cell stays empty.
    timestamps, values = array("d", [0.0, 1.0, 2.0, 3.0]), array("d", [1.5, -2.5, 3.5, 4.5])
    emit_report({}, tmp_path, plot_series={"p": (timestamps, values, bytearray([0, 0, 1, 0]))})
    assert (tmp_path / "p.csv").read_text() == (
        "timestamp,raw,reconstructed,transmitted_flag\n"
        "0.0,1.5,,0\n1.0,-2.5,,0\n2.0,3.5,3.5,1\n3.0,4.5,3.5,0\n"
    )


def test_plot_rows_match_reference_reconstruction(tmp_path):
    # Two series share one source and a third has its own; paths come back
    # in the given order whatever order the files are written in.  With
    # nothing transmitted at all the raw value stands in for the
    # reconstruction.
    a = [Sample(float(i), v) for i, v in enumerate([1.5, -0.0, 2.25, 1e-300, 7.0])]
    b = [Sample(10.0, 3.0), Sample(11.0, 4.0)]
    stream_a, stream_b = to_stream(a), to_stream(b)
    columns_a = (stream_a.timestamps, stream_a.values)
    series = {
        "first": (*columns_a, bytearray([1, 0, 0, 1, 0])),
        "other": (stream_b.timestamps, stream_b.values, bytearray([0, 0])),
        "second": (*columns_a, bytearray([1, 1, 0, 0, 0])),
    }
    streams = {"first": a, "other": b, "second": a}
    written = emit_report({}, tmp_path, plot_series=series)
    assert [p.name for p in written] == ["report.json", "first.csv", "other.csv", "second.csv"]
    for stem, (_, _, flags) in series.items():
        samples = streams[stem]
        log = TransmissionLog(
            tuple(s for s, f in zip(samples, flags) if f), total_count=len(samples)
        )
        if log.entries:
            recon = reconstruct_zoh(log, [s.timestamp for s in samples])
        else:
            recon = [s.value for s in samples]
        want = ["timestamp,raw,reconstructed,transmitted_flag"] + [
            f"{s.timestamp!r},{s.value!r},{r!r},{f}" for s, r, f in zip(samples, recon, flags)
        ]
        assert (tmp_path / f"{stem}.csv").read_text().splitlines() == want


_PLOT_LENGTHS = [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]


@st.composite
def _plot_flags(draw, length):
    """Transmit flags: all 0, all 1, one transmission in the first block
    held through every later one, a few anywhere, or dense random ones."""
    kind = draw(st.sampled_from(["none", "all", "early", "sparse", "dense"]))
    if kind == "all":
        return bytearray(b"\x01" * length)
    flags = bytearray(length)
    if length and kind == "early":
        flags[draw(st.integers(0, min(length, _BLOCK) - 1))] = 1
    elif length and kind == "sparse":
        for i in draw(st.lists(st.integers(0, length - 1), max_size=4)):
            flags[i] = 1
    elif kind == "dense":
        rnd = random.Random(draw(st.integers(0, 2**32)))
        flags[:] = bytes(rnd.random() < 0.3 for _ in range(length))
    return flags


@given(data=st.data(), length=st.sampled_from(_PLOT_LENGTHS), seed=st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_property_plot_files_match_a_line_at_a_time_writer(data, length, seed):
    # Several series share one pair of columns and so one formatted block
    # at a time, with more series than one pass keeps open now and then; a
    # series of its own stands beside them, its columns three samples
    # longer than its flags.  Every block boundary is crossed.
    rnd = random.Random(seed)
    special = [-0.0, 1e-300, 123456789.123456789, -2.5e17, 0.1]
    timestamps = array("d", [k * 0.25 + rnd.random() for k in range(length)])
    values = array(
        "d", [rnd.choice(special) if rnd.random() < 0.1 else rnd.gauss(0, 50) for _ in range(length)]
    )
    shared = data.draw(st.sampled_from([1, 2, 3, _OPEN_FILES + 1]))
    series = {f"s{i}": (timestamps, values, data.draw(_plot_flags(length))) for i in range(shared)}
    extra = array("d", [1.0, 2.0, 3.0])
    series["own"] = (timestamps + extra, values[::-1] + extra, data.draw(_plot_flags(length)))
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp, "got"), Path(tmp, "want")
        want.mkdir()
        emit_report({}, got, plot_series=series)
        for stem, columns in series.items():
            write_plot_csv(want / f"{stem}.csv", *columns)
            assert (got / f"{stem}.csv").read_bytes() == (want / f"{stem}.csv").read_bytes(), stem


def _plot_peak(tmp_path: Path, count: int) -> int:
    """``emit_report``'s tracemalloc peak above its inputs for one plot
    series of ``count`` samples, one in ten transmitted."""
    rnd = random.Random(count)
    timestamps = array("d", [k * 1000.0 for k in range(count)])
    values = array("d", [rnd.gauss(20.0, 3.0) for _ in range(count)])
    flags = bytearray(rnd.random() < 0.1 for _ in range(count))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        emit_report({}, tmp_path / str(count), plot_series={"plot": (timestamps, values, flags)})
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_plot_writer_memory_does_not_grow_with_the_stream(tmp_path):
    # Plot text is formatted and written a block at a time: ten times the
    # samples peak at the same few hundred KB.  Holding every line's text
    # for the whole stream peaked about ten times higher.
    small, big = _plot_peak(tmp_path, 20_000), _plot_peak(tmp_path, 200_000)
    assert big < small + 64 * 1024, (small, big)


def test_filter_writes_a_large_grid_under_a_low_descriptor_limit(tmp_path):
    # A 10x10 grid gives each source 100 plot files; with the soft limit on
    # open descriptors at 64 every one of them is still written.
    spec = "kind = normal\nmean = 20\nstddev = 3\nperiod_ms = 1000\ncount = 50\n"
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("[run]\n\n[source a]\n" + spec + "\n[source b]\n" + spec, encoding="utf-8")
    n = ",".join(str(k) for k in range(1, 11))
    p = ",".join(f"0.0{k}" for k in range(10))
    out = tmp_path / "out"
    argv = ["filter", "--config", str(cfg), "--n", n, "--p", p, "--out", str(out), "--quiet"]
    code = (
        "import resource, sys\n"
        f"sys.path.insert(0, {str(Path(cli.__file__).resolve().parents[1])!r})\n"
        "_, hard = resource.getrlimit(resource.RLIMIT_NOFILE)\n"
        "resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard))\n"
        "from mistsim.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
    for source in ("a", "b"):
        plots = sorted(out.glob(f"plot_{source}_*.csv"))
        assert len(plots) == 100
        assert all(len(path.read_text().splitlines()) == 51 for path in plots)


# ----------------------------------------------------------- assertions


REPORT = {
    "runs": [{"sensors": {"S1": {"reduction_percent": 99.0, "note": None}}}],
    "comparison": {"cloud_energy_j": {"reduction_percent": 0.5}},
    "links": {"S1->gw": {"messages": 6}},
    "flag": True,
}


@pytest.mark.parametrize(
    "expr,expected",
    [
        ("runs.0.sensors.S1.reduction_percent == 99.0", True),
        ("runs.0.sensors.S1.reduction_percent >= 99", True),
        ("runs.0.sensors.S1.reduction_percent > 99", False),
        ("runs.0.sensors.S1.reduction_percent != 99", False),
        ("runs.0.sensors.S1.reduction_percent <= 98.5", False),
        ("comparison.cloud_energy_j.reduction_percent > 0", True),
        ("comparison.cloud_energy_j.reduction_percent < 1", True),
        ("runs.0.sensors.S1.note > 0", False),  # None never satisfies
        ("runs.0.sensors.S2.reduction_percent > 0", False),  # missing path
        ("runs.5.sensors.S1.reduction_percent > 0", False),  # bad index
        ("runs.--1.sensors.S1.reduction_percent >= 0", False),  # not an index
        ("runs.\u00b2.sensors.S1.reduction_percent >= 0", False),  # a digit int() rejects
        ("flag == 1", False),  # booleans are not numbers here
        # A link key holds '>': the operator is the last one in the expression.
        ("links.S1->gw.messages > 5", True),
        ("links.S1->gw.messages < 5", False),
        ("links.S1->gw.messages >= 6", True),
        ("links.S1->gw.messages <= 5", False),
    ],
)
def test_check_assertion(expr, expected):
    assert check_assertion(REPORT, parse_assertion(expr)) is expected


@pytest.mark.parametrize(
    "expr",
    ["no operator here", "== 5", "runs.0 ==", "runs.0 == banana"],
)
def test_check_assertion_bad_grammar(expr):
    with pytest.raises(ValueError):
        parse_assertion(expr)


# ------------------------------------------------------------------ cli


def test_cli_filter_dataset_roundtrip(tmp_path, office_csv_path, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "filter",
            "--dataset",
            str(office_csv_path),
            "--column",
            "temp_c",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["command"] == "filter"
    assert report["tool"]["name"] == "mistsim"
    (block,) = report["runs"]
    assert block["n"] == 10 and block["p"] == 0.05
    stats = block["sensors"]["office_temperature"]
    assert stats["total"] == 5000
    assert stats["transmitted"] == 369
    assert report["ingest"]["office_temperature"]["rows_read"] == 5000
    # plot data defaults on for the filter command
    plot = out / "plot_office_temperature_n10_p0.05.csv"
    assert plot.exists()
    assert len(plot.read_text().splitlines()) == 5001
    summary = capsys.readouterr().out
    assert "office_temperature" in summary
    assert "wrote" in summary


def test_cli_filter_sweep_grid(tmp_path, office_csv_path):
    out = tmp_path / "out"
    code = main(
        [
            "filter",
            "--dataset",
            str(office_csv_path),
            "--column",
            "temp_c",
            "--n",
            "10,20",
            "--p",
            "0.05,0.1",
            "--out",
            str(out),
            "--quiet",
        ]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert [(b["n"], b["p"]) for b in report["runs"]] == [
        (10, 0.05),
        (10, 0.1),
        (20, 0.05),
        (20, 0.1),
    ]
    rows = (out / "sensor_metrics.csv").read_text().splitlines()
    assert len(rows) == 5  # header + one sensor x four grid points


def test_cli_simulate_both_modes(tmp_path, sim_cfg, capsys):
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(sim_cfg), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["modes_run"] == ["cloud_only", "mist_fog_cloud"]
    comparison = report["comparison"]
    assert comparison["network_total_bytes"]["reduction_percent"] > 0
    assert comparison["cloud_energy_j"]["reduction_percent"] > 0
    assert (out / "link_usage.csv").exists()
    assert (out / "resolved.cfg").exists()
    link_lines = (out / "link_usage.csv").read_text().splitlines()
    assert len(link_lines) == 1 + 2 * 3  # two modes, three links
    summary = capsys.readouterr().out
    assert "cloud_only" in summary and "reduction" in summary


@pytest.fixture
def count_calls(monkeypatch, tmp_path):
    """``count(owner, name)`` counts calls of ``owner.name``; ``calls()`` is
    the count per name.  Each call appends its name to a file, so calls made
    in forked workers count too."""
    log = tmp_path / "calls.log"
    log.touch()

    def count(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(name + "\n")
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    def calls() -> dict:
        return dict(Counter(log.read_text(encoding="utf-8").split()))

    return calls, count


def test_cli_simulate_both_modes_checks_hashes_and_measures_once(
    tmp_path, table2_cfg_path, monkeypatch, count_calls
):
    # table2.cfg has six sensors; both modes share one pass over them, each
    # stream hashed as it passes, and the values each stream's check returns
    # are measured unchecked.  The flags are the only record of what was
    # sent, so no transmission log is built, and the scenario is serialized
    # once for both of its echoes.
    # The topology is checked once, by the engine's path lookup, before any
    # source is generated.
    calls, counted = count_calls
    for name in ("check_stream", "_hash_source", "_topology_fp", "measure_grid"):
        counted(engine, name)
    counted(reconstruction, "window_averages")
    counted(Topology, "uplink_paths")
    counted(topology_module, "_check")
    counted(TransmissionLog, "__new__")
    counted(cli, "serialize_scenario")
    monkeypatch.chdir(table2_cfg_path.parent)
    args = ["simulate", "--config", "table2.cfg", "--out", str(tmp_path), "--quiet"]
    assert main(args) == 0
    assert calls() == {
        "uplink_paths": 1, "_check": 1, "check_stream": 6, "_topology_fp": 1,
        "_hash_source": 6, "measure_grid": 6, "window_averages": 6, "serialize_scenario": 1,
    }


SWEEP = ["--n", "5,10,50", "--p", "0.01,0.05,0.1"]
SWEEP_POINTS = [(n, p) for n in (5, 10, 50) for p in (0.01, 0.05, 0.1)]


def test_cli_simulate_sweeps_the_grid_in_one_pass(
    tmp_path, table2_cfg_path, monkeypatch, count_calls
):
    # A 3x3 grid over table2.cfg's six sensors: each stream is checked and
    # measured once, stage 1 runs once per (sensor, n), and the topology is
    # checked once.  Each grid point is compared with the one baseline, in
    # grid order, and equals the single-point run at that point.
    calls, counted = count_calls
    for name in ("check_stream", "_hash_source", "measure_grid"):
        counted(engine, name)
    counted(reconstruction, "window_averages")
    counted(topology_module, "_check")
    monkeypatch.chdir(table2_cfg_path.parent)
    gate = "comparison.8.network_total_bytes.reduction_percent > 0"
    args = ["simulate", "--config", "table2.cfg", *SWEEP, "--assert", gate, "--quiet"]
    assert main([*args, "--out", str(tmp_path / "sweep")]) == 0
    assert calls() == {
        "check_stream": 6, "measure_grid": 6, "window_averages": 18, "_hash_source": 6,
        "_check": 1,
    }
    report = json.loads((tmp_path / "sweep" / "report.json").read_text())
    assert report["modes_run"] == ["cloud_only", "mist_fog_cloud"]
    runs, comparison = report["runs"]["mist_fog_cloud"], report["comparison"]
    assert [(run["n"], run["p"]) for run in runs] == SWEEP_POINTS
    assert [(row["n"], row["p"]) for row in comparison] == SWEEP_POINTS
    for run, row in zip(runs, comparison):
        assert row["network_total_bytes"]["candidate"] == run["network"]["total_bytes"]

    args = ["simulate", "--config", "table2.cfg", "--quiet", "--out", str(tmp_path / "one")]
    assert main(args) == 0
    single = json.loads((tmp_path / "one" / "report.json").read_text())
    at = SWEEP_POINTS.index((10, 0.05))
    assert {"n": 10, "p": 0.05, **single["comparison"]} == comparison[at]
    assert {"n": 10, "p": 0.05, **single["runs"]["mist_fog_cloud"]} == runs[at]
    assert single["runs"]["cloud_only"] == report["runs"]["cloud_only"]


def test_cli_simulate_sweep_labels_rows_plots_and_lines(tmp_path, sim_cfg, capsys):
    # Sweep runs are labelled like filter's plots: mode, then _n<n>_p<p>.
    sim_cfg.write_text(SIM_CFG.replace("mode = both", "mode = both\nplot_data = true"))
    out = tmp_path / "out"
    args = ["simulate", "--config", str(sim_cfg), "--n", "5", "--p", "0.05,0.1"]
    assert main([*args, "--out", str(out)]) == 0
    suffixes = ["_n5_p0.05", "_n5_p0.1"]
    labels = ["cloud_only"] + [f"mist_fog_cloud{suffix}" for suffix in suffixes]
    rows = (out / "sensor_metrics.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [[m, s] for m in labels for s in "ab"]
    links = (out / "link_usage.csv").read_text().splitlines()[1:]
    assert list(dict.fromkeys(row.split(",")[0] for row in links)) == labels
    plots = sorted(path.name for path in out.glob("plot_*.csv"))
    assert plots == sorted(f"plot_{s}{suffix}.csv" for suffix in suffixes for s in "ab")
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:3]] == labels
    assert all("network_total_bytes reduction" in line for line in lines[1:3])
    runs = json.loads((out / "report.json").read_text())["runs"]["mist_fog_cloud"]
    for run, suffix in zip(runs, suffixes):
        plot = (out / f"plot_a{suffix}.csv").read_text().splitlines()[1:]
        assert sum(int(line.split(",")[3]) for line in plot) == run["sensors"]["a"]["transmitted"]


def test_cli_filter_checks_each_source_once(tmp_path, table2_cfg_path, monkeypatch, count_calls):
    # A 3x3 grid over three sources: one check per source, in the pass both
    # commands share, one stage 1 per (source, n), and no transmission log,
    # since filter reports none.
    calls, counted = count_calls
    counted(engine, "check_stream")
    counted(reconstruction, "window_averages")
    counted(TransmissionLog, "__new__")
    monkeypatch.chdir(table2_cfg_path.parent)
    args = ["filter", "--config", "tests/data/filter_grid.cfg", "--n", "5,10,50"]
    args += ["--p", "0.01,0.05,0.1", "--out", str(tmp_path), "--quiet"]
    assert main(args) == 0
    assert calls() == {"check_stream": 3, "window_averages": 9}


def _traced_filter_peak(tmp_path, sources: int) -> int:
    """The tracemalloc peak of ``mistsim filter`` over ``sources`` streams of
    20,000 normal samples, plots on."""
    cfg = tmp_path / f"bank{sources}.cfg"
    spec = "kind = normal\nmean = 20\nstddev = 3\nperiod_ms = 1000\ncount = 20000\n"
    cfg.write_text(
        "[run]\n" + "".join(f"\n[source s{i}]\n{spec}" for i in range(sources)), encoding="utf-8"
    )
    tracemalloc.start()
    try:
        args = ["filter", "--config", str(cfg), "--out", str(tmp_path / f"out{sources}"), "--quiet"]
        assert main(args) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_filter_memory_follows_one_source_not_the_source_count(tmp_path):
    # Each source's samples are dropped once it is measured; what stays per
    # source is its plot columns and flags, 17 B a sample, not every Sample,
    # and plot text is written a block at a time.  Eight sources ran first,
    # so any cache filled on first use counts against them.  One source
    # peaked at about 4.9 times what it keeps (19 times while each plot
    # file's text was held whole), and each further source added about 1.2
    # times what it keeps.
    kept = 20_000 * (16 + 1)
    eight = _traced_filter_peak(tmp_path, 8)
    one = _traced_filter_peak(tmp_path, 1)
    assert one < 8 * kept, (eight, one)
    assert eight - one <= 7 * kept * 1.25, (eight, one)


@pytest.mark.parametrize(
    "mode, plotted",
    [("both", "mist_fog_cloud"), ("mist_fog_cloud", "mist_fog_cloud"), ("cloud_only", "cloud_only")],
)
def test_cli_simulate_plots_the_filtered_mode_when_it_ran(tmp_path, sim_cfg, mode, plotted):
    # Cloud-only alone is plotted too: every flag 1, each value its own hold.
    sim_cfg.write_text(SIM_CFG.replace("mode = both", f"mode = {mode}\nplot_data = true"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(sim_cfg), "--out", str(out), "--quiet"]) == 0
    sensors = json.loads((out / "report.json").read_text())["runs"][plotted]["sensors"]
    for sensor_id, stats in sensors.items():
        lines = (out / f"plot_{sensor_id}.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == stats["total"] == 2000
        assert sum(int(row[3]) for row in rows) == stats["transmitted"]
        if plotted == "cloud_only":
            assert all(row[3] == "1" and row[2] == row[1] for row in rows)


@pytest.mark.parametrize("mode", ["both", "cloud_only"])
def test_cli_simulate_plots_only_the_samples_before_the_horizon(tmp_path, sim_cfg, mode):
    # Half of each stream lies at or past duration_ms: those samples are
    # dropped, so they are neither counted nor plotted.
    text = SIM_CFG.replace("duration_ms = 200000", "duration_ms = 100000")
    sim_cfg.write_text(text.replace("mode = both", f"mode = {mode}\nplot_data = true"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(sim_cfg), "--out", str(out), "--quiet"]) == 0
    runs = json.loads((out / "report.json").read_text())["runs"]
    for sensor_id, stats in runs[list(runs)[-1]]["sensors"].items():
        lines = (out / f"plot_{sensor_id}.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == stats["total"] == 1000
        assert max(float(row[0]) for row in rows) < 100000
        assert sum(int(row[3]) for row in rows) == stats["transmitted"]


def test_cli_simulate_single_mode_has_no_comparison(tmp_path, sim_cfg):
    out = tmp_path / "out"
    code = main(
        ["simulate", "--config", str(sim_cfg), "--mode", "cloud_only", "--out", str(out), "--quiet"]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["modes_run"] == ["cloud_only"]
    assert "comparison" not in report


def test_cli_quiet_silences_stdout(tmp_path, sim_cfg, capsys):
    code = main(
        ["simulate", "--config", str(sim_cfg), "--out", str(tmp_path / "o"), "--quiet"]
    )
    assert code == 0
    assert capsys.readouterr().out == ""


def test_cli_reruns_are_byte_identical(tmp_path, sim_cfg):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    for out in (out1, out2):
        assert main(["simulate", "--config", str(sim_cfg), "--out", str(out), "--quiet"]) == 0
    for name in ("report.json", "resolved.cfg", "sensor_metrics.csv", "link_usage.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_resolved_config_reruns_identically(tmp_path, sim_cfg):
    out1 = tmp_path / "one"
    assert main(["simulate", "--config", str(sim_cfg), "--out", str(out1), "--quiet"]) == 0
    out2 = tmp_path / "two"
    assert (
        main(["simulate", "--config", str(out1 / "resolved.cfg"), "--out", str(out2), "--quiet"])
        == 0
    )
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "resolved.cfg").read_bytes() == (out2 / "resolved.cfg").read_bytes()


# --------------------------------------------------------- golden bytes

# sha256 of every file the two reference runs write, recorded with the
# event-queue engine that the closed-form engine replaced.  Any change here
# changes the published numbers and must be deliberate.
GOLDEN_RUNS = {
    "simulate-table2": (
        ["simulate", "--config", "table2.cfg"],
        {
            "link_usage.csv": "19e4c53b4cfb33f93f2043267e64267396aef7c9b24d1c391c9a56cf1af12a40",
            "report.json": "393a259957931b94295e1132f08ef6977e2ef284c4214ad6efe98851310cdb13",
            "resolved.cfg": "29da857051f5e0e06e243641bc1bc6f2d46d2769d7b36d9d8d5328174f77b83f",
            "sensor_metrics.csv": "15d363b94ec6afeb8f34bf3bbbb8fde431c5fd93caa98a106d17a8fe41354274",
        },
    ),
    "filter-office": (
        ["filter", "--dataset", "tests/data/office_temperature.csv", "--column", "temp_c"],
        {
            "plot_office_temperature_n10_p0.05.csv": (
                "7181f64a25367f9a37819fcf0d7b7d61bb324b95c5cad353ad0a140d82b1615e"
            ),
            "report.json": "8c56d5c244269dabf1bbc6e43668309f5fc4e14fca9309d515806b964d835182",
            "resolved.cfg": "284baeb22016501e7e27d9b2a97978a4cccd7d1f2b06ec59ceb3dc9332d4e054",
            "sensor_metrics.csv": "a2f9fe64947e43ccce2121867ac9f9a7f47dd459216f78f535725287d76f9909",
        },
    ),
    # Recorded before plot rows were rendered from transmit flags.
    "filter-grid": (
        ["filter", "--config", "tests/data/filter_grid.cfg", "--n", "5,50", "--p", "0.01,0.1"],
        {
            "plot_cold_n50_p0.01.csv": (
                "5df545c4328bfade238ba5694f23584ab01a7f6a6986f037eead439a68e95f78"
            ),
            "plot_cold_n50_p0.1.csv": (
                "7d66bdd3c1977d7d39a4ec9fdc4a0283c32c90837c156f1bbf234e3b6d8cf5c0"
            ),
            "plot_cold_n5_p0.01.csv": (
                "23eebeed34abe05cd54f4d144c47190dffdd9dc2771e03bf9261141cbfff515a"
            ),
            "plot_cold_n5_p0.1.csv": (
                "b0116db05bbbad97b6bbbb7627344f19248d123aadfc7774649698770d2ec8a8"
            ),
            "plot_office_temperature_n50_p0.01.csv": (
                "d9d8659d83815cc44ec3a8ac3da0490c56ad1db981c208ad1b6258adec68d44b"
            ),
            "plot_office_temperature_n50_p0.1.csv": (
                "d48ffe01237c5155858022c5dce6e736ab4cc5fb534d93699c29dec628853092"
            ),
            "plot_office_temperature_n5_p0.01.csv": (
                "634769d14b9490c2ba5f732d29f6819549f102a2948f39f1aa2150fafeb58a4d"
            ),
            "plot_office_temperature_n5_p0.1.csv": (
                "7a4b0a08e40e7a826809b29a62ebd156d4be5bef6197bce05caaac0ba6f5178a"
            ),
            "plot_warm_n50_p0.01.csv": (
                "f68b70809a921bc3d093abaa88485bbef648daa0aeaf4114e401f2a775129b26"
            ),
            "plot_warm_n50_p0.1.csv": (
                "f3f09e1738de524dcc2097af7448ba950f0b02bc3c632d3da6b4d68d9a54407e"
            ),
            "plot_warm_n5_p0.01.csv": (
                "4b5b7ebfd422aaca870db6d60196e3aba0f988a4a3a15fd58e24ea6169bb74d8"
            ),
            "plot_warm_n5_p0.1.csv": (
                "af994ae9bf50f22ecbc888a3a44c5f30d17744dd3a027b9e4813700c2861e3ad"
            ),
            "report.json": "d3f6b72f69b417971038aa7f6516435ca71dcd305e8177e9c6fc8a4954c95b19",
            "resolved.cfg": "a226d13a6117f78856ba40ae513f489c33ae3cbea6f7bd080e4a90377fe6ff25",
            "sensor_metrics.csv": "27ad32fd09a422c3efb7c0f16184a0e824dcf71147347caba1344d21dca3c9c2",
        },
    ),
    # Recorded while simulate's plots were still sliced from Sample lists.
    "simulate-plots": (
        ["simulate", "--config", "tests/data/simulate_plots.cfg", "--p", "0.05,0.1"],
        {
            "link_usage.csv": "1fa0b0fc0a28e3059e6aa5881be1a840dc39ce8db5b6f3ea43f6672cb32a0348",
            "plot_a_n10_p0.05.csv": (
                "a75f2709849e2053e7972f33427e2907c70d028afaa1eb45e28ea19582eff49a"
            ),
            "plot_a_n10_p0.1.csv": (
                "2ee719955b09fa6acec36521702acd90608c6119d17308b334d61a7491a2d8cf"
            ),
            "plot_b_n10_p0.05.csv": (
                "1cc715295a7a7d0a849309d3b8fe6f3863f743746117dba901edded6db454daa"
            ),
            "plot_b_n10_p0.1.csv": (
                "9e908647bb859ea652cd5a6821fbacebb31622100b41df961c99acca6ea2a426"
            ),
            "report.json": "f8d9d1104e47771c6267f23230492300d66472dafa0f3f1e763675a24168c71b",
            "resolved.cfg": "5e214862d5012c1f4b1b34cff8a843505652bbe3b920f8067d00085541e73cdb",
            "sensor_metrics.csv": "3d23c749d5b518b489d1da391a1e1848fc42042ed42b69ec8c4a7a50c1111ef3",
        },
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN_RUNS))
def test_reference_runs_are_byte_golden(name, tmp_path, table2_cfg_path, monkeypatch):
    # Relative paths from the repo root, since resolved.cfg echoes them.
    args, golden = GOLDEN_RUNS[name]
    monkeypatch.chdir(table2_cfg_path.parent)
    assert main([*args, "--out", str(tmp_path), "--quiet"]) == 0
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
    assert digests == golden


@pytest.mark.parametrize(
    "name, forks",
    # Three sources fork two workers to measure and two to plot; two
    # sensors, one to measure and one to plot.  One source is one worker:
    # it runs here.
    [("filter-grid", 4), ("simulate-plots", 2), ("filter-office", 0)],
)
def test_outputs_do_not_depend_on_the_worker_count(
    name, forks, tmp_path, table2_cfg_path, monkeypatch, capsys
):
    # Everything in this process against three workers: the same bytes in
    # every file and on stdout.
    args = GOLDEN_RUNS[name][0]
    monkeypatch.chdir(table2_cfg_path.parent)
    forked = []
    fork = os.fork

    def counted_fork():
        forked.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    runs = []
    for workers in (1, 3):
        monkeypatch.setattr(engine, "_cpu_count", lambda: workers)
        forked.clear()
        out = tmp_path / f"workers{workers}"
        assert main([*args, "--out", str(out)]) == 0
        files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        runs.append((files, capsys.readouterr().out.replace(str(out), "<out>"), len(forked)))
    assert runs[0][:2] == runs[1][:2]
    assert [fork_count for _, _, fork_count in runs] == [0, forks]


def test_simulate_replay_and_plots_do_not_depend_on_the_worker_count(
    tmp_path, office_csv_path, monkeypatch
):
    # A replay sensor beside two synthetic ones, each in its own process
    # under three workers, plots on: its ingest block and every plot come
    # back from the workers unchanged.  The replay runs past the horizon,
    # so its plot is cut there.
    rows = office_csv_path.read_text(encoding="utf-8").splitlines()[1:301]
    values = [row.split(",")[1] for row in rows]
    replay = tmp_path / "replay.csv"
    replay.write_text(
        "timestamp,value\n" + "".join(f"{1000 * k},{v}\n" for k, v in enumerate(values)) + "oops,1\n",
        encoding="utf-8",
    )
    text = SIM_CFG.replace("mode = both\n", "mode = both\nplot_data = true\n")
    text += "\n[device c]\nkind = sensor\n\n[link c gw]\nlatency_ms = 5\n"
    text = text.replace("[source b]\n", f"[source c]\nkind = replay\nfile = {replay}\n\n[source b]\n")
    cfg = tmp_path / "replay.cfg"
    cfg.write_text(text, encoding="utf-8")
    runs = []
    for workers in (1, 3):
        monkeypatch.setattr(engine, "_cpu_count", lambda: workers)
        out = tmp_path / f"workers{workers}"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        runs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert runs[0] == runs[1]
    report = json.loads(runs[0]["report.json"])
    assert list(report["ingest"]) == ["c"] and report["ingest"]["c"]["rows_skipped"] == 1
    assert {"plot_a.csv", "plot_b.csv", "plot_c.csv", "resolved.cfg"} <= set(runs[0])
    assert runs[0]["plot_c.csv"].count(b"\n") == 1 + 200  # the header, then 0 .. 199,000 ms


@pytest.mark.parametrize("workers", [1, 3])
def test_filter_raises_the_first_source_to_fail_under_any_worker_count(
    tmp_path, monkeypatch, capsys, workers
):
    # Source b's windows overflow at n=3, a measuring error, and source c's
    # CSV is missing, a load error: with three workers each source is
    # measured by its own, and b's error, the earlier, wins.  With b's
    # windows in range, c's load error raises from its worker.
    monkeypatch.setattr(engine, "_cpu_count", lambda: workers)
    (tmp_path / "b.csv").write_text(
        "timestamp,value\n0,0.6e308\n1,0.6e308\n2,0.6e308\n", encoding="utf-8"
    )
    cfg = tmp_path / "three.cfg"
    cfg.write_text(
        "[run]\n\n[source a]\nkind = normal\nmean = 20\nstddev = 1\nperiod_ms = 1\ncount = 9\n\n"
        f"[source b]\nkind = replay\nfile = {tmp_path / 'b.csv'}\n\n"
        f"[source c]\nkind = replay\nfile = {tmp_path / 'c.csv'}\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["filter", "--config", str(cfg), "--n", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == _OVERFLOW_LINE.format(source="b", t="2.0")
    assert not out.exists()
    (tmp_path / "b.csv").write_text("timestamp,value\n0,1\n1,1\n2,1\n", encoding="utf-8")
    assert main(["filter", "--config", str(cfg), "--n", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: dataset file not found: {tmp_path / 'c.csv'}\n"
    assert not out.exists()


def test_filter_measures_no_source_after_one_fails(tmp_path, monkeypatch, capsys):
    # Source b's windows overflow at n=3, a measuring error: it raises
    # there, and source c, of 5 samples, is never loaded, as in simulate.
    # In one process: this one cannot see calls made in forked workers.
    monkeypatch.setattr(engine, "_cpu_count", lambda: 1)
    checked, measured = [], []
    check, measure = engine.check_stream, engine.measure_grid

    def counted_check(stream):
        checked.append(len(stream))
        return check(stream)

    def counted_measure(stream, *args):
        measured.append(len(stream))
        return measure(stream, *args)

    monkeypatch.setattr(engine, "check_stream", counted_check)
    monkeypatch.setattr(engine, "measure_grid", counted_measure)
    (tmp_path / "b.csv").write_text(
        "timestamp,value\n0,0.6e308\n1,0.6e308\n2,0.6e308\n", encoding="utf-8"
    )
    cfg = tmp_path / "three.cfg"
    cfg.write_text(
        "[run]\n\n[source a]\nkind = normal\nmean = 20\nstddev = 1\nperiod_ms = 1\ncount = 9\n\n"
        f"[source b]\nkind = replay\nfile = {tmp_path / 'b.csv'}\n\n"
        "[source c]\nkind = normal\nmean = 20\nstddev = 1\nperiod_ms = 1\ncount = 5\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["filter", "--config", str(cfg), "--n", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("runtime error: source 'b': window average overflowed")
    assert checked == [9, 3]
    assert measured == [9, 3]
    assert not out.exists()


# ------------------------------------------------------------ exit codes


def test_exit_1_usage_errors(tmp_path, capsys):
    assert main(["filter"]) == 1  # needs --config or --dataset
    assert main(["simulate"]) == 1  # needs --config
    assert main(["filter", "--column", "x", "--dataset_missing"]) == 1  # unknown flag
    assert main(["filter", "--config", "c.cfg", "--column", "x"]) == 1
    assert main(["filter", "--dataset", "d.csv", "--n", "ten"]) == 1
    assert main(["simulate", "--config", str(tmp_path / "absent.cfg")]) == 1
    capsys.readouterr()


def test_exit_1_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[mystery]\n", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert "unknown section" in capsys.readouterr().err


def test_exit_1_config_path_is_a_directory(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: cannot read config file {tmp_path}: Is a directory\n"


def test_exit_1_config_not_utf_8_names_the_file_and_line(tmp_path, capsys):
    # Lines end at \n, \r\n and \r alike: the bad byte is on line 4.
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"[run]\nseed = 1\r\n# one\r# caf\xe9!\nduration_ms = 10\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}: line 4: 'utf-8' codec can't decode byte 0xe9 in position 5: "
        "invalid continuation byte\n"
    )


@pytest.mark.parametrize("command", ["simulate", "filter"])
def test_a_utf_8_byte_order_mark_changes_no_output(tmp_path, monkeypatch, command):
    # A config and a replay file that each start with a UTF-8 byte-order
    # mark give the resolved.cfg and report.json of the same files without
    # one.  Each pair runs from its own directory, so the replay path the
    # config echoes is the same relative path.
    text = SIM_CFG + "\n[device c]\nkind = sensor\n\n[link c gw]\nlatency_ms = 5\n"
    text += "\n[source c]\nkind = replay\nfile = c.csv\n"
    rows = "timestamp,value\n" + "".join(f"{100 * k},{20 + k % 7}\n" for k in range(50))
    outputs = []
    for mark in (b"", b"\xef\xbb\xbf"):
        here = tmp_path / ("marked" if mark else "plain")
        here.mkdir()
        (here / "scenario.cfg").write_bytes(mark + text.encode())
        (here / "c.csv").write_bytes(mark + rows.encode())
        monkeypatch.chdir(here)
        assert main([command, "--config", "scenario.cfg", "--out", "out", "--quiet"]) == 0
        outputs.append([(here / "out" / name).read_bytes() for name in ("resolved.cfg", "report.json")])
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[1][1])["ingest"]["c"]["samples"] == 50


def test_exit_1_simulate_without_topology(tmp_path, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("[run]\nduration_ms = 1000\n", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert "invalid topology" in capsys.readouterr().err


def test_exit_1_topology_checked_once_by_the_engine(tmp_path, sim_cfg, capsys, monkeypatch):
    # A sensor linked straight to the cloud is the config's only fault: the
    # engine's path lookup reports it, in the CLI's words, before any source
    # is generated, and the CLI never calls validate.
    sim_cfg.write_text(SIM_CFG.replace("[link a gw]", "[link a cloud]"), encoding="utf-8")
    monkeypatch.setattr(topology_module, "validate", lambda t: pytest.fail("validate called"))
    monkeypatch.setattr(cli, "gen_normal", lambda spec: pytest.fail("source generated"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(sim_cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: invalid topology: link 'a'->'cloud': only sensor-gateway and "
        "gateway-cloud links are allowed, got cloud-sensor\n"
    )
    assert not out.exists()


def test_exit_1_simulate_reports_config_faults_before_the_topology(tmp_path, sim_cfg, capsys):
    # The topology is checked by the engine, so the CLI's own config checks,
    # duration_ms first and then sensors against sources, come before it.
    broken = SIM_CFG.replace("[link a gw]", "[link a cloud]")
    replay = broken.split("[source b]")[0] + "[source b]\nkind = replay\nfile = b.csv\n"
    sim_cfg.write_text(replay.replace("duration_ms = 200000\n", ""), encoding="utf-8")
    assert main(["simulate", "--config", str(sim_cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: duration_ms is required in [run]")
    sim_cfg.write_text(broken.replace("[source b]", "[source c]"), encoding="utf-8")
    assert main(["simulate", "--config", str(sim_cfg)]) == 1
    assert capsys.readouterr().err == "error: sensors without a [source] section: ['b']\n"


@pytest.mark.parametrize("command", ["filter", "simulate"])
@pytest.mark.parametrize("where", ["file", "below-file", "dangling-link"])
def test_exit_1_out_that_cannot_be_a_directory(tmp_path, sim_cfg, capsys, monkeypatch, command, where):
    # An --out that is a regular file, lies below one, or is a dangling
    # symlink fails before any source is loaded, instead of after all the
    # work; nothing is created.
    monkeypatch.setattr(cli, "gen_normal", lambda spec: pytest.fail("source generated"))
    blocker = tmp_path / "taken"
    if where == "dangling-link":
        blocker.symlink_to(tmp_path / "absent")
    else:
        blocker.write_text("keep\n", encoding="utf-8")
    out = blocker / "sub" if where == "below-file" else blocker
    assert main([command, "--config", str(sim_cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: --out {out}: {blocker} exists and is not a directory\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.cfg", "taken"]
    assert blocker.is_symlink() or blocker.read_text(encoding="utf-8") == "keep\n"


def test_empty_column_is_not_replaced(tmp_path, sim_cfg, capsys):
    # An empty --column is a name like any other: with --dataset, load_csv
    # finds no such column; without it, it is a usage error.
    csv = tmp_path / "d.csv"
    csv.write_text("timestamp,value\n0,1.0\n1,2.0\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["filter", "--dataset", str(csv), "--column", "", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"runtime error: {csv}: column '' not in header ['timestamp', 'value']\n"
    )
    assert not out.exists()
    assert main(["filter", "--config", str(sim_cfg), "--column", "", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: --column requires --dataset\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "header, column",
    [("timestamp,value,value", "value"), ("timestamp, value,timestamp ", "timestamp")],
    ids=["value", "timestamp-after-strip"],
)
def test_exit_2_replay_header_naming_a_column_twice(tmp_path, capsys, header, column):
    # Which copy would be read is a guess (the last used to win, replaying
    # 100.0 here), so the header is rejected before anything is written.
    csv = tmp_path / "d.csv"
    csv.write_text(f"{header}\n0,1.0,100.0\n1,2.0,200.0\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["filter", "--dataset", str(csv), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"runtime error: {csv}: column {column!r} named more than once in header "
        f"{header.split(',')!r}\n"
    )
    assert not out.exists()


def test_exit_1_missing_dataset_file(tmp_path, capsys):
    assert main(["filter", "--dataset", str(tmp_path / "absent.csv")]) == 1
    assert "not found" in capsys.readouterr().err


def test_exit_1_dataset_flag_naming_a_directory(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["filter", "--dataset", str(tmp_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: dataset path is not a regular file: {tmp_path}\n"
    assert not out.exists()


@pytest.mark.parametrize("bad", ["a/b", "a\0b"], ids=["slash", "nul"])
@pytest.mark.parametrize("command", ["simulate", "filter"])
def test_exit_1_id_that_cannot_name_a_file_writes_nothing(tmp_path, capsys, command, bad):
    # An id names plot files, with plots on or off, so the section that
    # declares it is rejected before any work: simulate meets [device a/b]
    # first, and filter, given the sources alone, [source a/b].
    text = SIM_CFG.replace("[device a]", f"[device {bad}]").replace("[link a gw]", f"[link {bad} gw]")
    text = text.replace("[source a]", f"[source {bad}]")
    if command == "filter":
        text = "[run]\n\n" + text[text.index("[source "):]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    section, field = (f"device {bad}", "device id") if command == "simulate" else (f"source {bad}", "device_id")
    assert capsys.readouterr().err == (
        f"error: {cfg}: [{section}]: {field} {bad!r} names files, so it must not contain '/' or NUL\n"
    )
    assert not out.exists()


def test_exit_1_device_id_that_would_merge_two_links(tmp_path, capsys):
    # Links are reported as "<src>-><dst>": here x -> y->z and x->y -> z
    # would both be "x->y->z", and the report would hold 3 of the 4 links
    # with their messages summed.  The first id that contains "->" is
    # rejected, naming its section.
    devices = [("z", "cloud"), ("y->z", "gateway"), ("x->y", "gateway"), ("x", "sensor"), ("w", "sensor")]
    links = [("x", "y->z"), ("w", "x->y"), ("y->z", "z"), ("x->y", "z")]
    source = "kind = normal\nmean = 10\nstddev = 1\nperiod_ms = 1000\ncount = 100\n"
    text = "[run]\nseed = 1\nduration_ms = 200000\n\n"
    text += "".join(f"[device {id}]\nkind = {kind}\n\n" for id, kind in devices)
    text += "".join(f"[link {src} {dst}]\nlatency_ms = 1\n\n" for src, dst in links)
    text += f"[source x]\n{source}\n[source w]\n{source}"
    cfg = tmp_path / "links.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}: [device y->z]: device id 'y->z' names links, "
        "reported as '<src>-><dst>', so it must not contain '->'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("name, source", [("my data.csv", "my_data"), (" a \t b .csv", "_a_b_")])
def test_dataset_with_whitespace_in_its_name_reruns_from_its_config_echo(tmp_path, name, source):
    # The id --dataset takes from the file name heads a [source <id>]
    # section, which splits on whitespace: each run of it becomes "_".
    dataset = tmp_path / name
    dataset.write_text("timestamp,value\n0,1\n1,2\n2,3\n3,9\n", encoding="utf-8")
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["filter", "--dataset", str(dataset), "--out", str(first)]) == 0
    echo = first / "resolved.cfg"
    assert f"\n[source {source}]\n" in echo.read_text(encoding="utf-8")
    assert main(["filter", "--config", str(echo), "--out", str(second)]) == 0
    assert (second / "report.json").read_bytes() == (first / "report.json").read_bytes()


def test_exit_1_replay_source_naming_a_directory(tmp_path, capsys):
    cfg = tmp_path / "dir.cfg"
    cfg.write_text(f"[run]\n\n[source d]\nkind = replay\nfile = {tmp_path}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["filter", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: dataset path is not a regular file: {tmp_path}\n"
    assert not out.exists()


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("command", ["simulate", "filter"])
@pytest.mark.parametrize(
    "data, message",
    [
        (
            b"timestamp,value\n0,1\n1,2\n2," + b"9" * 131_073 + b"\n3,4\n",
            "line 4: field larger than field limit (131072)",
        ),
        (
            b"timestamp,value\n0,1\n1,\xff2\n2,3\n",
            "line 3: 'utf-8' codec can't decode byte 0xff in position 2: invalid start byte",
        ),
    ],
    ids=["oversized-field", "not-utf-8"],
)
def test_exit_2_unreadable_replay_file_names_the_file_and_line(
    tmp_path, monkeypatch, capsys, workers, command, data, message
):
    # Source c replays a file the CSV reader cannot read; under three
    # workers it is read in a forked worker.  Both commands exit 2 naming
    # the file and the line, and write nothing.
    monkeypatch.setattr(engine, "_cpu_count", lambda: workers)
    replay = tmp_path / "c.csv"
    replay.write_bytes(data)
    text = SIM_CFG + "\n[device c]\nkind = sensor\n\n[link c gw]\nlatency_ms = 5\n"
    text += f"\n[source c]\nkind = replay\nfile = {replay}\n"
    cfg = tmp_path / "replay.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"runtime error: {replay}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "filter"])
@pytest.mark.parametrize(
    "old,new,message",
    [
        ("[device a]\n", "[device a]\nram_mb = -1\n", "[device a]: ram_mb must be finite and >= 0, got -1.0"),
        ("latency_ms = 4\n", "latency_ms = -5\n", "[link a gw]: latency_ms must be finite and >= 0, got -5.0"),
    ],
)
def test_exit_1_negative_capacity_or_latency(tmp_path, capsys, command, old, new, message):
    # Both commands reject what simulate's topology check would, naming the
    # section, and write nothing: filter has no topology to check.
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_CFG.replace(old, new, 1), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "filter"])
def test_exit_1_source_timestamps_overflow(tmp_path, capsys, command):
    # The third timestamp, 2 * 1e308, is inf: a config error, before any
    # stream is generated.
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        SIM_CFG.replace("period_ms = 100\ncount = 2000\n", "period_ms = 1e308\ncount = 3\n"), encoding="utf-8"
    )
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: {cfg}: [source a]: the last timestamp (count - 1) * period_ms "
        "must be finite, got inf\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "filter"])
def test_exit_1_count_past_the_bound_generates_nothing(tmp_path, capsys, monkeypatch, command):
    # count = 10**12 at period_ms = 1 has a finite last timestamp, but its
    # stream could never be held: a config error naming the section, before
    # any stream is generated.  A count at the bound still parses.
    generated = []
    monkeypatch.setattr(cli, "gen_normal", generated.append)
    cfg = tmp_path / "big.cfg"

    def write(count):
        text = SIM_CFG.replace("period_ms = 100\ncount = 2000", f"period_ms = 1\ncount = {count}", 1)
        cfg.write_text(text, encoding="utf-8")

    write(10**12)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}: [source a]: count must be >= 0 and <= {MAX_COUNT}, got {10**12}\n"
    )
    assert not out.exists()
    assert generated == []
    write(MAX_COUNT)
    assert [source.count for source in load_config(cfg).sources] == [MAX_COUNT, 2000]


@pytest.mark.parametrize("command, word", [("simulate", "sensor"), ("filter", "source")])
def test_exit_2_a_non_finite_value_wins_over_an_earlier_window_overflow(
    tmp_path, capsys, command, word
):
    # With n = 2 the window sum overflows at timestamp 4.0, and the value at
    # 20.0 is inf.  Both commands check the whole stream, with a window that
    # never fills, before measuring it, so both name the value.
    cfg = tmp_path / "one.cfg"
    cfg.write_text(
        "[run]\nduration_ms = 100\n\n[filter]\nn = 2\n\n"
        "[device cloud]\nkind = cloud\n\n[device gw]\nkind = gateway\n\n"
        "[device a]\nkind = sensor\n\n[link a gw]\nlatency_ms = 1\n\n"
        "[link gw cloud]\nlatency_ms = 1\n\n"
        "[source a]\nkind = normal\nmean = 0.9e308\nstddev = 0.5e308\nperiod_ms = 1\n"
        "count = 40\nseed = 1\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"runtime error: {word} 'a': non-finite value inf at timestamp 20.0\n"
    )
    assert not out.exists()


def test_exit_2_runtime_error(tmp_path, capsys):
    csv = tmp_path / "wrong.csv"
    csv.write_text("timestamp,other\n0,1\n", encoding="utf-8")
    code = main(["filter", "--dataset", str(csv), "--column", "value"])
    assert code == 2
    assert "runtime error" in capsys.readouterr().err


def test_exit_2_overflowing_window_writes_nothing(tmp_path, capsys):
    # Finite values whose window sum overflows are rejected before any file
    # is written, instead of failing at report time after all the work.
    csv = tmp_path / "huge.csv"
    rows = [f"{t},{v}" for t, v in enumerate([1e308, 1e308, -1e308, 1e308, -1e308])]
    csv.write_text("timestamp,value\n" + "\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["filter", "--dataset", str(csv), "--n", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "runtime error" in err and "overflowed" in err and "timestamp 2.0" in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "big, message",
    [
        # Each value is finite, but the suppressed -1e308 lies 2e308 from the
        # held 1e308: the hold error overflows while it is measured.
        ("1e308", "source 'big': hold error overflowed to inf at timestamp 1.0; "),
    ],
)
def test_exit_2_overflowing_error_leaves_no_out_dir(tmp_path, capsys, big, message):
    csv = tmp_path / "big.csv"
    csv.write_text(f"timestamp,value\n0,{big}\n1,-{big}\n2,{big}\n3,-{big}\n", encoding="utf-8")
    out = tmp_path / "out"
    args = ["filter", "--dataset", str(csv), "--n", "1", "--p", "3", "--out", str(out)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"runtime error: {message}") and err.endswith("\n")
    assert not out.exists()


def test_error_percentage_near_the_float_limit_stays_finite(tmp_path):
    # Two suppressed -1e307 sit 2e307 from the held 1e307, so avg_abs_error
    # is 1e307, as is the mean absolute value: 100 times the error overflows,
    # 100 times their ratio does not.
    csv = tmp_path / "big.csv"
    csv.write_text("timestamp,value\n0,1e307\n1,-1e307\n2,1e307\n3,-1e307\n", encoding="utf-8")
    out = tmp_path / "out"
    args = ["filter", "--dataset", str(csv), "--n", "1", "--p", "3", "--out", str(out), "--quiet"]
    assert main(args) == 0
    stats = json.loads((out / "report.json").read_text())["runs"][0]["sensors"]["big"]
    assert stats["avg_abs_error"] == 1e307
    assert stats["avg_error_pct_of_mean"] == 100.0


def test_simulate_reduction_of_a_huge_total_stays_finite(tmp_path, capsys):
    # network_total_byte_ms is 8e307: 100 times it overflows, 100 times the
    # reduction ratio does not.
    cfg = tmp_path / "huge.cfg"
    text = SIM_CFG
    for latency in ("4", "6", "50"):
        text = text.replace(f"latency_ms = {latency}\n", "latency_ms = 1e302\n")
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    row = json.loads((out / "report.json").read_text())["comparison"]["network_total_byte_ms"]
    assert row["baseline"] == 8e307
    assert 0 < row["reduction_percent"] < 100


def test_exit_2_replay_past_the_horizon_writes_nothing(tmp_path, office_csv_path, capsys):
    # Replay timestamps are epoch seconds (1.7e9 for 2024); a one-day horizon
    # in milliseconds would drop every sample and report an empty run.
    cfg = tmp_path / "office.cfg"
    cfg.write_text(
        "[run]\nduration_ms = 86400000\n\n"
        "[device cloud]\nkind = cloud\n\n[device gw]\nkind = gateway\n\n"
        "[device office]\nkind = sensor\n\n"
        "[link office gw]\nlatency_ms = 4\n\n[link gw cloud]\nlatency_ms = 50\n\n"
        f"[source office]\nkind = replay\nfile = {office_csv_path}\nvalue_column = temp_c\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert (
        "runtime error: source 'office' starts at timestamp 1704067200.0, at or past "
        "duration_ms = 86400000.0" in err
    )
    assert "replay timestamps are epoch seconds" in err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["both", "mist_fog_cloud"])
@pytest.mark.parametrize(
    "edit, path",
    [
        (
            {"latency_ms = 4": "latency_ms = 1e308", "latency_ms = 6": "latency_ms = 1e308",
             "latency_ms = 50": "latency_ms = 1e308"},
            "runs.cloud_only.links.a->gw.byte_ms",
        ),
        (
            {"duration_ms = 200000": "duration_ms = 1e6",
             "[device cloud]": "[energy]\ncloud_busy_w = 1e308\ncloud_idle_w = 1e308\n\n"
             "[device cloud]"},
            "runs.cloud_only.devices.cloud.energy_j",
        ),
    ],
    ids=["latency", "cloud-power"],
)
def test_exit_2_report_overflow_names_the_field(tmp_path, capsys, edit, path, mode):
    # Finite inputs whose metrics would overflow: rejected once every stream
    # is measured, naming the report field.  When sensor a's windows
    # overflow too (mean 1e308), a's measuring error is met first and wins.
    # The bound is the all-sent run's, also when cloud-only is not run.
    text = SIM_CFG
    for old, new in edit.items():
        assert old in text
        text = text.replace(old, new)
    field = path.removeprefix("runs.cloud_only.")
    for mean, err in (
        ("25", f"runtime error: a run's {field} would overflow to inf when every kept sample is sent\n"),
        ("1e308", "runtime error: sensor 'a': window average overflowed to inf at timestamp "),
    ):
        cfg = tmp_path / f"mean{mean}.cfg"
        cfg.write_text(text.replace("mean = 25\n", f"mean = {mean}\n"), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--mode", mode]) == 2
        assert capsys.readouterr().err.startswith(err)
        assert not out.exists()


def test_exit_1_underived_duration_names_both_conditions(tmp_path, capsys):
    # Every source is synthetic, but count = 0 derives duration_ms = 0.
    text = SIM_CFG.replace("duration_ms = 200000\n", "").replace("count = 2000", "count = 0")
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(text, encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: duration_ms is required in [run] (it is derived only when every source "
        "is synthetic and the largest count * period_ms is > 0)\n"
    )


# Source a's window sum overflows only at n=3 (three 0.6e308 values), source
# b's only at n=2 (1e308 twice in a row, after a -1e308 that cancels the
# first three-value window).  n=5 exceeds both streams and never fails.
_OVERFLOW_LINE = (
    "runtime error: source {source!r}: window average overflowed to inf at timestamp {t}; "
    "the sum of the last n values exceeds the float range\n"
)


@pytest.mark.parametrize(
    "n_values,expected_t",
    [("5,2,3", "2.0"), ("5,3,2", "2.0"), ("3,2", "2.0"), ("2,3", "2.0")],
)
def test_filter_grid_reports_the_first_error_in_grid_order(
    tmp_path, capsys, n_values, expected_t
):
    # Each source is measured over the whole grid before the next is
    # loaded, so the first source to fail is named, at the first grid point
    # it fails at: source a, whatever the order of n.
    (tmp_path / "a.csv").write_text(
        "timestamp,value\n0,0.6e308\n1,0.6e308\n2,0.6e308\n", encoding="utf-8"
    )
    (tmp_path / "b.csv").write_text(
        "timestamp,value\n10,-1e308\n11,1e308\n12,1e308\n", encoding="utf-8"
    )
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        f"[run]\n\n[source a]\nkind = replay\nfile = {tmp_path / 'a.csv'}\n\n"
        f"[source b]\nkind = replay\nfile = {tmp_path / 'b.csv'}\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    args = ["filter", "--config", str(cfg), "--n", n_values, "--p", "0.01,0.1"]
    assert main([*args, "--out", str(out), "--quiet"]) == 2
    source = "a" if expected_t == "2.0" else "b"  # a's timestamps are 0-2, b's 10-12
    assert capsys.readouterr().err == _OVERFLOW_LINE.format(source=source, t=expected_t)
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "b_mean, n_values, expected",
    [
        ("1", "3,2", _OVERFLOW_LINE.format(source="a", t="2.0")),
        ("1e308", "2,3", _OVERFLOW_LINE.format(source="a", t="2.0")),
    ],
)
def test_filter_checks_each_source_within_the_sweep(tmp_path, capsys, b_mean, n_values, expected):
    # Source a's window overflows at n=3 only; with a mean of 1e308, source
    # b's window overflows at n=2.  The replay source beside b means no
    # duration is derived.  Both streams pass their check, which no n
    # reaches, so the first source to fail over the whole grid is named,
    # whatever the first n.
    (tmp_path / "a.csv").write_text(
        "timestamp,value\n0,0.6e308\n1,0.6e308\n2,0.6e308\n", encoding="utf-8"
    )
    cfg = tmp_path / "two.cfg"
    cfg.write_text(
        f"[run]\n\n[source a]\nkind = replay\nfile = {tmp_path / 'a.csv'}\n\n"
        f"[source b]\nkind = normal\nmean = {b_mean}\nstddev = 0\nperiod_ms = 1e308\ncount = 2\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["filter", "--config", str(cfg), "--n", n_values, "--out", str(out)]) == 2
    assert capsys.readouterr().err == expected
    assert not out.exists()


def test_filter_measuring_error_beats_a_later_load_error(tmp_path, capsys):
    # Source a fails to measure at n=3, and source b's CSV is missing: a's
    # error raises before b is loaded.
    (tmp_path / "a.csv").write_text(
        "timestamp,value\n0,0.6e308\n1,0.6e308\n2,0.6e308\n", encoding="utf-8"
    )
    cfg = tmp_path / "two.cfg"
    cfg.write_text(
        f"[run]\n\n[source a]\nkind = replay\nfile = {tmp_path / 'a.csv'}\n\n"
        f"[source b]\nkind = replay\nfile = {tmp_path / 'b.csv'}\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["filter", "--config", str(cfg), "--n", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == _OVERFLOW_LINE.format(source="a", t="2.0")
    assert not out.exists()


# Runs of one value, so that whether a window overflows depends on n: three
# of 0.6e308 overflow at n >= 3, two of 1e308 at n >= 2.
_GRID_STREAMS = st.lists(
    st.tuples(st.sampled_from([1.0, -2.5, 0.6e308, -0.6e308, 1e308, -1e308]), st.integers(1, 3)),
    max_size=4,
).map(lambda runs: [value for value, repeat in runs for _ in range(repeat)])

# A synthetic source whose value at timestamp 20.0 is inf, so it fails its
# check; a window of 2 would overflow before that, at 4.0.
_BROKEN_SOURCE = "kind = normal\nmean = 0.9e308\nstddev = 0.5e308\nperiod_ms = 1\ncount = 40\nseed = 1\n"


def _load_any(spec):
    return gen_normal(spec) if isinstance(spec, SensorSpec) else load_csv(spec)[0]


@given(
    sources=st.lists(_GRID_STREAMS, min_size=1, max_size=4),
    missing=st.none() | st.integers(0, 3),
    broken=st.none() | st.integers(0, 3),
    n_values=st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True),
    p_values=st.lists(st.sampled_from([0.0, 0.05, 0.5]), min_size=1, max_size=2, unique=True),
)
@settings(max_examples=200, deadline=None)
def test_property_filter_and_simulate_raise_the_first_failure(
    sources, missing, broken, n_values, p_values
):
    # Each source is a replay CSV, except that the one at index ``missing``
    # has no file and the one at index ``broken`` is a synthetic stream that
    # fails its check.  Whatever fails, and wherever, ``filter`` exits as
    # loading, checking and measuring each source over the whole grid in
    # turn, up to the first failure, does, under one worker or three, and
    # writes nothing on a failure.  ``simulate`` runs the same sources under
    # one gateway, with a horizon past every timestamp, and exits the same
    # way.
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        text = "[run]\nduration_ms = 100\nmode = mist_fog_cloud\n\n[filter]\n"
        text += f"n = {','.join(map(str, n_values))}\np = {','.join(map(repr, p_values))}\n"
        text += "\n[device cloud]\nkind = cloud\n\n[device gw]\nkind = gateway\n"
        text += "\n[link gw cloud]\nlatency_ms = 50\n"
        for i, values in enumerate(sources):
            text += f"\n[device s{i}]\nkind = sensor\n\n[link s{i} gw]\nlatency_ms = 4\n"
            path = tmp / f"s{i}.csv"
            if i == broken and i != missing:
                text += f"\n[source s{i}]\n{_BROKEN_SOURCE}"
                continue
            if i != missing:
                rows = "".join(f"{t},{v!r}\n" for t, v in enumerate(values))
                path.write_text("timestamp,value\n" + rows, encoding="utf-8")
            text += f"\n[source s{i}]\nkind = replay\nfile = {path}\n"
        cfg = tmp / "grid.cfg"
        cfg.write_text(text, encoding="utf-8")
        scenario = load_config(cfg)
        code, err = first_failure(
            scenario.sources, _load_any, check_stream, measure_grid, scenario.grid, "source"
        )
        for workers, (command, word) in itertools.product(
            (1, 3), (("filter", "source"), ("simulate", "sensor"))
        ):
            out = tmp / f"{command}{workers}"
            stderr = io.StringIO()
            # monkeypatch cannot be used inside @given.
            with mock.patch.object(engine, "_cpu_count", lambda: workers):
                with contextlib.redirect_stderr(stderr):
                    got = main([command, "--config", str(cfg), "--out", str(out), "--quiet"])
            want = err.replace("runtime error: source ", f"runtime error: {word} ", 1)
            assert (got, stderr.getvalue()) == (code, want)
            assert out.exists() == (code == 0)


@pytest.mark.parametrize(
    "flag, values, repeated",
    [
        ("--n", "10,10", "n values must be distinct; 10"),
        ("--p", "0.1,0.1", "p values must be distinct; 0.1"),
        ("--p", "0.0,-0.0", "p values must be distinct; -0.0"),
    ],
)
def test_exit_1_repeated_grid_value_writes_nothing(
    tmp_path, office_csv_path, capsys, flag, values, repeated
):
    # Found at parse time, not after every source was measured.
    out = tmp_path / "out"
    args = ["filter", "--dataset", str(office_csv_path), "--column", "temp_c", flag, values]
    assert main([*args, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {flag}: {repeated} repeats an earlier one\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--n", "0", "window size n must be an integer >= 1, got 0"),
        ("--p", "-1", "band fraction p must be finite and >= 0, got -1.0"),
        ("--n", "ten", "n must be comma-separated numbers, got 'ten'"),
        ("--p", " , ", "p must list at least one value"),
    ],
)
def test_exit_1_bad_grid_override_names_the_flag(
    tmp_path, office_csv_path, capsys, flag, value, message
):
    # Neither the built-in config nor a file's [filter] section is blamed.
    cfg = tmp_path / "r.cfg"
    cfg.write_text("[run]\n", encoding="utf-8")
    out = tmp_path / "out"
    for config in ([], ["--config", str(cfg)]):
        args = ["filter", *config, "--dataset", str(office_csv_path), "--column", "temp_c"]
        args += [flag, value, "--out", str(out)]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {flag}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "body, message",
    [
        ("kind = magic\ncolour = red\n", "kind must be 'normal' or 'replay', got 'magic'"),
        (
            "kind = normal\ncolour = red\n",
            "unknown keys ['colour']; allowed keys are "
            "['count', 'kind', 'mean', 'period_ms', 'seed', 'stddev']",
        ),
    ],
)
def test_exit_1_filter_dataset_still_checks_the_config_sources(
    tmp_path, office_csv_path, capsys, body, message
):
    # --dataset replaces the [source] sections only after they are checked.
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[run]\n\n[source s]\n{body}", encoding="utf-8")
    out = tmp_path / "out"
    args = ["filter", "--config", str(cfg), "--dataset", str(office_csv_path), "--column", "temp_c"]
    assert main([*args, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: [source s]: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--config", "table2.cfg"],
        ["filter", "--dataset", "tests/data/office_temperature.csv", "--column", "temp_c"],
    ],
)
def test_exit_1_out_of_range_seed_names_the_flag(
    tmp_path, table2_cfg_path, monkeypatch, capsys, args, seed
):
    # Neither the config file nor the built-in one is blamed.
    monkeypatch.chdir(table2_cfg_path.parent)
    out = tmp_path / "out"
    assert main([*args, "--seed", seed, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --seed: seed must fit in 64 bits, got {seed}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "key, malformed, flag, echoed",
    [
        ("seed = 11\n", "seed = abc\n", ["--seed", "5"], "seed = 5"),
        ("mode = both\n", "mode = sideways\n", ["--mode", "cloud_only"], "mode = cloud_only"),
        ("n = 10\n", "n = x\n", ["--n", "3"], "n = 3"),
    ],
)
def test_flag_replaces_a_malformed_key_unread(tmp_path, capsys, key, malformed, flag, echoed):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(SIM_CFG.replace(key, malformed, 1), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert malformed.split(" = ")[1].strip() in capsys.readouterr().err
    assert main(["simulate", "--config", str(cfg), *flag, "--out", str(out), "--quiet"]) == 0
    assert echoed in (out / "resolved.cfg").read_text(encoding="utf-8").splitlines()


def test_filter_wrote_lines_follow_the_grid(tmp_path, table2_cfg_path, monkeypatch, capsys):
    args, golden = GOLDEN_RUNS["filter-grid"]
    monkeypatch.chdir(table2_cfg_path.parent)
    assert main([*args, "--out", str(tmp_path)]) == 0
    wrote = [
        line.removeprefix(f"wrote {tmp_path}/")
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("wrote ")
    ]
    plots = [
        f"plot_{source}_n{n}_p{p}.csv"
        for n in (5, 50)
        for p in ("0.01", "0.1")
        for source in ("warm", "cold", "office_temperature")
    ]
    assert wrote == ["report.json", "sensor_metrics.csv", *plots, "resolved.cfg"]
    assert sorted(wrote) == sorted(golden)


def test_exit_3_failed_assertion(tmp_path, office_csv_path, capsys):
    args = [
        "filter",
        "--dataset",
        str(office_csv_path),
        "--column",
        "temp_c",
        "--out",
        str(tmp_path / "o"),
        "--quiet",
    ]
    good = "runs.0.sensors.office_temperature.reduction_percent >= 90"
    bad = "runs.0.sensors.office_temperature.reduction_percent >= 99.9"
    assert main(args + ["--assert", good]) == 0
    assert main(args + ["--assert", good, "--assert", bad]) == 3
    assert "assertion failed" in capsys.readouterr().err


def test_exit_1_unparsable_assertion(tmp_path, office_csv_path, capsys):
    args = [
        "filter",
        "--dataset",
        str(office_csv_path),
        "--column",
        "temp_c",
        "--out",
        str(tmp_path / "o"),
        "--quiet",
        "--assert",
        "gibberish",
    ]
    assert main(args) == 1
    assert "bad assertion" in capsys.readouterr().err
    # Parsed before the run: nothing is written.
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("expr", ["seed != nan", "seed == nan", "seed < NaN", "seed >= -nan"])
def test_exit_1_nan_assertion_threshold(tmp_path, office_csv_path, capsys, expr):
    # Every comparison with a NaN is False (and != True), so such a gate
    # could never tell one report from another: it is not a number here.
    args = ["filter", "--dataset", str(office_csv_path), "--column", "temp_c", "--out", str(tmp_path / "o")]
    assert main(args + ["--quiet", "--assert", expr]) == 1
    assert capsys.readouterr().err == f"error: bad assertion {expr!r}: right side must be a number\n"
    assert not (tmp_path / "o").exists()


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "mistsim" in capsys.readouterr().out
