"""Report serialization stability, assertion grammar, and the CLI contract."""

from __future__ import annotations

import hashlib
import json

import pytest

from mistsim.cli import main
from mistsim.mist_filter import Sample
from mistsim.reconstruction import TransmissionLog, reconstruct_zoh
from mistsim.report import (
    check_assertion,
    dumps_stable,
    emit_report,
    round_floats,
    write_csv,
)

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
    assert round_floats(0.123456789123) == 0.123456789
    assert round_floats(1234567891234.0) == 1234567890000.0
    assert round_floats({"a": [1.00000000049, 2]}) == {"a": [1.0, 2]}
    assert round_floats(7) == 7
    assert round_floats(True) is True
    assert round_floats("x") == "x"
    assert round_floats(None) is None


def test_round_floats_rejects_non_finite():
    with pytest.raises(ValueError):
        round_floats(float("nan"))
    with pytest.raises(ValueError):
        round_floats({"deep": [float("inf")]})


def test_dumps_stable_is_order_insensitive():
    a = {"x": 1, "y": {"b": 2.0, "a": 3.0}}
    b = {"y": {"a": 3.0, "b": 2.0}, "x": 1}
    assert dumps_stable(a) == dumps_stable(b)
    assert dumps_stable(a).endswith("\n")


def test_write_csv_formatting(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b", "c", "d"), [(1, 0.123456789123, None, True)])
    assert path.read_text() == "a,b,c,d\n1,0.123456789,,true\n"


def test_emit_report_writes_expected_files(tmp_path):
    samples = [Sample(0.0, 1.0), Sample(1.0, 2.0), Sample(2.0, 3.0)]
    written = emit_report(
        {"k": 1.0},
        tmp_path,
        sensor_rows=[("x", 1)],
        sensor_header=("sensor", "total"),
        link_rows=[("m", "a->b", 1, 100, 400.0)],
        plot_series={"plot_x": (samples, bytearray([1, 0, 1]))},
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


def test_plot_rows_match_reference_reconstruction(tmp_path):
    # Two series share one source and a third has its own; paths come back
    # in the given order whatever order the files are written in.  Flags
    # shorter than the stream mark the rest as not transmitted (samples past
    # the simulation horizon), and with nothing transmitted at all the raw
    # value stands in for the reconstruction.
    a = [Sample(float(i), v) for i, v in enumerate([1.5, -0.0, 2.25, 1e-300, 7.0])]
    b = [Sample(10.0, 3.0), Sample(11.0, 4.0)]
    series = {
        "first": (a, bytearray([1, 0, 0, 1, 0])),
        "other": (b, bytearray()),
        "second": (a, bytearray([1, 1, 0])),
    }
    written = emit_report({}, tmp_path, plot_series=series)
    assert [p.name for p in written] == ["report.json", "first.csv", "other.csv", "second.csv"]
    for stem, (samples, flags) in series.items():
        padded = list(flags) + [0] * (len(samples) - len(flags))
        log = TransmissionLog(
            tuple(s for s, f in zip(samples, padded) if f), total_count=len(samples)
        )
        if log.entries:
            recon = reconstruct_zoh(log, [s.timestamp for s in samples])
        else:
            recon = [s.value for s in samples]
        want = ["timestamp,raw,reconstructed,transmitted_flag"] + [
            f"{s.timestamp!r},{s.value!r},{r!r},{f}" for s, r, f in zip(samples, recon, padded)
        ]
        assert (tmp_path / f"{stem}.csv").read_text().splitlines() == want


# ----------------------------------------------------------- assertions


REPORT = {
    "runs": [{"sensors": {"S1": {"reduction_percent": 99.0, "note": None}}}],
    "comparison": {"cloud_energy_j": {"reduction_percent": 0.5}},
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
        ("flag == 1", False),  # booleans are not numbers here
    ],
)
def test_check_assertion(expr, expected):
    assert check_assertion(REPORT, expr) is expected


@pytest.mark.parametrize(
    "expr",
    ["no operator here", "== 5", "runs.0 ==", "runs.0 == banana"],
)
def test_check_assertion_bad_grammar(expr):
    with pytest.raises(ValueError):
        check_assertion(REPORT, expr)


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
}


@pytest.mark.parametrize("name", list(GOLDEN_RUNS))
def test_reference_runs_are_byte_golden(name, tmp_path, table2_cfg_path, monkeypatch):
    # Relative paths from the repo root, since resolved.cfg echoes them.
    args, golden = GOLDEN_RUNS[name]
    monkeypatch.chdir(table2_cfg_path.parent)
    assert main([*args, "--out", str(tmp_path), "--quiet"]) == 0
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
    assert digests == golden


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


def test_exit_1_simulate_without_topology(tmp_path, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("[run]\nduration_ms = 1000\n", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert "invalid topology" in capsys.readouterr().err


def test_exit_1_missing_dataset_file(tmp_path, capsys):
    assert main(["filter", "--dataset", str(tmp_path / "absent.csv")]) == 1
    assert "not found" in capsys.readouterr().err


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


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "mistsim" in capsys.readouterr().out
