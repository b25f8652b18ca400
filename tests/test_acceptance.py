"""Acceptance gate: one test per shipped claim, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v``.  Each test states its claim
in the docstring; tolerances and bounds are part of the claim, not tunables.
"""

from __future__ import annotations

import json
import time
from itertools import compress

import numpy as np
import pytest

from mistsim.cli import main
from mistsim.config import load_config
from mistsim.engine import EnergyModel, Mode, compare, run
from mistsim.mist_filter import EventFilter, FilterConfig, Sample
from mistsim.reconstruction import build_log, error_report, reconstruct_zoh
from mistsim.rng import SplitMix64
from mistsim.sources import ReplaySpec, SensorSpec, gen_normal, load_csv
from oracles import delivery_trace, to_rows, to_stream

pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="module")
def table2_results(table2_cfg_path):
    """Both simulation modes over the shipped scenario, plus the wall time."""
    scenario = load_config(table2_cfg_path)
    streams = {spec.device_id: gen_normal(spec) for spec in scenario.sources}
    (fc,) = scenario.grid
    started = time.perf_counter()
    cloud_only = run(
        scenario.topology,
        streams,
        Mode.CLOUD_ONLY,
        fc,
        scenario.energy,
        scenario.duration_ms,
        message_size_bytes=scenario.message_size_bytes,
        seed=scenario.seed,
    )
    mist = run(
        scenario.topology,
        streams,
        Mode.MIST_FOG_CLOUD,
        fc,
        scenario.energy,
        scenario.duration_ms,
        message_size_bytes=scenario.message_size_bytes,
        seed=scenario.seed,
    )
    elapsed = time.perf_counter() - started
    return {"scenario": scenario, "cloud_only": cloud_only, "mist": mist, "elapsed": elapsed}


def test_01_oracle_equivalence():
    """Streaming decisions match a from-scratch recompute: 20 seeds x 10k
    samples x n in {1,5,10,50} x p in {0,0.01,0.05,0.1}, zero disagreements,
    under five seconds."""
    started = time.perf_counter()
    streams = []
    for seed in range(20):
        stream = gen_normal(SensorSpec("x", 25.0, 4.0, 1.0, 10_000, seed=seed))
        rows = list(zip(stream.timestamps, stream.values))
        streams.append((rows, stream.values.tolist()))

    disagreements = 0
    checked = 0
    for n in (1, 5, 10, 50):
        for samples, values in streams:
            count = len(values)
            # Brute force: rebuild the window mean from the raw list each step.
            averages = [sum(values[i - n : i]) / n for i in range(n, count)]
            for p in (0.0, 0.01, 0.05, 0.1):
                filt = EventFilter(FilterConfig(n=n, p=p))
                step = filt.step
                got = [step(s).transmit for s in samples]
                want = [True] * min(n, count) + [
                    v >= a + p * abs(a) or v <= a - p * abs(a)
                    for v, a in zip(values[n:], averages)
                ]
                if got != want:
                    disagreements += sum(g != w for g, w in zip(got, want))
                checked += count
    elapsed = time.perf_counter() - started
    assert checked == 3_200_000
    assert disagreements == 0
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s"


def test_02_constant_signal_exactness():
    """A constant 25.0 stream of 1000 samples at n=10, p=0.05 transmits
    exactly the 10 warm-up samples: reduction exactly 99.0%, zero error."""
    samples = [Sample(float(k), 25.0) for k in range(1000)]
    filt = EventFilter(FilterConfig(n=10, p=0.05))
    decisions = [filt.step(s) for s in samples]
    log = build_log(samples, decisions)
    assert len(log.entries) == 10
    recon = reconstruct_zoh(log, [s.timestamp for s in samples])
    report = error_report([s.value for s in samples], recon, len(log.entries))
    assert report.suppressed_count == 990
    assert report.to_dict()["reduction_percent"] == 99.0
    assert report.avg_abs_error == 0.0
    assert report.max_abs_error == 0.0


def test_03_scale_covariance():
    """Scaling any of 100 strictly positive random streams by 0.1, 3, or
    1000 leaves the transmit-decision sequence identical."""
    for stream_index in range(100):
        rng = SplitMix64(stream_index)
        values = [0.5 + 99.5 * rng.next_unit() for _ in range(200)]
        n = (1, 5, 10, 50)[stream_index % 4]
        p = (0.0, 0.01, 0.05, 0.1)[(stream_index // 4) % 4]

        def decisions(stream):
            filt = EventFilter(FilterConfig(n=n, p=p))
            return [filt.step(Sample(float(i), v)).transmit for i, v in enumerate(stream)]

        reference = decisions(values)
        for c in (0.1, 3.0, 1000.0):
            assert decisions([v * c for v in values]) == reference, (
                f"stream {stream_index}, scale {c}"
            )


def test_04_statistical_suppression():
    """The transmitted fraction of a Normal(28, 1) stream at n=10, p=0.05,
    N=100k matches an independent Monte Carlo oracle (numpy, 10 seeds
    averaged) within 0.02 absolute."""
    samples = to_rows(gen_normal(SensorSpec("S5", 28.0, 1.0, 1000.0, 100_000, seed=47)))
    filt = EventFilter(FilterConfig(n=10, p=0.05))
    transmitted = sum(filt.step(s).transmit for s in samples)
    fraction = transmitted / len(samples)

    def oracle_fraction(seed, n=10, p=0.05, count=100_000):
        rng = np.random.default_rng(seed)
        x = rng.normal(28.0, 1.0, count)
        csum = np.concatenate(([0.0], np.cumsum(x)))
        means = (csum[n:-1] - csum[: -n - 1]) / n  # mean of the previous n
        hi = means + p * np.abs(means)
        lo = means - p * np.abs(means)
        flags = (x[n:] >= hi) | (x[n:] <= lo)
        return (n + int(flags.sum())) / count

    oracle = sum(oracle_fraction(1000 + k) for k in range(10)) / 10
    assert abs(fraction - oracle) <= 0.02, f"{fraction:.4f} vs oracle {oracle:.4f}"


def test_05_office_fixture_golden(office_csv_path):
    """The bundled 5000-point office temperature fixture reproduces its
    golden reduction and reconstruction-error figures at n=10, p in
    {0.05, 0.1}."""
    spec = ReplaySpec(
        "office", str(office_csv_path), value_column="temp_c", expected_period=60.0
    )
    stream, ingest = load_csv(spec)
    samples = to_rows(stream)
    assert (ingest.rows_read, ingest.rows_skipped, ingest.gaps_detected) == (5000, 0, 0)

    golden = {
        0.05: dict(transmitted=369, avg_abs_error=0.2542306, max_abs_error=2.023),
        0.1: dict(transmitted=123, avg_abs_error=1.2696876, max_abs_error=5.991),
    }
    for p, want in golden.items():
        filt = EventFilter(FilterConfig(n=10, p=p))
        decisions = [filt.step(s) for s in samples]
        log = build_log(samples, decisions)
        recon = reconstruct_zoh(log, [s.timestamp for s in samples])
        report = error_report([s.value for s in samples], recon, len(log.entries))
        assert report.transmitted_count == want["transmitted"], f"p={p}"
        assert report.suppressed_count == 5000 - want["transmitted"]
        assert report.reduction_fraction == (5000 - want["transmitted"]) / 5000
        assert report.avg_abs_error == pytest.approx(want["avg_abs_error"], rel=1e-6)
        assert report.max_abs_error == pytest.approx(want["max_abs_error"], rel=1e-6)
    # Headline figures at the default parameters: >90% reduction while the
    # average reconstruction error stays near a quarter degree.
    assert golden[0.05]["transmitted"] / 5000 < 0.10
    assert golden[0.05]["avg_abs_error"] < 0.3


def test_06_comparison_directional(table2_results):
    """Filtered mode moves strictly fewer bytes and strictly less cloud
    energy than cloud-only on the shipped six-sensor scenario, within ten
    seconds; exact percentages are reported, only their sign is asserted."""
    base, mist = table2_results["cloud_only"], table2_results["mist"]
    assert table2_results["elapsed"] < 10.0, f"took {table2_results['elapsed']:.2f}s"
    assert mist.total_bytes < base.total_bytes
    assert mist.total_byte_ms < base.total_byte_ms
    assert mist.device_messages[base.cloud_id] < base.device_messages[base.cloud_id]

    params = table2_results["scenario"].energy.for_kind("cloud")
    assert params.busy_w > params.idle_w  # premise for the energy claim
    assert mist.device_energy_j[base.cloud_id] < base.device_energy_j[base.cloud_id]

    rows = compare(base, mist)
    assert rows["network_total_bytes"]["reduction_percent"] > 0.0
    assert rows["network_total_byte_ms"]["reduction_percent"] > 0.0
    assert rows["cloud_energy_j"]["reduction_percent"] > 0.0
    # Every sensor keeps at least its warm-up; nothing exceeds its input.
    for sensor_id, report in mist.sensor_reports.items():
        assert 10 <= report.transmitted_count < report.total_count


def test_07_latency_exactness(table2_cfg_path):
    """One message from S1 reaches the cloud at emit time plus 4 plus 50
    milliseconds, exactly."""
    topology = load_config(table2_cfg_path).topology
    streams = {d.id: to_stream([]) for d in topology.sensors()}
    for emit_ms in (0.0, 100.5, 9_999.0):
        streams["S1"] = to_stream([(emit_ms, 25.0)])
        metrics = run(
            topology,
            streams,
            Mode.CLOUD_ONLY,
            FilterConfig(),
            EnergyModel(),
            1_000_000.0,
        )
        sent = {s: compress(to_rows(streams[s]), flags) for s, flags in metrics.flags.items()}
        trace = delivery_trace(topology, sent)
        assert metrics.latency_count == 1
        assert metrics.latency_min_ms == 54.0
        assert metrics.latency_max_ms == 54.0
        assert [(t, dev) for t, dev, _, _ in trace] == [
            (emit_ms + 4.0, "gw"),
            (emit_ms + 4.0 + 50.0, "cloud"),
        ]


def test_08_deterministic_reports(tmp_path, table2_cfg_path, office_csv_path):
    """Repeating a simulate or filter invocation with the same config and
    seed produces byte-identical report files."""
    sim1, sim2 = tmp_path / "sim1", tmp_path / "sim2"
    for out in (sim1, sim2):
        code = main(
            ["simulate", "--config", str(table2_cfg_path), "--out", str(out), "--quiet"]
        )
        assert code == 0
    for name in ("report.json", "resolved.cfg", "sensor_metrics.csv", "link_usage.csv"):
        assert (sim1 / name).read_bytes() == (sim2 / name).read_bytes(), name

    filt1, filt2 = tmp_path / "f1", tmp_path / "f2"
    for out in (filt1, filt2):
        code = main(
            [
                "filter",
                "--dataset",
                str(office_csv_path),
                "--column",
                "temp_c",
                "--out",
                str(out),
                "--quiet",
            ]
        )
        assert code == 0
    for name in ("report.json", "sensor_metrics.csv"):
        assert (filt1 / name).read_bytes() == (filt2 / name).read_bytes(), name
    # The cross-check that matters: the machine-read documents agree too.
    assert json.loads((sim1 / "report.json").read_text()) == json.loads(
        (sim2 / "report.json").read_text()
    )


def test_09_conservation(table2_results, tmp_path):
    """Every emitted message is delivered on every link it crosses, per-sensor
    counts add up, and CSV ingest accounts for every row it read."""
    for metrics in (table2_results["cloud_only"], table2_results["mist"]):
        emitted_per_sensor = {
            sensor_id: flags.count(1) for sensor_id, flags in metrics.flags.items()
        }
        for sensor_id, emitted in emitted_per_sensor.items():
            assert metrics.link_usage[f"{sensor_id}->gw"]["messages"] == emitted
        assert metrics.link_usage["gw->cloud"]["messages"] == metrics.messages_emitted
        assert metrics.messages_emitted == sum(emitted_per_sensor.values())
        assert metrics.messages_delivered == 2 * metrics.messages_emitted
        assert sum(u["messages"] for u in metrics.link_usage.values()) == (
            metrics.messages_delivered
        )
        for report in metrics.sensor_reports.values():
            assert report.transmitted_count + report.suppressed_count == report.total_count

    dirty = tmp_path / "dirty.csv"
    dirty.write_text(
        "timestamp,value\n0,1\nbroken,2\n2,oops\n3,4\n3,5\n9,6\n",
        encoding="utf-8",
    )
    samples, ingest = load_csv(ReplaySpec("d", str(dirty), expected_period=1.0))
    assert ingest.rows_read == 6
    assert ingest.rows_read == ingest.samples + ingest.rows_skipped
    assert ingest.samples == len(samples) == 3
    # Two spacings exceed 1.5x the period: 0 to 3 (skips opened it) and 3 to 9.
    assert ingest.gaps_detected == 2
