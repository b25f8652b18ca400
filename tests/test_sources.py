"""Generator determinism, golden vectors, and CSV replay behaviour."""

from __future__ import annotations

import math
import struct
import sys
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mistsim.mist_filter import Stream
from mistsim.reference import SplitMix64
from mistsim.rng import _BLOCK, derive_seed, normal_blocks
from mistsim.sources import (
    IngestReport,
    ReplaySpec,
    SensorSpec,
    gen_normal,
    load_csv,
)
from oracles import box_muller_normals, normal_samples, splitmix64_stream

# Published splitmix64 reference outputs (the algorithm is public domain and
# widely cross-checked; these are the standard vectors for seeds 0, 1234567).
GOLDEN_U64 = {
    0: [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
        17909611376780542444,
    ],
    1234567: [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ],
}

# First draws of the normal stream, frozen from the documented recipe.  A
# faithful libm reproduces these to the last bit on IEEE-754 doubles; an
# unfaithful one to at least twelve significant digits.
GOLDEN_NORMALS = {
    0: [
        -0.45275774021745807,
        0.20776603893419174,
        2.650605812079669,
        -0.4904228253986477,
        -0.9886041246243285,
        1.8721013803315412,
        0.252462724150614,
        -1.85342436896927,
        1.5999936337519403,
        -0.4973915252772822,
    ],
    42: [
        0.41471975043153003,
        0.652681222151943,
        -0.8918862136277573,
        1.3268335628141055,
        1.729593087937403,
        -1.8834167889028144,
        0.545620436182866,
        -1.6568357941995993,
        -1.0804129549825405,
        -0.9953556470042677,
    ],
    47: [
        -0.2948183033851193,
        1.169479664805015,
        0.5142010734950286,
        1.4873128673110922,
        1.539501312227594,
        0.17216214639201874,
        1.0080350847992283,
        -1.8996972874429514,
        -1.0351507418492387,
        -0.12576520336343736,
    ],
}


# ------------------------------------------------------------------- rng


@pytest.mark.parametrize("seed", sorted(GOLDEN_U64))
def test_u64_golden_vectors(seed):
    rng = SplitMix64(seed)
    assert [rng.next_u64() for _ in GOLDEN_U64[seed]] == GOLDEN_U64[seed]


@pytest.mark.parametrize("seed", sorted(GOLDEN_NORMALS))
def test_normal_golden_vectors(seed):
    rng = SplitMix64(seed)
    got = [rng.next_normal() for _ in range(10)]
    for g, want in zip(got, GOLDEN_NORMALS[seed]):
        assert g == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 42, 20240101, 2**64 - 1])
def test_streams_match_independent_reimplementation(seed):
    rng = SplitMix64(seed)
    assert [rng.next_u64() for _ in range(200)] == splitmix64_stream(seed, 200)
    rng = SplitMix64(seed)
    got = [rng.next_normal() for _ in range(201)]
    want = box_muller_normals(seed, 201)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_unit_draws_stay_in_half_open_interval():
    rng = SplitMix64(987)
    draws = [rng.next_unit() for _ in range(20_000)]
    assert min(draws) > 0.0
    assert max(draws) <= 1.0


def test_unit_draw_maps_u64_deterministically():
    value = splitmix64_stream(7, 1)[0]
    assert SplitMix64(7).next_unit() == ((value >> 11) + 1) * 2.0**-53


def test_derive_seed():
    assert derive_seed(42, 1) == 43
    assert derive_seed(42, 6) == 48
    assert derive_seed(2**64 - 1, 3) == 2  # wraps modulo 2**64


def test_seed_is_masked_to_64_bits():
    assert SplitMix64(2**64 + 5).next_u64() == SplitMix64(5).next_u64()


# ---------------------------------------------------------- block kernel


def per_draw_normals(seed, count):
    rng = SplitMix64(seed)
    return [rng.next_normal() for _ in range(count)]


def kernel_normals(seed, count):
    blocks = list(normal_blocks(seed, count))
    # Every block but the last is full; none is empty.
    assert all(len(b) == _BLOCK for b in blocks[:-1])
    assert all(0 < len(b) <= _BLOCK for b in blocks)
    return [z for block in blocks for z in block]


KERNEL_COUNTS = [0, 1, 7, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]


@pytest.mark.parametrize("count", KERNEL_COUNTS)
@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1, 2**64 + 12345])
def test_kernel_equals_the_per_draw_generator(seed, count):
    # Exact equality: same draws, same floats, same order.  A seed past 64
    # bits is masked as SplitMix64 masks it.
    assert kernel_normals(seed, count) == per_draw_normals(seed, count)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**66),
    count=st.one_of(st.integers(min_value=0, max_value=64), st.sampled_from(KERNEL_COUNTS)),
)
def test_kernel_equals_the_per_draw_generator_for_any_seed(seed, count):
    assert kernel_normals(seed, count) == per_draw_normals(seed, count)


# ------------------------------------------------------------- synthetic


def test_sensor_spec_validation():
    good = dict(device_id="a", mean=0.0, stddev=1.0, period_ms=1000.0, count=10, seed=1)
    SensorSpec(**good)
    for field, bad in [
        ("device_id", ""),
        ("mean", float("nan")),
        ("stddev", -1.0),
        ("stddev", float("inf")),
        ("period_ms", 0.0),
        ("period_ms", -5.0),
        ("count", -1),
        ("seed", -1),
        ("seed", 2**64),
        ("period_ms", 1e308),  # the last timestamp, 9 * 1e308, is inf
        ("count", 10**400),  # past the float range
    ]:
        with pytest.raises(ValueError):
            SensorSpec(**{**good, field: bad})


def test_sensor_spec_rejects_a_last_timestamp_that_overflows():
    base = dict(device_id="s", mean=0.0, stddev=1.0, period_ms=1e308, seed=1)
    # 0 * 1e308 and 1 * 1e308 are finite; 2 * 1e308 is not.
    assert list(gen_normal(SensorSpec(**base, count=2)).timestamps) == [0.0, 1e308]
    with pytest.raises(ValueError, match=r"last timestamp \(count - 1\) \* period_ms must be finite, got inf"):
        SensorSpec(**base, count=3)


@pytest.mark.parametrize(
    "mean, stddev, period_ms",
    [
        (25.0, 4.0, 100.0),
        (-3.5, 0.25, 0.1),
        (25, 4, 100),  # int fields, as a library caller may pass them
        (0, 0, 1),
        (1e300, 1e300, 1e300),
    ],
)
@pytest.mark.parametrize("count", [0, 1, 7, _BLOCK, 2 * _BLOCK + 1])
def test_gen_normal_matches_the_per_sample_reference(mean, stddev, period_ms, count):
    spec = SensorSpec("s", mean, stddev, period_ms, count, seed=2**64 - 3)
    got = gen_normal(spec)
    want = normal_samples(spec)
    assert type(got) is Stream and len(got) == len(want) == count
    assert (got.timestamps.typecode, got.values.typecode) == ("d", "d")
    for sample, (t, v) in zip(zip(got.timestamps, got.values), want):
        assert sample == (t, v)
        assert struct.pack("<dd", *sample) == struct.pack("<dd", t, v)


def test_gen_normal_peaks_near_the_size_of_its_result():
    # Values are built block by block: no list of every normal (about
    # 6.4 MB here) exists beside the 200,000-sample result.
    spec = SensorSpec("s", 25.0, 4.0, 100.0, 200_000, seed=5)
    gen_normal(SensorSpec("s", 25.0, 4.0, 100.0, 1, seed=5))  # build the lanes
    tracemalloc.start()
    try:
        samples = gen_normal(spec)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(samples) == 200_000
    assert peak - current < 1_000_000


@pytest.mark.parametrize("count", [0, 1, 2 * _BLOCK + 1, 20_000])
def test_gen_normal_columns_hold_no_spare_capacity(count):
    # Each column is allocated at its final size, 8 B a sample and no more.
    stream = gen_normal(SensorSpec("s", 25.0, 4.0, 100.0, count, seed=5))
    empty = sys.getsizeof(array("d"))
    assert sys.getsizeof(stream.timestamps) == empty + 8 * count
    assert sys.getsizeof(stream.values) == empty + 8 * count


def test_gen_normal_timestamps_and_count():
    spec = SensorSpec("s", 5.0, 2.0, 250.0, 4, seed=9)
    samples = gen_normal(spec)
    assert list(samples.timestamps) == [0.0, 250.0, 500.0, 750.0]
    assert len(samples) == 4


def test_gen_normal_is_seed_deterministic():
    spec = SensorSpec("s", 5.0, 2.0, 1000.0, 100, seed=1234)
    assert gen_normal(spec) == gen_normal(spec)
    other = SensorSpec("s", 5.0, 2.0, 1000.0, 100, seed=1235)
    assert gen_normal(spec) != gen_normal(other)


def test_gen_normal_zero_stddev_is_constant():
    spec = SensorSpec("s", 7.5, 0.0, 1000.0, 20, seed=3)
    assert all(v == 7.5 for v in gen_normal(spec).values)


def test_gen_normal_applies_mean_and_scale():
    base = gen_normal(SensorSpec("s", 0.0, 1.0, 1000.0, 50, seed=11))
    shifted = gen_normal(SensorSpec("s", 25.0, 4.0, 1000.0, 50, seed=11))
    for b, s in zip(base.values, shifted.values):
        assert s == 25.0 + 4.0 * b


def test_gen_normal_statistics():
    spec = SensorSpec("s", 25.0, 4.0, 1000.0, 100_000, seed=43)
    values = gen_normal(spec).values
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    assert abs(mean - 25.0) < 0.05
    assert abs(math.sqrt(var) - 4.0) < 0.05


# ------------------------------------------------------------------ csv


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_csv_epoch_timestamps(tmp_path):
    path = write_csv(tmp_path, "timestamp,value\n0,1.5\n1.5,2.5\n3,-4\n")
    samples, report = load_csv(ReplaySpec("d", path))
    assert list(zip(samples.timestamps, samples.values)) == [(0.0, 1.5), (1.5, 2.5), (3.0, -4.0)]
    assert report == IngestReport(rows_read=3, rows_skipped=0, samples=3, gaps_detected=0)


def test_load_csv_iso_timestamps_naive_is_utc(tmp_path):
    path = write_csv(
        tmp_path,
        "timestamp,value\n2024-01-01 00:00:00,1\n2024-01-01 00:01:00,2\n",
    )
    samples, _ = load_csv(ReplaySpec("d", path))
    assert samples.timestamps[0] == 1704067200.0  # 2024-01-01T00:00:00Z
    assert samples.timestamps[1] - samples.timestamps[0] == 60.0


def test_load_csv_reads_a_number_as_epoch_seconds_on_every_python(tmp_path):
    # Python 3.11's fromisoformat also reads 20240101 (and 20240101.12 as
    # 2024-01-01 12:00), which 3.10's rejects; a number stays a number.
    path = write_csv(tmp_path, "timestamp,value\n20240101,1\n20240101.12,2\n2024-01-02,3\n")
    samples, report = load_csv(ReplaySpec("d", path))
    assert list(samples.timestamps) == [20240101.0, 20240101.12, 1704153600.0]
    assert report.rows_skipped == 0


def test_load_csv_skips_bad_rows(tmp_path):
    path = write_csv(
        tmp_path,
        "timestamp,value\n"
        "0,1.0\n"
        "1,not-a-number\n"  # value fails to parse
        "2\n"  # missing cell
        "3,nan\n"  # non-finite value
        "garbage,4.0\n"  # timestamp fails to parse
        "4,2.0\n",
    )
    samples, report = load_csv(ReplaySpec("d", path))
    assert list(zip(samples.timestamps, samples.values)) == [(0.0, 1.0), (4.0, 2.0)]
    assert report.rows_read == 6
    assert report.rows_skipped == 4
    assert report.rows_read == report.samples + report.rows_skipped


@pytest.mark.parametrize(
    "rows",
    ["0,1_0\n1,2\n2,١٢\n3,4\n4_0,5\n", "0,1０\n1,2\n2,１２\n3,4\n４０,5\n"],
    ids=["underscore-arabic-indic", "full-width"],
)
def test_load_csv_skips_a_cell_float_reads_but_that_is_not_plain_ascii(tmp_path, rows):
    # float() reads 1_0 as 10.0, and Arabic-Indic or full-width digits as
    # ASCII ones; such a cell is a typo, so its row is skipped.
    samples, report = load_csv(ReplaySpec("d", write_csv(tmp_path, "timestamp,value\n" + rows)))
    assert list(zip(samples.timestamps, samples.values)) == [(1.0, 2.0), (3.0, 4.0)]
    assert report == IngestReport(rows_read=5, rows_skipped=3, samples=2, gaps_detected=0)


def test_load_csv_drops_non_advancing_timestamps(tmp_path):
    path = write_csv(tmp_path, "timestamp,value\n0,1\n1,2\n1,3\n0.5,4\n2,5\n")
    samples, report = load_csv(ReplaySpec("d", path))
    assert list(samples.timestamps) == [0.0, 1.0, 2.0]
    assert report.rows_skipped == 2


def test_load_csv_gap_detection(tmp_path):
    # Spacing must exceed 1.5x the expected period to count as a gap:
    # 1.5 exactly is fine, 1.6 is not.
    path = write_csv(tmp_path, "timestamp,value\n0,1\n1,1\n2.5,1\n4.1,1\n5.1,1\n")
    _, report = load_csv(ReplaySpec("d", path, expected_period=1.0))
    assert report.gaps_detected == 1
    _, report = load_csv(ReplaySpec("d", path))
    assert report.gaps_detected == 0  # no expected period, no gap tracking


def test_load_csv_value_column_selection(tmp_path):
    path = write_csv(tmp_path, "timestamp,temp_c,rh\n0,20.5,40\n1,20.7,41\n")
    samples, _ = load_csv(ReplaySpec("d", path, value_column="temp_c"))
    assert list(samples.values) == [20.5, 20.7]


def test_load_csv_custom_delimiter(tmp_path):
    path = write_csv(tmp_path, "timestamp;value\n0;1.5\n1;2.5\n")
    samples, _ = load_csv(ReplaySpec("d", path, delimiter=";"))
    assert len(samples) == 2
    path = write_csv(tmp_path, "timestamp\tvalue\n0\t1.5\n", name="tab.csv")
    samples, _ = load_csv(ReplaySpec("d", path, delimiter="\t"))
    assert samples.values[0] == 1.5


def test_load_csv_missing_file():
    with pytest.raises(FileNotFoundError):
        load_csv(ReplaySpec("d", "/nonexistent/nowhere.csv"))


def test_load_csv_empty_file(tmp_path):
    path = write_csv(tmp_path, "")
    with pytest.raises(ValueError, match="header"):
        load_csv(ReplaySpec("d", path))


def test_load_csv_missing_column(tmp_path):
    path = write_csv(tmp_path, "timestamp,value\n0,1\n")
    with pytest.raises(ValueError, match="temp_c"):
        load_csv(ReplaySpec("d", path, value_column="temp_c"))


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
@pytest.mark.parametrize(
    "bad, message",
    [
        (b"\xff", "'utf-8' codec can't decode byte 0xff in position 6: invalid start byte"),
        (b"9" * 131_073, "field larger than field limit (131072)"),
    ],
    ids=["not-utf-8", "oversized-field"],
)
def test_load_csv_names_the_line_it_cannot_read(tmp_path, newline, bad, message):
    # Line 1,502 of 2,001, past the first block the reader decodes, with
    # lines ending as the reader counts them.
    rows = [b"timestamp,value"] + [b"%d,1" % k for k in range(2000)]
    rows[1501] += bad
    path = tmp_path / "d.csv"
    path.write_bytes(newline.join(rows) + newline)
    with pytest.raises(ValueError) as excinfo:
        load_csv(ReplaySpec("d", str(path)))
    assert str(excinfo.value) == f"{path}: line 1502: {message}"


def test_replay_spec_validation():
    with pytest.raises(ValueError):
        ReplaySpec("", "x.csv")
    with pytest.raises(ValueError):
        ReplaySpec("d", "x.csv", delimiter=";;")
    with pytest.raises(ValueError):
        ReplaySpec("d", "x.csv", expected_period=0.0)
    for period in (-60.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and > 0"):
            ReplaySpec("d", "x.csv", expected_period=period)


def test_office_fixture_ingests_cleanly(office_csv_path):
    spec = ReplaySpec(
        "office",
        str(office_csv_path),
        value_column="temp_c",
        expected_period=60.0,  # one-minute cadence, timestamps in epoch seconds
    )
    samples, report = load_csv(spec)
    assert report == IngestReport(rows_read=5000, rows_skipped=0, samples=5000, gaps_detected=0)
    assert len(samples) == 5000
    times = samples.timestamps
    deltas = {round(b - a, 9) for a, b in zip(times, times[1:])}
    assert deltas == {60.0}
    values = samples.values
    assert 15.0 < min(values) and max(values) < 35.0  # plausible indoor range
