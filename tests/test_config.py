"""Config parsing, resolution, overrides, and the serialize round trip."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mistsim.config import (
    _KEYS,
    MODES,
    ConfigError,
    Overrides,
    Scenario,
    _sections,
    load_config,
    parse_config,
    serialize_scenario,
)
from mistsim.mist_filter import FilterConfig
from mistsim.sources import ReplaySpec, SensorSpec
from mistsim.topology import KINDS, validate
from oracles import ini_sections

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_FORMAT_DOC = REPO_ROOT / "docs" / "config_format.md"

MINIMAL = "[run]\n"

SMALL = """\
[run]
seed = 7
duration_ms = 5000

[filter]
n = 4
p = 0.1

[device cloud]
kind = cloud

[device gw]
kind = gateway

[device s1]
kind = sensor

[link s1 gw]
latency_ms = 2

[link gw cloud]
latency_ms = 10

[source s1]
kind = normal
mean = 25
stddev = 4
period_ms = 1000
count = 5
"""


def test_minimal_defaults():
    sc = parse_config(MINIMAL)
    assert sc.seed == 42
    assert sc.message_size_bytes == 100
    assert sc.mode == "both"
    assert sc.grid == (FilterConfig(n=10, p=0.05),)
    assert sc.sources == ()
    assert sc.duration_ms is None
    assert sc.plot_data is None


def test_small_scenario_parses():
    sc = parse_config(SMALL)
    assert sc.seed == 7
    assert sc.duration_ms == 5000.0
    assert validate(sc.topology) == []
    assert sc.grid == (FilterConfig(n=4, p=0.1),)
    (src,) = sc.sources
    assert isinstance(src, SensorSpec)
    assert (src.mean, src.stddev, src.count) == (25.0, 4.0, 5)
    assert src.seed == 8  # derived: run seed 7 + 1-based source position


def test_source_seed_can_be_pinned():
    sc = parse_config(SMALL.replace("count = 5", "count = 5\nseed = 999"))
    assert sc.sources[0].seed == 999


def test_duration_derived_from_synthetic_sources():
    text = SMALL.replace("duration_ms = 5000\n", "")
    sc = parse_config(text)
    assert sc.duration_ms == 5000.0  # 5 samples x 1000 ms


def test_duration_not_derived_with_replay_source(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("timestamp,value\n0,1\n", encoding="utf-8")
    text = (
        "[run]\n\n[source d]\nkind = replay\nfile = " + str(csv) + "\n"
    )
    sc = parse_config(text)
    assert sc.duration_ms is None
    (src,) = sc.sources
    assert isinstance(src, ReplaySpec)
    assert src.value_column == "value"


def test_replay_source_full_keys():
    text = (
        "[run]\n\n[source d]\n"
        "kind = replay\n"
        "file = data.csv\n"
        "value_column = temp_c\n"
        "timestamp_column = ts\n"
        "delimiter = \\t\n"
        "expected_period = 60\n"
    )
    (src,) = parse_config(text).sources
    assert src.delimiter == "\t"
    assert src.timestamp_column == "ts"
    assert src.expected_period == 60.0


def test_filter_grid_sweep_is_n_major():
    text = "[run]\n\n[filter]\nn = 10, 50\np = 0.05, 0.1\n"
    sc = parse_config(text)
    assert sc.grid == (
        FilterConfig(10, 0.05),
        FilterConfig(10, 0.1),
        FilterConfig(50, 0.05),
        FilterConfig(50, 0.1),
    )
    assert parse_config("[run]\n").grid == (FilterConfig(10, 0.05),)


@given(
    n_values=st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=5, unique=True),
    p_values=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=5, unique=True),
    sep=st.sampled_from([",", ", ", " , "]),
)
@settings(max_examples=200, deadline=None)
def test_property_flags_and_filter_section_parse_alike(n_values, p_values, sep):
    # The same list text, given as --n/--p or as [filter] keys, resolves to
    # one scenario whose grid is the n-major product; its echo parses back
    # to the same scenario.
    n_text = sep.join(map(str, n_values))
    p_text = sep.join(map(repr, p_values))
    from_flags = parse_config(SMALL, overrides=Overrides(n_text=n_text, p_text=p_text))
    from_file = parse_config(SMALL.replace("n = 4\np = 0.1\n", f"n = {n_text}\np = {p_text}\n"))
    assert from_flags == from_file
    assert (from_file.n_values, from_file.p_values) == (tuple(n_values), tuple(p_values))
    assert from_file.grid == tuple(FilterConfig(n, p) for n in n_values for p in p_values)
    assert parse_config(serialize_scenario(from_file)) == from_file


# ------------------------------------------------------------ rejections


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "at least a [run] section"),
        ("[DEFAULT]\nx = 1\n\n[run]\n", "[DEFAULT]"),
        # An empty [DEFAULT] too.
        (
            "[DEFAULT]\n\n[run]\nseed = 3\n",
            "<config>: line 1: a [DEFAULT] section is not supported",
        ),
        ("[run]\n\n[DEFAULT]\n", "<config>: line 3: a [DEFAULT] section is not supported"),
        ("[mystery]\n", "unknown section"),
        ("[run]\nspeed = 9\n", "unknown keys"),
        ("[run]\nseed = -1\n", "64 bits"),
        ("[run]\nseed = 18446744073709551616\n", "64 bits"),
        ("[run]\nseed = abc\n", "integer"),
        ("[run]\nduration_ms = 0\n", "> 0"),
        ("[run]\nduration_ms = -5\n", "> 0"),
        ("[run]\nduration_ms = nan\n", "finite and > 0"),
        ("[run]\nduration_ms = inf\n", "finite and > 0"),
        # Derived duration_ms = 2 * 1e308 overflows to inf; the last timestamp,
        # 1 * 1e308, is finite.
        ("[run]\n\n[source s]\nkind = normal\nperiod_ms = 1e308\ncount = 2\n", "derived duration_ms"),
        # The last timestamp 2 * 1e308 overflows, so the source itself is rejected.
        (
            "[run]\nduration_ms = 1000\n\n[source s]\nkind = normal\nperiod_ms = 1e308\ncount = 3\n",
            "[source s]: the last timestamp (count - 1) * period_ms must be finite, got inf",
        ),
        ("[run]\nmessage_size_bytes = 0\n", ">= 1"),
        ("[run]\nmessage_size_bytes = 1" + "0" * 400 + "\n", ">= 1 and below 2**1024"),
        (f"[run]\nmessage_size_bytes = {2**1024 - 2**970}\n", ">= 1 and below 2**1024"),
        ("[run]\nmode = sideways\n", "mode"),
        ("[run]\nplot_data = maybe\n", "boolean"),
        ("[run]\n\n[filter]\nq = 1\n", "unknown keys"),
        ("[run]\n\n[filter]\nn = ,\n", "at least one value"),
        ("[run]\n\n[filter]\nn = x\n", "comma-separated"),
        ("[run]\n\n[filter]\nn = 0\n", ">= 1"),
        ("[run]\n\n[filter]\np = -0.5\n", ">= 0"),
        ("[run]\n\n[filter]\nn = 10,50,10\n", "n values must be distinct; 10 repeats"),
        ("[run]\n\n[filter]\np = 0.1,0.1\n", "p values must be distinct; 0.1 repeats"),
        ("[run]\n\n[filter]\np = 0.0,-0.0\n", "p values must be distinct; -0.0 repeats"),
        ("[run]\n\n[energy]\nwarp_w = 1\n", "unknown keys"),
        ("[run]\n\n[energy]\ncloud_busy_w = 1\n", "cloud"),  # busy < default idle
        ("[run]\n\n[device d]\nkind = blimp\n", "kind"),
        ("[run]\n\n[device d]\nkind = sensor\ncolour = red\n", "unknown keys"),
        ("[run]\n\n[link a b]\n", "latency_ms is required"),
        ("[run]\n\n[link a]\nlatency_ms = 1\n", "unknown section"),
        ("[run]\n\n[source s]\nkind = magic\n", "'normal' or 'replay'"),
        ("[run]\n\n[source s]\nkind = replay\n", "file is required"),
        ("[run]\n\n[source s]\nkind = normal\nshape = 2\n", "unknown keys"),
        ("[run]\n\n[source s]\nkind = normal\nstddev = -1\n", "stddev"),
        ("[run]\n\n[source s]\nkind = normal\n\n[source s]\nkind = normal\n", ""),
        ("[run]\nseed = 1\n\n[run]\nseed = 2\n", ""),  # duplicate section
        ("[run]\nseed = 1\nseed : 2\n", "<config>: line 3: duplicate key 'seed' in [run]"),
        (
            "# scenario\nseed = 1\n[run]\n",
            "<config>: line 2: 'seed = 1' comes before the first [section] header",
        ),
        (
            "[run]\nseed\n",
            "<config>: line 2: expected 'key = value' or 'key: value', got 'seed'",
        ),
        ("[run]\n = 5\n", "<config>: line 2: empty key in '= 5'"),
        ("[]\n", "<config>: line 1: '[]' comes before the first [section] header"),
    ],
)
def test_bad_configs_raise(text, fragment):
    with pytest.raises(ConfigError, match=None) as exc:
        parse_config(text)
    assert fragment in str(exc.value)


@pytest.mark.parametrize(
    "text,message",
    [
        ("[DEFAULT]\nx = 1\n\n[run]\n", "line 1: a [DEFAULT] section is not supported"),
        (
            "[run]\n\n[source s]\nkind = normal\n\n[source s]\nkind = normal\n",
            "line 6: duplicate section [source s]",
        ),
        ("[run]\nseed = 1\n\n[run]\nseed = 2\n", "line 4: duplicate section [run]"),
    ],
)
def test_reader_errors_name_the_file_and_line(text, message):
    # The whole message, for the cases above whose fragment matches loosely.
    with pytest.raises(ConfigError) as exc:
        parse_config(text, origin="my.cfg")
    assert str(exc.value) == f"my.cfg: {message}"


def test_value_errors_name_their_section_once():
    # A key that does not parse is named after one "<origin>: [<section>]: ".
    cases = {
        "[device d]\nkind = sensor\nram_mb = x\n": "[device d]: ram_mb must be a number, got 'x'",
        "[source s]\nkind = normal\ncount = 1.5\n": "[source s]: count must be an integer, got '1.5'",
        "[source s]\nkind = replay\nfile = f.csv\nexpected_period = x\n": (
            "[source s]: expected_period must be a number, got 'x'"
        ),
    }
    for section, message in cases.items():
        with pytest.raises(ConfigError) as exc:
            parse_config("[run]\n\n" + section, origin="my.cfg")
        assert str(exc.value) == f"my.cfg: {message}"


@pytest.mark.parametrize(
    "line,message",
    [
        ("ram_mb = -1", "[device d]: ram_mb must be finite and >= 0, got -1.0"),
        ("uplink_kbps = inf", "[device d]: uplink_kbps must be finite and >= 0, got inf"),
        ("downlink_kbps = nan", "[device d]: downlink_kbps must be finite and >= 0, got nan"),
    ],
)
def test_device_capacities_must_be_finite_and_non_negative(line, message):
    with pytest.raises(ConfigError) as exc:
        parse_config(f"[run]\n\n[device d]\nkind = sensor\n{line}\n", origin="my.cfg")
    assert str(exc.value) == f"my.cfg: {message}"


def test_link_latency_must_be_finite_and_non_negative():
    with pytest.raises(ConfigError) as exc:
        parse_config("[run]\n\n[link a b]\nlatency_ms = -5\n", origin="my.cfg")
    assert str(exc.value) == "my.cfg: [link a b]: latency_ms must be finite and >= 0, got -5.0"


def test_mode_flag_error_names_the_flag():
    # As for --seed, --n and --p: the file's [run] section is not blamed.
    with pytest.raises(ConfigError) as exc:
        parse_config(SMALL, origin="my.cfg", overrides=Overrides(mode="sideways"))
    assert str(exc.value) == f"--mode: mode must be one of {MODES}, got 'sideways'"


def test_errors_name_the_origin():
    with pytest.raises(ConfigError, match="myfile.cfg"):
        parse_config("[run]\nspeed = 9\n", origin="myfile.cfg")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.cfg")


# ------------------------------------------------------------- the reader

# Lines of the INI language, its edge cases included: "[a]b]" names "a]b",
# "[]" is no header, the first "=" or ":" splits a key line, a whitespace
# line inside a value is kept as a blank line.  Indents and line ends use
# whitespace that str.splitlines would take for a line break.
_INI_LINES = st.sampled_from(
    ["[a]", "[b]", "[a]b]", "[]", "[a] tail", "[ b ]", "[=]"]
    + ["k = v", "k: v", "k : v = w", "j = 1", "j=", "= 5", ": 5", "k", "v w"]
    + ["# note", "; note", ""]
)
_INI_SPACE = st.sampled_from(
    ["", "", "", " ", "  ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
)


@st.composite
def _ini_texts(draw) -> str:
    lines = draw(st.lists(st.tuples(_INI_SPACE, _INI_LINES, _INI_SPACE), max_size=12))
    head = draw(st.sampled_from(["", "[a]\n", "[b]\n"]))
    return head + "\n".join(indent + line + end for indent, line, end in lines)


def _in_order(sections):
    return None if sections is None else [(name, list(raw.items())) for name, raw in sections]


@given(text=_ini_texts())
@settings(max_examples=1000, deadline=None)
def test_property_reader_matches_configparser(text):
    # Without [DEFAULT], the reader accepts exactly what configparser accepts,
    # and reads the same sections, keys and values, in the same order.
    try:
        got = _sections(text, "<t>").items()
    except ConfigError:
        got = None
    assert _in_order(got) == _in_order(ini_sections(text))


def test_reader_keeps_continuations_and_blank_lines():
    text = "[a]\n  k = one\n\n   # note\n \n     two\n  j: \n \t x = y\n\n"
    expected = {"k": "one\n\n\ntwo", "j": "\nx = y"}
    assert _sections(text, "<t>") == {"a": expected}
    assert ini_sections(text) == [("a", expected)]


def test_importing_the_cli_leaves_configparser_unloaded():
    path = [str(REPO_ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    code = "import sys, mistsim.cli; print('configparser' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "False\n"


# ------------------------------------------------------------- overrides


def test_overrides_take_precedence():
    ov = Overrides(seed=100, n_text="3", p_text="0.2", mode="cloud_only")
    sc = parse_config(SMALL, overrides=ov)
    assert sc.seed == 100
    assert sc.grid == (FilterConfig(3, 0.2),)
    assert sc.mode == "cloud_only"
    # Derived source seeds follow the overriding run seed.
    assert sc.sources[0].seed == 101


def test_plot_data_default_only_fills_gap():
    sc = parse_config(MINIMAL, overrides=Overrides(plot_data_default=True))
    assert sc.plot_data is True
    sc = parse_config("[run]\nplot_data = false\n", overrides=Overrides(plot_data_default=True))
    assert sc.plot_data is False


def test_replace_sources_override():
    spec = ReplaySpec("probe", "x.csv")
    sc = parse_config(SMALL, overrides=Overrides(replace_sources=(spec,)))
    assert sc.sources == (spec,)


# ------------------------------------------------------------ round trip


def test_serialize_parse_fixpoint_small():
    sc = parse_config(SMALL)
    text = serialize_scenario(sc)
    again = parse_config(text)
    assert again == sc
    assert serialize_scenario(again) == text


def test_serialize_parse_fixpoint_table2(table2_cfg_path):
    sc = load_config(table2_cfg_path)
    text = serialize_scenario(sc)
    again = parse_config(text)
    assert again == sc
    assert serialize_scenario(again) == text


def test_table2_scenario_contents(table2_cfg_path):
    sc = load_config(table2_cfg_path)
    assert sc.seed == 42
    assert sc.duration_ms == 10_000_000.0
    assert sc.message_size_bytes == 100
    assert sc.mode == "both"
    assert sc.grid == (FilterConfig(10, 0.05),)
    assert validate(sc.topology) == []
    assert [d.id for d in sc.topology.sensors()] == ["S1", "S2", "S3", "S4", "S5", "S6"]
    latencies = {(l.src, l.dst): l.latency_ms for l in sc.topology.links}
    assert latencies[("S1", "gw")] == 4.0
    assert latencies[("gw", "cloud")] == 50.0
    assert [s.seed for s in sc.sources] == [43, 44, 45, 46, 47, 48]
    assert [(s.mean, s.stddev) for s in sc.sources] == [
        (25.0, 4.0),
        (29.0, 8.0),
        (24.0, 2.0),
        (20.0, 6.0),
        (28.0, 1.0),
        (22.0, 6.0),
    ]


def test_serialized_floats_survive_reparse():
    text = "[run]\nduration_ms = 0.30000000000000004\n\n[filter]\np = 0.1,0.2\n"
    sc = parse_config(text)
    assert sc.duration_ms == 0.30000000000000004
    again = parse_config(serialize_scenario(sc))
    assert again.duration_ms == sc.duration_ms
    assert again.grid == sc.grid


def test_energy_overrides_apply():
    text = "[run]\n\n[energy]\nsensor_busy_w = 2.5\nsensor_idle_w = 0.5\n"
    sc = parse_config(text)
    params = sc.energy.for_kind("sensor")
    assert (params.busy_w, params.idle_w) == (2.5, 0.5)
    # Untouched kinds keep their defaults.
    assert sc.energy.for_kind("cloud").busy_w == 107.339


def test_scenario_equality_is_field_wise():
    assert parse_config(SMALL) == parse_config(SMALL)
    assert parse_config(SMALL) != parse_config(SMALL.replace("seed = 7", "seed = 8"))
    assert isinstance(parse_config(SMALL), Scenario)


# ------------------------------------------------- every key, both directions

_WORDS = st.text(alphabet="abcdefghijklmnopqrstuvwxyzAZ0123456789_.-/", min_size=1, max_size=6)
_IDS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_.-", min_size=1, max_size=6)
_NON_NEGATIVE = st.floats(min_value=0.0, max_value=1e300)
_POSITIVE = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)
_U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


def _comma_list(elements):
    return st.lists(elements, min_size=1, max_size=4, unique=True).map(
        lambda values: ",".join(map(repr, values))
    )


def _optional_keys(draw, strategies: dict) -> list[str]:
    """``key = value`` lines for a drawn subset of ``strategies``; floats as repr."""
    lines = []
    for key, strategy in strategies.items():
        value = draw(st.none() | strategy)
        if value is not None:
            lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
    return lines


@st.composite
def _config_texts(draw) -> str:
    """Config text that sets a drawn subset of every key of every section kind."""
    sections = [["[run]"] + _optional_keys(draw, {
        "seed": _U64,
        "duration_ms": _POSITIVE,
        "message_size_bytes": st.integers(min_value=1, max_value=10**6),
        "mode": st.sampled_from(MODES),
        "plot_data": st.sampled_from(["true", "false", "yes", "off", "1", "0", "TRUE"]),
    })]
    sections.append(["[filter]"] + _optional_keys(draw, {
        "n": _comma_list(st.integers(1, 10**6)),
        "p": _comma_list(st.floats(0.0, 1e6)),
    }))
    energy = ["[energy]"]
    for kind in draw(st.lists(st.sampled_from(KINDS), unique=True)):
        idle, busy = sorted(draw(st.lists(_NON_NEGATIVE, min_size=2, max_size=2)))
        energy += [
            f"{kind}_busy_w = {busy!r}",
            f"{kind}_idle_w = {idle!r}",
            f"{kind}_busy_ms_per_message = {draw(_NON_NEGATIVE)!r}",
        ]
    sections.append(energy)
    for device_id in draw(st.lists(_IDS, max_size=4, unique=True)):
        kind = draw(st.sampled_from(KINDS))
        sections.append([f"[device {device_id}]", f"kind = {kind}"] + _optional_keys(draw, {
            "level": st.integers(-5, 5),
            "uplink_kbps": _NON_NEGATIVE,
            "downlink_kbps": _NON_NEGATIVE,
            "ram_mb": _NON_NEGATIVE,
        }))
    for src, dst in draw(st.lists(st.tuples(_IDS, _IDS), max_size=3, unique=True)):
        sections.append([f"[link {src} {dst}]", f"latency_ms = {draw(_NON_NEGATIVE)!r}"])
    for device_id in draw(st.lists(_IDS, max_size=4, unique=True)):
        if draw(st.booleans()):
            lines = ["kind = normal"] + _optional_keys(draw, {
                "mean": st.floats(allow_nan=False, allow_infinity=False),
                "stddev": st.floats(min_value=0.0, max_value=1e6),
                "period_ms": st.floats(min_value=0.0, max_value=1e6, exclude_min=True),
                "count": st.integers(0, 1000),
                "seed": _U64,
            })
        else:
            lines = ["kind = replay", f"file = {draw(_WORDS)}"] + _optional_keys(draw, {
                "value_column": _WORDS,
                "timestamp_column": _WORDS,
                "delimiter": st.sampled_from([",", ";", "|", "\\t"]),
                "expected_period": _POSITIVE,
            })
        sections.append([f"[source {device_id}]"] + lines)
    return "\n\n".join("\n".join(lines) for lines in sections) + "\n"


@given(text=_config_texts(), plot_data_default=st.sampled_from([None, True, False]))
@settings(max_examples=300, deadline=None)
def test_property_every_key_round_trips(text, plot_data_default):
    # resolved.cfg is a fixed point: whatever a file sets or leaves to its
    # default, its echo parses back to the same scenario and echoes the same text.
    sc = parse_config(text, overrides=Overrides(plot_data_default=plot_data_default))
    echo = serialize_scenario(sc)
    again = parse_config(echo)
    assert again == sc
    assert serialize_scenario(again) == echo


def _documented_key_tables() -> dict[str, list[str]]:
    """The first column of each key table in docs/config_format.md, by the
    section kind its heading (or, under [source], its ``kind = ...`` line) names."""
    tables: dict[str, list[str]] = {}
    name = None
    for line in CONFIG_FORMAT_DOC.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            name = line[4:].split()[0].rstrip("]") if line.startswith("## [") else None
        elif name and line.startswith("`kind = "):
            name = line.split("`")[1].removeprefix("kind = ")
        elif name and line.startswith("| `"):
            tables.setdefault(name, []).append(line.split("`")[1])
    return tables


def test_docs_key_tables_match_the_key_table():
    expected = {kind: list(keys) for kind, keys in _KEYS.items()}
    # [energy] documents its <kind>_<field> keys by field.
    expected["energy"] = list(dict.fromkeys(key.split("_", 1)[1] for key in _KEYS["energy"]))
    assert _documented_key_tables() == expected
