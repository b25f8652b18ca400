"""Topology construction and validation rules."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mistsim import topology as topology_module
from mistsim.topology import DEFAULT_LEVELS, Device, Link, Topology, validate
from oracles import quadratic_validate, scan_uplink_path


def reference_topology():
    """One cloud, one gateway, six sensors; the shipped scenario's shape."""
    devices = [
        Device("cloud", "cloud", 0, 10000.0, 10000.0, 10000.0),
        Device("gw", "gateway", 1, 1000.0, 1000.0, 1000.0),
    ]
    latencies = [4.0, 6.0, 8.0, 2.0, 3.0, 7.0]
    links = [Link("gw", "cloud", 50.0)]
    for i, latency in enumerate(latencies, start=1):
        devices.append(Device(f"S{i}", "sensor", 2))
        links.append(Link(f"S{i}", "gw", latency))
    return Topology(devices=devices, links=links)


def test_reference_topology_is_valid():
    assert validate(reference_topology()) == []


def test_default_levels_are_ordered():
    assert DEFAULT_LEVELS["cloud"] < DEFAULT_LEVELS["gateway"] < DEFAULT_LEVELS["sensor"]


def test_device_validation():
    with pytest.raises(ValueError):
        Device("", "cloud", 0)
    with pytest.raises(ValueError):
        Device("x", "router", 0)


def test_accessors():
    topo = reference_topology()
    assert [d.id for d in topo.sensors()] == ["S1", "S2", "S3", "S4", "S5", "S6"]
    assert [d.id for d in topo.by_kind("gateway")] == ["gw"]
    assert topo.cloud().id == "cloud"


def test_uplink_path():
    topo = reference_topology()
    first, second = topo.uplink_path("S4")
    assert (first.src, first.dst, first.latency_ms) == ("S4", "gw", 2.0)
    assert (second.src, second.dst, second.latency_ms) == ("gw", "cloud", 50.0)
    with pytest.raises(ValueError, match="not a sensor"):
        topo.uplink_path("gw")
    with pytest.raises(KeyError, match="nope"):
        topo.uplink_path("nope")
    # A damaged topology has no paths, not even for its intact sensors.
    topo.links.append(Link("S1", "gw", 9.0))
    with pytest.raises(ValueError, match="invalid topology: sensor 'S1' must have"):
        topo.uplink_path("S4")


def test_uplink_paths_in_declaration_order():
    topo = reference_topology()
    paths = topo.uplink_paths()
    assert list(paths) == ["S1", "S2", "S3", "S4", "S5", "S6"]
    first, gw_id, second = paths["S4"]
    assert (first.src, first.dst, first.latency_ms) == ("S4", "gw", 2.0)
    assert gw_id == "gw"
    assert (second.src, second.dst, second.latency_ms) == ("gw", "cloud", 50.0)


def test_paths_follow_in_place_edits():
    # Each call checks the lists as they stand: edits take effect.
    topo = reference_topology()
    assert topo.uplink_paths()["S1"][0].latency_ms == 4.0
    topo.links[1] = Link("gw", "S1", 9.0)
    topo.devices.append(Device("gw2", "gateway", 1))
    topo.links.append(Link("cloud", "gw2", 40.0))
    topo.links[2] = Link("S2", "gw2", 6.0)
    assert validate(topo) == []
    paths = topo.uplink_paths()
    assert paths["S1"][0] == Link("gw", "S1", 9.0)
    assert paths["S2"][1:] == ("gw2", Link("cloud", "gw2", 40.0))
    assert topo.uplink_path("S2") == [Link("S2", "gw2", 6.0), Link("cloud", "gw2", 40.0)]


def test_cloud_accessor_requires_exactly_one():
    topo = reference_topology()
    topo.devices = [d for d in topo.devices if d.kind != "cloud"]
    with pytest.raises(ValueError):
        topo.cloud()


# ------------------------------------------------------------ violations


def broken(mutate):
    topo = reference_topology()
    mutate(topo)
    return validate(topo)


def test_duplicate_device_id():
    out = broken(lambda t: t.devices.append(Device("S1", "sensor", 2)))
    assert any("duplicate device id 'S1'" in v for v in out)


def test_missing_cloud():
    def mutate(t):
        t.devices = [d for d in t.devices if d.kind != "cloud"]
        t.links = [l for l in t.links if "cloud" not in (l.src, l.dst)]

    out = broken(mutate)
    assert any("exactly one cloud" in v for v in out)


def test_two_clouds():
    out = broken(lambda t: t.devices.append(Device("cloud2", "cloud", 0)))
    assert any("exactly one cloud" in v for v in out)


def test_level_ordering_cloud_vs_gateway():
    def mutate(t):
        t.devices[0] = Device("cloud", "cloud", 5, 10000.0, 10000.0, 10000.0)

    out = broken(mutate)
    assert any("level ordering" in v for v in out)


def test_level_ordering_gateway_vs_sensor():
    def mutate(t):
        t.devices[1] = Device("gw", "gateway", 2, 1000.0, 1000.0, 1000.0)

    out = broken(mutate)
    assert any("level ordering" in v for v in out)


def test_negative_capacity():
    def mutate(t):
        t.devices[1] = Device("gw", "gateway", 1, -1.0, 1000.0, 1000.0)

    out = broken(mutate)
    assert any("uplink_kbps" in v for v in out)


def test_bad_latency():
    out = broken(lambda t: t.links.append(Link("S1", "gw", float("nan"))))
    assert any("latency" in v for v in out)


def test_unknown_endpoint():
    out = broken(lambda t: t.links.append(Link("ghost", "gw", 1.0)))
    assert any("unknown device 'ghost'" in v for v in out)


def test_self_loop():
    out = broken(lambda t: t.links.append(Link("gw", "gw", 1.0)))
    assert any("endpoints must differ" in v for v in out)


def test_sensor_cloud_link_is_rejected():
    out = broken(lambda t: t.links.append(Link("S1", "cloud", 1.0)))
    assert any("only sensor-gateway and gateway-cloud" in v for v in out)


def test_sensor_with_two_links():
    out = broken(lambda t: t.links.append(Link("S1", "gw", 9.0)))
    assert any("sensor 'S1' must have exactly one link, found 2" in v for v in out)


def test_sensor_with_no_link():
    def mutate(t):
        t.links = [l for l in t.links if l.src != "S2"]

    out = broken(mutate)
    assert any("sensor 'S2' must have exactly one link, found 0" in v for v in out)


def test_gateway_without_uplink():
    def mutate(t):
        t.links = [l for l in t.links if l.dst != "cloud"]

    out = broken(mutate)
    assert any("gateway 'gw' must have exactly one uplink" in v for v in out)


def test_gateway_with_two_uplinks():
    out = broken(lambda t: t.links.append(Link("gw", "cloud", 60.0)))
    assert any("found 2" in v for v in out)


def test_two_gateways_share_the_sensors():
    # A second gateway with its own uplink and half the sensors is fine.
    topo = reference_topology()
    topo.devices.append(Device("gw2", "gateway", 1))
    topo.links.append(Link("gw2", "cloud", 40.0))
    for i in (4, 5, 6):
        topo.links = [
            l if l.src != f"S{i}" else Link(f"S{i}", "gw2", l.latency_ms)
            for l in topo.links
        ]
    assert validate(topo) == []
    first, second = topo.uplink_path("S5")
    assert first.dst == "gw2"
    assert second.latency_ms == 40.0


def test_validation_is_order_independent():
    topo = reference_topology()
    topo.links.append(Link("S1", "cloud", 1.0))  # two violations at least
    topo.devices.append(Device("S1", "sensor", 2))
    expected = validate(topo)
    assert expected
    rng = random.Random(0)
    for _ in range(5):
        shuffled = Topology(devices=list(topo.devices), links=list(topo.links))
        rng.shuffle(shuffled.devices)
        rng.shuffle(shuffled.links)
        assert validate(shuffled) == expected


def test_duplicate_id_of_two_kinds_is_order_independent():
    # Found by hypothesis: the link's kind check used to see whichever
    # declaration of g0 came last, so one order reported a cloud-cloud link.
    devices = [Device("c", "cloud", 0), Device("g0", "gateway", 1), Device("g0", "cloud", 0)]
    links = [Link("c", "g0", 1.0)]
    forward = validate(Topology(devices=devices, links=links))
    assert forward == validate(Topology(devices=devices[::-1], links=links))
    assert "duplicate device id 'g0'" in forward
    assert not any("links are allowed" in v for v in forward)
    assert forward == quadratic_validate(Topology(devices=devices, links=links))


def test_violations_are_sorted():
    topo = reference_topology()
    topo.links.append(Link("S1", "gw", 1.0))
    topo.links.append(Link("S2", "gw", 1.0))
    out = validate(topo)
    assert out == sorted(out)


# ------------------------------------------------- differential properties

CAPACITIES = st.sampled_from([0.0, 1.0, 1e3, 1e3, 1e3, -1.0, float("nan"), float("inf")])
LATENCIES = st.sampled_from([0.0, 2.0, 2.0, 50.0, 50.0, -1.0, float("nan"), -float("inf")])
LEVELS = st.sampled_from([-1, 0, 1, 2, 3, float("nan")])


@st.composite
def valid_trees(draw):
    """One cloud, 1-4 gateways, 0-8 sensors; random links, directions and order."""
    gateways = [f"g{i}" for i in range(draw(st.integers(min_value=1, max_value=4)))]
    owner = {
        f"s{i}": draw(st.sampled_from(gateways))
        for i in range(draw(st.integers(min_value=0, max_value=8)))
    }
    devices = (
        [Device("c", "cloud", 0)]
        + [Device(gw, "gateway", 1) for gw in gateways]
        + [Device(sensor, "sensor", 2) for sensor in owner]
    )
    links = [Link(gw, "c", draw(st.sampled_from([0.0, 2.0, 50.0]))) for gw in gateways]
    links += [Link(s, gw, draw(st.sampled_from([0.0, 3.0, 4.0]))) for s, gw in owner.items()]
    links = [
        link if draw(st.booleans()) else Link(link.dst, link.src, link.latency_ms)
        for link in links
    ]
    return Topology(
        devices=list(draw(st.permutations(devices))), links=list(draw(st.permutations(links)))
    )


@st.composite
def random_topologies(draw):
    """A valid tree, then random damage of every kind ``validate`` reports."""
    topo = draw(valid_trees())
    devices, links = topo.devices, topo.links
    if draw(st.booleans()):
        # Many level-inverted pairs at once.
        devices[:] = [
            Device(d.id, d.kind, draw(LEVELS), d.uplink_kbps, d.downlink_kbps, d.ram_mb)
            for d in devices
        ]
    devices[:] = [
        Device(d.id, d.kind, d.level, draw(CAPACITIES), draw(CAPACITIES), draw(CAPACITIES))
        if draw(st.integers(0, 4)) == 0
        else d
        for d in devices
    ]
    links[:] = [
        Link(l.src, l.dst, draw(LATENCIES)) if draw(st.integers(0, 4)) == 0 else l
        for l in links
    ]
    ids = [d.id for d in devices] + ["ghost"]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        op = draw(st.sampled_from(["dup", "cloud", "uncloud", "drop", "link", "unlink"]))
        if op == "dup":
            # A duplicate id, of the same kind or another.
            kind = draw(st.sampled_from(["cloud", "gateway", "sensor"]))
            devices.append(Device(draw(st.sampled_from(ids[:-1])), kind, draw(LEVELS)))
        elif op == "cloud":
            devices.append(Device(f"c{len(devices)}", "cloud", draw(st.sampled_from([0, 1]))))
        elif op == "uncloud":
            devices[:] = [d for d in devices if d.kind != "cloud"]
        elif op == "drop" and devices:
            # Leaves its links dangling, or its sensors unreachable.
            del devices[draw(st.integers(0, len(devices) - 1))]
        elif op == "link":
            # Extra links: unknown endpoints, self-loops, sensor-cloud, doubles.
            src, dst = draw(st.sampled_from(ids)), draw(st.sampled_from(ids))
            links.append(Link(src, dst, draw(LATENCIES)))
        elif op == "unlink" and links:
            del links[draw(st.integers(0, len(links) - 1))]
    return topo


@given(topo=random_topologies(), shuffle_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=400, deadline=None)
def test_property_validate_matches_quadratic_oracle(topo, shuffle_seed):
    expected = quadratic_validate(topo)
    assert validate(topo) == expected
    if expected:
        with pytest.raises(ValueError, match="invalid topology"):
            topo.uplink_paths()
    else:
        assert list(topo.uplink_paths()) == [d.id for d in topo.devices if d.kind == "sensor"]
    rng = random.Random(shuffle_seed)
    shuffled = Topology(devices=list(topo.devices), links=list(topo.links))
    rng.shuffle(shuffled.devices)
    rng.shuffle(shuffled.links)
    assert validate(shuffled) == quadratic_validate(shuffled) == expected


@given(topo=valid_trees())
@settings(max_examples=200, deadline=None)
def test_property_uplink_paths_match_per_sensor_scan(topo):
    assert validate(topo) == []
    paths = topo.uplink_paths()
    sensor_ids = [d.id for d in topo.devices if d.kind == "sensor"]
    assert list(paths) == sensor_ids
    for sensor_id in sensor_ids:
        first, second = scan_uplink_path(topo, sensor_id)
        gw_id = first.dst if first.src == sensor_id else first.src
        assert paths[sensor_id] == (first, gw_id, second)
        assert topo.uplink_path(sensor_id) == [first, second]
