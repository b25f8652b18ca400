"""Three-tier device graph: sensors feed a gateway, gateways feed the cloud.

Only trees are supported.  Each sensor has exactly one link, to a gateway;
each gateway has exactly one uplink, to the single cloud.  Uplink/downlink
rates and RAM are carried as descriptive capacity figures and reported
as-is; the simulator does not model bandwidth saturation or memory.

Validation and path lookup are one pass: :func:`validate` and
:meth:`Topology.uplink_paths` each call the same check once, which indexes
the devices by id and the links by the devices they touch, so it costs time
linear in devices plus links, in any declaration order.  Nothing is cached:
each call checks ``devices`` and ``links`` as they stand.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from typing import NamedTuple, Optional, Sequence

KINDS = ("cloud", "gateway", "sensor")
_LINK_KINDS = (("gateway", "sensor"), ("cloud", "gateway"))  # sorted kind pairs

# Conventional level per kind; validation only requires the ordering
# cloud < gateway < sensor, not these exact numbers.
DEFAULT_LEVELS = {"cloud": 0, "gateway": 1, "sensor": 2}


def check_id(field: str, id: str) -> None:
    """Raise ``ValueError`` unless ``id`` can name a plot file, a CSV cell and
    a config section."""
    if not id:
        raise ValueError(f"{field} must be non-empty")
    if "/" in id or "\0" in id:
        raise ValueError(f"{field} {id!r} names files, so it must not contain '/' or NUL")
    if "," in id or '"' in id:
        raise ValueError(f"{field} {id!r} names CSV cells, so it must not contain ',' or '\"'")
    if id.split() != [id]:  # str.split() cuts at every str.isspace() character
        raise ValueError(f"{field} {id!r} names a config section, so it must not contain whitespace")


class TopologyError(ValueError):
    """A topology that is not a valid three-tier tree; the message lists
    every violation."""


class Device(namedtuple("Device", "id kind level uplink_kbps downlink_kbps ram_mb")):
    __slots__ = ()

    def __new__(
        cls,
        id: str,
        kind: str,
        level: int,
        uplink_kbps: float = 0.0,
        downlink_kbps: float = 0.0,
        ram_mb: float = 0.0,
    ) -> Device:
        check_id("device id", id)
        if "->" in id:
            raise ValueError(
                f"device id {id!r} names links, reported as '<src>-><dst>', so it must not contain '->'"
            )
        if kind not in KINDS:
            raise ValueError(f"device kind must be one of {KINDS}, got {kind!r}")
        return tuple.__new__(cls, (id, kind, level, uplink_kbps, downlink_kbps, ram_mb))


class Link(NamedTuple):
    """Undirected edge; ``latency_ms`` applies per message in either direction."""

    src: str
    dst: str
    latency_ms: float


class Topology:
    """Devices and links in declaration order (order matters for tie-breaks)."""

    __slots__ = ("devices", "links")

    def __init__(
        self, devices: Optional[list[Device]] = None, links: Optional[list[Link]] = None
    ) -> None:
        self.devices: list[Device] = [] if devices is None else devices
        self.links: list[Link] = [] if links is None else links

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.devices, self.links) == (other.devices, other.links)

    def __repr__(self) -> str:
        return f"Topology(devices={self.devices!r}, links={self.links!r})"

    def by_kind(self, kind: str) -> list[Device]:
        return [d for d in self.devices if d.kind == kind]

    def sensors(self) -> list[Device]:
        return self.by_kind("sensor")

    def cloud(self) -> Device:
        clouds = self.by_kind("cloud")
        if len(clouds) != 1:
            raise ValueError(f"expected exactly one cloud device, found {len(clouds)}")
        return clouds[0]

    def uplink_path(self, sensor_id: str) -> list[Link]:
        """Links from a sensor up to the cloud: sensor->gateway, gateway->cloud.

        Each call resolves every sensor's path (see :meth:`uplink_paths`).
        Raises ``KeyError`` for an unknown id and ``ValueError`` for an
        invalid topology or a device that is not a sensor.
        """
        paths = self.uplink_paths()
        if sensor_id not in paths:
            if any(d.id == sensor_id for d in self.devices):
                raise ValueError(f"{sensor_id!r} is not a sensor")
            raise KeyError(f"no device with id {sensor_id!r}")
        first, _, second = paths[sensor_id]
        return [first, second]

    def uplink_paths(self) -> dict[str, tuple[Link, str, Link]]:
        """Every sensor's path, in declaration order, from the validation pass.

        Maps each sensor id to ``(sensor->gateway link, gateway id,
        gateway->cloud link)``.  Raises :class:`TopologyError("invalid
        topology: ...") <TopologyError>` listing every violation
        :func:`validate` reports, if there is any.
        """
        violations, paths = _check(self)
        if violations:
            raise TopologyError("invalid topology: " + "; ".join(violations))
        return paths


def validate(topology: Topology) -> list[str]:
    """Return every violation found, as readable strings; empty means valid.

    Deterministic and order independent: shuffling declaration order yields
    the same (sorted) violation list.  A link touching a duplicate id gets
    no kind check, since the id has no single kind.  Time is linear in
    devices plus links, plus the level pairs visited when some level
    ordering is broken.
    """
    return _check(topology)[0]


def _check(topology: Topology) -> tuple[list[str], dict[str, tuple[Link, str, Link]]]:
    """The sorted violations and, when there are none, every sensor's path.

    Paths map each sensor id, in declaration order, to ``(sensor->gateway
    link, gateway id, gateway->cloud link)``; they are read from the link
    incidence and gateway uplinks the checks build, and are empty while any
    violation stands.
    """
    violations: list[str] = []
    devices = topology.devices
    by_id = {d.id: d for d in devices}

    dups = {dev_id for dev_id, count in Counter(d.id for d in devices).items() if count > 1}
    violations += [f"duplicate device id {dup!r}" for dup in dups]

    clouds = topology.by_kind("cloud")
    if len(clouds) != 1:
        violations.append(f"expected exactly one cloud device, found {len(clouds)}")

    gateways = topology.by_kind("gateway")
    sensors = topology.by_kind("sensor")
    violations += _level_violations(clouds, gateways)
    violations += _level_violations(gateways, sensors)

    for dev in devices:
        for name, value in (
            ("uplink_kbps", dev.uplink_kbps),
            ("downlink_kbps", dev.downlink_kbps),
            ("ram_mb", dev.ram_mb),
        ):
            if not math.isfinite(value) or value < 0:
                violations.append(f"device {dev.id!r}: {name} must be finite and >= 0")

    # Id -> the usable links touching it, in declaration order.
    incident: dict[str, list[Link]] = {}
    for link in topology.links:
        ok = True
        for end in (link.src, link.dst):
            if end not in by_id:
                violations.append(f"link {link.src!r}->{link.dst!r}: unknown device {end!r}")
                ok = False
        if link.src == link.dst:
            violations.append(f"link {link.src!r}->{link.dst!r}: endpoints must differ")
            ok = False
        if not math.isfinite(link.latency_ms) or link.latency_ms < 0:
            violations.append(
                f"link {link.src!r}->{link.dst!r}: latency must be finite and >= 0"
            )
            ok = False
        if not ok:
            continue
        # A duplicate id has no one kind to check; it is reported already.
        pair = tuple(sorted((by_id[link.src].kind, by_id[link.dst].kind)))
        if pair not in _LINK_KINDS and dups.isdisjoint((link.src, link.dst)):
            violations.append(
                f"link {link.src!r}->{link.dst!r}: only sensor-gateway and "
                f"gateway-cloud links are allowed, got {pair[0]}-{pair[1]}"
            )
        incident.setdefault(link.src, []).append(link)
        incident.setdefault(link.dst, []).append(link)

    for sensor in sensors:
        n_links = len(incident.get(sensor.id, []))
        if n_links != 1:
            violations.append(
                f"sensor {sensor.id!r} must have exactly one link, found {n_links}"
            )
    cloud_ids = {c.id for c in clouds}
    uplink_of: dict[str, Link] = {}
    for gw in gateways:
        uplinks = [
            l
            for l in incident.get(gw.id, [])
            if (l.src in cloud_ids or l.dst in cloud_ids)
        ]
        if len(uplinks) == 1:
            uplink_of[gw.id] = uplinks[0]
        else:
            violations.append(
                f"gateway {gw.id!r} must have exactly one uplink to the cloud, "
                f"found {len(uplinks)}"
            )

    # No separate tree check is needed.  With no violation so far, every link
    # joins a sensor to a gateway or a gateway to the one cloud, each sensor
    # has one link and each gateway one uplink: that is exactly a tree on
    # 1 + gateways + sensors distinct devices, all reachable from the cloud.
    if violations:
        return sorted(violations), {}
    paths: dict[str, tuple[Link, str, Link]] = {}
    for sensor in sensors:
        (first,) = incident[sensor.id]
        gw_id = first.dst if first.src == sensor.id else first.src
        paths[sensor.id] = (first, gw_id, uplink_of[gw_id])
    return [], paths


def _level_violations(lower: Sequence[Device], upper: Sequence[Device]) -> list[str]:
    """One message per (lower, upper) pair whose levels are not strictly ordered.

    The pairs are visited only when some pair may violate.  When every lower
    level is below the lowest upper level and the highest lower level is
    below every upper level, none does; a NaN level fails one of those tests.
    """
    if not lower or not upper:
        return []
    lowest = min(d.level for d in upper)
    highest = max(d.level for d in lower)
    if all(d.level < lowest for d in lower) and all(highest < d.level for d in upper):
        return []
    return [
        f"level ordering broken: {a.kind} {a.id!r} level {a.level} "
        f"must be below {b.kind} {b.id!r} level {b.level}"
        for a in lower
        for b in upper
        if not a.level < b.level
    ]
