"""From-scratch reference implementations used as test oracles.

Nothing here shares code with the package under test.  Everything is written
the slow, obvious way: the point is independent ground truth, not speed.  The
exceptions: :func:`first_failure` is handed the package's loader, check
and measure functions, since what it pins is the order they run in, and
:func:`to_stream` and :func:`to_rows` convert between the package's stream
type and its rows.
"""

from __future__ import annotations

import configparser
import heapq
import json
import math
from array import array


def to_stream(rows):
    """``(timestamp, value)`` rows as a :class:`mistsim.mist_filter.Stream`."""
    from mistsim.mist_filter import Stream

    rows = list(rows)
    return Stream(array("d", [t for t, _ in rows]), array("d", [v for _, v in rows]))


def to_rows(stream):
    """A :class:`mistsim.mist_filter.Stream`'s samples as a list of ``Sample`` rows."""
    from mistsim.reference import Sample

    return list(map(Sample, stream.timestamps, stream.values))


def dead_band_flags(values, n, p):
    """Transmit flag per value, recomputing the window mean from scratch.

    The first n values always transmit.  Afterwards the mean of the previous
    n raw values (current excluded) is rebuilt by slicing and summing the
    input, chronologically, with no carried state.
    """
    flags = []
    for i, v in enumerate(values):
        if i < n:
            flags.append(True)
            continue
        avg = sum(values[i - n : i]) / n
        hi = avg + p * abs(avg)
        lo = avg - p * abs(avg)
        flags.append(v >= hi or v <= lo)
    return flags


def dead_band_reasons(values, n, p):
    """(flag, reason) per value: 'warmup', 'event' or 'suppressed'."""
    out = []
    for i, flag in enumerate(dead_band_flags(values, n, p)):
        if i < n:
            out.append((True, "warmup"))
        elif flag:
            out.append((True, "event"))
        else:
            out.append((False, "suppressed"))
    return out


def hold_last(times, sent_times, sent_values):
    """Zero-order hold by linear scan: latest sent value at or before t."""
    out = []
    for t in times:
        held = None
        for st, sv in zip(sent_times, sent_values):
            if st <= t:
                held = sv
            else:
                break
        if held is None:
            raise ValueError(f"nothing sent at or before {t!r}")
        out.append(held)
    return out


def splitmix64_stream(seed, count):
    """Independent splitmix64: one expression per line, no shared helpers."""
    mask = 2**64 - 1
    state = seed & mask
    outputs = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        outputs.append(z ^ (z >> 31))
    return outputs


def box_muller_normals(seed, count):
    """Independent normal draws following the documented recipe."""
    units = [((u >> 11) + 1) * 2.0**-53 for u in splitmix64_stream(seed, count + 1)]
    normals = []
    i = 0
    while len(normals) < count:
        u1, u2 = units[i], units[i + 1]
        i += 2
        r = math.sqrt(-2.0 * math.log(u1))
        normals.append(r * math.cos(2.0 * math.pi * u2))
        normals.append(r * math.sin(2.0 * math.pi * u2))
    return normals[:count]


def normal_samples(spec):
    """gen_normal one sample at a time: ``(k * period_ms, mean + stddev * z_k)``."""
    normals = box_muller_normals(spec.seed, spec.count)
    return [(k * spec.period_ms, spec.mean + spec.stddev * normals[k]) for k in range(spec.count)]


def normal_suppression_rate(mu, sd, n, p, steps=4000):
    """The share of judged values the dead band suppresses on an i.i.d.
    N(mu, sd) source, sd > 0, in closed form.

    The window mean ``A`` of the ``n`` values before the judged value ``X``
    is N(mu, sd^2 / n) and independent of ``X``, so the rate is
    ``E_A[Phi((A + p|A| - mu) / sd) - Phi((A - p|A| - mu) / sd)]``.  The
    expectation is a trapezoid rule over ``A = mu + z * sd / sqrt(n)``,
    ``z`` from -8 to 8.
    """

    def phi(z):
        return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

    def integrand(z):
        a = mu + z * sd / math.sqrt(n)
        band = p * abs(a)
        inside = phi((a + band - mu) / sd) - phi((a - band - mu) / sd)
        return inside * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    h = 16.0 / steps
    ends = 0.5 * (integrand(-8.0) + integrand(8.0))
    return h * (ends + sum(integrand(-8.0 + k * h) for k in range(1, steps)))


def heap_network(devices, links, emitted, size_bytes, duration_ms, energy_params):
    """The event-queue engine: every delivery pushed through a heap, one hop at a time.

    ``devices`` is ``(id, kind)`` pairs and ``links`` is ``(src, dst,
    latency_ms)`` triples, both in declaration order, forming a valid
    sensor -> gateway -> cloud tree.  ``emitted`` maps each sensor id, in
    declaration order, to the timestamps it transmits.  ``energy_params``
    maps a kind to ``(busy_w, idle_w, busy_ms_per_message)``.

    The queue orders by due time with FIFO tie-breaking by insertion;
    sensors emit in declaration order within a timestamp.  Link tallies
    accumulate one delivery at a time.
    """
    cloud_id = next(dev for dev, kind in devices if kind == "cloud")
    paths = {}
    for sensor_id in emitted:
        first = next(link for link in links if sensor_id in link[:2])
        gw_id = first[1] if first[0] == sensor_id else first[0]
        second = next(link for link in links if gw_id in link[:2] and cloud_id in link[:2])
        paths[sensor_id] = [(first, gw_id), (second, cloud_id)]

    usage = {f"{src}->{dst}": {"messages": 0, "bytes": 0, "byte_ms": 0.0} for src, dst, _ in links}
    device_messages = {dev: 0 for dev, _ in devices}

    emissions = []
    for decl_idx, sensor_id in enumerate(emitted):
        for emit_ms in emitted[sensor_id]:
            emissions.append((emit_ms, decl_idx, sensor_id))
    emissions.sort(key=lambda e: (e[0], e[1]))

    heap = []
    seq = 0
    for emit_ms, _, sensor_id in emissions:
        device_messages[sensor_id] += 1
        latency = paths[sensor_id][0][0][2]
        heapq.heappush(heap, (emit_ms + latency, seq, sensor_id, emit_ms, 0))
        seq += 1

    delivered = 0
    latencies = []
    trace = []
    while heap:
        due_ms, msg_seq, sensor_id, emit_ms, hop = heapq.heappop(heap)
        (src, dst, latency), device_id = paths[sensor_id][hop]
        tally = usage[f"{src}->{dst}"]
        tally["messages"] += 1
        tally["bytes"] += size_bytes
        tally["byte_ms"] += size_bytes * latency
        device_messages[device_id] += 1
        delivered += 1
        trace.append((due_ms, device_id, sensor_id, msg_seq))
        if hop == 0:
            next_latency = paths[sensor_id][1][0][2]
            heapq.heappush(heap, (due_ms + next_latency, seq, sensor_id, emit_ms, 1))
            seq += 1
        else:
            latencies.append(due_ms - emit_ms)

    energy_j = {}
    for dev, kind in devices:
        busy_w, idle_w, busy_ms_per_message = energy_params[kind]
        busy_ms = min(device_messages[dev] * busy_ms_per_message, duration_ms)
        energy_j[dev] = (busy_ms * busy_w + (duration_ms - busy_ms) * idle_w) / 1000.0

    return {
        "link_usage": usage,
        "device_messages": device_messages,
        "device_energy_j": energy_j,
        "total_byte_ms": sum(u["byte_ms"] for u in usage.values()),
        "messages_emitted": len(emissions),
        "messages_delivered": delivered,
        "latency_count": len(latencies),
        "latency_min_ms": min(latencies) if latencies else 0.0,
        "latency_max_ms": max(latencies) if latencies else 0.0,
        "latency_mean_ms": sum(latencies) / len(latencies) if latencies else 0.0,
        "trace": trace,
    }


def delivery_trace(topology, sent):
    """Every delivery as ``(time_ms, device_id, sensor_id, seq)``, in closed form.

    Gives :func:`heap_network`'s trace without a queue.  ``topology`` is
    anything with ``devices`` and ``links`` lists of the package's records,
    and ``sent`` maps each sensor, in declaration order, to the samples it
    transmitted.  Emissions take seq ``0..E-1`` in ``(emit_ms, declaration
    index)`` order; gateway arrivals forward in ``(due_ms, seq)`` order, the
    r-th taking seq ``E + r``; all deliveries then sort by ``(due_ms, seq)``.
    """
    cloud_id = next(d.id for d in topology.devices if d.kind == "cloud")
    paths = {}
    for sensor_id in sent:
        first, second = scan_uplink_path(topology, sensor_id)
        paths[sensor_id] = (first, first.dst if first.src == sensor_id else first.src, second)
    emissions = sorted(
        (sample.timestamp, decl_idx, sensor_id)
        for decl_idx, (sensor_id, samples) in enumerate(sent.items())
        for sample in samples
    )
    arrivals = sorted(
        (emit_ms + paths[sensor_id][0].latency_ms, seq, sensor_id)
        for seq, (emit_ms, _, sensor_id) in enumerate(emissions)
    )
    forwarded_from = len(arrivals)
    deliveries = [(due_ms, paths[s][1], s, seq) for due_ms, seq, s in arrivals]
    deliveries += [
        (due_ms + paths[s][2].latency_ms, cloud_id, s, forwarded_from + rank)
        for rank, (due_ms, _, s) in enumerate(arrivals)
    ]
    deliveries.sort(key=lambda d: (d[0], d[3]))
    return deliveries


def quadratic_validate(topology):
    """Tree validation as first written: ``ids.count`` per id, every level pair.

    ``topology`` is anything with ``devices`` and ``links`` lists of the
    package's ``Device`` and ``Link`` records; only their fields are read.
    Returns the sorted violation strings.
    """
    violations = []
    devices = topology.devices
    ids = [d.id for d in devices]
    by_id = {d.id: d for d in devices}

    def by_kind(kind):
        return [d for d in devices if d.kind == kind]

    for dup in sorted({i for i in ids if ids.count(i) > 1}):
        violations.append(f"duplicate device id {dup!r}")

    clouds = by_kind("cloud")
    if len(clouds) != 1:
        violations.append(f"expected exactly one cloud device, found {len(clouds)}")

    gateways = by_kind("gateway")
    sensors = by_kind("sensor")
    for cloud in clouds:
        for gw in gateways:
            if not cloud.level < gw.level:
                violations.append(
                    f"level ordering broken: cloud {cloud.id!r} level {cloud.level} "
                    f"must be below gateway {gw.id!r} level {gw.level}"
                )
    for gw in gateways:
        for sensor in sensors:
            if not gw.level < sensor.level:
                violations.append(
                    f"level ordering broken: gateway {gw.id!r} level {gw.level} "
                    f"must be below sensor {sensor.id!r} level {sensor.level}"
                )

    for dev in devices:
        for name, value in (
            ("uplink_kbps", dev.uplink_kbps),
            ("downlink_kbps", dev.downlink_kbps),
            ("ram_mb", dev.ram_mb),
        ):
            if not math.isfinite(value) or value < 0:
                violations.append(f"device {dev.id!r}: {name} must be finite and >= 0")

    usable_links = []
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
        if ok:
            usable_links.append(link)

    def kind_of(device_id):
        return by_id[device_id].kind

    duplicated = {i for i in ids if ids.count(i) > 1}
    for link in usable_links:
        # A duplicate id has no one kind; its links get no kind check.
        if link.src in duplicated or link.dst in duplicated:
            continue
        pair = tuple(sorted((kind_of(link.src), kind_of(link.dst))))
        if pair not in (("gateway", "sensor"), ("cloud", "gateway")):
            violations.append(
                f"link {link.src!r}->{link.dst!r}: only sensor-gateway and "
                f"gateway-cloud links are allowed, got {pair[0]}-{pair[1]}"
            )

    incident = {d.id: [] for d in devices}
    for link in usable_links:
        if link.src in incident and link.dst in incident:
            incident[link.src].append(link)
            incident[link.dst].append(link)

    for sensor in sensors:
        n_links = len(incident.get(sensor.id, []))
        if n_links != 1:
            violations.append(
                f"sensor {sensor.id!r} must have exactly one link, found {n_links}"
            )
    cloud_ids = {c.id for c in clouds}
    for gw in gateways:
        uplinks = [
            l
            for l in incident.get(gw.id, [])
            if (l.src in cloud_ids or l.dst in cloud_ids)
        ]
        if len(uplinks) != 1:
            violations.append(
                f"gateway {gw.id!r} must have exactly one uplink to the cloud, "
                f"found {len(uplinks)}"
            )

    # Tree check: connected from the cloud and edge count one below node count.
    if len(clouds) == 1 and not violations:
        seen = {clouds[0].id}
        frontier = [clouds[0].id]
        while frontier:
            current = frontier.pop()
            for link in incident[current]:
                peer = link.dst if link.src == current else link.src
                if peer not in seen:
                    seen.add(peer)
                    frontier.append(peer)
        for dev in devices:
            if dev.id not in seen:
                violations.append(f"device {dev.id!r} is not reachable from the cloud")
        if len(usable_links) != len(devices) - 1:
            violations.append(
                f"not a tree: {len(devices)} devices need {len(devices) - 1} links, "
                f"found {len(usable_links)}"
            )

    return sorted(violations)


def scan_uplink_path(topology, sensor_id):
    """``[sensor->gateway link, gateway->cloud link]`` by scanning every device and link."""
    sensor = next(d for d in topology.devices if d.id == sensor_id)
    assert sensor.kind == "sensor"
    first = [l for l in topology.links if sensor_id in (l.src, l.dst)]
    assert len(first) == 1
    gw_id = first[0].dst if first[0].src == sensor_id else first[0].src
    cloud_id = next(d.id for d in topology.devices if d.kind == "cloud")
    for link in topology.links:
        if gw_id in (link.src, link.dst) and cloud_id in (link.src, link.dst):
            return [first[0], link]
    raise AssertionError(f"gateway {gw_id!r} has no uplink to the cloud")


def loop_check_stream(sensor_id, samples, duration_ms):
    """The engine's stream check as first written: one loop, sample by sample.

    Raises ``ValueError`` for a NaN, infinite or negative timestamp, a
    non-finite value, or a timestamp that does not increase; otherwise
    returns the samples before ``duration_ms`` as a new list.
    """
    last = -math.inf
    kept = []
    for sample in samples:
        ts = sample.timestamp
        if not math.isfinite(ts) or ts < 0:
            raise ValueError(f"sensor {sensor_id!r}: timestamps must be finite and >= 0")
        if not math.isfinite(sample.value):
            raise ValueError(f"sensor {sensor_id!r}: non-finite value at timestamp {ts!r}")
        if ts <= last:
            raise ValueError(f"sensor {sensor_id!r}: timestamps must strictly increase")
        last = ts
        if ts < duration_ms:
            kept.append(sample)
    return kept


def first_failure(sources, load, check, measure, configs, label):
    """A command's exit code and stderr line when each source in turn is
    loaded, checked and measured, stopping at the first failure: ``(0, "")``
    when nothing fails.

    ``load(spec)`` loads a source, ``check(stream)`` checks it and
    ``measure(stream, configs)`` measures it, in declaration order.  A
    check or measuring error is prefixed with ``label`` and the source id.
    """
    try:
        for spec in sources:
            stream = load(spec)
            try:
                check(stream)
                measure(stream, configs)
            except ValueError as exc:
                raise ValueError(f"{label} {spec.device_id!r}: {exc}") from None
    except FileNotFoundError as exc:
        return 1, f"error: {exc}\n"
    except ValueError as exc:
        return 2, f"runtime error: {exc}\n"
    return 0, ""


def write_plot_csv(path, timestamps, values, flags):
    """Write a plot file one line at a time: for each sample, its timestamp
    and raw value at full precision, the value last transmitted (empty
    before the first transmission, and the raw value itself when nothing is
    ever transmitted) and its transmitted flag."""
    ever_sent = any(flags)
    held = ""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("timestamp,raw,reconstructed,transmitted_flag\n")
        for t, v, flag in zip(timestamps, values, flags):
            if flag:
                held = repr(v)
            reconstructed = held if ever_sent else repr(v)
            fh.write(f"{t!r},{v!r},{reconstructed},{1 if flag else 0}\n")


class NonFiniteFloat(ValueError):
    """A non-finite float in a report, with the keys that lead to it."""

    def __init__(self, value):
        super().__init__(value)
        self.value = value
        self.path = []

    def __str__(self):
        where = f" at {'.'.join(map(str, self.path))}" if self.path else ""
        return f"reports must not contain non-finite floats, got {self.value!r}{where}"


def round_floats(obj):
    """Copy ``obj`` with every float rounded to nine significant digits.

    Rounding happens in decimal ('%.9g') and the result is re-parsed, so the
    JSON encoder later prints the shortest representation of the rounded
    value.  Non-finite floats are rejected; the ``ValueError`` names the
    first one's dotted path, dict keys and list indices alike.
    """
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise NonFiniteFloat(obj)
        return float(format(obj, ".9g"))
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        return obj
    rounded = {}
    try:
        for key, value in items:
            rounded[key] = round_floats(value)
    except NonFiniteFloat as exc:
        exc.path.insert(0, key)
        raise
    return rounded if isinstance(obj, dict) else list(rounded.values())


REPORT_ENCODER = json.JSONEncoder(sort_keys=True, indent=2)


def report_text(report):
    """``report.json``'s text as first defined: round a copy, then the stdlib encoder."""
    return REPORT_ENCODER.encode(round_floats(report)) + "\n"


def ini_sections(text):
    """``[(section name, {key: value})]`` as the stdlib ``configparser`` reads
    ``text``, with the settings whose language ``mistsim.config`` reads (no
    interpolation, strict, case-sensitive keys), or None where it rejects it.
    Only meaningful for texts without a ``[DEFAULT]`` header, which
    ``mistsim.config`` rejects and ``configparser`` folds into every section."""
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error:
        return None
    return [(name, dict(parser[name])) for name in parser.sections()]
