"""From-scratch reference implementations used as test oracles.

Nothing here shares code with the package under test.  Everything is written
the slow, obvious way: the point is independent ground truth, not speed.
"""

from __future__ import annotations

import heapq
import math


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
