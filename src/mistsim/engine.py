"""Deterministic simulation of the sensor-to-cloud path, in closed form.

Two modes share one pipeline.  ``cloud_only`` forwards every raw sample to
the cloud; ``mist_fog_cloud`` runs the dead-band filter on each sensor first
and forwards only what it transmits.  Messages hop sensor -> gateway -> cloud
and each hop arrives exactly ``link.latency_ms`` after it was sent.

The topology is a two-hop tree, latency is fixed per link, no bandwidth or
contention is modelled, and the gateway forwards every message unchanged.
Every metric therefore follows from each sensor's transmitted count and its
two link latencies, and is computed in closed form per sensor; no message is
ever queued.  The delivery trace is derived only on request, in the
``(time_ms, device_id, sensor_id, seq)`` form and order of a time-ordered
event queue with FIFO tie-breaking by insertion, where sensors emit in
topology declaration order within a timestamp.  A run is fully determined by
its inputs.

Time is in milliseconds throughout.  Energy integrates an affine two-state
model per device: ``busy_ms = messages * busy_ms_per_message`` (clamped to
the run duration) at ``busy_w``, the rest of the duration at ``idle_w``,
reported in joules.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

from .mist_filter import FilterConfig, Sample
from .reconstruction import ErrorReport, TransmissionLog, measure_stream
# Unused here; perfbench/tracing.py wraps these names on this module.
from .reconstruction import build_log, error_report, reconstruct_zoh  # noqa: F401
from .topology import Link, Topology, validate


class Mode(str, Enum):
    CLOUD_ONLY = "cloud_only"
    MIST_FOG_CLOUD = "mist_fog_cloud"


@dataclass(frozen=True)
class EnergyParams:
    """Affine power model for one device kind."""

    busy_w: float
    idle_w: float
    busy_ms_per_message: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.busy_w) and math.isfinite(self.idle_w)):
            raise ValueError("power figures must be finite")
        if not self.busy_w >= self.idle_w >= 0:
            raise ValueError(
                f"need busy_w >= idle_w >= 0, got busy={self.busy_w!r} idle={self.idle_w!r}"
            )
        if not math.isfinite(self.busy_ms_per_message) or self.busy_ms_per_message < 0:
            raise ValueError("busy_ms_per_message must be finite and >= 0")


# Conventional defaults, freely overridable in the config: a cloud host at
# 107.339 W busy / 83.433 W idle, a gateway at half that, a sensor node far
# below either.
DEFAULT_ENERGY_PARAMS = {
    "cloud": EnergyParams(busy_w=107.339, idle_w=83.433, busy_ms_per_message=1.0),
    "gateway": EnergyParams(busy_w=53.6695, idle_w=41.7165, busy_ms_per_message=1.0),
    "sensor": EnergyParams(busy_w=0.5, idle_w=0.1, busy_ms_per_message=1.0),
}


@dataclass(frozen=True)
class EnergyModel:
    """Per-kind energy parameters."""

    params: Mapping[str, EnergyParams] = field(
        default_factory=lambda: dict(DEFAULT_ENERGY_PARAMS)
    )

    def for_kind(self, kind: str) -> EnergyParams:
        try:
            return self.params[kind]
        except KeyError:
            raise ValueError(f"no energy parameters for device kind {kind!r}") from None


def account_energy(
    messages_handled: int, params: EnergyParams, duration_ms: float
) -> tuple[float, float]:
    """Busy time and energy for one device over a run.

    Busy time is ``messages_handled * busy_ms_per_message`` clamped to the
    run duration; the remainder of the duration idles.  Returns
    ``(busy_ms, energy_joules)`` with energy computed as
    ``(busy_ms * busy_w + idle_ms * idle_w) / 1000``.
    """
    if messages_handled < 0:
        raise ValueError("messages_handled must be >= 0")
    if not math.isfinite(duration_ms) or duration_ms < 0:
        raise ValueError("duration_ms must be finite and >= 0")
    busy_ms = min(messages_handled * params.busy_ms_per_message, duration_ms)
    idle_ms = duration_ms - busy_ms
    energy_j = (busy_ms * params.busy_w + idle_ms * params.idle_w) / 1000.0
    return busy_ms, energy_j


@dataclass
class RunMetrics:
    """Everything one run measured.  ``to_dict`` is the stable serial form."""

    mode: str
    seed: int
    duration_ms: float
    message_size_bytes: int
    topology_fp: str
    sources_fp: str
    sensor_reports: dict[str, ErrorReport]
    logs: dict[str, TransmissionLog]
    flags: dict[str, bytearray]
    link_usage: dict[str, dict]
    device_messages: dict[str, int]
    device_busy_ms: dict[str, float]
    device_energy_j: dict[str, float]
    total_bytes: int
    total_byte_ms: float
    messages_emitted: int
    messages_delivered: int
    latency_count: int
    latency_min_ms: float
    latency_max_ms: float
    latency_mean_ms: float
    cloud_id: str

    def to_dict(self) -> dict:
        """Plain nested dict; transmission logs appear as digests only."""
        sensors = {
            sensor_id: {**report.to_dict(), "log_digest": _log_digest(self.logs[sensor_id])}
            for sensor_id, report in self.sensor_reports.items()
        }
        return {
            "mode": self.mode,
            "seed": self.seed,
            "duration_ms": self.duration_ms,
            "message_size_bytes": self.message_size_bytes,
            "topology_fp": self.topology_fp,
            "sources_fp": self.sources_fp,
            "sensors": sensors,
            "links": {k: dict(v) for k, v in self.link_usage.items()},
            "devices": {
                dev: {
                    "messages": self.device_messages[dev],
                    "busy_ms": self.device_busy_ms[dev],
                    "energy_j": self.device_energy_j[dev],
                }
                for dev in self.device_messages
            },
            "network": {
                "total_bytes": self.total_bytes,
                "total_byte_ms": self.total_byte_ms,
                "messages_emitted": self.messages_emitted,
                "messages_delivered": self.messages_delivered,
            },
            "latency_ms": {
                "count": self.latency_count,
                "min": self.latency_min_ms,
                "max": self.latency_max_ms,
                "mean": self.latency_mean_ms,
            },
        }


def _log_digest(log: TransmissionLog) -> str:
    h = hashlib.sha256()
    h.update(struct.pack("<q", log.total_count))
    for entry in log.entries:
        h.update(struct.pack("<dd", entry.timestamp, entry.value))
    return h.hexdigest()


def _topology_fp(topology: Topology) -> str:
    h = hashlib.sha256()
    for dev in topology.devices:
        h.update(
            f"device|{dev.id}|{dev.kind}|{dev.level}|{dev.uplink_kbps!r}|"
            f"{dev.downlink_kbps!r}|{dev.ram_mb!r}\n".encode()
        )
    for link in topology.links:
        h.update(f"link|{link.src}|{link.dst}|{link.latency_ms!r}\n".encode())
    return h.hexdigest()


def _sources_fp(streams: Mapping[str, Sequence[Sample]], order: Iterable[str]) -> str:
    h = hashlib.sha256()
    for sensor_id in order:
        h.update(sensor_id.encode())
        h.update(b"\x00")
        for sample in streams[sensor_id]:
            h.update(struct.pack("<dd", sample.timestamp, sample.value))
    return h.hexdigest()


def _check_stream(sensor_id: str, samples: Sequence[Sample], duration_ms: float) -> list[Sample]:
    last: Optional[float] = None
    kept: list[Sample] = []
    for sample in samples:
        ts = sample.timestamp
        if not math.isfinite(ts) or ts < 0:
            raise ValueError(f"sensor {sensor_id!r}: timestamps must be finite and >= 0")
        if not math.isfinite(sample.value):
            raise ValueError(f"sensor {sensor_id!r}: non-finite value at timestamp {ts!r}")
        if last is not None and ts <= last:
            raise ValueError(f"sensor {sensor_id!r}: timestamps must strictly increase")
        last = ts
        if ts < duration_ms:
            kept.append(sample)
    return kept


def _delivery_trace(
    logs: Mapping[str, TransmissionLog],
    paths: Mapping[str, tuple[Link, str, Link]],
    cloud_id: str,
) -> list[tuple[float, str, str, int]]:
    """Every delivery as ``(time_ms, device_id, sensor_id, seq)``, in order.

    Reproduces a time-ordered event queue exactly.  Emissions take seq
    ``0..E-1`` in ``(emit_ms, declaration index)`` order; gateway arrivals
    forward in ``(due_ms, seq)`` order, the r-th taking seq ``E + r``; all
    deliveries then sort by ``(due_ms, seq)``.  ``logs`` is in declaration
    order.
    """
    emissions = sorted(
        (entry.timestamp, decl_idx, sensor_id)
        for decl_idx, sensor_id in enumerate(logs)
        for entry in logs[sensor_id].entries
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


def run(
    topology: Topology,
    streams: Mapping[str, Sequence[Sample]],
    mode: Mode,
    filter_config: FilterConfig,
    energy: EnergyModel,
    duration_ms: float,
    *,
    message_size_bytes: int = 100,
    seed: int = 0,
    trace: Optional[list] = None,
) -> RunMetrics:
    """Simulate one mode over the given per-sensor streams.

    ``streams`` maps every sensor id in the topology to its samples.
    Samples at or beyond ``duration_ms`` are dropped before the run;
    messages still in flight when the horizon passes are delivered (nothing
    is lost), while energy idles out the configured duration exactly.

    ``trace``, when given, collects ``(time_ms, device_id, sensor_id, seq)``
    tuples in delivery order, mainly for causality tests.  It is derived
    only on request; the metrics never need it.
    """
    violations = validate(topology)
    if violations:
        raise ValueError("invalid topology: " + "; ".join(violations))
    mode = Mode(mode)
    if not math.isfinite(duration_ms) or duration_ms <= 0:
        raise ValueError(f"duration_ms must be finite and > 0, got {duration_ms!r}")
    if message_size_bytes < 1:
        raise ValueError(f"message_size_bytes must be >= 1, got {message_size_bytes!r}")

    sensors = topology.sensors()
    sensor_ids = [s.id for s in sensors]
    missing = sorted(set(sensor_ids) - set(streams))
    if missing:
        raise ValueError(f"no stream for sensors: {missing}")
    extra = sorted(set(streams) - set(sensor_ids))
    if extra:
        raise ValueError(f"streams for unknown sensors: {extra}")

    kept = {
        sensor_id: _check_stream(sensor_id, streams[sensor_id], duration_ms)
        for sensor_id in sensor_ids
    }

    config = filter_config if mode is Mode.MIST_FOG_CLOUD else None
    measured = {sensor_id: measure_stream(kept[sensor_id], config) for sensor_id in sensor_ids}
    logs = {sensor_id: m.log for sensor_id, m in measured.items()}

    link_usage = {
        f"{link.src}->{link.dst}": {"messages": 0, "bytes": 0, "byte_ms": 0.0}
        for link in topology.links
    }
    device_messages = {d.id: 0 for d in topology.devices}

    cloud_id = topology.cloud().id
    paths: dict[str, tuple[Link, str, Link]] = {}
    latencies: list[float] = []
    for sensor_id in sensor_ids:
        first, second = topology.uplink_path(sensor_id)
        gw_id = first.dst if first.src == sensor_id else first.src
        paths[sensor_id] = (first, gw_id, second)
        times = [entry.timestamp for entry in logs[sensor_id].entries]
        count = len(times)
        for link in (first, second):
            usage = link_usage[f"{link.src}->{link.dst}"]
            usage["messages"] += count
            usage["bytes"] += count * message_size_bytes
            usage["byte_ms"] += count * (message_size_bytes * link.latency_ms)
        for device_id in (sensor_id, gw_id, cloud_id):
            device_messages[device_id] += count
        l1, l2 = first.latency_ms, second.latency_ms
        latencies.extend([((t + l1) + l2) - t for t in times])
    messages_emitted = len(latencies)
    if trace is not None:
        trace.extend(_delivery_trace(logs, paths, cloud_id))

    device_busy_ms: dict[str, float] = {}
    device_energy_j: dict[str, float] = {}
    for dev in topology.devices:
        params = energy.for_kind(dev.kind)
        busy_ms, energy_j = account_energy(device_messages[dev.id], params, duration_ms)
        device_busy_ms[dev.id] = busy_ms
        device_energy_j[dev.id] = energy_j

    total_bytes = sum(u["bytes"] for u in link_usage.values())
    total_byte_ms = sum(u["byte_ms"] for u in link_usage.values())

    return RunMetrics(
        mode=mode.value,
        seed=seed,
        duration_ms=duration_ms,
        message_size_bytes=message_size_bytes,
        topology_fp=_topology_fp(topology),
        sources_fp=_sources_fp(kept, sensor_ids),
        sensor_reports={sensor_id: m.report for sensor_id, m in measured.items()},
        logs=logs,
        flags={sensor_id: m.flags for sensor_id, m in measured.items()},
        link_usage=link_usage,
        device_messages=device_messages,
        device_busy_ms=device_busy_ms,
        device_energy_j=device_energy_j,
        total_bytes=total_bytes,
        total_byte_ms=total_byte_ms,
        messages_emitted=messages_emitted,
        messages_delivered=2 * messages_emitted,
        latency_count=len(latencies),
        latency_min_ms=min(latencies) if latencies else 0.0,
        latency_max_ms=max(latencies) if latencies else 0.0,
        latency_mean_ms=sum(latencies) / len(latencies) if latencies else 0.0,
        cloud_id=cloud_id,
    )


def _reduction_row(baseline: float, candidate: float) -> dict:
    if baseline == 0:
        pct = None
    else:
        pct = 100.0 * (baseline - candidate) / baseline
    return {"baseline": baseline, "candidate": candidate, "reduction_percent": pct}


def compare(baseline: RunMetrics, candidate: RunMetrics) -> dict:
    """Reduction of the candidate run relative to the baseline run.

    Both runs must describe the same scenario: identical topology, streams,
    seed, duration, and message size.  Reduction percent is
    ``100 * (baseline - candidate) / baseline`` per metric, ``None`` when the
    baseline value is zero.
    """
    for name in ("topology_fp", "sources_fp", "seed", "duration_ms", "message_size_bytes"):
        b, c = getattr(baseline, name), getattr(candidate, name)
        if b != c:
            raise ValueError(f"comparison error: {name} differs between runs ({b!r} vs {c!r})")
    cloud = baseline.cloud_id
    return {
        "baseline_mode": baseline.mode,
        "candidate_mode": candidate.mode,
        "network_total_bytes": _reduction_row(baseline.total_bytes, candidate.total_bytes),
        "network_total_byte_ms": _reduction_row(
            baseline.total_byte_ms, candidate.total_byte_ms
        ),
        "cloud_messages": _reduction_row(
            baseline.device_messages[cloud], candidate.device_messages[cloud]
        ),
        "cloud_energy_j": _reduction_row(
            baseline.device_energy_j[cloud], candidate.device_energy_j[cloud]
        ),
    }
