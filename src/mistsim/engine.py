"""Deterministic simulation of the sensor-to-cloud path, in closed form.

Two pipelines share one pass.  ``cloud_only`` forwards every raw sample to
the cloud; ``mist_fog_cloud`` runs a dead-band filter on each sensor first
and forwards only what it transmits.  Messages hop sensor -> gateway -> cloud
and each hop arrives exactly ``link.latency_ms`` after it was sent.
:func:`simulate` runs a list of filter configs on one scenario, ``None``
standing for cloud-only, and measures each sensor once for all of them;
:func:`run` is its one-config form.  :class:`Mode` only labels the runs.

The topology is a two-hop tree, latency is fixed per link, no bandwidth or
contention is modelled, and the gateway forwards every message unchanged.
Every metric therefore follows from each sensor's transmitted count and its
two link latencies, and is computed in closed form per sensor; no message is
ever queued.  Each sensor's transmit flags are the one record of what it
sent: its log digest hashes the sent samples in the same pass.  A run is
fully determined by its inputs.

Both :func:`simulate` and ``mistsim filter`` take each stream, a
:class:`~mistsim.mist_filter.Stream`, through one step,
:func:`_measure_stream`: it is checked whole
(:func:`mistsim.mist_filter.check_stream` enforces the filter's contract),
cut at the horizon by bisecting its timestamps, and measured for every
config.  A stream the horizon does not cut is used as it is.  Any error
names the stream.  A load or check error raises; a measuring error is
handed back to the caller, which raises it once every stream is checked.
:func:`simulate` deals its sensors out over the CPUs the process may run
on with :func:`fork_stream`, and each process goes through its share with
:func:`measure_streams`, one pass that fetches each stream once, in the
order given, and drops it before the next, so memory follows one stream's
samples per process, not all of them; after a measuring error that
process only checks.  It adds only that the first timestamp is ``>= 0``,
packs the kept samples, :func:`_packed`, and digests what each run sent.
This process takes the results in topology order into the sources hash
and the accounting, so they do not depend on the number of workers; a
check error raises when its sensor is reached, and a metric that would
overflow when every kept sample is sent raises before the first measuring
error.  ``mistsim filter`` measures its sources independently of each
other, spread by :func:`fork_map`, each worker holding one source at a
time.

Time is in milliseconds throughout.  Energy integrates an affine two-state
model per device: ``busy_ms = messages * busy_ms_per_message`` (clamped to
the run duration) at ``busy_w``, the rest of the duration at ``idle_w``,
reported in joules.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import sys
import threading
from array import array
from bisect import bisect_left
from contextlib import closing
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import chain, compress, islice
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .mist_filter import FilterConfig, Stream, check_stream
from .reconstruction import ErrorReport, measure_grid
from .topology import Topology
# Unused here; perfbench/tracing.py wraps these names on this module.
from .reconstruction import build_log, error_report, reconstruct_zoh  # noqa: F401
from .topology import validate  # noqa: F401


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
    flags: dict[str, bytearray]
    log_digests: dict[str, str]
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
    # Shared by every run of one simulate call, and not part of to_dict:
    # what its note callback returned, and the kept streams it was asked to keep.
    notes: dict[str, object] = field(default_factory=dict)
    kept_streams: dict[str, Stream] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Plain nested dict; each sensor's sent samples appear as a digest only."""
        sensors = {
            sensor_id: {**report.to_dict(), "log_digest": self.log_digests[sensor_id]}
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


def _packed(stream: Stream) -> bytes:
    """The stream's samples as little-endian ``(timestamp, value)`` double pairs."""
    out = array("d", [0.0]) * (2 * len(stream))
    out[0::2] = stream.timestamps
    out[1::2] = stream.values
    if sys.byteorder == "big":
        out.byteswap()
    return out.tobytes()


def _packed_sent(stream: Stream, flags: bytearray) -> bytes:
    """:func:`_packed` of the samples whose flag is 1."""
    return _packed(
        Stream(array("d", compress(stream.timestamps, flags)), array("d", compress(stream.values, flags)))
    )


def _unpacked(packed: bytes) -> Stream:
    """The stream that :func:`_packed` turned into ``packed``."""
    pairs = array("d")
    pairs.frombytes(packed)
    if sys.byteorder == "big":
        pairs.byteswap()
    return Stream(pairs[0::2], pairs[1::2])


def _log_digest(total: int, packed: bytes) -> str:
    """A sensor's log digest: SHA-256 of its kept count, a little-endian
    int64, then the samples it sent, :func:`_packed`."""
    digest = hashlib.sha256(struct.pack("<q", total))
    digest.update(packed)
    return digest.hexdigest()


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


def _hash_source(h, sensor_id: str, packed: bytes) -> None:
    """Feed one sensor's id and its kept samples, :func:`_packed`, into
    ``sources_fp``'s running hash."""
    h.update(sensor_id.encode() + b"\x00")
    h.update(packed)


def _measure_stream(
    s: str, stream: Stream, configs: Sequence[Optional[FilterConfig]],
    duration_ms: Optional[float], label: str, measure: bool = True,
) -> tuple:
    """``(kept stream, grid)`` for one stream: the step :func:`measure_streams`
    takes for each stream, and ``mistsim filter`` for each source.

    The stream is checked whole by :func:`check_stream` (an error raises),
    cut at ``duration_ms`` (``None`` cuts nothing) and, if ``measure``,
    measured: ``grid`` is :func:`measure_grid`'s list, or its error, which is
    returned, not raised; ``None`` when not measured.  Errors are prefixed
    ``"<label> '<s>': "``.
    """
    try:
        check_stream(stream)
    except ValueError as exc:
        raise ValueError(f"{label} {s!r}: {exc}") from None
    if duration_ms is not None:
        cut = bisect_left(stream.timestamps, duration_ms)
        if cut < len(stream):
            stream = Stream(stream.timestamps[:cut], stream.values[:cut])
    if not measure:
        return stream, None
    try:
        return stream, measure_grid(stream, configs)
    except ValueError as exc:
        return stream, ValueError(f"{label} {s!r}: {exc}")


def measure_streams(
    ids: Iterable[str], streams: Mapping[str, Stream],
    configs: Sequence[Optional[FilterConfig]], duration_ms: Optional[float], label: str,
) -> Iterator[tuple]:
    """``(id, kept stream, grid)`` for each id in turn, one stream at a time.

    Each stream is fetched once and goes through :func:`_measure_stream`: a
    check error raises at once.  The first stream that fails to measure gets
    that error as its ``grid``, and every later one ``None``.  The caller
    must drop each stream before it asks for the next.
    """
    measuring = True
    for s in ids:
        stream, grid = _measure_stream(s, streams[s], configs, duration_ms, label, measuring)
        if isinstance(grid, ValueError):
            measuring = False
        yield s, stream, grid
        # Drop this stream before the next one is fetched.
        del stream, grid


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _workers(count: int) -> int:
    """How many workers a map over ``count`` items uses.

    As many as CPUs in the process's affinity mask, but no more than items;
    one, which runs the map in this process, when the platform cannot fork
    or when another thread runs (forking then is unsafe).
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return max(1, min(_cpu_count(), count))


def _fork(workers: int, body: Callable[[int, BinaryIO], None]) -> list[tuple[int, BinaryIO]]:
    """Fork workers ``1 .. workers - 1``: worker ``w`` runs ``body(w, pipe)``,
    ``pipe`` being the write end of its own pipe, and exits.  Returns
    ``(pid, read end)`` per worker.

    A worker leaves only through ``os._exit``: it never returns into the
    caller, flushes inherited stdio buffers or runs atexit handlers.  It
    exits 0 once ``body`` returned and its pipe is flushed, 1 otherwise.
    """
    children: list[tuple[int, BinaryIO]] = []
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(read_fd)
                    for _, pipe in children:
                        pipe.close()
                    with open(write_fd, "wb") as pipe:
                        body(w, pipe)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
    except BaseException:
        _reap(children)
        raise
    return children


def _reap(children: list[tuple[int, BinaryIO]]) -> list[int]:
    """Close each worker's pipe, then wait for it; the wait statuses.

    A worker still writing then fails on its closed pipe and exits.
    """
    for _, pipe in children:
        pipe.close()
    return [os.waitpid(pid, 0)[1] for pid, _ in children]


def _lost(status: int) -> OSError:
    """The error for a worker that ended, with wait ``status``, before
    sending all it owed."""
    code = os.waitstatus_to_exitcode(status)
    return OSError(f"a worker process ended without its result (exit status {code})")


def _share(
    func: Callable, items: Sequence, start: int, step: int
) -> tuple[list, Optional[Exception]]:
    """``func`` over ``items[start::step]`` until one raises: the results
    before it, and its exception (``None`` when none raised)."""
    results = []
    try:
        for item in islice(items, start, None, step):
            results.append(func(item))
    except Exception as exc:
        return results, exc
    return results, None


def fork_map(func: Callable, items: Sequence) -> list:
    """``[func(x) for x in items]``, in order, spread over forked workers.

    :func:`_workers` says how many; with one the work runs in this process.
    Otherwise this process forks the other workers and takes share 0
    itself; item ``i`` goes to worker ``i % workers``.  The workers inherit
    ``func`` and ``items`` as they are at the fork; only results travel,
    pickled, once per worker, over a pipe.  Each result is unpickled as it
    is read from the pipe, so its pickled bytes are never held whole, and
    each pipe is read to its end before any worker is reaped.  Each worker
    stops its share at its first exception, and the exception of the
    earliest item that raised, in item order, is raised here, with its type
    and message.  A worker that ends without its whole result (killed, say)
    raises ``OSError`` with its exit status.  Every worker is reaped before
    this returns or raises.
    """
    workers = _workers(len(items))
    if workers == 1:
        return [func(item) for item in items]
    import pickle  # only here, so runs that never fork load nothing new

    def body(w: int, pipe: BinaryIO) -> None:
        pickle.dump(_share(func, items, w, workers), pipe, pickle.HIGHEST_PROTOCOL)

    children = _fork(workers, body)
    try:
        shares = [_share(func, items, 0, workers)]
        received = []
        for _, pipe in children:
            try:
                received.append(pickle.load(pipe))
            except Exception:  # a truncated result
                received.append(None)
            # Read the pipe to its end before reaping, so that no worker is
            # left blocked on a full pipe.
            pipe.read()
    finally:
        statuses = _reap(children)
    for share, status in zip(received, statuses):
        if share is None or status != 0:
            raise _lost(status)
        shares.append(share)

    failed = [
        (w + workers * len(results), exc)
        for w, (results, exc) in enumerate(shares)
        if exc is not None
    ]
    if failed:
        raise min(failed, key=lambda pair: pair[0])[1]
    return [shares[i % workers][0][i // workers] for i in range(len(items))]


class _Raised:
    """An exception a :func:`fork_stream` worker sends in place of a result."""

    def __init__(self, exc: Exception) -> None:
        self.exc = exc


def fork_stream(share: Callable[[Iterator], Iterator], items: Sequence) -> Iterator:
    """One result per item, yielded in item order as each is ready.

    ``share`` is called once per worker with an iterator over that worker's
    items and must yield one result per item, in turn; whatever state it
    keeps lasts for that worker's share.  :func:`_workers` says how many
    workers there are; with one this is ``share(iter(items))``.  Otherwise
    item ``i`` goes to worker ``i % workers``: this process forks the
    others and runs share 0 itself, computing item ``i`` only when the
    consumer asks for it, and reads each other item from its worker's pipe,
    one pickle per item, so a worker runs ahead of the consumer only by
    what its pipe holds.  The workers inherit ``share`` and ``items`` as
    they are at the fork.

    A worker stops at its first exception and sends it as that item's
    result, so the first exception raised here, with its type and message,
    is that of the earliest item that raised.  A worker that ends without
    an item it owes raises ``OSError`` with its exit status.  Every worker
    is reaped when the iteration ends, raises or is closed; a consumer that
    may stop early closes it (``contextlib.closing``).
    """
    workers = _workers(len(items))
    if workers == 1:
        yield from share(iter(items))
        return
    import pickle  # only here, so runs that never fork load nothing new

    def body(w: int, pipe: BinaryIO) -> None:
        try:
            for result in share(islice(items, w, None, workers)):
                pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
                pipe.flush()  # the consumer may be waiting for this very item
        except Exception as exc:
            pickle.dump(_Raised(exc), pipe, pickle.HIGHEST_PROTOCOL)

    children = _fork(workers, body)
    statuses = None
    try:
        own = share(islice(items, 0, None, workers))
        for i in range(len(items)):
            w = i % workers
            if w == 0:
                yield next(own)
                continue
            try:
                result = pickle.load(children[w - 1][1])
            except Exception:  # the worker ended before sending item i
                statuses = _reap(children)
                raise _lost(statuses[w - 1]) from None
            if type(result) is _Raised:
                raise result.exc
            yield result
            del result
    finally:
        if statuses is None:
            _reap(children)


class _Traffic:
    """The :class:`RunMetrics` fields that follow from what each sensor sent.

    Sensors are added one at a time, in topology order, and only what the
    fields need is kept: counts, digests and one latency per sent sample.
    The latencies stay in one array per sensor, never copied into one
    growing array, and are read in turn, in sending order, so ``min``,
    ``max`` and ``sum`` see the sequence a list of every sample would give;
    ``sum`` compensates on Python >= 3.12, so a running total could round
    differently.
    """

    def __init__(self, topology: Topology, paths: Mapping, message_size_bytes: int) -> None:
        self.topology = topology
        self.paths = paths
        self.message_size_bytes = message_size_bytes
        self.cloud_id = topology.cloud().id
        self.log_digests: dict[str, str] = {}
        self.link_usage = {
            f"{link.src}->{link.dst}": {"messages": 0, "bytes": 0, "byte_ms": 0.0}
            for link in topology.links
        }
        self.device_messages = {d.id: 0 for d in topology.devices}
        self.latencies: list[array] = []

    def add(self, sensor_id: str, digest: str, latencies: array) -> None:
        """Account what a sensor sent: its log digest, :func:`_log_digest`,
        and each sent sample's latency, in sending order."""
        first, gw_id, second = self.paths[sensor_id]
        size = self.message_size_bytes
        self.log_digests[sensor_id] = digest
        self.latencies.append(latencies)
        count = len(latencies)
        for link in (first, second):
            usage = self.link_usage[f"{link.src}->{link.dst}"]
            usage["messages"] += count
            usage["bytes"] += count * size
            usage["byte_ms"] += count * (size * link.latency_ms)
        for device_id in (sensor_id, gw_id, self.cloud_id):
            self.device_messages[device_id] += count

    def fields(self, energy: EnergyModel, duration_ms: float) -> dict:
        link_usage = self.link_usage
        count = sum(map(len, self.latencies))
        latencies = partial(chain.from_iterable, self.latencies)
        busy_energy = {
            d.id: account_energy(self.device_messages[d.id], energy.for_kind(d.kind), duration_ms)
            for d in self.topology.devices
        }
        return {
            "log_digests": self.log_digests,
            "link_usage": link_usage,
            "device_messages": self.device_messages,
            "device_busy_ms": {d: busy for d, (busy, _) in busy_energy.items()},
            "device_energy_j": {d: joules for d, (_, joules) in busy_energy.items()},
            "total_bytes": sum(u["bytes"] for u in link_usage.values()),
            "total_byte_ms": sum(u["byte_ms"] for u in link_usage.values()),
            "messages_emitted": count,
            "messages_delivered": 2 * count,
            "latency_count": count,
            "latency_min_ms": min(latencies()) if count else 0.0,
            "latency_max_ms": max(latencies()) if count else 0.0,
            "latency_mean_ms": sum(latencies()) / count if count else 0.0,
        }


def _sensor_pass(
    ids: Iterable[str], streams: Mapping[str, Stream],
    configs: Sequence[Optional[FilterConfig]], duration_ms: float, paths: Mapping,
    note: Optional[Callable[[str], object]],
) -> Iterator[tuple]:
    """What :func:`simulate` takes of each sensor in ``ids``, in turn: one
    process's share of its pass.

    Each stream goes through :func:`measure_streams`, so once one sensor
    fails to measure, the later ones of this share are only checked; a
    negative first timestamp raises.  Yields ``(id, packed, latencies,
    digest, runs, noted)``: the kept samples, :func:`_packed`, each one's
    latency, the cloud-only log digest, and ``note(id)`` (``None`` without
    ``note``).  ``runs`` is the measuring error, ``None`` when not
    measured, or per config ``(report, flags, digest, latencies)`` of what
    that run sent, the last two ``None`` for the cloud-only config.
    """
    for s, kept, grid in measure_streams(ids, streams, configs, duration_ms, "sensor"):
        if kept and kept.timestamps[0] < 0:  # ordered: the first is the least
            raise ValueError(f"sensor {s!r}: negative timestamp {kept.timestamps[0]!r}")
        # Latencies and packed samples once per sensor, for every run: paths
        # do not depend on the config.
        first, _, second = paths[s]
        l1, l2 = first.latency_ms, second.latency_ms
        latencies = array("d", [((t + l1) + l2) - t for t in kept.timestamps])
        total = len(kept)
        runs = grid
        if grid is not None and not isinstance(grid, ValueError):
            runs = [
                (m.report, m.flags, None, None) if config is None else (
                    m.report,
                    m.flags,
                    _log_digest(total, _packed_sent(kept, m.flags)),
                    array("d", compress(latencies, m.flags)),
                )
                for config, m in zip(configs, grid)
            ]
        # Packed last, so that the whole stream's bytes never sit beside the
        # packed copies of what each run sent.
        packed = _packed(kept)
        yield s, packed, latencies, _log_digest(total, packed), runs, note(s) if note else None
        # Drop this sensor's stream and samples before the next one is fetched.
        del kept, grid, packed, latencies, runs


def simulate(
    topology: Topology,
    streams: Mapping[str, Stream],
    configs: Sequence[Optional[FilterConfig]],
    energy: EnergyModel,
    duration_ms: float,
    *,
    message_size_bytes: int = 100,
    seed: int = 0,
    note: Optional[Callable[[str], object]] = None,
    keep_streams: bool = False,
) -> list[RunMetrics]:
    """One :class:`RunMetrics` per filter config, in the order given.

    ``configs`` must be non-empty and free of repeats.  ``None`` runs the
    ``cloud_only`` pipeline, with no filter; a config runs ``mist_fog_cloud``
    with that filter.  ``streams`` maps every sensor id in the topology to
    its :class:`~mistsim.mist_filter.Stream`; its keys are read first.
    Samples at or beyond ``duration_ms`` are dropped; messages still in
    flight when the horizon passes are delivered (nothing is lost), while
    energy idles out the configured duration.

    The sensors are spread by :func:`fork_stream` over the CPUs the process
    may run on.  Each process fetches each of its sensors' streams once, in
    topology order, and drops it once measured, so a lazy mapping bounds
    memory by one sensor's stream per process.  A worker sends back only
    the kept samples, packed, the latencies and what each run measured and
    sent: reports, flags and log digests.  This process takes them in
    topology order into the sources hash and the accounting, so the results
    do not depend on the number of workers.  ``note``, if given, is called
    with each sensor's id right after its stream is fetched, in the process
    that fetched it; each run's ``notes`` maps the id to what it returned,
    unless ``None``.  With ``keep_streams`` each run's ``kept_streams`` maps
    every sensor to its kept samples.

    Errors: a stream that fails its check raises when its sensor is
    reached.  A sensor that fails to measure stops all further measuring in
    the process that measured it, but every stream is still checked, and
    then a metric that would overflow when every kept sample is sent is
    rejected; only after both does the measuring error of the earliest
    sensor raise.  The error raised does not depend on the number of
    workers.
    """
    # Validates the topology and resolves every path in one linear pass.
    paths = topology.uplink_paths()
    configs = list(configs)
    if not configs or len(set(configs)) != len(configs):
        raise ValueError(f"configs must be non-empty and distinct, got {configs!r}")
    if not math.isfinite(duration_ms) or duration_ms <= 0:
        raise ValueError(f"duration_ms must be finite and > 0, got {duration_ms!r}")
    if message_size_bytes < 1:
        raise ValueError(f"message_size_bytes must be >= 1, got {message_size_bytes!r}")

    sensor_ids = list(paths)
    missing = sorted(set(sensor_ids) - set(streams))
    if missing:
        raise ValueError(f"no stream for sensors: {missing}")
    extra = sorted(set(streams) - set(sensor_ids))
    if extra:
        raise ValueError(f"streams for unknown sensors: {extra}")

    # Every run sends some of the kept samples, and each float metric grows
    # with what is sent, so the run that sends them all, cloud-only, bounds
    # every run; it is accounted for every sensor, measured or not.
    everything = _Traffic(topology, paths, message_size_bytes)
    filtered = {
        i: _Traffic(topology, paths, message_size_bytes)
        for i, config in enumerate(configs)
        if config is not None
    }
    reports: list[dict] = [{} for _ in configs]
    flags: list[dict] = [{} for _ in configs]
    notes: dict[str, object] = {}
    kept_streams: dict[str, Stream] = {}
    sources_hash = hashlib.sha256()
    failure = None
    share = partial(
        _sensor_pass, streams=streams, configs=configs, duration_ms=duration_ms,
        paths=paths, note=note,
    )
    with closing(fork_stream(share, sensor_ids)) as sensors:
        for s, packed, latencies, digest, runs, noted in sensors:
            _hash_source(sources_hash, s, packed)
            everything.add(s, digest, latencies)
            if keep_streams:
                kept_streams[s] = _unpacked(packed)
            del packed
            if noted is not None:
                notes[s] = noted
            if isinstance(runs, ValueError):
                if failure is None:
                    failure = runs
            elif runs is not None:
                for i, (report, sent_flags, sent_digest, sent_latencies) in enumerate(runs):
                    reports[i][s], flags[i][s] = report, sent_flags
                    if i in filtered:
                        filtered[i].add(s, sent_digest, sent_latencies)

    cloud_only = everything.fields(energy, duration_ms)
    bounds = [(f"links.{k}.byte_ms", u["byte_ms"]) for k, u in cloud_only["link_usage"].items()]
    bounds += [(f"devices.{d}.energy_j", j) for d, j in cloud_only["device_energy_j"].items()]
    bounds += [
        ("network.total_byte_ms", cloud_only["total_byte_ms"]),
        ("latency_ms.max", cloud_only["latency_max_ms"]),
        ("latency_ms.mean", cloud_only["latency_mean_ms"]),
    ]
    for name, value in bounds:
        if not math.isfinite(value):
            raise ValueError(f"a run's {name} would overflow to inf when every kept sample is sent")
    if failure is not None:
        raise failure

    topology_fp = _topology_fp(topology)
    sources_fp = sources_hash.hexdigest()
    results = []
    for i, config in enumerate(configs):
        if config is None:
            fields = cloud_only
        else:
            fields = filtered[i].fields(energy, duration_ms)
        mode = Mode.CLOUD_ONLY if config is None else Mode.MIST_FOG_CLOUD
        results.append(
            RunMetrics(
                mode=mode.value,
                seed=seed,
                duration_ms=duration_ms,
                message_size_bytes=message_size_bytes,
                topology_fp=topology_fp,
                sources_fp=sources_fp,
                sensor_reports=reports[i],
                flags=flags[i],
                cloud_id=everything.cloud_id,
                notes=notes,
                kept_streams=kept_streams,
                **fields,
            )
        )
    return results


def run(
    topology: Topology,
    streams: Mapping[str, Stream],
    mode: Mode,
    filter_config: FilterConfig,
    energy: EnergyModel,
    duration_ms: float,
    *,
    message_size_bytes: int = 100,
    seed: int = 0,
) -> RunMetrics:
    """:func:`simulate` for one mode; ``filter_config`` is used only by ``mist_fog_cloud``."""
    config = None if Mode(mode) is Mode.CLOUD_ONLY else filter_config
    (metrics,) = simulate(
        topology, streams, [config], energy, duration_ms,
        message_size_bytes=message_size_bytes, seed=seed,
    )
    return metrics


def _reduction_row(baseline: float, candidate: float) -> dict:
    # The ratio first: 100 * a byte_ms total near the float limit overflows.
    pct = 100.0 * ((baseline - candidate) / baseline) if baseline else None
    return {"baseline": baseline, "candidate": candidate, "reduction_percent": pct}


def compare(baseline: RunMetrics, candidate: RunMetrics) -> dict:
    """Reduction of the candidate run relative to the baseline run.

    Both runs must describe the same scenario: identical topology, streams,
    seed, duration, and message size.  Reduction percent is
    ``100 * ((baseline - candidate) / baseline)`` per metric, ``None`` when the
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
