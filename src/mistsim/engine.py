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
:func:`measure_stream`, and spread their streams over the CPUs the process
may run on with one fork primitive, :func:`fork_map`, which maps a
function over items: each process runs its whole share of the items before
it hands anything over, so none waits on another while it still has work.

Time is in milliseconds throughout.  Energy integrates an affine two-state
model per device: ``busy_ms = messages * busy_ms_per_message`` (clamped to
the run duration) at ``busy_w``, the rest of the duration at ``idle_w``,
reported in joules.
"""

from __future__ import annotations

import math
import os
import struct
import sys
import threading
from array import array
from bisect import bisect_left
from collections import deque, namedtuple
from contextlib import closing
from enum import Enum
from itertools import compress, islice, takewhile
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from . import _reference_names
from .mist_filter import FilterConfig, Stream, check_stream
from .reconstruction import ErrorReport, measure_grid
from .topology import Topology
# Unused here; perfbench/tracing.py wraps these names on this module.
from .topology import validate  # noqa: F401
__getattr__ = _reference_names(__name__, "build_log error_report reconstruct_zoh")


class Mode(str, Enum):
    CLOUD_ONLY = "cloud_only"
    MIST_FOG_CLOUD = "mist_fog_cloud"


class EnergyParams(namedtuple("EnergyParams", "busy_w idle_w busy_ms_per_message")):
    """Affine power model for one device kind."""

    __slots__ = ()

    def __new__(cls, busy_w: float, idle_w: float, busy_ms_per_message: float) -> EnergyParams:
        if not (math.isfinite(busy_w) and math.isfinite(idle_w)):
            raise ValueError("power figures must be finite")
        if not busy_w >= idle_w >= 0:
            raise ValueError(f"need busy_w >= idle_w >= 0, got busy={busy_w!r} idle={idle_w!r}")
        if not math.isfinite(busy_ms_per_message) or busy_ms_per_message < 0:
            raise ValueError("busy_ms_per_message must be finite and >= 0")
        return tuple.__new__(cls, (busy_w, idle_w, busy_ms_per_message))


# Conventional defaults, freely overridable in the config: a cloud host at
# 107.339 W busy / 83.433 W idle, a gateway at half that, a sensor node far
# below either.
DEFAULT_ENERGY_PARAMS = {
    "cloud": EnergyParams(busy_w=107.339, idle_w=83.433, busy_ms_per_message=1.0),
    "gateway": EnergyParams(busy_w=53.6695, idle_w=41.7165, busy_ms_per_message=1.0),
    "sensor": EnergyParams(busy_w=0.5, idle_w=0.1, busy_ms_per_message=1.0),
}


class EnergyModel(namedtuple("EnergyModel", "params")):
    """Per-kind energy parameters; by default a fresh copy of the defaults."""

    __slots__ = ()

    def __new__(cls, params: Optional[Mapping[str, EnergyParams]] = None) -> EnergyModel:
        return tuple.__new__(cls, (dict(DEFAULT_ENERGY_PARAMS) if params is None else params,))

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


class RunMetrics(NamedTuple):
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
    # what its note callback returned.
    notes: Optional[dict[str, object]] = None

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


def _log_digest(total: int, packed: bytes) -> str:
    """A sensor's log digest: SHA-256 of its kept count, a little-endian
    int64, then the samples it sent, :func:`_packed`."""
    import hashlib  # see simulate

    digest = hashlib.sha256(struct.pack("<q", total))
    digest.update(packed)
    return digest.hexdigest()


def _topology_fp(topology: Topology) -> str:
    import hashlib  # see simulate

    h = hashlib.sha256()
    for dev in topology.devices:
        h.update(
            f"device|{dev.id}|{dev.kind}|{dev.level}|{dev.uplink_kbps!r}|"
            f"{dev.downlink_kbps!r}|{dev.ram_mb!r}\n".encode()
        )
    for link in topology.links:
        h.update(f"link|{link.src}|{link.dst}|{link.latency_ms!r}\n".encode())
    return h.hexdigest()


def measure_stream(
    s: str, streams: Mapping[str, Stream],
    configs: Sequence[Optional[FilterConfig]], duration_ms: Optional[float], label: str,
) -> tuple[Stream, list]:
    """``(kept stream, grid)`` of stream ``s``: the one per-stream step of
    :func:`simulate` and ``mistsim filter``.

    The stream is fetched once, checked whole by :func:`check_stream`, cut
    at ``duration_ms`` and measured: ``grid`` is :func:`measure_grid`'s
    list.  With a horizon, ``duration_ms`` not ``None``, a stream that
    starts before 0 is rejected too; without one nothing is cut.  A stream
    that fails its check or its measure raises, prefixed
    ``"<label> '<s>': "``.
    """
    stream = streams[s]
    try:
        check_stream(stream)
        if duration_ms is not None:
            if stream and stream.timestamps[0] < 0:  # ordered: the first is the least
                raise ValueError(f"negative timestamp {stream.timestamps[0]!r}")
            cut = bisect_left(stream.timestamps, duration_ms)
            if cut < len(stream):
                stream = Stream(stream.timestamps[:cut], stream.values[:cut])
        return stream, measure_grid(stream, configs)
    except ValueError as exc:
        raise ValueError(f"{label} {s!r}: {exc}") from None


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
        _stop(children)
        raise
    return children


def _reap(children: list[tuple[int, BinaryIO]]) -> list[int]:
    """Close each worker's pipe, on which one still writing fails, then wait
    for it; the wait statuses."""
    for _, pipe in children:
        pipe.close()
    return [os.waitpid(pid, 0)[1] for pid, _ in children]


def _stop(children: list[tuple[int, BinaryIO]]) -> None:
    """Kill each worker, which may still be running its share, then reap it."""
    import signal  # only here, as pickle in fork_map

    for pid, _ in children:
        os.kill(pid, signal.SIGKILL)
    _reap(children)


# An exception ``func`` raised, in place of its item's result.
_Raised = namedtuple("_Raised", "exc")


def _whole(func: Callable, own: Iterable) -> deque:
    """``func(item)`` for each item of ``own``, up to the first item whose
    call raises, whose exception then ends the results as a :class:`_Raised`."""
    results: deque = deque()
    try:
        for item in own:
            results.append(func(item))
    except Exception as exc:
        results.append(_Raised(exc))
    return results


def fork_map(func: Callable, items: Sequence) -> Iterator:
    """``func(item)`` for each item, yielded in item order.

    :func:`_workers` says how many workers there are; with one this is
    ``map(func, items)``, run lazily in this process.  Otherwise item ``i``
    goes to worker ``i % workers``: this process forks the others, which
    inherit ``func`` and ``items`` as they are, and takes share 0.  Every
    process runs its whole share, to its end or to its first exception,
    before it yields or sends anything, so none waits on another while it
    still has work of its own; a worker then writes one pickle per result to
    its pipe.  This process reads them in item order as it yields them, and
    holds only the results it has not yet yielded.

    An item's exception is raised at that item, so the first one raised
    here, with its type and message, is the earliest item's.  A
    worker that ends without an item it owes raises ``OSError`` with its
    exit status.  Every worker is reaped when the iteration ends, and
    killed first when it raises or is closed; a consumer that may stop
    early closes it (``contextlib.closing``).  A worker whose parent is
    killed ends once its current item is done.
    """
    workers = _workers(len(items))
    if workers == 1:
        yield from map(func, items)
        return
    import pickle  # only here, so runs that never fork load nothing new

    parent = os.getpid()

    def body(w: int, pipe: BinaryIO) -> None:
        # Between items: a worker whose parent is gone takes no more.
        own = takewhile(lambda _: os.getppid() == parent, islice(items, w, None, workers))
        for result in _whole(func, own):
            try:
                pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
            except Exception as exc:  # say, a result that cannot be pickled
                pickle.dump(_Raised(exc), pipe, pickle.HIGHEST_PROTOCOL)
                return

    children = _fork(workers, body)
    try:
        own = _whole(func, islice(items, 0, None, workers))
        for i in range(len(items)):
            w = i % workers
            if w == 0:
                result = own.popleft()
            else:
                try:
                    result = pickle.load(children[w - 1][1])
                except Exception:  # the worker ended before sending item i
                    # It writes only after its share has run, so it ends on its
                    # closed pipe; reaped before the others are killed, it
                    # keeps its own exit status.
                    (status,) = _reap([children.pop(w - 1)])
                    code = os.waitstatus_to_exitcode(status)
                    raise OSError(
                        f"a worker process ended without its result (exit status {code})"
                    ) from None
            if type(result) is _Raised:
                raise result.exc
            yield result
            del result
    except BaseException:  # raised, or closed before its end
        _stop(children)
        raise
    _reap(children)


class _Traffic:
    """One run's accounting, and the only place its :class:`RunMetrics` is
    built; the run is of a filter config, ``None`` standing for cloud-only.

    Sensors are added one at a time, in topology order, and only what the
    metrics need is kept: each sensor's report, flags and log digest, and
    the counts and the latency count, least, greatest and sum.  The latency
    sum adds each sensor's exact sum, in topology order, so it is the same
    on every Python version, whatever the number of workers.
    """

    def __init__(self, config, topology: Topology, paths: Mapping, message_size_bytes: int) -> None:
        self.mode = Mode.CLOUD_ONLY if config is None else Mode.MIST_FOG_CLOUD
        self.topology = topology
        self.paths = paths
        self.message_size_bytes = message_size_bytes
        self.cloud_id = topology.cloud().id
        self.reports: dict[str, ErrorReport] = {}
        self.flags: dict[str, bytearray] = {}
        self.log_digests: dict[str, str] = {}
        self.link_usage = {
            f"{link.src}->{link.dst}": {"messages": 0, "bytes": 0, "byte_ms": 0.0}
            for link in topology.links
        }
        self.device_messages = {d.id: 0 for d in topology.devices}
        self.count, self.least, self.greatest, self.total = 0, math.inf, -math.inf, 0.0

    def add(self, sensor_id: str, digest: str, latencies: tuple, measured) -> None:
        """Account what a sensor sent: its log digest, :func:`_log_digest`,
        its sent samples' :func:`_latency_summary` and its
        :class:`~mistsim.reconstruction.Measurement`."""
        first, gw_id, second = self.paths[sensor_id]
        size = self.message_size_bytes
        self.reports[sensor_id], self.flags[sensor_id] = measured
        self.log_digests[sensor_id] = digest
        count, least, greatest, total = latencies
        self.count += count
        self.least = min(self.least, least)
        self.greatest = max(self.greatest, greatest)
        self.total += total
        for link in (first, second):
            usage = self.link_usage[f"{link.src}->{link.dst}"]
            usage["messages"] += count
            usage["bytes"] += count * size
            usage["byte_ms"] += count * (size * link.latency_ms)
        for device_id in (sensor_id, gw_id, self.cloud_id):
            self.device_messages[device_id] += count

    def metrics(self, energy: EnergyModel, duration_ms: float, **shared) -> RunMetrics:
        """The run's :class:`RunMetrics`; ``shared`` holds the fields all runs
        of one :func:`simulate` call share: seed, fingerprints and notes."""
        link_usage, count = self.link_usage, self.count
        busy_energy = {
            d.id: account_energy(self.device_messages[d.id], energy.for_kind(d.kind), duration_ms)
            for d in self.topology.devices
        }
        return RunMetrics(
            mode=self.mode.value,
            duration_ms=duration_ms,
            message_size_bytes=self.message_size_bytes,
            sensor_reports=self.reports,
            flags=self.flags,
            log_digests=self.log_digests,
            link_usage=link_usage,
            device_messages=self.device_messages,
            device_busy_ms={d: busy for d, (busy, _) in busy_energy.items()},
            device_energy_j={d: joules for d, (_, joules) in busy_energy.items()},
            total_bytes=sum(u["bytes"] for u in link_usage.values()),
            total_byte_ms=sum(u["byte_ms"] for u in link_usage.values()),
            messages_emitted=count,
            messages_delivered=2 * count,
            latency_count=count,
            latency_min_ms=self.least if count else 0.0,
            latency_max_ms=self.greatest if count else 0.0,
            latency_mean_ms=self.total / count if count else 0.0,
            cloud_id=self.cloud_id,
            **shared,
        )


def _latency_summary(latencies: Sequence[float]) -> tuple[int, float, float, float]:
    """``(count, least, greatest, exact sum)`` of latencies ``>= 0``: the sum is
    ``inf`` past the float limit; with none, least and greatest are ``inf``, ``-inf``."""
    try:
        total = math.fsum(latencies)
    except OverflowError:  # finite values whose sum is past the float limit
        total = math.inf
    least, greatest = min(latencies, default=math.inf), max(latencies, default=-math.inf)
    return len(latencies), least, greatest, total


def _latency_summaries(
    timestamps: array, l1: float, l2: float
) -> Callable[[bytearray], tuple[int, float, float, float]]:
    """A function of transmit flags: :func:`_latency_summary` of the
    latencies ``((t + l1) + l2) - t`` of the samples the flags mark, a
    sample sent at ``t`` by a sensor whose two links' latencies are ``l1``
    and ``l2``.  ``timestamps`` are ordered.

    The summary is in closed form, with no per-sample list, when it is
    exact: when both latencies and every timestamp are integers and
    ``max(|t|) + l1 + l2 <= 2**53``.  Every partial sum is then an integer
    no larger than ``2**53`` in magnitude, which a double holds exactly, so
    every latency is exactly ``L = l1 + l2`` and ``c`` sent samples sum to
    ``c * L``, rounded once as the exact sum is.  Otherwise a hop may
    round, and the latencies are listed one per sample.
    """
    total = len(timestamps)
    # A library caller may pass an int latency; int has no is_integer on 3.11.
    exact = (
        total > 0
        and float(l1).is_integer()
        and float(l2).is_integer()
        # Ordered, so the extremes are the ends; integers add exactly.
        and int(max(-timestamps[0], timestamps[-1])) + int(l1) + int(l2) <= 1 << 53
        and all(map(float.is_integer, timestamps))
    )
    if not exact:
        latencies = [((t + l1) + l2) - t for t in timestamps]
        return lambda flags: _latency_summary(list(compress(latencies, flags)))
    # The first sample's latency: L, with the sign every zero latency takes.
    fixed = ((timestamps[0] + l1) + l2) - timestamps[0]

    def summary(flags: bytearray) -> tuple[int, float, float, float]:
        count = flags.count(1)
        return (count, fixed, fixed, count * fixed) if count else (0, math.inf, -math.inf, 0.0)

    return summary


def simulate(
    topology: Topology,
    streams: Mapping[str, Stream],
    configs: Sequence[Optional[FilterConfig]],
    energy: EnergyModel,
    duration_ms: float,
    *,
    message_size_bytes: int = 100,
    seed: int = 0,
    note: Optional[Callable[[str, Stream], object]] = None,
) -> list[RunMetrics]:
    """One :class:`RunMetrics` per filter config, in the order given.

    ``configs`` must be non-empty and free of repeats.  ``None`` runs the
    ``cloud_only`` pipeline, with no filter; a config runs ``mist_fog_cloud``
    with that filter.  ``streams`` maps every sensor id in the topology to
    its :class:`~mistsim.mist_filter.Stream`; its keys are read first.
    Samples at or beyond ``duration_ms`` are dropped; messages still in
    flight when the horizon passes are delivered (nothing is lost), while
    energy idles out the configured duration.

    Each sensor goes through :func:`measure_stream`, and the sensors are
    spread by :func:`fork_map` over the CPUs the process may run on.  Each
    process fetches each of its sensors' streams once, in topology order,
    and drops it once measured, so with a lazy mapping a process holds one
    stream while it measures, plus the results of its share until this
    process has taken them: each sensor's kept samples, packed, and per run
    a :func:`_latency_summaries` summary and what that run measured and
    sent: report, flags and log digest.  This process takes them in
    topology order into the sources hash and the accounting, so the
    results do not depend on the number of workers.  ``note``, if given, is
    called as ``note(id, kept)`` once per sensor, with its stream cut at the
    horizon, in the process that measured it; each run's ``notes`` maps the
    id to what it returned, unless ``None``.

    The cloud-only run, which sends every kept sample, is always measured,
    as an ordinary run, and returned only when ``None`` is among
    ``configs``.  Every run sends some of the kept samples, and each float
    metric grows with what is sent, so that run bounds every run.

    Errors: the first sensor, in topology order, whose stream fails to
    load, check or measure raises, whatever the number of workers; a
    stream that starts before 0 fails.  After every sensor is measured, a
    metric that would overflow when every kept sample is sent is rejected.
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
    measured = configs if None in configs else [*configs, None]

    def sensor(s: str) -> tuple:
        """``(s, packed, noted, runs)``: the id, its kept samples,
        :func:`_packed`, what ``note`` returned, and per measured config
        ``(log digest, latencies, measurement)`` of what that run sent,
        ``latencies`` being its :func:`_latency_summaries` summary."""
        kept, grid = measure_stream(s, streams, measured, duration_ms, "sensor")
        noted = note(s, kept) if note else None
        # Latencies and packed samples once per sensor, for every run: paths
        # do not depend on the config.
        first, _, second = paths[s]
        summary = _latency_summaries(kept.timestamps, first.latency_ms, second.latency_ms)
        total = len(kept)
        digests = {
            config: _log_digest(total, _packed_sent(kept, m.flags))
            for config, m in zip(measured, grid)
            if config is not None
        }
        # Packed last, so that the whole stream's bytes never sit beside the
        # packed copies of what each run sent; cloud-only sends them all.
        packed = _packed(kept)
        digests[None] = _log_digest(total, packed)
        return s, packed, noted, [(digests[c], summary(m.flags), m) for c, m in zip(measured, grid)]

    args = (topology, paths, message_size_bytes)
    runs = [_Traffic(config, *args) for config in measured]
    notes: dict[str, object] = {}
    # Imported here, not at the top, so that `mistsim filter`, which makes no
    # digest, never loads OpenSSL; before fork_map, so that workers inherit it.
    import hashlib

    # sources_fp: each sensor's id and kept samples, in topology order.
    sources_hash = hashlib.sha256()
    with closing(fork_map(sensor, sensor_ids)) as sensors:
        for s, packed, noted, entries in sensors:
            sources_hash.update(s.encode() + b"\x00")
            sources_hash.update(packed)
            del packed
            if noted is not None:
                notes[s] = noted
            for run, entry in zip(runs, entries):
                run.add(s, *entry)

    shared = dict(
        seed=seed, topology_fp=_topology_fp(topology), sources_fp=sources_hash.hexdigest(), notes=notes
    )
    results = [run.metrics(energy, duration_ms, **shared) for run in runs]
    bound = results[measured.index(None)]
    bounds = [(f"links.{k}.byte_ms", u["byte_ms"]) for k, u in bound.link_usage.items()]
    bounds += [(f"devices.{d}.energy_j", j) for d, j in bound.device_energy_j.items()]
    bounds += [
        ("network.total_byte_ms", bound.total_byte_ms),
        ("latency_ms.max", bound.latency_max_ms),
        ("latency_ms.mean", bound.latency_mean_ms),
    ]
    for name, value in bounds:
        if not math.isfinite(value):
            raise ValueError(f"a run's {name} would overflow to inf when every kept sample is sent")
    return results[:len(configs)]


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
