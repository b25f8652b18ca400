"""Span recording around calls into ``mistsim``, and the per-layer metrics.

The worker process wraps public callables at the module attribute their
caller looks them up at, so the program itself is untouched.  Each wrapped
call records a span (name, start, end, parent).  ``EventFilter.step`` runs
once per sample, so it only adds a count and a summed time to whichever
span is open.  Spans stay in memory and are written to a JSON side file
when the invocation ends; :func:`layer_metrics` turns that file into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from time import perf_counter


class Recorder:
    """In-memory spans of one invocation.  Span ids are list positions."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "start": perf_counter(),
            "end": None,
            "steps": 0,
            "step_s": 0.0,
            "transmitted": 0,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` recording a span per call; ``attrs(result)`` adds fields."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if attrs is not None:
                span.update(attrs(result))
            return result

        return traced

    def count_steps(self, step):
        """``EventFilter.step`` adding count and time to the open span."""
        stack = self._stack

        @functools.wraps(step)
        def counted(filt, sample):
            t0 = perf_counter()
            decision = step(filt, sample)
            dt = perf_counter() - t0
            top = stack[-1]
            top["steps"] += 1
            top["step_s"] += dt
            top["transmitted"] += decision.transmit
            return decision

        return counted

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans}), encoding="utf-8")


def _layer(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def install(rec: Recorder) -> None:
    """Wrap every traced callable of an imported ``mistsim``."""
    from mistsim import cli, engine, report, topology
    from mistsim.mist_filter import EventFilter
    from mistsim.topology import Topology

    attrs = {
        "run": lambda m: {"messages_delivered": m.messages_delivered},
        "gen_normal": lambda samples: {"draws": len(samples)},
        "load_csv": lambda r: {"rows": r[1].rows_read, "rows_skipped": r[1].rows_skipped},
        "emit_report": lambda paths: {"files": [str(p) for p in paths]},
    }
    targets = {
        cli: (
            "load_config", "gen_normal", "load_csv", "run", "compare", "emit_report",
            "serialize_scenario", "build_log", "reconstruct_zoh", "error_report",
        ),
        engine: ("validate", "build_log", "reconstruct_zoh", "error_report"),
        report: ("reconstruct_zoh", "dumps_stable"),
        # The simulate command imports validate from here at call time.
        topology: ("validate",),
    }
    for module, names in targets.items():
        for name in names:
            fn = getattr(module, name)
            setattr(module, name, rec.wrap(_layer(fn), fn, attrs.get(name)))
    Topology.uplink_path = rec.wrap("topology.uplink_path", Topology.uplink_path)
    EventFilter.step = rec.count_steps(EventFilter.step)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus its children's and its filter steps' time."""
    own = [s["end"] - s["start"] - s["step_s"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (see README.md)."""
    own = self_times(spans)
    dur: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, own_s in zip(spans, own):
        name = s["name"]
        dur[name] = dur.get(name, 0.0) + s["end"] - s["start"]
        self_s[name] = self_s.get(name, 0.0) + own_s
        calls[name] = calls.get(name, 0) + 1

    def total(key: str, name: str) -> int:
        return sum(s.get(key, 0) for s in spans if s["name"] == name)

    steps = sum(s["steps"] for s in spans)
    step_s = sum(s["step_s"] for s in spans)
    delivered = total("messages_delivered", "engine.run")
    draws = total("draws", "sources.gen_normal")
    streams = calls.get("reconstruction.error_report", 0)
    files = [f for s in spans if s["name"] == "report.emit_report" for f in s["files"]]
    d = dur.get
    return {
        "engine.run_s": d("engine.run", 0.0),
        "engine.run_self_s": self_s.get("engine.run", 0.0),
        "engine.messages_delivered": delivered,
        "engine.ns_per_delivered_message": _ratio(d("engine.run", 0.0) * 1e9, delivered),
        "topology.validate_s": d("topology.validate", 0.0),
        "topology.validate_calls": calls.get("topology.validate", 0),
        "topology.uplink_path_s": d("topology.uplink_path", 0.0),
        "topology.uplink_path_calls": calls.get("topology.uplink_path", 0),
        "config.load_config_s": d("config.load_config", 0.0),
        "config.serialize_calls": calls.get("config.serialize_scenario", 0),
        "config.serialize_s": d("config.serialize_scenario", 0.0),
        "sources.gen_normal_s": d("sources.gen_normal", 0.0),
        # gen_normal makes exactly one normal draw per sample.
        "rng.draws": draws,
        "rng.ns_per_draw": _ratio(d("sources.gen_normal", 0.0) * 1e9, draws),
        "sources.load_csv_s": d("sources.load_csv", 0.0),
        "sources.csv_rows": total("rows", "sources.load_csv"),
        "sources.csv_rows_skipped": total("rows_skipped", "sources.load_csv"),
        "mist_filter.steps": steps,
        "mist_filter.step_s": step_s,
        "mist_filter.ns_per_step": _ratio(step_s * 1e9, steps),
        "mist_filter.transmit_ratio": _ratio(sum(s["transmitted"] for s in spans), steps),
        "reconstruction.build_log_s": d("reconstruction.build_log", 0.0),
        "reconstruction.reconstruct_zoh_s": d("reconstruction.reconstruct_zoh", 0.0),
        "reconstruction.streams": streams,
        "reconstruction.reconstructs_per_stream": _ratio(
            calls.get("reconstruction.reconstruct_zoh", 0), streams
        ),
        "reconstruction.error_report_s": d("reconstruction.error_report", 0.0),
        "report.emit_s": d("report.emit_report", 0.0),
        "report.dumps_stable_s": d("report.dumps_stable", 0.0),
        "report.bytes_written": sum(Path(f).stat().st_size for f in files),
        "report.files_written": len(files),
        "cli.main_s": d("cli.main", 0.0),
        "cli.self_s": self_s.get("cli.main", 0.0),
    }


def accounting_error(spans: list[dict], wall_s: float) -> float:
    """How far the self times plus filter steps miss the traced wall time, in s.

    Negative self time means overlapping spans, which a single-threaded call
    tree cannot produce, so it also counts as a miss.
    """
    own = self_times(spans)
    negative = -sum(min(0.0, o) for o in own)
    return abs(sum(own) + sum(s["step_s"] for s in spans) - wall_s) + negative

