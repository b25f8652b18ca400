"""Benchmark driver for mistsim.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a mistsim checkout; ``NAME`` is one of the
workloads in ``workloads.py`` or ``all``.  Each operation is one ``mistsim``
CLI invocation in a fresh worker process, one process at a time.  A run
first fills the byte-code caches, then repeats invocations for ``S``
seconds and reports medians.  The first invocation's ``report.json`` is
checked against the oracles in ``checks.py``; every later one must match it
byte for byte.  Each untraced invocation is followed by a set-up-only one
or, with ``--trace 1``, by a traced one, and the run reports the per-layer
metrics instead.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable summary.
Exits 2 without a result when the checkout lacks the program's sources.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import checks
import tracing
from workloads import OFFICE_CSV, TABLE2, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_work"
REQUIRED = ("src/mistsim/cli.py", TABLE2, OFFICE_CSV)
INVOCATION_TIMEOUT_S = 150

# The host's speed drifts by 20-30 % over tens of seconds, with other work
# on the machine.  The worker times a fixed loop right before and after each
# invocation; end-to-end times are scaled to the speed at which that loop
# takes PROBE_REF_S, which keeps run medians within a few percent.
PROBE_REF_S = 0.05

E2E_UNITS = {"wall_s": "s", "samples_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if ".ns_per_" in name:
        return "ns"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_stream")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


class Invoker:
    """Runs and checks the invocations of one workload run."""

    def __init__(self, name: str, seed: int, scratch: Path, scale: float) -> None:
        self.name = name
        self.scratch = scratch
        self.argv = WORKLOADS[name](ROOT, scratch, seed, scale)
        self.attempted = 0
        self.failed = 0
        self.reference: bytes | None = None
        self.samples = 0
        self.spans_file = scratch / "spans.json"

    def invoke(self, mode: str) -> dict | None:
        """One worker invocation in ``mode`` (see worker.py); returns its timings.

        Returns None when the worker gave no timings.  A ``setup`` invocation
        writes no report, so only its exit code is checked.
        """
        self.attempted += 1
        out = self.scratch / f"out-{self.attempted}"
        cmd = [
            sys.executable, str(HERE / "worker.py"), str(ROOT / "src"), mode,
            str(self.spans_file), *self.argv, "--out", str(out),
        ]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return self._fail(out, [f"invocation exceeded {INVOCATION_TIMEOUT_S} s"])
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return self._fail(out, [f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"])
        if result["rc"] != 0:
            self._fail(out, [f"mistsim exited {result['rc']}: {proc.stderr[-2000:]}"])
            return result
        if mode == "setup":
            return result
        problems = self._check(out)
        if mode == "trace":
            spans = json.loads(self.spans_file.read_text(encoding="utf-8"))["spans"]
            miss = tracing.accounting_error(spans, result["wall_s"])
            if miss > 0.01 * result["wall_s"]:
                problems.append(f"self times miss the traced wall time by {miss:.6f} s")
            result["layers"] = tracing.layer_metrics(spans)
            shutil.copyfile(self.spans_file, SCRATCH / f"spans-{self.name}.json")
        if problems:
            self._fail(out, problems)
        else:
            shutil.rmtree(out)
        return result

    def _check(self, out: Path) -> list[str]:
        try:
            data = (out / "report.json").read_bytes()
        except FileNotFoundError:
            return ["no report.json written"]
        if self.reference is not None:
            if data != self.reference:
                return ["report.json differs from the first invocation's"]
            return []
        report = json.loads(data)
        runs = report["runs"].values() if isinstance(report["runs"], dict) else report["runs"]
        self.samples = sum(s["total"] for run in runs for s in run["sensors"].values())
        problems = checks.check_report(report, ROOT, out)
        if not problems:
            self.reference = data
        return problems

    def _fail(self, out: Path, problems: list[str]) -> None:
        self.failed += 1
        for problem in problems:
            print(f"FAILED invocation {self.attempted}: {problem}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        return None


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """One benchmark run of one workload; returns the result object."""
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH))
    try:
        inv = Invoker(name, seed, scratch, scale)
        inv.invoke("setup")  # warm-up: fills the byte-code caches, not timed
        # Untraced invocations give the end-to-end metrics; each is followed
        # by a traced one (per-layer metrics) or by a set-up-only one (more
        # set-up samples, which are short and noisy).
        modes = ("run", "trace" if trace else "setup")
        done: dict[str, list[dict]] = {mode: [] for mode in modes}
        deadline = perf_counter() + seconds
        while True:
            for mode in modes:
                result = inv.invoke(mode)
                if result is not None and result["rc"] == 0:
                    done[mode].append(result)
            if perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if not all(done.values()):
        raise RuntimeError(f"{name}: no invocation completed")

    def median(key: str, results: list[dict]) -> float:
        return statistics.median(r[key] for r in results)

    def scaled(key: str, results: list[dict]) -> float:
        return statistics.median(r[key] * PROBE_REF_S / r["probe_s"] for r in results)

    plain = done["run"]
    set_up = plain + done.get("setup", [])
    if trace:
        layers = [r["layers"] for r in done["trace"]]
        values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        values["trace_overhead_s"] = median("wall_s", done["trace"]) - median("wall_s", plain)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        wall_s = scaled("wall_s", plain)
        values = {
            "wall_s": wall_s,
            "samples_per_s": inv.samples / wall_s,
            "setup_s": scaled("setup_s", set_up),
            "peak_rss_mb": median("peak_rss_mb", plain),
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    return {
        "correct": inv.failed == 0,
        "attempted": inv.attempted,
        "failed": inv.failed,
        "metrics": metrics,
        "timed": len(plain),
        "host": {
            "wall_s": median("wall_s", plain),
            "setup_s": median("setup_s", set_up),
            "probe_s": median("probe_s", plain),
        },
    }


def summary(name: str, result: dict) -> list[str]:
    lines = [
        f"{name}: {result['timed']} timed invocations, {result['attempted']} attempted, "
        f"error_rate {result['failed'] / result['attempted']:.4g} ({result['failed']} failed)",
        "  unscaled host medians: "
        + ", ".join(f"{k} {v:.6g} s" for k, v in result["host"].items()),
    ]
    for key, m in result["metrics"].items():
        lines.append(f"  {key:42s} {m['value']:>16.6g} {m['unit']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [f for f in REQUIRED if not (ROOT / f).is_file()]
    if missing:
        print(f"perfbench: {ROOT} is not a mistsim checkout, missing {missing}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(summary(name, results[name])), flush=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    final = {k: final[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
