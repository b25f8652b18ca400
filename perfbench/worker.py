"""One ``mistsim`` invocation in a fresh process, timed from the inside.

Usage: ``python3 worker.py SRC_DIR MODE SPANS_FILE CLI_ARG...``

Imports ``mistsim`` from ``SRC_DIR`` and calls ``mistsim.cli.main`` with the
CLI arguments, as the ``mistsim`` console script does.  ``MODE`` is

* ``run``: the whole invocation; only ``load_config`` is wrapped, to time
  set-up;
* ``setup``: the same, but the invocation stops right after
  ``load_config``, before the first sample is generated;
* ``trace``: the whole invocation with every traced callable wrapped; the
  spans go to ``SPANS_FILE``.

The last stdout line is a JSON object: the CLI exit code, ``wall_s``
(import plus ``main``), ``setup_s`` (import plus ``load_config``),
``probe_s`` (see :func:`probe_s`) and ``peak_rss_mb`` of this process.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from tracing import Recorder, install


PROBE_ITERATIONS = 300_000


class SetupDone(Exception):
    """Ends a ``setup`` invocation once the config is loaded."""


def probe_s() -> float:
    """Time of a fixed pure-Python loop: the host's speed at this moment."""
    t0 = perf_counter()
    total = 0
    table = {}
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
        table[i & 255] = total
    return perf_counter() - t0


def main(argv: list[str]) -> int:
    src, mode, spans_file, *cli_argv = argv
    sys.path.insert(0, src)
    rec = Recorder()
    probe_before = probe_s()

    t0 = perf_counter()
    root = rec.open("invocation")
    span = rec.open("import")
    import mistsim.cli as cli

    rec.close(span)
    if mode == "trace":
        install(rec)
    else:
        cli.load_config = load_config = rec.wrap("config.load_config", cli.load_config)
    if mode == "setup":

        def load_then_stop(*args, **kwargs):
            load_config(*args, **kwargs)
            raise SetupDone

        cli.load_config = load_then_stop
    span = rec.open("cli.main")
    try:
        rc = cli.main(cli_argv)
    except SetupDone:
        rc = 0
    rec.close(span)
    rec.close(root)
    wall_s = perf_counter() - t0
    probe = (probe_before + probe_s()) / 2

    def duration(name: str) -> float:
        return sum(s["end"] - s["start"] for s in rec.spans if s["name"] == name)

    if mode == "trace":
        rec.write(Path(spans_file))
    print(
        json.dumps(
            {
                "rc": rc,
                "wall_s": wall_s,
                "setup_s": duration("import") + duration("config.load_config"),
                "probe_s": probe,
                # ru_maxrss is in KiB on Linux.
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
