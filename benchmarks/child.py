"""One cold ``tfim-dqpt`` process, timed from the inside.

Usage: python3 child.py REPORT MODE [tfim-dqpt arguments ...]

MODE is ``setup`` (import the CLI and stop), ``run`` (call ``cli.main`` on
the arguments), ``trace`` (the same with the layers wrapped by ``tracer``;
the spans go to ``REPORT.spans``) or ``memtrace`` (``trace`` under
tracemalloc).  REPORT receives one JSON
object: ``ready`` (``time.monotonic()`` once ``tfim_dqpt.cli`` is imported;
CLOCK_MONOTONIC is shared by all processes of a machine, so the parent can
subtract its spawn time), ``run_s`` (time inside ``cli.main``),
``exit_code``, ``cpu_s`` (user + system time of this process and its
reaped pool workers) and ``peak_rss_mb`` (the larger ``ru_maxrss`` of the
two).  The package is imported from the ``src`` directory next to this
benchmark, never from anywhere else.
"""

import json
import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def main() -> int:
    report_path, mode, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, SRC)
    from tfim_dqpt import cli
    report = {"ready": time.monotonic()}
    if not cli.__file__.startswith(SRC + os.sep):
        raise SystemExit(f"tfim_dqpt imported from {cli.__file__}, not {SRC}")
    code = 0
    if mode != "setup":
        tracer = None
        if mode in ("trace", "memtrace"):
            import tracer as tracing
            tracer = tracing.install(memory=mode == "memtrace")
        started = time.perf_counter()
        code = cli.main(cli_args)
        report["run_s"] = time.perf_counter() - started
        own = resource.getrusage(resource.RUSAGE_SELF)
        workers = resource.getrusage(resource.RUSAGE_CHILDREN)
        report["cpu_s"] = (own.ru_utime + own.ru_stime
                           + workers.ru_utime + workers.ru_stime)
        report["peak_rss_mb"] = max(own.ru_maxrss, workers.ru_maxrss) / 1024.0
        if tracer is not None:
            tracer.dump(report_path + ".spans")
    report["exit_code"] = code
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
