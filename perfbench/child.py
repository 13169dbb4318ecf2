"""One measured osgkit CLI invocation in a fresh interpreter.

Usage: python3 child.py <spawn_ns> <output-file> <trace 0|1> [osgkit argv...]

``spawn_ns`` is the parent's CLOCK_MONOTONIC reading, in nanoseconds, taken
just before it started this process; the clock is system-wide, so the
difference to "ready" is the interpreter start plus ``import osgkit.cli``
and kernel backend selection.  ``osgkit.cli.main`` writes its report to
``output-file``.  The last line of stdout is one JSON object with the
timings and, when traced, the per-layer statistics.  Without an osgkit
argv the process only measures its set-up and exits.
"""

import sys
import time

import osgkit.cli  # timed as part of set-up, like the backend selection
import osgkit.kernel

READY_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import resource  # noqa: E402


def run(spawn_ns: int, output: str, traced: bool, argv: list[str]) -> dict:
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    with open(output, "w", encoding="utf-8") as out:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        code = osgkit.cli.main(argv, out=out)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
    result = {
        "exit_code": code,
        "setup_s": (READY_NS - spawn_ns) / 1e9,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "backend": osgkit.kernel.BACKEND,
        "osgkit_file": osgkit.cli.__file__,
    }
    if tracer is not None:
        result["layers"] = tracer.report()
    return result


def main() -> None:
    spawn_ns, output, traced, *argv = sys.argv[1:]
    if argv:
        result = run(int(spawn_ns), output, traced == "1", argv)
    else:  # set-up only
        result = {"setup_s": (READY_NS - int(spawn_ns)) / 1e9}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
