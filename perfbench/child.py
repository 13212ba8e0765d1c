"""One run's process: import the CLI, run it once on argv, report timings.

Usage: child.py RESULT_JSON TRACE [CLI ARGS...]

With no CLI args the process only imports ``sentaxis.cli`` (a set-up probe).
Timestamps use ``time.perf_counter``, a system-wide monotonic clock on Linux,
so the parent can subtract its own spawn timestamp from ``ready``.
"""

import sys
import time

import sentaxis.cli

ready = time.perf_counter()

import json  # noqa: E402  (after the set-up timestamp on purpose)
import resource  # noqa: E402


def main() -> int:
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    result = {"ready": ready}
    if argv:
        tracer = None
        if trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        start = time.perf_counter()
        result["exit_code"] = sentaxis.cli.main(argv)
        result["wall_s"] = time.perf_counter() - start
        if tracer is not None:
            result["trace"] = tracer.dump()
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
