"""Runs one benchmark job in a fresh interpreter.

Usage: python worker.py JOB.json

JOB.json names the argument lists to pass to ``qkzero.cli.main`` in order,
whether to trace, and where to write the result.  The job's time runs from
the first call until the last one has returned, so it covers argument
parsing, the computation and writing every report; importing the package
is measured separately as set-up time.
"""

from __future__ import annotations

import json
import os
import sys
import traceback
from time import perf_counter


def peak_rss_mib() -> float:
    """Peak resident memory of this process alone (Linux).

    Not ru_maxrss: Linux carries the peak of the process that started this
    one into it, so it would also count the benchmark's own memory.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    result: dict = {"exit_codes": [], "error": None}
    try:
        import qkzero.cli
        tracer = None
        if job["trace"]:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        start = perf_counter()
        for argv in job["calls"]:
            result["exit_codes"].append(qkzero.cli.main(argv))
        result["job_s"] = perf_counter() - start
        result["report_bytes"] = sum(os.path.getsize(path)
                                     for path in job["reports"])
        if tracer is not None:
            result["metrics"] = tracer.metrics()
            if job.get("spans"):
                with open(job["spans"], "w", encoding="utf-8") as fh:
                    json.dump(tracer.span_dump(), fh)
    except Exception:  # reported to the parent, which counts a failed job
        result["error"] = traceback.format_exc(limit=-5)
    result["peak_rss_mib"] = peak_rss_mib()
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
