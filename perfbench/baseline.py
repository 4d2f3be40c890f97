#!/usr/bin/env python3
"""Records the environment and the per-layer shares of one traced run.

Usage, from the root of the repository:

    python3 perfbench/baseline.py

Runs every workload once with --trace 1, seed 1 and the run length that
BENCHMARK.json gives, and writes perfbench/baseline.json: the Python
version, the processor count, the line count of src/, and for each workload the per-layer metrics with every time also given as a share
of the traced cli.main_s.  Later changes size their claims against it.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

import run

SEED = 1


def src_lines() -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in sorted(run.SRC.rglob("*.py")))


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = {}
    for name in run.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", name,
             "--seed", str(SEED), "--seconds", str(seconds),
             "--trace", "1"],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"{name}: jobs failed\n{proc.stderr}", file=sys.stderr)
            return 1
        values = {key: metric["value"]
                  for key, metric in result["metrics"].items()}
        main_s = values["cli.main_s"]
        workloads[name] = {
            "metrics": values,
            "share_of_cli_main": {
                key: value / main_s for key, value in values.items()
                if run.unit_of(key) == "s" and key != "cli.main_s" and value
            },
        }
    doc = {
        "environment": {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "src_lines": src_lines(),
        },
        "seed": SEED,
        "seconds": seconds,
        "workloads": workloads,
    }
    out = run.HERE / "baseline.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
