#!/usr/bin/env python3
"""The qkzero benchmark: CLI jobs timed end to end, layers traced from outside.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs one job at a time (a closed loop) for about S seconds.
Every job runs in a fresh interpreter, because the descendent engine keeps a
module-level memo: in a reused interpreter every job after the first would
time dictionary lookups, whereas a CLI user starts each command cold.  Each
report is checked independently (verify.py) and all reports of a run must
be byte-identical.

BENCHMARK.json gates every change on two workloads, qde-point (every
layer, series-heavy) and descendent-batch (the descendent engine; never
calls series).  frobenius-projective and frobenius-quantum-p1 run the same
way by hand: four workloads left each run too short to be steady on a
shared two-core machine.

With --trace 0 the last line of stdout is a JSON object whose metrics are
the end-to-end ones: job_s (median wall time of a job), setup_s (median
time from starting an interpreter until ``import qkzero.cli`` returns) and
peak_rss_mib (median peak resident memory of the job's process).  With
--trace 1, untraced and traced jobs alternate and the metrics are the
per-layer ones from tracer.py, plus trace.overhead_ratio.

Exit status is 0 when the run completed, whether or not jobs failed (the
result says how many did), and 2 when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
import verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 15
# Each run must end within this many seconds of starting, whatever the jobs do.
RUN_LIMIT_S = 170.0

@dataclass
class Job:
    calls: list[list[str]]
    reports: list[str]
    # (report texts, exit codes) -> verification errors
    check: Callable[[list[str], list[int]], list[str]]


def _projective(seed: int, work: Path) -> Job:
    report = str(work / "report.json")
    return Job(
        [["frobenius-check", "--target", "projective:4", "--t-order", "8",
          "--output", report]],
        [report],
        lambda texts, codes: verify.check_residual_report(texts[0], codes[0], 7))


def _quantum_p1(seed: int, work: Path) -> Job:
    table = str(work / "p1_table.json")
    gen.write_json(table, gen.p1_quantum_table(seed))
    table_report = str(work / "table_report.json")
    report = str(work / "report.json")
    pairs = gen.P1_MAX_DEGREE * sum(n for n in range(gen.P1_MAX_INSERTIONS + 1))

    def check(texts, codes):
        return (verify.check_table_report(texts[0], codes[0], pairs)
                + verify.check_residual_report(texts[1], codes[1], 7))

    return Job(
        [["table-check", "--input", table, "--output", table_report],
         ["frobenius-check", "--input", table, "--t-order", "9",
          "--q-order", "4", "--output", report]],
        [table_report, report],
        check)


def _qde_point(seed: int, work: Path) -> Job:
    report = str(work / "report.json")
    return Job(
        [["qde-check", "--target", "point", "--t-order", "60",
          "--desc-order", "60", "--output", report]],
        [report],
        lambda texts, codes: verify.check_residual_report(texts[0], codes[0], 1))


def _descendent_batch(seed: int, work: Path) -> Job:
    batch = gen.descendent_batch(seed)
    expected = verify.reference_values(batch)
    path = str(work / "batch.json")
    gen.write_json(path, batch)
    report = str(work / "report.jsonl")
    return Job(
        [["descendent", "--input", path, "--output", report]],
        [report],
        lambda texts, codes: verify.check_batch_report(
            texts[0], codes[0], batch, expected))


WORKLOADS: dict[str, Callable[[int, Path], Job]] = {
    "frobenius-projective": _projective,
    "frobenius-quantum-p1": _quantum_p1,
    "qde-point": _qde_point,
    "descendent-batch": _descendent_batch,
}


class Unrunnable(Exception):
    """The program under test cannot be started from this checkout."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def preflight(work: Path) -> None:
    """Import the package once from src/; this also compiles its bytecode,
    which a user pays once at install, not on every command."""
    if not (SRC / "qkzero" / "__init__.py").is_file():
        raise Unrunnable(f"no package at {SRC / 'qkzero'}")
    probe = subprocess.run(
        [sys.executable, "-c",
         "import qkzero.cli, sys; sys.stdout.write(qkzero.__file__)"],
        cwd=work, env=child_env(), capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:
        raise Unrunnable(f"cannot import qkzero: {probe.stderr.strip()}")
    if Path(probe.stdout).resolve().parent != (SRC / "qkzero").resolve():
        raise Unrunnable(f"imported qkzero from {probe.stdout}, not from {SRC}")


def setup_time(work: Path) -> float:
    """Seconds from starting an interpreter until ``import qkzero.cli``
    returns: what every command pays before its arguments are parsed."""
    started = time.monotonic_ns()
    probe = subprocess.run(
        [sys.executable, "-c",
         "import qkzero.cli, time, sys; "
         "sys.stdout.write(str(time.monotonic_ns()))"],
        cwd=work, env=child_env(), capture_output=True, text=True, timeout=60,
        check=True)
    return (int(probe.stdout) - started) / 1e9


@dataclass
class Sample:
    traced: bool
    wall_s: float
    ok: bool
    result: dict
    digest: str | None
    errors: list[str]


def run_job(job: Job, work: Path, traced: bool, number: int,
            timeout: float) -> Sample:
    spec = work / f"job{number}.json"
    result_path = work / f"result{number}.json"
    for report in job.reports:
        Path(report).unlink(missing_ok=True)
    spec.write_text(json.dumps({
        "calls": job.calls, "reports": job.reports, "trace": traced,
        "result": str(result_path),
        "spans": str(work / "spans.json") if traced else None,
    }))
    started = time.monotonic()
    with open(work / f"stderr{number}.txt", "wb") as err:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec)],
                cwd=work, env=child_env(), stdout=subprocess.DEVNULL,
                stderr=err, timeout=timeout)
        except subprocess.TimeoutExpired:
            return Sample(traced, time.monotonic() - started, False, {}, None,
                          [f"job timed out after {timeout:.0f} s"])
    wall = time.monotonic() - started
    if proc.returncode != 0 or not result_path.is_file():
        return Sample(traced, wall, False, {}, None,
                      [f"worker exited {proc.returncode}"])
    result = json.loads(result_path.read_text())
    if result["error"]:
        return Sample(traced, wall, False, result, None, [result["error"]])
    texts = [Path(report).read_text(encoding="utf-8")
             for report in job.reports]
    digest = hashlib.sha256("\0".join(texts).encode()).hexdigest()
    errors = job.check(texts, result["exit_codes"])
    return Sample(traced, wall, not errors, result, digest, errors)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    program_start = time.monotonic()
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    preflight(work)
    job = WORKLOADS[workload](seed, work)

    # Set-up probes are spread over the run, between jobs, so that both
    # metrics average over the same stretch of a machine whose speed drifts.
    setup: list[float] = []
    samples: list[Sample] = []
    loop_start = time.monotonic()
    kinds = [False, True] if traced else [False]
    while True:
        elapsed = time.monotonic() - loop_start
        while len(setup) < min(SETUP_PROBES, 1 + SETUP_PROBES * elapsed / seconds):
            setup.append(setup_time(work))
        kind = kinds[len(samples) % len(kinds)]
        remaining = RUN_LIMIT_S - (time.monotonic() - program_start)
        samples.append(run_job(job, work, kind, len(samples), max(remaining, 1)))
        elapsed = time.monotonic() - loop_start
        next_kind = kinds[len(samples) % len(kinds)]
        same = [s.wall_s for s in samples if s.traced == next_kind]
        estimate = statistics.median(same) if same else samples[-1].wall_s
        if (len(samples) >= len(kinds) and elapsed + estimate > seconds) \
                or time.monotonic() - program_start + estimate > RUN_LIMIT_S:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(setup_time(work))

    reference = samples[0].digest
    for sample in samples:
        if sample.ok and sample.digest != reference:
            sample.ok = False
            sample.errors.append("report differs from the run's first report")
    failed = [s for s in samples if not s.ok]
    for sample in failed[:3]:
        print(f"FAILED job: {'; '.join(sample.errors)[:2000]}", file=sys.stderr)

    plain = [s.result["job_s"] for s in samples if not s.traced and s.ok]
    report = {
        "workload": workload, "seed": seed, "trace": int(traced),
        "jobs": len(samples), "failed": len(failed),
        "fail_frac": len(failed) / len(samples),
        "digest": reference,
    }
    if plain:
        q1, med, q3 = quartiles(plain)
        report["job_s"] = {"median": med, "q1": q1, "q3": q3,
                           "samples": len(plain),
                           "values": [round(v, 3) for v in plain]}
    report["setup_s"] = dict(zip(("q1", "median", "q3"), quartiles(setup)))
    print(json.dumps(report, sort_keys=True))

    metrics: dict[str, dict] = {}
    if not traced and plain:
        rss = [s.result["peak_rss_mib"] for s in samples if s.ok]
        metrics["job_s"] = {"value": statistics.median(plain), "unit": "s"}
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        metrics["peak_rss_mib"] = {"value": statistics.median(rss),
                                   "unit": "MiB"}
    traced_ok = [s for s in samples if s.traced and s.ok]
    if traced and plain and traced_ok:
        metrics = layer_metrics(traced_ok, statistics.median(plain))
    return {"correct": not failed and bool(metrics),
            "attempted": len(samples), "failed": len(failed),
            "metrics": metrics}


UNITS = {"_s": "s", "_ratio": "ratio", "_yield": "ratio", "_bits": "bits",
         "_bytes": "bytes"}


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in UNITS.items()
                 if name.endswith(suffix)), "count")


def layer_metrics(traced: list[Sample], plain_job_s: float) -> dict[str, dict]:
    """Counts from the first traced job (they repeat exactly), times as the
    median over traced jobs."""
    first = traced[0].result
    values = {}
    for name, value in first["metrics"].items():
        if unit_of(name) == "s":
            value = statistics.median(s.result["metrics"][name] for s in traced)
        values[name] = value
    values["cli.report_bytes"] = first["report_bytes"]
    values["trace.overhead_ratio"] = (
        statistics.median(s.result["job_s"] for s in traced) / plain_job_s)
    return {name: {"value": value, "unit": unit_of(name)}
            for name, value in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=58)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Unrunnable as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
