"""The experiment scripts in scripts/ run end to end at small orders.

Each script imports the public API, so a rename or removal there breaks it;
these runs catch that, and read every residual line the script prints.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120)


def labelled_values(lines):
    """{label: value} for every indented "label: value" line."""
    pairs = (line.strip().split(":", 1) for line in lines
             if line.startswith("  ") and ": " in line)
    return {label.strip(): value.strip() for label, value in pairs}


def test_point_suite_residuals_read_zero():
    proc = run_script("point_suite.py", "--t-order", "4", "--desc-order", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    start = lines.index("structure residuals (all must be 0):") + 1
    residuals = labelled_values(lines[start:lines.index("", start)])
    values = labelled_values(lines)
    for label in ("differential equation residual", "closed-form mismatches"):
        residuals[label] = values[label]
    assert len(residuals) == 7
    assert set(residuals.values()) == {"0"}
    assert values["complete"] == "True"


def test_projective_suite_checks_read_ok():
    proc = run_script("projective_suite.py", "--max-dim", "2", "--t-order", "4")
    assert proc.returncode == 0, proc.stderr
    checks = [line.rsplit(": ", 1)[1] for line in proc.stdout.splitlines()
              if line.startswith("  ") and ": " in line]
    assert len(checks) == 2 * 6
    assert set(checks) == {"ok"}
