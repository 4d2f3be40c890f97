"""Command-line interface: exit codes, report shapes, determinism.

Everything runs in process through main() so coverage and debugging stay
simple; golden files pin the exact bytes of representative reports.
"""

import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from qkzero import SeriesMatrix, descendent_euler, point_kring, projective_space_kring
from qkzero.cli import main
from qkzero.correlators import CorrelatorTable

from oracles import degree_zero_descendent_table

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def empty_point_table():
    return CorrelatorTable.empty(point_kring(), 0, {"type": "point"})


def run_fresh(*args):
    """The CLI in a fresh interpreter, so an uncaught exception would show
    as a traceback."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "qkzero.cli", *args],
        capture_output=True, text=True, env=env, timeout=60)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_descendent_single_value(capsys):
    code, out, err = run_cli(["descendent", "2,3,0,1"], capsys)
    assert code == 0
    assert out == "7\n"
    assert "E(4;" in err


def test_descendent_single_irreducible(capsys):
    code, out, _ = run_cli(["descendent", "2,2,2,2"], capsys)
    assert code == 2
    assert out == "NotReducible\n"


def test_descendent_irreducible_names_requested_index(capsys):
    code, out, err = run_cli(["descendent", "0,2,2,2,2"], capsys)
    assert code == 2
    assert out == "NotReducible\n"
    assert err == ("E(5; [0, 2, 2, 2, 2]) is not reducible: "
                   "reduction reaches E(4; [2, 2, 2, 2])\n")


def test_descendent_deep_irreducible_exits_two(capsys):
    index = ",".join(["0"] * 1200 + ["2"] * 4)
    code, out, err = run_cli(["descendent", index], capsys)
    assert code == 2
    assert out == "NotReducible\n"
    assert "reduction reaches E(4; [2, 2, 2, 2])" in err


def test_descendent_requires_index_or_batch(capsys):
    code, out, err = run_cli(["descendent"], capsys)
    assert code == 1
    assert out == ""
    assert "batch" in err


def test_descendent_batch_matches_golden(capsys):
    code, out, err = run_cli(
        ["descendent", "--input", str(DATA / "descendent_batch_input.json")],
        capsys)
    assert code == 2  # one index in the batch is irreducible
    assert out == (DATA / "descendent_batch.golden").read_text()
    assert "5 descendent indices" in err


def test_descendent_batch_continues_past_failures(capsys):
    code, out, _ = run_cli(
        ["descendent", "--input", str(DATA / "descendent_batch_input.json")],
        capsys)
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 5
    assert [l["value"] for l in lines] == ["1", "7", "NotReducible", "1", "6"]


def test_descendent_batch_rejects_malformed(tmp_path, capsys):
    bad = tmp_path / "batch.json"
    bad.write_text('[[1, 2], "x"]')
    code, out, err = run_cli(["descendent", "--input", str(bad)], capsys)
    assert code == 1
    assert out == ""
    assert "array of integer arrays" in err


def test_descendent_batch_rejects_booleans(tmp_path, capsys):
    bad = tmp_path / "batch.json"
    bad.write_text("[[true, 0, 0, 1]]")
    code, out, err = run_cli(["descendent", "--input", str(bad)], capsys)
    assert code == 1
    assert out == ""
    assert "batch file must be a JSON array of integer arrays" in err


def test_potential_point_coefficients(capsys):
    code, out, _ = run_cli(
        ["potential", "--target", "point", "--t-order", "5"], capsys)
    assert code == 0
    doc = json.loads(out)
    values = {tuple(term["exp"]): term["value"] for term in doc["terms"]}
    assert values[(2, 0)] == "1/2"
    assert values[(3, 0)] == "1/6"
    assert values[(5, 0)] == "1/120"
    assert (0, 0) not in values and (1, 0) not in values


def test_output_is_deterministic(capsys):
    args = ["frobenius-check", "--target", "projective:1", "--t-order", "5"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


def test_frobenius_point_matches_golden(capsys):
    code, out, err = run_cli(
        ["frobenius-check", "--target", "point", "--t-order", "5"], capsys)
    assert code == 0
    assert out == (DATA / "frobenius_point.golden.json").read_text()
    assert "exactly zero" in err


def test_frobenius_projective_report_shape(capsys):
    code, out, _ = run_cli(
        ["frobenius-check", "--target", "projective:2", "--t-order", "6"],
        capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"certified_orders", "wdvv", "flatness", "levicivita",
                        "unit", "q0_classical"}
    windows = doc["certified_orders"]["windows"]
    assert set(windows) == {"wdvv", "r1", "r2", "levicivita", "metric",
                            "unit", "q0_classical"}
    assert windows["wdvv"]["t"] == 3
    assert windows["r1"]["t"] == 2
    assert windows["metric"]["t"] == 2
    assert doc["wdvv"]["witness"] is None


def _p1_degree_one_table():
    """Plain correlators for the projective line with a synthetic
    degree-one block; every multiset value 1 sums to an exponential,
    which passes all the structure checks at this window."""
    ring = projective_space_kring(1)
    table = CorrelatorTable.empty(ring, 1, {"type": "projective", "n": 1})
    for n in range(6):
        for kappa in combinations_with_replacement(range(2), n):
            table = table.with_entry((1,), kappa, Fraction(1))
    return table


def test_frobenius_check_flags_bad_input_table(tmp_path, capsys):
    table = _p1_degree_one_table()
    # A degree-zero quartic in a single direction is not symmetric enough:
    # associativity fails at this order.
    table = table.with_entry((0,), (0, 1, 1, 1), Fraction(1, 5))
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table.to_json_dict()))
    code, out, err = run_cli(
        ["frobenius-check", "--input", str(path), "--t-order", "5",
         "--q-order", "1"], capsys)
    assert code == 3
    doc = json.loads(out)
    assert doc["wdvv"]["max_residual"] != "0/1"
    assert doc["wdvv"]["witness"] is not None
    assert "NONZERO" in err


def test_frobenius_check_accepts_consistent_input_table(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(_p1_degree_one_table().to_json_dict()))
    code, _, _ = run_cli(
        ["frobenius-check", "--input", str(path), "--t-order", "5",
         "--q-order", "1"], capsys)
    assert code == 0


def test_qde_check_point(capsys):
    code, out, _ = run_cli(
        ["qde-check", "--target", "point", "--t-order", "5",
         "--desc-order", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["certified_window"] == {"t": 4, "novikov": 0, "q": 3}
    assert doc["complete"] is True
    assert doc["qde_residuals"][0]["max_residual"] == "0/1"
    assert doc["gwdvv_residuals"] == []


def test_qde_check_flags_perturbed_descendent(tmp_path, capsys):
    table = empty_point_table().with_descendent_entry(
        (), (0, 0, 0), (0, 1), descendent_euler((0, 0, 0, 1)) + Fraction(1, 9))
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table.to_json_dict()))
    code, out, err = run_cli(
        ["qde-check", "--input", str(path), "--t-order", "5",
         "--desc-order", "3"], capsys)
    assert code == 3
    doc = json.loads(out)
    assert doc["qde_residuals"][0]["max_residual"] != "0/1"
    assert "NONZERO" in err


@pytest.mark.parametrize("name,t_order,desc_order", [
    # <pt, pt, pt, tau_1(pt)> raised by 1/9
    ("qde_point_perturbed", "8", "6"),
    # one degree-zero marked entry of P^2 raised by 2/5
    ("qde_p2_perturbed", "5", "3"),
])
def test_qde_check_perturbed_table_matches_golden(name, t_order, desc_order, capsys):
    code, out, err = run_cli(
        ["qde-check", "--input", str(DATA / f"{name}_input.json"),
         "--t-order", t_order, "--desc-order", desc_order], capsys)
    assert code == 3
    assert out == (DATA / f"{name}.golden.json").read_text()
    assert err == "NONZERO residuals found; see report\n"


def test_qde_check_differentiates_once_per_variable(tmp_path, capsys,
                                                   monkeypatch):
    ring = projective_space_kring(2)
    table = degree_zero_descendent_table(
        ring, {"type": "projective", "n": 2}, 5, 2)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table.to_json_dict()))
    calls = []
    derivative = SeriesMatrix.derivative

    def counted(self, var):
        calls.append((self.spec.t_order, var))
        return derivative(self, var)

    monkeypatch.setattr(SeriesMatrix, "derivative", counted)
    code, out, _ = run_cli(
        ["qde-check", "--target", "projective:2", "--input", str(path),
         "--t-order", "5", "--desc-order", "2"], capsys)
    assert code == 0
    assert len(json.loads(out)["gwdvv_residuals"]) == 3
    # S at t order 5 and the metric G (potential 5 + 3, Hessian 6), each
    # once per variable.
    assert sorted(calls) == [(5, "t0"), (5, "t1"), (5, "t2"),
                             (6, "t0"), (6, "t1"), (6, "t2")]


def test_qde_check_needs_descendent_data_off_point(capsys):
    # Degree-zero descendent values are computed, so no input is needed.
    code, out, _ = run_cli(
        ["qde-check", "--target", "projective:1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert [pair["pair"] for pair in doc["gwdvv_residuals"]] == [[0, 1]]
    assert doc["gwdvv_residuals"][0]["max_residual"] == "0/1"


def test_table_check_flags_violation(tmp_path, capsys):
    doc = empty_point_table().to_json_dict()
    # Insert a chain of unit insertions with one wrong link.
    doc["correlators"] = [
        {"beta": [], "insertions": [0, 0, 0], "value": "1/1"},
        {"beta": [], "insertions": [0, 0, 0, 0], "value": "1/1"},
        {"beta": [], "insertions": [0, 0, 0, 0, 0], "value": "3/2"},
    ]
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(["table-check", "--input", str(path)], capsys)
    assert code == 3
    report = json.loads(out)
    assert len(report["violations"]) == 1


def test_table_check_passes_clean_table(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(empty_point_table().to_json_dict()))
    code, out, _ = run_cli(["table-check", "--input", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["violations"] == []


@pytest.mark.parametrize("field,value", [
    ("correlators", 7),
    ("descendent_correlators", {"a": 1}),
])
def test_table_check_non_list_field_exits_one_without_traceback(tmp_path, field, value):
    # A fresh interpreter, so an uncaught exception would show as a traceback.
    doc = {"target": {"type": "point"}, "degree_rank": 0,
           "correlators": [], "descendent_correlators": [], field: value}
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    proc = run_fresh("table-check", "--input", str(path))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"error: {field} must be a list\n"


@pytest.mark.parametrize("args", [
    ["table-check", "--input", "{path}"],
    ["descendent", "--input", "{path}"],
    ["kring", "info", "--target", "custom:{path}"],
])
def test_deeply_nested_json_exits_one_without_traceback(tmp_path, args):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    proc = run_fresh(*(arg.format(path=path) for arg in args))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"error: {path}: JSON nested too deeply\n"


def test_table_check_requires_input(capsys):
    code, _, err = run_cli(["table-check"], capsys)
    assert code == 1
    assert "needs --input" in err


def test_kring_info(capsys):
    code, out, _ = run_cli(
        ["kring", "info", "--target", "projective:2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 3
    assert len(doc["pairing"]) == 3


@pytest.mark.parametrize("target", [
    "projective:\u0663", "projective:\u00b2", "projective:+3", "projective: 3",
    "projective:",
])
def test_projective_dimension_must_be_ascii_digits(target, capsys):
    code, out, err = run_cli(["kring", "info", "--target", target], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: projective target needs a dimension: {target!r}\n"


NON_ASCII_RATIONALS = ["\u0661", "1\n", "1/\u0663", "\uff11/2", " 1", "+1"]


@pytest.mark.parametrize("value", NON_ASCII_RATIONALS)
@pytest.mark.parametrize("command", ["table-check", "frobenius-check"])
def test_correlator_values_must_be_ascii_rationals(tmp_path, capsys, command, value):
    doc = empty_point_table().to_json_dict()
    doc["correlators"].append({"beta": [], "insertions": [0, 0, 0], "value": value})
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli([command, "--input", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: rational values must look like p/q, got {value!r}\n"


@pytest.mark.parametrize("value", NON_ASCII_RATIONALS)
def test_custom_ring_values_must_be_ascii_rationals(tmp_path, capsys, value):
    doc = projective_space_kring(1).to_json_dict()
    doc["pairing"][0][0] = value
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["kring", "info", "--target", f"custom:{path}"], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: rational values must look like p/q, got {value!r}\n"


def test_kring_info_requires_target(capsys):
    code, _, err = run_cli(["kring", "info"], capsys)
    assert code == 1
    assert "target" in err


def test_output_file_mirrors_stdout(tmp_path, capsys):
    for args in (["frobenius-check", "--target", "point", "--t-order", "5"],
                 ["descendent", "2,3,0,1"]):
        _, direct, _ = run_cli(args, capsys)
        out_path = tmp_path / "report.json"
        code, redirected, _ = run_cli(args + ["--output", str(out_path)], capsys)
        assert code == 0
        assert redirected == ""
        assert out_path.read_text() == direct


def test_target_must_agree_with_input_ring(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(empty_point_table().to_json_dict()))
    code, _, err = run_cli(
        ["potential", "--target", "projective:1", "--input", str(path)],
        capsys)
    assert code == 1
    assert "disagrees" in err


@pytest.mark.parametrize("args", [
    ["potential", "--target", "nowhere"],
    ["potential", "--target", "projective:x"],
    ["potential", "--target", "point", "--t-order", "2"],
    ["potential", "--target", "point", "--q-order", "-1"],
    ["potential"],
    ["no-such-command"],
    ["potential", "--target", "point", "--seed", "1"],
])
def test_bad_invocations_exit_one(args, capsys):
    code, _, _ = run_cli(args, capsys)
    assert code == 1


@pytest.mark.parametrize("index,part", [
    (" 2,+3,\u0663,1", "' 2'"),
    ("2,+3,0,1", "'+3'"),
    ("2,3,\u0663,1", "'\u0663'"),
    ("1_0,0,0", "'1_0'"),
    ("2,3,,1", "''"),
])
def test_descendent_index_parts_must_be_ascii_integers(index, part, capsys):
    code, out, err = run_cli(["descendent", index], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: index part {part} is not an integer\n"


@pytest.mark.parametrize("args,message", [
    # argparse takes a leading minus for an option
    (["descendent", "-1,0,0"], "unrecognized arguments: -1,0,0\n"),
    (["descendent", "--", "-1,0,0"],
     "error: cotangent powers must be non-negative\n"),
])
def test_descendent_negative_power_exits_one(args, message, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == ""
    assert err.endswith(message)


POINT_TABLE = str(DATA / "qde_point_perturbed_input.json")


@pytest.mark.parametrize("args", [
    ["table-check", "--input", POINT_TABLE, "--target", "point"],
    ["table-check", "--input", POINT_TABLE, "--target", "projective:9"],
    ["descendent", "2,3,0,1", "--t-order", "5"],
    ["descendent", "2,3,0,1", "--desc-order", "2"],
    ["descendent", "--target", "nowhere", "--desc-order", "-5", "2,3,0,1"],
    ["kring", "info", "--target", "point", "--input", POINT_TABLE],
    ["kring", "info", "--target", "point", "--input", "/nonexistent"],
    ["potential", "--target", "point", "--desc-order", "2"],
    ["frobenius-check", "--target", "point", "--desc-order", "2"],
])
def test_subcommands_reject_flags_they_do_not_read(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("args", [
    ["potential", "--target", "point", "--q-order", "-1"],
    ["qde-check", "--target", "point", "--desc-order", "-1"],
    ["qde-check", "--target", "point", "--t-order", "-1"],
])
def test_negative_orders_exit_one(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == ""
    assert "must be an integer >= " in err


@pytest.mark.parametrize("value", ["\u0666", "+6", "1_0", " 6", "6\n", "\uff16", "6.0"])
@pytest.mark.parametrize("flag", ["--t-order", "--q-order", "--desc-order"])
def test_order_flags_must_be_ascii_integers(flag, value, capsys):
    code, out, err = run_cli(
        ["qde-check", "--target", "point", flag, value], capsys)
    assert code == 1
    assert out == ""
    assert f"argument {flag}: must be an integer >= " in err


@pytest.mark.parametrize("args", [["--help"], ["kring", "--help"], ["qde-check", "-h"]])
def test_help_exits_zero(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 0
    assert out.startswith("usage: qkzero")
    assert err == ""


def _readme_commands():
    """The qkzero lines of the README's Command line block that need no
    input file."""
    readme_path = Path(__file__).resolve().parent.parent / "README.md"
    readme = readme_path.read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("qkzero ") and "--input" not in line]


@pytest.mark.parametrize("args", _readme_commands(), ids=" ".join)
def test_readme_command_line_examples_exit_zero(args, capsys):
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert out
