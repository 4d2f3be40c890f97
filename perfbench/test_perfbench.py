"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest perfbench -q
"""

import json
import sys
from itertools import combinations_with_replacement

import gen
import run
import verify

sys.path.insert(0, str(run.SRC))

from qkzero.descendents import descendent_euler  # noqa: E402
from qkzero.errors import NotReducible  # noqa: E402


def test_same_seed_same_inputs_and_other_seed_other_inputs():
    assert gen.descendent_batch(7) == gen.descendent_batch(7)
    assert gen.descendent_batch(7) != gen.descendent_batch(8)
    assert gen.p1_quantum_table(7) == gen.p1_quantum_table(7)
    assert gen.p1_quantum_table(7) != gen.p1_quantum_table(8)


def test_batch_mix_is_fixed_by_design():
    batch = gen.descendent_batch(3)
    assert len(batch) == gen.BATCH_SIZE
    assert sum(not verify.reducible(index) for index in batch) \
        == gen.BATCH_SIZE // gen.IRREDUCIBLE_EVERY
    assert {len(index) for index in batch} == set(range(4, 17))
    assert max(max(index) for index in batch) <= gen.BATCH_MAX_POWER


def test_reducibility_rule_reference_and_closed_forms_match_the_engine():
    indices = [list(index) for n in range(4, 9)
               for index in combinations_with_replacement(range(6), n)]
    for index, reference in zip(indices, verify.reference_values(indices)):
        try:
            value = descendent_euler(index)
        except NotReducible:
            assert not verify.reducible(index), index
            assert reference is None, index
            continue
        assert verify.reducible(index), index
        assert reference == value, index
        known = verify.expected_value(index)
        assert known is None or known == value, index


def _batch_report(batch):
    lines = []
    for index in batch:
        try:
            value = str(descendent_euler(index))
        except NotReducible:
            value = "NotReducible"
        lines.append(json.dumps({"index": index, "value": value},
                                sort_keys=True))
    return "\n".join(lines) + "\n"


def _first_line_with_no_closed_form(batch):
    return next(i for i, index in enumerate(batch)
                if verify.expected_value(index) is None
                and verify.reducible(index))


def test_verifier_rejects_a_wrong_batch_value():
    batch = gen.descendent_batch(5)[:300]
    expected = verify.reference_values(batch)
    text = _batch_report(batch)
    assert verify.check_batch_report(text, 2, batch, expected) == []
    four_point = next(i for i, index in enumerate(batch)
                      if len(index) == 4 and verify.reducible(index))
    for target, wrong_checks in ((four_point, 2),
                                 (_first_line_with_no_closed_form(batch), 1)):
        lines = text.splitlines()
        doc = json.loads(lines[target])
        doc["value"] = str(int(doc["value"]) + 1)
        lines[target] = json.dumps(doc, sort_keys=True)
        errors = verify.check_batch_report("\n".join(lines) + "\n", 2,
                                           batch, expected)
        assert len(errors) == wrong_checks, errors
        assert all(f"line {target + 1}:" in error for error in errors)


def test_verifier_rejects_a_reducible_index_reported_irreducible():
    batch = gen.descendent_batch(5)[:300]
    lines = _batch_report(batch).splitlines()
    target = _first_line_with_no_closed_form(batch)
    doc = json.loads(lines[target])
    doc["value"] = "NotReducible"
    lines[target] = json.dumps(doc, sort_keys=True)
    assert verify.check_batch_report("\n".join(lines) + "\n", 2, batch,
                                     verify.reference_values(batch))


def test_verifier_rejects_p1_table_with_one_wrong_invariant(tmp_path):
    job = run.WORKLOADS["frobenius-quantum-p1"](0, tmp_path)
    # The job reads its table from this file; replace it with one where
    # <pt, pt, pt, pt> in degree 2 is 2 instead of 1.
    gen.write_json(tmp_path / "p1_table.json", gen.p1_quantum_table(
        0, corrupt={(2, (1, 1, 1, 1)): "2"}))
    sample = run.run_job(job, tmp_path, False, 0, 120)
    assert not sample.ok
    assert sample.result["exit_codes"] == [3, 3]
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["wdvv"]["max_residual"] == "1/2"
    assert any("nonzero residuals" in error for error in sample.errors)


def test_traced_and_untraced_jobs_write_the_same_reports(tmp_path):
    job = run.WORKLOADS["frobenius-quantum-p1"](11, tmp_path)
    # The job's peak memory must not include this process's own memory.
    ballast = bytearray(96 * 2**20)
    ballast[::4096] = b"\1" * len(ballast[::4096])
    plain = run.run_job(job, tmp_path, False, 0, 120)
    traced = run.run_job(job, tmp_path, True, 1, 120)
    del ballast
    assert plain.ok and traced.ok, plain.errors + traced.errors
    assert plain.digest == traced.digest
    assert plain.result["peak_rss_mib"] < 64
    metrics = traced.result["metrics"]
    assert metrics["series.mul_pairs"] > metrics["series.mul_terms_out"] > 0
    assert metrics["correlators.pairs_checked"] == 180
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert spans[0]["name"] == "cli.main" and spans[0]["parent"] == -1
    assert all(span["start"] <= span["end"] for span in spans)
