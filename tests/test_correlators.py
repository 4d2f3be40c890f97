"""Correlator tables: degree-zero values, loading gates, consistency checks."""

from __future__ import annotations

import json
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkzero import (
    CorrelatorTable,
    DuplicateEntry,
    IneffectiveDegree,
    SchemaError,
    effective_degrees,
    load_correlators,
    point_kring,
    projective_space_kring,
    table_consistency_check,
)
from qkzero.correlators import degree_zero_chi, table_key

from oracles import euler_char_line_bundle, p2_line_bundle_kring

P1 = projective_space_kring(1)


def test_beta_zero_point_values():
    chi = degree_zero_chi(point_kring())
    for n in range(3, 8):
        assert chi((0,) * n) == 1


def test_beta_zero_projective_values():
    # chi of a^m on the line: 1 for m <= 1, 0 after.
    chi = degree_zero_chi(P1)
    assert chi((0, 0, 1)) == 1
    assert chi((1, 1, 0)) == 0
    assert chi((1, 1, 1)) == 0
    chi = degree_zero_chi(projective_space_kring(2))
    assert chi((1, 1, 0)) == 1
    assert chi((1, 1, 1, 1)) == 0


def test_beta_zero_needs_three_points():
    # No stable curve of degree zero has two points: the key is refused.
    with pytest.raises(SchemaError, match="degree-zero entry with 2 points"):
        table_key(P1.rank, 1, (0,), (0, 1))


@pytest.mark.parametrize("insertions", [(0, 1, 2), (-1, 0, 0)])
def test_beta_zero_rejects_out_of_range_insertion(insertions):
    with pytest.raises(ValueError, match="out of range"):
        degree_zero_chi(P1)(insertions)


@given(st.lists(st.integers(0, 2), min_size=3, max_size=6))
@settings(max_examples=60, deadline=None)
def test_beta_zero_symmetry(insertions):
    # A fresh chi per order, so no cached product serves another order.
    p2 = projective_space_kring(2)
    value = degree_zero_chi(p2)(insertions)
    assert value == degree_zero_chi(p2)(tuple(reversed(insertions)))
    assert value == degree_zero_chi(p2)(tuple(sorted(insertions)))


def test_beta_zero_line_bundle_basis_matches_closed_form():
    # In the basis O(-i) the product of the insertions is O(-sum), so chi is
    # the line-bundle closed form; structure constants such as -8 and 6 in
    # O(-2) * O(-2) must all be carried.
    ring = p2_line_bundle_kring()
    assert ring.mult[2][2] == (3, -8, 6)
    chi = degree_zero_chi(ring)
    for n in range(3, 7):
        for ins in combinations_with_replacement(range(3), n):
            assert chi(ins) == euler_char_line_bundle(2, -sum(ins))
    assert chi((2,) * 5) == 36


def test_effective_degrees_enumeration():
    assert list(effective_degrees(0, 5)) == [()]
    assert list(effective_degrees(1, 2)) == [(0,), (1,), (2,)]
    assert list(effective_degrees(2, 1)) == [(0, 0), (0, 1), (1, 0)]
    # Twelve Novikov variables: the 4^12 vectors with entries <= 3 would
    # take seconds to filter down to these.
    start = time.perf_counter()
    degrees = list(effective_degrees(12, 3))
    assert time.perf_counter() - start < 0.5
    assert len(degrees) == comb(15, 3) == 455
    assert degrees == sorted(set(degrees), key=lambda v: (sum(v), v))
    assert all(min(v) >= 0 and sum(v) <= 3 for v in degrees)


def _p1_table_doc(entries, descendents=()):
    return {
        "target": {"type": "projective", "n": 1},
        "degree_rank": 1,
        "correlators": list(entries),
        "descendent_correlators": list(descendents),
    }


def test_load_and_round_trip():
    doc = _p1_table_doc(
        [{"beta": [1], "insertions": [1, 1], "value": "1/1"},
         {"beta": [0], "insertions": [0, 1, 1], "value": "0/1"}],
        [{"beta": [1], "insertions": [1], "marked": {"class": 0, "power": 2},
          "value": "3/2"}],
    )
    table = load_correlators(doc)
    assert table.ring == P1
    assert table.entries.get(((1,), (1, 1))) == 1
    assert table.descendent_entries[((1,), (1,), (0, 2))] == Fraction(3, 2)
    again = load_correlators(json.loads(json.dumps(table.to_json_dict())))
    assert again.entries == table.entries
    assert again.descendent_entries == table.descendent_entries


def test_load_rejects_negative_degree():
    doc = _p1_table_doc([{"beta": [-1], "insertions": [1, 1], "value": "1/1"}])
    with pytest.raises(IneffectiveDegree):
        load_correlators(doc)


def test_load_rejects_duplicate_after_sorting():
    doc = _p1_table_doc(
        [{"beta": [1], "insertions": [0, 1], "value": "1/1"},
         {"beta": [1], "insertions": [1, 0], "value": "2/1"}])
    with pytest.raises(DuplicateEntry):
        load_correlators(doc)
    marked = {"beta": [1], "insertions": [0, 1], "marked": {"class": 1, "power": 2},
              "value": "1/1"}
    doc = _p1_table_doc([], [marked, {**marked, "insertions": [1, 0]}])
    with pytest.raises(DuplicateEntry, match="duplicate descendent key"):
        load_correlators(doc)


@pytest.mark.parametrize("doc,message", [
    ([], "correlator document must be an object"),
    ({**_p1_table_doc([]), "target": "point"}, "target must be an object"),
    ({**_p1_table_doc([]), "target": {"type": "custom"}}, "needs an embedded 'ring'"),
    ({**_p1_table_doc([]), "target": {"type": "torus"}}, "unknown target type 'torus'"),
    (_p1_table_doc([{"beta": [1], "insertions": [0, 1]}]), "malformed correlator entry"),
    (_p1_table_doc([[1]]), "malformed correlator entry"),
    (_p1_table_doc([], [{"beta": [1], "insertions": [1], "value": "1/1"}]),
     "malformed descendent entry"),
    (_p1_table_doc([], [{"beta": [1], "insertions": [1], "value": "1/1",
                         "marked": {"class": 0}}]), "must give 'class' and 'power'"),
    (_p1_table_doc([], [{"beta": [1], "insertions": [1], "value": "1/1",
                         "marked": [0, 2]}]), "must give 'class' and 'power'"),
], ids=["document", "target", "custom-without-ring", "target-type", "plain-entry",
        "plain-entry-list", "descendent-entry", "marked-power-missing", "marked-list"])
def test_load_rejects_malformed_documents(doc, message):
    with pytest.raises(SchemaError, match=message):
        load_correlators(doc)


def test_load_rejects_beta_zero_with_two_points():
    doc = _p1_table_doc([{"beta": [0], "insertions": [1, 1], "value": "1/1"}])
    with pytest.raises(SchemaError):
        load_correlators(doc)


def test_load_rejects_bad_insertion_index():
    doc = _p1_table_doc([{"beta": [1], "insertions": [0, 7], "value": "1/1"}])
    with pytest.raises(SchemaError):
        load_correlators(doc)


@pytest.mark.parametrize("doc", [
    _p1_table_doc([{"beta": [1], "insertions": [True, 1], "value": "1/1"}]),
    _p1_table_doc([], [{"beta": [1], "insertions": [1], "value": "1/1",
                        "marked": {"class": True, "power": 2}}]),
    _p1_table_doc([], [{"beta": [1], "insertions": [1], "value": "1/1",
                        "marked": {"class": 0, "power": True}}]),
    _p1_table_doc([{"beta": [1.9], "insertions": [1, 1], "value": "1/1"}]),
    _p1_table_doc([{"beta": [True], "insertions": [1, 1], "value": "1/1"}]),
    {**_p1_table_doc([]), "degree_rank": True},
    {**_p1_table_doc([]), "target": {"type": "projective", "n": True}},
], ids=["insertion", "marked-class", "marked-power", "beta-float", "beta-bool",
        "degree-rank", "projective-n"])
def test_load_rejects_booleans(doc):
    with pytest.raises(SchemaError):
        load_correlators(doc)


@pytest.mark.parametrize("field,value", [
    ("correlators", 7),
    ("correlators", {"beta": [1]}),
    ("descendent_correlators", {"a": 1}),
    ("descendent_correlators", "[]"),
])
def test_load_rejects_non_list_entry_fields(field, value):
    doc = {**_p1_table_doc([]), field: value}
    with pytest.raises(SchemaError, match=f"^{field} must be a list$"):
        load_correlators(doc)


def test_load_rejects_missing_field():
    doc = _p1_table_doc([])
    del doc["degree_rank"]
    with pytest.raises(SchemaError):
        load_correlators(doc)


def test_missing_entry_is_unknown_not_zero():
    table = CorrelatorTable.empty(P1, 1, {"type": "projective", "n": 1})
    assert table.entries.get(((1,), (1, 1))) is None


def test_consistency_check_accepts_unit_consistent_table():
    table = CorrelatorTable.empty(P1, 1, {"type": "projective", "n": 1})
    # A degree-one family satisfying the unit-insertion rule by construction.
    table = table.with_entry((1,), (1, 1), Fraction(1))
    table = table.with_entry((1,), (0, 1, 1), Fraction(1))
    table = table.with_entry((1,), (0, 0, 1, 1), Fraction(1))
    report = table_consistency_check(table)
    assert report.ok
    assert report.checked_pairs == 2


def test_consistency_check_flags_single_perturbation():
    table = CorrelatorTable.empty(P1, 1, {"type": "projective", "n": 1})
    table = table.with_entry((1,), (1, 1), Fraction(1))
    table = table.with_entry((1,), (0, 1, 1), Fraction(1))
    # Perturb the top of the chain so exactly one pair disagrees.
    table = table.with_entry((1,), (0, 0, 1, 1), Fraction(1) + Fraction(1, 7))
    report = table_consistency_check(table)
    assert not report.ok
    assert len(report.violations) == 1
    violation = report.violations[0]
    assert violation["insertions"] == [0, 0, 1, 1]
    assert violation["parent_insertions"] == [0, 1, 1]
    assert violation["value"] == "8/7"


def _empty_p1():
    return CorrelatorTable.empty(P1, 1, {"type": "projective", "n": 1})


def test_builder_rejects_degree_zero_two_point_entry():
    # Accepted, this would replace g_01 in the potential: the t0*t1
    # coefficient would read 5 instead of 1.
    with pytest.raises(SchemaError, match="moduli space is empty"):
        _empty_p1().with_entry((0,), (0, 1), Fraction(5))
    with pytest.raises(SchemaError, match="moduli space is empty"):
        _empty_p1().with_descendent_entry((0,), (1,), (0, 2), Fraction(1))


@pytest.mark.parametrize("beta,insertions,error", [
    ((0, 0), (0, 1, 1), SchemaError),
    ((-1,), (0, 1, 1), IneffectiveDegree),
    ([True], (0, 1, 1), SchemaError),
    ((1,), (0, 7), SchemaError),
    ((1,), (-1, 0), SchemaError),
    ((1,), (True, 1), SchemaError),
    ((1,), 3, SchemaError),
], ids=["beta-length", "beta-negative", "beta-bool", "index-high",
        "index-negative", "index-bool", "insertions-int"])
def test_builder_rejects_bad_plain_key(beta, insertions, error):
    with pytest.raises(error):
        _empty_p1().with_entry(beta, insertions, Fraction(1))


@pytest.mark.parametrize("beta,insertions,marked", [
    ((0,), (5,), (9, -1)),
    ((0,), (5,), (0, 1)),
    ((0,), (0, 1), (9, 1)),
    ((0,), (0, 1), (0, -1)),
    ((1,), (), (True, 0)),
    ((1,), (), (0, 1.0)),
], ids=["index-class-power", "index", "class", "power", "class-bool",
        "power-float"])
def test_builder_rejects_bad_marked_key(beta, insertions, marked):
    with pytest.raises(SchemaError):
        _empty_p1().with_descendent_entry(beta, insertions, marked, Fraction(1))


@pytest.mark.parametrize("value", [0.1, 1.0, True, "1/2", None])
def test_builder_rejects_inexact_values(value):
    with pytest.raises(SchemaError, match="int or Fraction"):
        _empty_p1().with_entry((1,), (0, 1), value)
    with pytest.raises(SchemaError, match="int or Fraction"):
        _empty_p1().with_descendent_entry((1,), (1,), (0, 2), value)


def test_builder_accepts_valid_keys():
    table = (_empty_p1()
             .with_entry((1,), [1, 0], 2)
             .with_entry((0,), (1, 0, 0), Fraction(-1, 3))
             .with_entry((3,), (), Fraction(1))
             .with_descendent_entry((0,), (1, 0), (1, 4), Fraction(1, 2))
             .with_descendent_entry((2,), (), (0, 0), 7))
    assert table.entries == {((1,), (0, 1)): 2, ((0,), (0, 0, 1)): Fraction(-1, 3),
                             ((3,), ()): 1}
    assert table.descendent_entries == {((0,), (0, 1), (1, 4)): Fraction(1, 2),
                                        ((2,), (), (0, 0)): 7}
    assert all(type(v) is Fraction for v in table.entries.values())
    again = load_correlators(json.loads(json.dumps(table.to_json_dict())))
    assert again.entries == table.entries
    assert again.descendent_entries == table.descendent_entries
