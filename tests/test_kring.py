"""Ring presentations: construction gates, pairing values, structure constants."""

from __future__ import annotations

import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkzero import (
    InvalidPresentation,
    KRingPresentation,
    SchemaError,
    point_kring,
    projective_space_kring,
)
from qkzero.correlators import degree_zero_chi

from oracles import euler_char_line_bundle, p2_line_bundle_kring


def test_line_bundle_euler_characteristics():
    assert euler_char_line_bundle(1, 0) == 1
    assert euler_char_line_bundle(1, 3) == 4
    assert euler_char_line_bundle(1, -1) == 0
    assert euler_char_line_bundle(1, -2) == -1
    assert euler_char_line_bundle(2, -1) == 0
    assert euler_char_line_bundle(2, -2) == 0
    assert euler_char_line_bundle(2, -3) == 1
    assert euler_char_line_bundle(3, 2) == 10


def test_point_ring():
    ring = point_kring()
    assert ring == projective_space_kring(0)
    assert ring.rank == 1
    assert ring.pairing == ((Fraction(1),),)
    assert degree_zero_chi(ring)((0, 0, 0)) == 1


@pytest.mark.parametrize("n", range(9))
def test_projective_pairing_is_antitriangular(n):
    # chi(a^m) = 1 for m <= n and 0 beyond the dimension: ones on and above
    # the antidiagonal, zeros below.  Expanding a^m = (1 - O(-1))^m over
    # twists derives it from the line-bundle closed form.
    ring = projective_space_kring(n)
    for i in range(n + 1):
        for j in range(n + 1):
            m = i + j
            derived = sum(((-1) ** u * comb(m, u) * euler_char_line_bundle(n, -u)
                           for u in range(m + 1)), Fraction(0))
            expected = Fraction(1 if m <= n else 0)
            assert ring.pairing[i][j] == derived == expected


def test_projective_line_products_vanish_past_dimension():
    ring = projective_space_kring(1)
    assert ring.mult[1][1] == (Fraction(0), Fraction(0))
    assert degree_zero_chi(ring)((1, 1, 0)) == 0


def test_json_round_trip():
    ring = projective_space_kring(2)
    doc = ring.to_json_dict()
    assert doc["rank"] == 3
    back = KRingPresentation.from_json_dict(doc)
    assert back == ring


def test_json_rejects_rank_mismatch():
    # 2.0 and true equal the label count but are not JSON integers.
    for ring, rank in ((projective_space_kring(1), 5),
                       (projective_space_kring(1), 2.0), (point_kring(), True)):
        doc = ring.to_json_dict()
        doc["rank"] = rank
        with pytest.raises(SchemaError):
            KRingPresentation.from_json_dict(doc)


def _p1_doc(**changes):
    return {**projective_space_kring(1).to_json_dict(), **changes}


@pytest.mark.parametrize("doc,message", [
    ([], "ring document must be an object"),
    ({"rank": 1, "labels": ["e0"], "mult": [[["1/1"]]]}, r"missing fields: \['pairing'\]"),
    (_p1_doc(labels=[0, 1]), "labels must be a list of strings"),
    (_p1_doc(labels="e0"), "labels must be a list of strings"),
    (_p1_doc(mult=5), "malformed tensor: expected an array, got 5"),
    (_p1_doc(pairing=[["1/1", "1/1"], 7]), "malformed tensor: expected an array, got 7"),
    (_p1_doc(pairing=[[1, 1], [1, 0]]), "rational values must look like p/q"),
    # A string row would otherwise read as its digits: this pairing and
    # unit plane load as P^1's.
    (_p1_doc(pairing=["11", "10"]), "malformed tensor: expected an array, got '11'"),
    (_p1_doc(mult=[["10", "01"], [["0/1", "1/1"], ["0/1", "0/1"]]]),
     "malformed tensor: expected an array, got '10'"),
], ids=["document", "missing", "label-ints", "labels-string", "mult-int", "pairing-row-int",
        "pairing-ints", "pairing-string-rows", "mult-string-rows"])
def test_json_rejects_malformed_ring_document(doc, message):
    with pytest.raises(SchemaError, match=message):
        KRingPresentation.from_json_dict(doc)


# -- constructor gates --------------------------------------------------------


def test_large_projective_ring_builds_quickly():
    # Validation is O(r^3) sparse products, not O(r^5) dense sums: P^12
    # built in 3.8 s with the dense sums.
    start = time.perf_counter()
    ring = projective_space_kring(12)
    assert time.perf_counter() - start < 0.5
    assert ring.rank == 13


def test_rejects_empty_basis_and_misshapen_tensors():
    with pytest.raises(ValueError, match="non-negative"):
        projective_space_kring(-1)
    ring = projective_space_kring(1)
    with pytest.raises(InvalidPresentation, match="empty basis"):
        KRingPresentation((), (), ())
    with pytest.raises(InvalidPresentation, match="rank x rank x rank"):
        KRingPresentation(ring.labels, ring.mult[:1], ring.pairing)
    with pytest.raises(InvalidPresentation, match="rank x rank x rank"):
        KRingPresentation(ring.labels, (ring.mult[0], ring.mult[1][:1]), ring.pairing)
    with pytest.raises(InvalidPresentation, match="pairing must be rank x rank"):
        KRingPresentation(ring.labels, ring.mult, (ring.pairing[0], ring.pairing[1][:1]))


def _mutate_mult(ring: KRingPresentation, i: int, j: int, k: int,
                 delta: Fraction) -> tuple:
    mult = [[[x for x in row] for row in plane] for plane in ring.mult]
    mult[i][j][k] += delta
    return tuple(tuple(tuple(row) for row in plane) for plane in mult)


def _mutate_pairing(ring: KRingPresentation, i: int, j: int,
                    delta: Fraction) -> tuple:
    pairing = [[x for x in row] for row in ring.pairing]
    pairing[i][j] += delta
    return tuple(tuple(row) for row in pairing)


def test_rejects_broken_unit():
    ring = projective_space_kring(1)
    with pytest.raises(InvalidPresentation):
        KRingPresentation(ring.labels, _mutate_mult(ring, 0, 1, 0, Fraction(1)),
                          ring.pairing)


def test_rejects_noncommutative_table():
    ring = projective_space_kring(2)
    with pytest.raises(InvalidPresentation):
        KRingPresentation(ring.labels, _mutate_mult(ring, 1, 2, 0, Fraction(1)),
                          ring.pairing)


def test_rejects_nonassociative_table():
    # a^2 * a^2 = a^2 is commutative with unit intact but breaks
    # (a a) a^2 = a^2 against a (a a^2) = 0.
    ring = projective_space_kring(2)
    mutated = _mutate_mult(ring, 2, 2, 2, Fraction(1))
    with pytest.raises(InvalidPresentation):
        KRingPresentation(ring.labels, mutated, ring.pairing)


def test_rejects_asymmetric_pairing():
    ring = projective_space_kring(1)
    with pytest.raises(InvalidPresentation):
        KRingPresentation(ring.labels, ring.mult,
                          _mutate_pairing(ring, 0, 1, Fraction(1)))


def test_rejects_singular_pairing():
    ring = projective_space_kring(1)
    singular = ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1)))
    with pytest.raises(InvalidPresentation):
        KRingPresentation(ring.labels, ring.mult, singular)


def test_rejects_incompatible_pairing():
    # Symmetric and invertible, but not invariant under multiplication.
    ring = projective_space_kring(1)
    bad = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    with pytest.raises(InvalidPresentation):
        KRingPresentation(ring.labels, ring.mult, bad)


@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
       st.sampled_from([1, -1, 2, Fraction(1, 2)]))
@settings(max_examples=80, deadline=None)
def test_every_single_entry_mult_mutation_is_rejected(i, j, k, delta):
    # The power basis has structure constants in {0, 1}; the line-bundle
    # basis carries ones such as -8 and 6.
    for ring in (projective_space_kring(2), p2_line_bundle_kring()):
        with pytest.raises(InvalidPresentation):
            KRingPresentation(ring.labels,
                              _mutate_mult(ring, i, j, k, Fraction(delta)),
                              ring.pairing)
