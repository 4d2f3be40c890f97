"""Ring presentations: construction gates, pairing values, structure constants."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkzero import (
    InvalidPresentation,
    KRingPresentation,
    SchemaError,
    beta_zero_correlator,
    euler_char_line_bundle,
    point_kring,
    projective_space_kring,
)


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
    assert ring.rank == 1
    assert ring.pairing == ((Fraction(1),),)
    assert beta_zero_correlator(ring, (0, 0, 0)) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_projective_pairing_is_antitriangular(n):
    # chi(a^m) = 1 for m <= n and 0 beyond the dimension: ones on and above
    # the antidiagonal, zeros below.
    ring = projective_space_kring(n)
    for i in range(n + 1):
        for j in range(n + 1):
            expected = Fraction(1 if i + j <= n else 0)
            assert ring.pairing[i][j] == expected


def test_projective_line_products_vanish_past_dimension():
    ring = projective_space_kring(1)
    assert ring.mult[1][1] == (Fraction(0), Fraction(0))
    assert beta_zero_correlator(ring, (1, 1, 0)) == 0


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


# -- constructor gates --------------------------------------------------------


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
    ring = projective_space_kring(2)
    with pytest.raises(InvalidPresentation):
        KRingPresentation(ring.labels,
                          _mutate_mult(ring, i, j, k, Fraction(delta)),
                          ring.pairing)
