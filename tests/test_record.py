"""The value-record base: construction, immutability, equality, repr, replace."""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

import pytest

from qkzero import (
    CorrelatorTable,
    IncompatibleSeries,
    InvalidPresentation,
    KRingPresentation,
    SeriesSpec,
    TruncatedSeries,
    point_kring,
    projective_space_kring,
)
from qkzero.record import Record

SPEC = SeriesSpec(2, 1, 4, 1, 3)


class LookAlike(Record):
    """Same field names and values as a SeriesSpec, another class."""

    num_t: int
    num_novikov: int
    t_order: int
    novikov_order: int
    q_order: int


def test_construction_by_position_and_keyword():
    by_keyword = SeriesSpec(q_order=3, novikov_order=1, t_order=4, num_novikov=1, num_t=2)
    mixed = SeriesSpec(2, 1, t_order=4, novikov_order=1, q_order=3)
    assert by_keyword == mixed == SPEC
    assert (SPEC.num_t, SPEC.num_novikov, SPEC.t_order, SPEC.novikov_order,
            SPEC.q_order) == (2, 1, 4, 1, 3)


@pytest.mark.parametrize("args,kwargs", [
    ((2, 1, 4, 1), {}),                        # missing
    ((2, 1, 4), {"q_order": 3}),               # missing, keyword given
    ((2, 1, 4, 1, 3, 0), {}),                  # one too many
    ((2, 1, 4, 1), {"q_ordr": 3}),             # unknown
    ((2, 1, 4, 1, 3), {"num_t": 2}),           # duplicated
])
def test_missing_unknown_or_duplicated_field_raises(args, kwargs):
    with pytest.raises(TypeError):
        SeriesSpec(*args, **kwargs)


def test_post_init_validation_still_raises():
    with pytest.raises(ValueError, match="non-negative"):
        SeriesSpec(-1, 0, 2, 0, 0)
    with pytest.raises(ValueError, match="non-negative"):
        SPEC.replace(num_novikov=-1)
    # a^2 * a^2 = a^2 on P^2 keeps the unit and commutativity only.
    ring = projective_space_kring(2)
    mult = [[list(row) for row in plane] for plane in ring.mult]
    mult[2][2][2] += 1
    with pytest.raises(InvalidPresentation, match="not associative"):
        KRingPresentation(ring.labels, mult, ring.pairing)


def test_post_init_normalizes_fields():
    ring = KRingPresentation(labels=["e0"], mult=[[[1]]], pairing=[[1]])
    assert ring == point_kring()
    assert ring.mult == (((Fraction(1),),),)


def test_assignment_raises():
    with pytest.raises(AttributeError):
        SPEC.t_order = 5
    with pytest.raises(AttributeError):
        del SPEC.t_order
    with pytest.raises(AttributeError):
        SPEC.extra = 1
    assert SPEC.t_order == 4


def test_equality_and_hash_by_value():
    twin, same = LookAlike(2, 1, 4, 1, 3), LookAlike(2, 1, 4, 1, 3)
    assert same is not twin
    assert same == twin and hash(same) == hash(twin)
    assert len({twin, same}) == 1
    assert twin != LookAlike(2, 1, 4, 1, 2)
    # SeriesSpec interns its instances: equal specs are one object.
    assert SeriesSpec(2, 1, 4, 1, 3) is SPEC
    assert SPEC != SeriesSpec(2, 1, 4, 1, 2)


def test_not_equal_across_classes():
    twin = LookAlike(2, 1, 4, 1, 3)
    assert repr(twin) == "LookAlike(num_t=2, num_novikov=1, t_order=4, novikov_order=1, q_order=3)"
    assert twin != SPEC and SPEC != twin
    assert SPEC != (2, 1, 4, 1, 3)


def test_repr_names_every_field():
    assert repr(SPEC) == ("SeriesSpec(num_t=2, num_novikov=1, t_order=4, "
                          "novikov_order=1, q_order=3)")
    table = CorrelatorTable.empty(point_kring(), 0, {"type": "point"})
    assert repr(table) == (
        "CorrelatorTable(ring=KRingPresentation(labels=('e0',), "
        "mult=(((1,),),), pairing=((1,),)), degree_rank=0, "
        "target_doc={'type': 'point'}, entries={}, descendent_entries={})")


def test_replace_copies_with_changes():
    lower = SPEC.replace(t_order=2, q_order=0)
    assert lower == SeriesSpec(2, 1, 2, 1, 0)
    assert SPEC == SeriesSpec(2, 1, 4, 1, 3)
    assert SPEC.replace() == SPEC
    with pytest.raises(TypeError):
        SPEC.replace(order=1)


class Cached(Record):
    """A record whose derived value is cached in the instance."""

    series: TruncatedSeries

    @cached_property
    def partial(self) -> TruncatedSeries:
        return self.series.derivative(0)


def test_records_stay_equal_after_one_fills_a_cached_property():
    series = TruncatedSeries(SPEC, {(2, 0, 0, 1): Fraction(3, 4), (0, 1, 1, 0): 1})
    first, second = Cached(series), Cached(TruncatedSeries(SPEC, series.coeffs))
    assert first.partial
    assert first == second and second == first
    assert first != first.replace(series=first.partial)


def test_incompatible_series_names_both_specs():
    wide = TruncatedSeries.zero(SeriesSpec(1, 0, 3, 0, 2))
    narrow = TruncatedSeries.zero(SeriesSpec(1, 0, 2, 0, 2))
    with pytest.raises(IncompatibleSeries) as caught:
        wide + narrow
    assert str(caught.value) == (
        "SeriesSpec(num_t=1, num_novikov=0, t_order=3, novikov_order=0, q_order=2) "
        "vs SeriesSpec(num_t=1, num_novikov=0, t_order=2, novikov_order=0, q_order=2)")
