"""Descendent Euler characteristics against closed forms, brute-force
branching, the one-step string/dilaton identity, and symmetry."""

from __future__ import annotations

import pickle
import random
from itertools import combinations_with_replacement, product
from math import comb, factorial, inf, perm
from time import perf_counter
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkzero import NotReducible, descendent_euler
from qkzero import descendents
from qkzero.descendents import _convolved, _packed

from oracles import branching_values, closed_form_single, riemann_roch_n4


def test_three_point_values_are_one():
    assert descendent_euler((0, 0, 0)) == 1
    assert descendent_euler((5, 2, 7)) == 1


def test_known_small_values():
    assert descendent_euler((2, 3, 0, 1)) == 7
    assert descendent_euler((0, 0, 0, 0, 2)) == 6


def test_not_reducible_raised():
    with pytest.raises(NotReducible):
        descendent_euler((2, 2, 2, 2))
    with pytest.raises(NotReducible):
        descendent_euler((3, 2, 5, 2, 2))


def test_deep_irreducibility_propagates():
    # The top index admits a string step, but its child is stuck.
    with pytest.raises(NotReducible) as excinfo:
        descendent_euler((2, 0, 2, 2, 2))
    assert excinfo.value.requested == (2, 0, 2, 2, 2)
    assert excinfo.value.reached == (2, 2, 2, 2)


def test_not_reducible_survives_pickling():
    with pytest.raises(NotReducible) as excinfo:
        descendent_euler((0, 2, 2, 2, 3))
    for exc in (excinfo.value, NotReducible((3, 2, 5, 2), (2, 2, 3, 5))):
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is NotReducible
        assert (copy.requested, copy.reached) == (exc.requested, exc.reached)
        assert str(copy) == str(exc)
    assert str(excinfo.value) == ("E(5; [0, 2, 2, 2, 3]) is not reducible: "
                                  "reduction reaches E(4; [2, 2, 2, 3])")
    assert str(NotReducible((2, 2, 2, 2), (2, 2, 2, 2))) == (
        "E(4; [2, 2, 2, 2]) is not reducible: every power is >= 2")


def test_reached_index_follows_forgetful_child_first():
    # The forgetful child (2,2,2,3) is stuck before the ladder reaches
    # (2,2,2,2); the reported index depends on that visiting order.
    with pytest.raises(NotReducible) as excinfo:
        descendent_euler((0, 2, 2, 2, 3))
    assert excinfo.value.reached == (2, 2, 2, 3)


def test_index_validation():
    for bad in [(0, 0), (0, 0, -1), (0, 0, 1.5), (0, 0, True)]:
        with pytest.raises(ValueError):
            descendent_euler(bad)


def test_four_point_riemann_roch_sweep():
    # Every four-point index with total degree <= 12 and a reducible slot,
    # in every insertion order.
    count = 0
    for d in product(range(13), repeat=4):
        if sum(d) > 12 or min(d) > 1:
            continue
        assert descendent_euler(d) == riemann_roch_n4(d)
        count += 1
    assert count >= 450


def test_single_descendent_closed_form():
    for n in range(3, 9):
        for d in range(9):
            index = (0,) * (n - 1) + (d,)
            assert descendent_euler(index) == closed_form_single(n, d)


def test_deep_index_has_no_recursion_limit():
    # 1,200 string steps deep: the reduction must not use the call stack.
    assert descendent_euler((0,) * 1200 + (1,)) == closed_form_single(1201, 1)


def test_one_descendent_profile_matches_closed_form():
    for d in range(5):
        assert descendent_euler((0,) * 4 + (d,)) == closed_form_single(5, d)


def test_confluence_all_reduction_orders_agree():
    checked = 0
    for n in range(3, 8):
        for d in combinations_with_replacement(range(5), n):
            try:
                value = descendent_euler(d)
            except NotReducible:
                assert branching_values(d) == frozenset()
                continue
            assert branching_values(d) == frozenset({value})
            checked += 1
    assert checked >= 200


@given(st.lists(st.integers(0, 5), min_size=3, max_size=7))
@settings(max_examples=80, deadline=None)
def test_permutation_invariance(exponents):
    import random

    shuffled = exponents[:]
    random.Random(7).shuffle(shuffled)
    try:
        base = descendent_euler(exponents)
    except NotReducible:
        with pytest.raises(NotReducible):
            descendent_euler(shuffled)
        return
    assert descendent_euler(shuffled) == base


def test_sequence_type_and_order_give_one_value():
    value = descendent_euler((2, 4, 0, 3, 1))
    assert descendent_euler([2, 4, 0, 3, 1]) == value
    assert descendent_euler((4, 3, 2, 1, 0)) == value


def test_string_and_dilaton_steps_explicitly():
    # String at a zero slot: E(4; 0,1,1) children are one forgetful copy plus
    # one ladder child for each unit that can be stripped from a survivor.
    assert descendent_euler((0, 1, 1, 1)) == 1 + 3 * 1
    # Dilaton at a unit slot: E(4; 1,1,1,1) = (4-2)*E(3) + three ladder children.
    assert descendent_euler((1, 1, 1, 1)) == 2 + 3
    # Mixed: E(5; 0,0,0,0,2) reduces to 6 either way; cross-checked above.
    assert descendent_euler((0, 0, 1, 2)) == riemann_roch_n4((0, 0, 1, 2))


def test_cost_does_not_grow_with_the_powers():
    # A recursion over the ladder would take on the order of 10**6 steps per
    # power here; the closed form takes at most n - 2 terms per power.
    huge = 10**6
    start = perf_counter()
    assert descendent_euler((0, 0, 0, 0, huge)) == closed_form_single(5, huge)
    index = (1, huge, huge, huge)
    assert descendent_euler(index) == riemann_roch_n4(index)
    with pytest.raises(NotReducible) as excinfo:
        descendent_euler((0, huge, huge, huge, huge))
    assert excinfo.value.reached == (huge,) * 4
    assert perf_counter() - start < 1.0


def _both_evaluations(index):
    """The packed and the convolution value of a reducible index, each
    computed whatever size the packed product has."""
    large = sorted(d for d in index if d > 1)
    *rest, last = large or [0]
    parts = (len(index) - 3, index.count(1), rest, last)
    with patch.object(descendents, "PACKED_MAX_BITS", inf):
        packed = _packed(*parts)
    return packed, _convolved(*parts)


def test_packed_and_convolution_agree_on_every_small_index():
    checked = 0
    for n in range(3, 10):
        for index in combinations_with_replacement(range(13), n):
            if sum(d > 1 for d in index) <= 3:
                packed, convolved = _both_evaluations(index)
                assert packed == convolved, index
                checked += 1
    assert checked >= 10_000


def test_packed_and_convolution_agree_on_drawn_and_huge_powers():
    rng = random.Random(2024)
    indices = [(0, 0, 0, 10**39 + 7), (1, 0, 1, 0, 3 * 10**39),
               (0, 1, 2 * 10**39, 10**40 - 1, 0)]
    for _ in range(300):
        n = rng.randint(3, 40)
        large = [rng.choice((rng.randint(2, 12), rng.randint(2, 10**6)))
                 for _ in range(rng.randint(0, min(3, n)))]
        indices.append(tuple(large + [rng.randint(0, 1) for _ in range(n - len(large))]))
    for index in indices:
        packed, convolved = _both_evaluations(index)
        assert packed == convolved == descendent_euler(index), index


def test_large_indices_are_not_packed():
    # Packed, each of these takes from seconds to most of a minute: every
    # digit carries an N!-sized scale.  The convolution takes milliseconds.
    # Expected values from Lee's sum over a <= d with |a| <= N.
    expected = {
        (0,) * 1200 + (1,): closed_form_single(1201, 1),
        (0,) * 3000 + (2,): closed_form_single(3001, 2),
        (1,) * 2000: sum(comb(2000, j) * perm(1997, j) for j in range(1998)),
        (0,) * 2000 + (2, 2): sum(comb(2, i) * comb(2, j) * perm(1999, i + j)
                                 // (factorial(i) * factorial(j))
                                 for i in range(3) for j in range(3)),
    }
    start = perf_counter()
    values = {index: descendent_euler(index) for index in expected}
    assert perf_counter() - start < 1.0
    assert values == expected


def _one_step(index, j):
    """The string (d_j = 0) or dilaton (d_j = 1) step at slot j, each child
    evaluated by the library."""
    rest = index[:j] + index[j + 1:]
    total = (1 if index[j] == 0 else len(index) - 2) * descendent_euler(rest)
    for i, d in enumerate(rest):
        for k in range(1, d + 1):
            total += descendent_euler(rest[:i] + (d - k,) + rest[i + 1:])
    return total


def _assert_every_step_agrees(index):
    value = descendent_euler(index)
    for small in (0, 1):
        if small in index:
            assert _one_step(index, index.index(small)) == value, (index, small)


def test_one_step_identity_far_beyond_the_branching_oracle():
    for index in [
        (0,) * 57 + (50, 50, 50),
        (1,) * 57 + (50, 49, 2),
        (0, 1) * 28 + (1, 17, 50, 3),
        (50, 0, 1, 0, 1, 2),
        (0,) * 40 + (1,) * 10 + (44,),
        (1,) * 60,
    ]:
        _assert_every_step_agrees(index)


@st.composite
def reducible_indices(draw):
    n = draw(st.integers(4, 60))
    large = draw(st.lists(st.integers(2, 50), max_size=3))
    small = draw(st.lists(st.integers(0, 1), min_size=n - len(large),
                          max_size=n - len(large)))
    return tuple(draw(st.permutations(small + large)))


@given(reducible_indices())
@settings(max_examples=25, deadline=None)
def test_one_step_identity_on_drawn_reducible_indices(index):
    _assert_every_step_agrees(index)
