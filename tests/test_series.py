"""Series core: arithmetic, truncation discipline, inverses, rational text."""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkzero import (
    CorrelatorTable,
    IncompatibleSeries,
    SchemaError,
    SeriesMatrix,
    SeriesSpec,
    SingularMetric,
    TruncatedSeries,
    assemble_fundamental_solution,
    assemble_potential,
    build_frobenius_data,
    matrix_inverse_geometric,
    parse_rational,
    point_kring,
    projective_space_kring,
    qde_residual,
    try_rational_inverse,
)
from qkzero.qde import _connection_defect
from oracles import (
    NotInvertible,
    coefficient,
    geometric_q,
    matrix_inverse_direct,
    monomial,
    naive_connection_defect,
    naive_derivative,
    naive_over_one_minus_q,
    naive_product,
    naive_sum,
    reciprocal,
    unit_series,
)

SPEC1 = SeriesSpec(num_t=1, num_novikov=0, t_order=4, novikov_order=0, q_order=0)


def exp_series(spec: SeriesSpec, order: int) -> TruncatedSeries:
    acc = TruncatedSeries.zero(spec)
    for k in range(order + 1):
        acc = acc + monomial(spec, {"t0": k}, Fraction(1, factorial(k)))
    return acc


def test_exp_square_matches_hand_expansion():
    # (sum t^k/k!)^2 truncated at 4 has coefficients 2^k/k!: each coefficient
    # is the binomial convolution sum 1/(i! j!) over i + j = k.
    e = exp_series(SPEC1, 4)
    sq = e * e
    for k in range(5):
        assert coefficient(sq, {"t0": k}) == Fraction(2**k, factorial(k))


def test_reciprocal_of_truncated_exp():
    spec = SeriesSpec(1, 0, 2, 0, 0)
    a = TruncatedSeries(spec, {
        (0, 0): Fraction(1), (1, 0): Fraction(1), (2, 0): Fraction(1, 2)})
    r = reciprocal(a)
    assert coefficient(r, {"t0": 0}) == 1
    assert coefficient(r, {"t0": 1}) == -1
    assert coefficient(r, {"t0": 2}) == Fraction(1, 2)
    assert (a * r) == unit_series(spec)


def test_reciprocal_requires_unit_constant_term():
    t = monomial(SPEC1, {"t0": 1})
    with pytest.raises(NotInvertible):
        reciprocal(t)


def test_derivative_drops_truncation_order():
    spec = SeriesSpec(1, 0, 5, 0, 0)
    e = exp_series(spec, 5)
    d = e.derivative(0)
    assert d.spec.t_order == 4
    assert d == exp_series(SeriesSpec(1, 0, 4, 0, 0), 4)


def test_derivative_of_mixed_monomial():
    spec = SeriesSpec(2, 0, 3, 0, 0)
    m = monomial(spec, {"t0": 2, "t1": 1})
    d = m.derivative(0)
    assert coefficient(d, {"t0": 1, "t1": 1}) == 2
    assert len(d.coeffs) == 1


def test_unknown_variable_rejected():
    with pytest.raises(IncompatibleSeries, match="no t variable at index 7"):
        unit_series(SPEC1).derivative(7)


@pytest.mark.parametrize("spec,k", [
    (SeriesSpec(2, 1, 3, 1, 1), -1),  # the q slot by negative indexing
    (SeriesSpec(2, 1, 3, 1, 1), 2),   # num_t: the first Novikov variable
    (SeriesSpec(1, 2, 3, 1, 1), 2),   # the second Novikov variable
    (SeriesSpec(1, 0, 3, 0, 1), 2),   # past every variable
])
def test_derivative_takes_a_t_index_only(spec, k):
    a = TruncatedSeries(spec, {(1,) * spec.nvars: 1})
    with pytest.raises(IncompatibleSeries, match="no t variable at index"):
        a.derivative(k)
    with pytest.raises(IncompatibleSeries, match="no t variable at index"):
        SeriesMatrix(((a,),)).derivative(k)


def test_only_canonical_variable_names_accepted():
    spec = SeriesSpec(2, 1, 3, 1, 1)
    assert spec.vars == ("t0", "t1", "Q0", "q")


def test_arithmetic_requires_identical_spec():
    a = unit_series(SeriesSpec(1, 0, 3, 0, 0))
    b = unit_series(SeriesSpec(1, 0, 4, 0, 0))
    with pytest.raises(IncompatibleSeries):
        a + b
    with pytest.raises(IncompatibleSeries):
        a * b
    with pytest.raises(IncompatibleSeries, match="matrix entries disagree on spec"):
        SeriesMatrix(((a, a), (a, b)))
    with pytest.raises(IncompatibleSeries, match="matrix specs differ"):
        SeriesMatrix(((a,),)) + SeriesMatrix(((b,),))
    with pytest.raises(IncompatibleSeries, match="matrix dimensions differ"):
        SeriesMatrix(((a,),)) * SeriesMatrix.identity(a.spec, 2)
    for rows in ((), ((a, a),), ((a,), (a,))):
        with pytest.raises(ValueError, match="square and non-empty"):
            SeriesMatrix(rows)


def test_truncation_only_lowers():
    a = unit_series(SeriesSpec(1, 0, 3, 0, 0))
    with pytest.raises(IncompatibleSeries):
        a.within(a.spec.truncated(t_order=5))


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries(SPEC1, {(-1, 0): Fraction(1)})
    with pytest.raises(ValueError, match="wrong length"):
        TruncatedSeries(SPEC1, {(1,): Fraction(1)})


def test_matrix_inverse_geometric_constant_case():
    spec = SeriesSpec(0, 0, 0, 0, 0)
    g = SeriesMatrix(tuple(tuple(TruncatedSeries.constant(spec, x) for x in row)
                           for row in [[1, 1], [1, 0]]))
    inv = matrix_inverse_geometric(g)
    assert inv.constant_matrix() == ((Fraction(0), Fraction(1)),
                                     (Fraction(1), Fraction(-1)))


def test_matrix_inverse_singular_rejected():
    spec = SeriesSpec(1, 0, 2, 0, 0)
    t = monomial(spec, {"t0": 1})
    rows = ((unit_series(spec), t), (t, t * t))
    singular = SeriesMatrix(rows)  # determinant vanishes at the origin? no:
    # [[1, t], [t, t^2]] has constant term [[1,0],[0,0]], which is singular.
    with pytest.raises(SingularMetric):
        matrix_inverse_geometric(singular)
    with pytest.raises(SingularMetric):
        matrix_inverse_direct(singular)
    with pytest.raises(ValueError, match="matrix must be square"):
        try_rational_inverse([[1, 0], [0]])


# -- randomized algebra laws -------------------------------------------------

SMALL_SPEC = SeriesSpec(num_t=2, num_novikov=1, t_order=3, novikov_order=2, q_order=1)


def _exponents(spec: SeriesSpec):
    return st.tuples(
        st.integers(0, spec.t_order),
        st.integers(0, spec.t_order),
        st.integers(0, spec.novikov_order),
        st.integers(0, spec.q_order),
    )


def _series(spec: SeriesSpec = SMALL_SPEC):
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    return st.dictionaries(_exponents(spec), coeff, max_size=6).map(
        lambda d: TruncatedSeries(spec, d))


@given(_series(), _series(), _series())
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + TruncatedSeries.zero(a.spec) == a
    assert a * unit_series(a.spec) == a


@given(_series(), _series())
@settings(max_examples=40, deadline=None)
def test_multiplication_commutes_with_truncation(a, b):
    low = a.spec.truncated(t_order=2, novikov_order=1)
    assert (a * b).within(low) == a.within(low) * b.within(low)


@given(_series())
@settings(max_examples=40, deadline=None)
def test_derivative_commutes_with_truncation(a):
    d = a.derivative(1)
    assert d.within(d.spec.truncated(t_order=1)) == \
        a.within(a.spec.truncated(t_order=2)).derivative(1)


@given(_series())
@settings(max_examples=30, deadline=None)
def test_reciprocal_inverts_and_commutes_with_truncation(a):
    unit = unit_series(a.spec) + a - TruncatedSeries.constant(
        a.spec, a.constant_term)
    # unit now has constant term exactly 1
    r = reciprocal(unit)
    assert unit * r == unit_series(a.spec)
    low = a.spec.truncated(t_order=2)
    assert r.within(low) == reciprocal(unit.within(low))


# -- the multiply kernel against the all-pairs oracle ------------------------

NO_NOVIKOV_SPEC = SeriesSpec(num_t=2, num_novikov=0, t_order=4, novikov_order=0, q_order=2)
TWO_NOVIKOV_SPEC = SeriesSpec(num_t=1, num_novikov=2, t_order=2, novikov_order=3, q_order=2)
KERNEL_SPECS = (SMALL_SPEC, NO_NOVIKOV_SPEC, TWO_NOVIKOV_SPEC)


def _window_series(spec: SeriesSpec, sizes: tuple[int, int], coeff=None, top=None):
    """Series on any layout; exponents range over each group's whole order
    (or up to ``top``), so some draws fall outside the window and are dropped."""
    orders = ([spec.t_order] * spec.num_t + [spec.novikov_order] * spec.num_novikov
              + [spec.q_order])
    if top is not None:
        orders = [min(order, top) for order in orders]
    exps = st.tuples(*(st.integers(0, max(order, 0)) for order in orders))
    if coeff is None:
        coeff = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    return st.dictionaries(exps, coeff, min_size=sizes[0], max_size=sizes[1]).map(
        lambda d: TruncatedSeries(spec, d))


def _kernel_operands(small: tuple[int, int], large: tuple[int, int], coeff=None, top=None):
    return st.sampled_from(KERNEL_SPECS).flatmap(lambda spec: st.tuples(
        _window_series(spec, small, coeff, top),
        _window_series(spec, large, coeff, top)))


def _assert_kernel_matches_oracle(a: TruncatedSeries, b: TruncatedSeries) -> None:
    for left, right in ((a, b), (b, a)):
        product = left * right
        assert product == naive_product(left, right)
        assert product.spec == left.spec
        for exp, value in product.coeffs.items():
            assert type(exp) is tuple and left.spec.admits(exp)
            assert type(value) is Fraction and value != 0


@given(_kernel_operands((0, 8), (0, 8)))
@settings(max_examples=80, deadline=None)
def test_product_matches_all_pairs_oracle(operands):
    _assert_kernel_matches_oracle(*operands)


@given(_kernel_operands((1, 2), (30, 60)))
@settings(max_examples=40, deadline=None)
def test_product_of_very_different_sizes_matches_oracle(operands):
    _assert_kernel_matches_oracle(*operands)


@given(_kernel_operands((0, 12), (0, 12), st.sampled_from([Fraction(-1), Fraction(1)]), top=1))
@settings(max_examples=60, deadline=None)
def test_product_with_cancelling_unit_coefficients_matches_oracle(operands):
    """Coefficients of +-1 on exponents 0 and 1: about half the draws have a
    product coefficient whose pair contributions sum to zero."""
    _assert_kernel_matches_oracle(*operands)


# -- the QDE's connection defect dS/dt_k - P/(1-q): a running q-sum ----------

NO_Q_SPEC = SeriesSpec(num_t=1, num_novikov=1, t_order=3, novikov_order=2, q_order=0)
LONG_Q_SPEC = SeriesSpec(num_t=1, num_novikov=1, t_order=1, novikov_order=1, q_order=5)
Q_SPECS = KERNEL_SPECS + (NO_Q_SPEC, LONG_Q_SPEC)


def _long_q_rows(spec: SeriesSpec):
    """t and Novikov exponents of 0 or 1 and coefficients of +-1: few rows,
    each with several q terms, so running sums often return to zero."""
    exps = st.tuples(*([st.integers(0, 1)] * (spec.num_t + spec.num_novikov)
                       + [st.integers(0, max(spec.q_order, 0))]))
    coeff = st.sampled_from([Fraction(-1), Fraction(1)])
    return st.dictionaries(exps, coeff, max_size=12).map(
        lambda d: TruncatedSeries(spec, d))


@given(st.sampled_from(Q_SPECS).flatmap(
    lambda spec: st.one_of(_window_series(spec, (0, 12)), _long_q_rows(spec))))
@example(TruncatedSeries(LONG_Q_SPEC, {(1, 0, 0): 1, (1, 0, 2): -1, (1, 0, 4): 3}))
@example(TruncatedSeries(NO_Q_SPEC, {(2, 1, 0): Fraction(-2, 3), (0, 0, 0): 1}))
@settings(max_examples=100, deadline=None)
def test_connection_defect_of_constant_solution_is_minus_the_geometric_product(x):
    # A constant S has no t derivative, so the defect is -P/(1-q) for P = x.
    constant = TruncatedSeries.constant(x.spec, Fraction(5, 3))
    result = _connection_defect(constant, x, 0, x.spec)
    assert result == -(x * geometric_q(x.spec))
    assert result.spec == x.spec
    for exp, value in result.coeffs.items():
        assert type(exp) is tuple and x.spec.admits(exp)
        assert type(value) is Fraction and value != 0


@given(_series())
@settings(max_examples=20, deadline=None)
def test_product_on_negative_order_is_empty(a):
    lowered = a.derivative(0).derivative(1).derivative(0).derivative(1)
    assert lowered.spec.t_order == -1
    _assert_kernel_matches_oracle(lowered, lowered)
    assert (lowered * lowered).is_zero()


@given(st.sampled_from(KERNEL_SPECS).flatmap(lambda spec: _window_series(spec, (0, 3))))
@settings(max_examples=40, deadline=None)
def test_product_cancelling_to_one(f):
    """(1 + f) times the truncated geometric series of -f is exactly 1 when f
    has no constant term: every other coefficient cancels to zero."""
    spec = f.spec
    one = unit_series(spec)
    f = f - TruncatedSeries.constant(spec, f.constant_term)
    geometric, power = one, one
    for _ in range(spec.budget()):
        power = naive_product(power, -f)
        geometric = geometric + power
    _assert_kernel_matches_oracle(one + f, geometric)
    assert (one + f) * geometric == one


# -- kernel edge cases: one-term factors, cancellation, full packed fields -----


def _assert_tuple_keys(series: TruncatedSeries) -> None:
    assert all(type(exp) is tuple for exp in series.nums)


def _mixed_series(spec: SeriesSpec) -> TruncatedSeries:
    """A few terms in every group, up to each group's order, over mixed
    denominators."""
    terms = {}
    for pos in range(spec.nvars):
        top = spec.q_order if pos == spec.nvars - 1 else (
            spec.t_order if pos < spec.num_t else spec.novikov_order)
        for k in range(max(top, 0) + 1):
            exp = [0] * spec.nvars
            exp[pos] = k
            terms[tuple(exp)] = Fraction((-1) ** k * (pos + 2), k + 3)
    return TruncatedSeries(spec, terms)


@pytest.mark.parametrize("factor", [Fraction(3, 7), Fraction(-2), Fraction(1)])
def test_product_with_constant_factor_matches_oracle(factor):
    b = _mixed_series(SMALL_SPEC)
    c = TruncatedSeries.constant(SMALL_SPEC, factor)
    _assert_kernel_matches_oracle(c, b)
    _assert_tuple_keys(c * b)
    assert c * b == b.scaled(factor)


@pytest.mark.parametrize("powers", [
    {"t0": 3}, {"t1": 2, "Q0": 2}, {"t0": 1, "t1": 2, "Q0": 2, "q": 1}])
def test_product_with_monomial_at_window_edge_matches_oracle(powers):
    """A monomial on the edge of the window keeps only the terms of the other
    factor with no degree in its full groups."""
    m = monomial(SMALL_SPEC, powers, Fraction(-5, 3))
    b = _mixed_series(SMALL_SPEC)
    _assert_kernel_matches_oracle(m, b)
    _assert_tuple_keys(m * b)


def test_product_with_single_term_zero_series():
    zero = TruncatedSeries(SMALL_SPEC, {(1, 0, 1, 0): Fraction(0)})
    assert zero.is_zero() and zero.den == 1
    b = _mixed_series(SMALL_SPEC)
    _assert_kernel_matches_oracle(zero, b)
    for product in (zero * b, b * zero, zero * zero):
        assert product.is_zero() and product.den == 1
        assert product.spec == SMALL_SPEC


def test_rational_factor_on_either_side():
    b = _mixed_series(SMALL_SPEC)
    for value in (3, Fraction(-2, 7), 1, 0):
        assert value * b == b * value == b.scaled(value)


def test_exp_times_exp_of_minus_t_cancels_every_term():
    """e^t e^-t on the point at t order 61: every coefficient of positive
    degree is a vanishing alternating binomial sum over 61!-sized
    denominators."""
    spec = SeriesSpec(num_t=1, num_novikov=0, t_order=61, novikov_order=0, q_order=0)
    e = exp_series(spec, 61)
    inverse = TruncatedSeries(spec, {exp: (-1) ** exp[0] * value
                                     for exp, value in e.coeffs.items()})
    _assert_kernel_matches_oracle(e, inverse)
    product = e * inverse
    assert product == unit_series(spec)
    _assert_tuple_keys(product)


# Five t, one Novikov variable and q, as on P^4 at positive degree.  Each
# spec's budget is 7, so every exponent is packed into a 3-bit field; an
# order equal to the budget lets an exponent of 7 fill its field, and the
# pairs whose sum would pass 7 must be skipped rather than carried.
@pytest.mark.parametrize("orders,powers", [
    ((7, 0, 0), {"t0": 2, "t4": 5}),
    ((0, 7, 0), {"Q0": 7}),
    ((0, 0, 7), {"q": 7}),
    ((3, 2, 2), {"t1": 1, "t3": 2, "Q0": 2, "q": 2}),
])
def test_product_with_full_packed_fields_matches_oracle(orders, powers):
    spec = SeriesSpec(5, 1, *orders)
    assert spec.budget() == 7
    a = _mixed_series(spec)
    b = a + monomial(spec, powers, Fraction(2, 9))
    _assert_kernel_matches_oracle(a, b)
    _assert_kernel_matches_oracle(a, a)
    _assert_tuple_keys(a * b)


# -- parsing rationals ----------------------------------------------------------


@pytest.mark.parametrize("text,value", [
    ("7", Fraction(7)), ("-3/4", Fraction(-3, 4)), ("6/4", Fraction(3, 2)),
    ("0/5", Fraction(0)), ("-0", Fraction(0)),
])
def test_parse_rational_accepts_ascii_integers_and_ratios(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", [
    "\u0661", "1/\u0663", "\uff11", "1\n", "\n1", " 1", "1 ", "+1", "1/-2", "1/",
    "/2", "0.5", "1e3", "1_0", "", 1, None,
])
def test_parse_rational_rejects_anything_else(text):
    with pytest.raises(SchemaError, match="must look like p/q"):
        parse_rational(text)


def test_parse_rational_rejects_zero_denominator():
    with pytest.raises(SchemaError, match="zero denominator"):
        parse_rational("1/0")


# -- integer numerators over one reduced denominator ---------------------------

# Denominators that share no factor, so a shared denominator grows fastest,
# next to small ones that cancel often.
_MIXED_DENOMINATORS = [1, 2, 3, 6, 7, 2**40, 3**30, 2**40 * 3**30]
_MIXED_COEFF = st.builds(Fraction, st.integers(-(2**45), 2**45),
                         st.sampled_from(_MIXED_DENOMINATORS))
MIXED_SPECS = KERNEL_SPECS + (LONG_Q_SPEC,)


def _assert_canonical(x: TruncatedSeries) -> None:
    assert type(x.den) is int and x.den > 0
    assert all(type(num) is int and num for num in x.nums.values())
    assert gcd(x.den, *x.nums.values()) == 1
    assert x.nums or x.den == 1
    assert all(type(exp) is tuple and x.spec.admits(exp) for exp in x.nums)


@st.composite
def _mixed_pair(draw):
    """Two series on one layout with mixed denominators; the second often
    repeats some terms of the first negated, so sums cancel to zero."""
    spec = draw(st.sampled_from(MIXED_SPECS))
    a = draw(_window_series(spec, (0, 8), _MIXED_COEFF))
    cancel = draw(st.lists(st.sampled_from(sorted(a.nums)), unique=True)) if a.nums else []
    extra = draw(_window_series(spec, (0, 4), _MIXED_COEFF)).coeffs
    coeffs = a.coeffs
    for exp in cancel:
        extra[exp] = -coeffs[exp]
    return a, TruncatedSeries(spec, extra)


@given(_mixed_pair(), st.sampled_from([Fraction(0), Fraction(1), Fraction(-5, 3),
                                       Fraction(3**30, 2**40), 12]))
@settings(max_examples=120, deadline=None)
def test_every_operation_returns_canonical_numerators_matching_fractions(pair, scale):
    a, b = pair
    spec = a.spec
    _assert_canonical(a)
    _assert_canonical(b)
    cases = [
        (a + b, naive_sum(a, b)),
        (a - b, naive_sum(a, TruncatedSeries(spec, {exp: -v for exp, v in b.coeffs.items()}))),
        (-a, {exp: -v for exp, v in a.coeffs.items()}),
        (a.scaled(scale), {exp: scale * v for exp, v in a.coeffs.items() if scale}),
        (a * b, naive_product(a, b).coeffs),
        (a.derivative(0), naive_derivative(a, "t0")),
        (_connection_defect(TruncatedSeries.zero(spec), a, 0, spec),
         {exp: -v for exp, v in naive_over_one_minus_q(a).items()}),
        (a.within(spec.truncated(t_order=1, q_order=0)),
         {exp: v for exp, v in a.coeffs.items()
          if spec.truncated(t_order=1, q_order=0).admits(exp)}),
    ]
    for result, expected in cases:
        _assert_canonical(result)
        assert result.coeffs == expected
        assert all(type(v) is Fraction for v in result.coeffs.values())


class _Draws:
    """Stands in for st.data() in an explicit example: returns the given
    values in order, whatever strategy is drawn from."""

    def __init__(self, *values):
        self.values = iter(values)

    def draw(self, strategy):
        return next(self.values)


@given(_mixed_pair(), st.data())
# k = 1 and the window one below S's t order: S's top-layer term sits in a
# row P lacks, reached only by lowering in t1, and P's t-degree-3 row lies
# above the window.
@example((TruncatedSeries(SMALL_SPEC, {(1, 2, 0, 1): Fraction(5, 7), (0, 1, 1, 0): -2,
                                       (0, 0, 0, 0): 1}),
          TruncatedSeries(SMALL_SPEC, {(2, 1, 0, 0): Fraction(-3, 4), (0, 0, 1, 1): 3,
                                       (1, 0, 0, 0): 2})),
         _Draws(1, 2))
@settings(max_examples=120, deadline=None)
def test_connection_defect_matches_oracle_composition(pair, data):
    """S and P over mixed denominators, with Novikov variables and two t
    variables; P's second operand often cancels S's terms, and the window
    reaches up to one below S's t order, so the top layer of S is read."""
    s, p = pair
    spec = s.spec
    k = data.draw(st.integers(0, spec.num_t - 1))
    window = spec.truncated(t_order=data.draw(st.integers(0, spec.t_order - 1)))
    for left, right in ((s, p), (p, s), (s, s)):
        result = _connection_defect(left, right, k, window)
        _assert_canonical(result)
        assert result.spec == window
        assert result.coeffs == naive_connection_defect(left, right, k, window)


@given(_mixed_pair())
@settings(max_examples=60, deadline=None)
def test_sums_cancelling_to_zero_are_the_canonical_zero(pair):
    a, b = pair
    zero = a - a
    assert zero.nums == {} and zero.den == 1
    assert zero == TruncatedSeries.zero(a.spec)
    assert (a + b) - b == a
    assert ((a + b) - b).den == a.den


@given(_mixed_pair())
@settings(max_examples=60, deadline=None)
def test_equal_values_reached_over_different_denominators_compare_equal(pair):
    a, b = pair
    routes = [
        a,
        a.scaled(Fraction(1, 3**30)).scaled(3**30),
        a.scaled(2**40) * TruncatedSeries.constant(a.spec, Fraction(1, 2**40)),
        (a + b) - b,
        (a - b) + b,
        TruncatedSeries(a.spec, a.coeffs),
    ]
    for other in routes:
        assert other == a
        assert (other.den, other.nums) == (a.den, a.nums)


def test_constructor_puts_mixed_fractions_over_one_reduced_denominator():
    spec = SeriesSpec(1, 0, 3, 0, 0)
    x = TruncatedSeries(spec, {(0, 0): Fraction(1, 2**40), (1, 0): Fraction(2, 3**30),
                               (2, 0): 5, (3, 0): Fraction(0)})
    assert x.den == 2**40 * 3**30
    assert x.nums == {(0, 0): 3**30, (1, 0): 2**41, (2, 0): 5 * 2**40 * 3**30}
    assert x.coeffs == {(0, 0): Fraction(1, 2**40), (1, 0): Fraction(2, 3**30),
                        (2, 0): Fraction(5)}
    assert coefficient(x, {"t0": 3}) == 0 and x.constant_term == Fraction(1, 2**40)
    # halving every coefficient of 2/4 + 6/4 t leaves 1/4 + 3/4 t, den 4
    y = TruncatedSeries(spec, {(0, 0): Fraction(2, 4), (1, 0): Fraction(6, 4)})
    assert (y.den, y.nums) == (2, {(0, 0): 1, (1, 0): 3})
    assert y.scaled(Fraction(1, 2)) == TruncatedSeries(
        spec, {(0, 0): Fraction(1, 4), (1, 0): Fraction(3, 4)})
    with pytest.raises(TypeError):
        TruncatedSeries(spec, {(0, 0): 0.5})
    with pytest.raises(TypeError):
        y.scaled(0.5)


def _count_fractions(monkeypatch, compute):
    """Run compute() and count every Fraction constructed meanwhile."""
    made = 0
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return original(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", counting)
        result = compute()
    return made, result


def test_point_pipeline_builds_almost_no_fractions(monkeypatch):
    """The metric inverse, its certificate and the QDE residual on the
    point at 60/60 run on integer numerators: no Fraction per term."""
    ring = point_kring()
    table = CorrelatorTable.empty(ring, 0, {"type": "point"})
    potential = assemble_potential(table, 63, 0)
    solution = assemble_fundamental_solution(table, 60, 0, 60)
    made, fd = _count_fractions(monkeypatch, lambda: build_frobenius_data(potential))
    assert made < 50
    made, residuals = _count_fractions(monkeypatch, lambda: qde_residual(solution, fd))
    assert made < 50
    assert [r.is_zero for r in residuals] == [True]


def test_fundamental_solution_builds_no_fraction_per_term(monkeypatch):
    """S on the point is put together from integer numerators: its few
    Fractions come from chi, as many at q order 30 as at 60."""
    ring = point_kring()
    table = CorrelatorTable.empty(ring, 0, {"type": "point"})
    made, _ = _count_fractions(
        monkeypatch, lambda: assemble_fundamental_solution(table, 60, 0, 60))
    made_half_q, _ = _count_fractions(
        monkeypatch, lambda: assemble_fundamental_solution(table, 60, 0, 30))
    assert made < 1000
    assert made == made_half_q


def test_potential_classes_keep_their_fraction_coordinates(monkeypatch):
    """The degree-zero products behind the P^4 potential at t order 8 are
    coordinate tuples that start from integers and never re-convert a
    coordinate, so they build under half the 22,832 Fractions a copy of
    every coordinate took."""
    ring = projective_space_kring(4)
    table = CorrelatorTable.empty(ring, 0, {"type": "projective", "n": 4})
    made, potential = _count_fractions(
        monkeypatch, lambda: assemble_potential(table, 8, 0))
    assert made < 11_000
    assert len(potential.series.nums) == 80


def test_from_numerators_reduces_and_checks_the_denominator():
    spec = SeriesSpec(1, 0, 3, 0, 0)
    x = TruncatedSeries.from_numerators(spec, {(0, 0): 6, (2, 0): -4}, 8)
    assert (x.den, x.nums) == (4, {(0, 0): 3, (2, 0): -2})
    assert x == TruncatedSeries(spec, {(0, 0): Fraction(3, 4), (2, 0): Fraction(-1, 2)})
    for den in (0, -8, 8.0, Fraction(8), True):
        with pytest.raises(ValueError):
            TruncatedSeries.from_numerators(spec, {(0, 0): 6}, den)


def test_over_lcm_rescales_each_denominator_group_once():
    spec = SeriesSpec(1, 0, 3, 0, 0)
    e, f = (1, 0), (2, 0)
    groups = {4: {e: 2}, 6: {f: 3}}
    x = TruncatedSeries.over_lcm(spec, groups)
    assert (x.den, x.nums) == (2, {e: 1, f: 1})
    assert groups == {}
    assert TruncatedSeries.over_lcm(spec, {}) == TruncatedSeries.zero(spec)


def test_truncating_to_the_same_orders_returns_the_series_itself():
    a = exp_series(SPEC1, 4)
    assert a.within(SPEC1.truncated()) is a
    assert a.within(SPEC1.truncated(t_order=4, novikov_order=0, q_order=0)) is a
    m = SeriesMatrix(((a, a), (a, a)))
    assert m.within(SPEC1) is m
    lower = a.within(SPEC1.truncated(t_order=2))
    assert lower is not a and lower == exp_series(SPEC1.truncated(t_order=2), 2)


def test_truncating_a_spec_to_its_own_orders_returns_the_spec_itself():
    spec = SMALL_SPEC
    assert spec.truncated() is spec
    assert spec.truncated(t_order=3, novikov_order=2, q_order=1) is spec
    lower = spec.truncated(q_order=0)
    assert lower is not spec
    assert lower == SeriesSpec(2, 1, 3, 2, 0) and lower.truncated(q_order=0) is lower
    with pytest.raises(IncompatibleSeries):
        spec.truncated(novikov_order=3)


def test_specs_are_interned():
    spec = SeriesSpec(2, 1, 4, 1, 3)
    assert spec is SeriesSpec(2, 1, 4, 1, 3)
    assert spec is SeriesSpec(q_order=3, novikov_order=1, t_order=4, num_novikov=1, num_t=2)
    assert spec.replace(q_order=0) is SeriesSpec(2, 1, 4, 1, 0)
    assert spec.replace(q_order=0).replace(q_order=3) is spec
    assert spec.truncated(t_order=2) is SeriesSpec(2, 1, 2, 1, 3)
    assert unit_series(spec).derivative(1).spec is spec.truncated(t_order=3)
    for counts in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="non-negative"):
            SeriesSpec(*counts, 2, 0, 0)
        with pytest.raises(ValueError, match="non-negative"):
            spec.replace(num_t=counts[0], num_novikov=counts[1])


def test_spec_fields_must_be_ints():
    # q order 29 is a window no other test builds, so this call is its
    # first build: a bool or float field must not become the interned spec.
    with pytest.raises(TypeError, match="spec fields must be ints"):
        SeriesSpec(True, 0, 2.0, 0, 29)
    spec = SeriesSpec(1, 0, 2, 0, 29)
    assert type(spec.num_t) is int and type(spec.t_order) is int
    # Once the int spec exists, an equal non-int request still raises.
    with pytest.raises(TypeError, match="spec fields must be ints"):
        SeriesSpec(True, 0, 2.0, 0, 29)


@given(_series(), st.integers(0, 3), st.integers(0, 2), st.integers(0, 1))
@settings(max_examples=40, deadline=None)
def test_within_a_lower_window_drops_exactly_what_it_does_not_admit(a, t, n, q):
    low = SMALL_SPEC.truncated(t_order=t, novikov_order=n, q_order=q)
    lowered = a.within(low)
    assert lowered.spec is low
    assert lowered.coeffs == {exp: v for exp, v in a.coeffs.items() if low.admits(exp)}
    assert SeriesMatrix(((a,),)).within(low) == SeriesMatrix(((lowered,),))


def test_within_lifts_a_q_free_product_into_the_q_window_whole():
    """The QDE residual's lift: (e_k *) of a product window, q order 0, put
    in S's window with a q order: every term is kept and multiplies as is."""
    product = SeriesSpec(2, 1, 3, 1, 0)
    s_window = product.replace(q_order=4)
    p = TruncatedSeries(product, {(0, 0, 0, 0): 1, (1, 2, 1, 0): Fraction(-3, 5),
                                  (3, 0, 0, 0): Fraction(7, 2)})
    lifted = p.within(s_window)
    assert lifted.spec is s_window
    assert (lifted.den, lifted.nums) == (p.den, p.nums)
    s = TruncatedSeries(s_window, {(0, 0, 0, 4): 2, (1, 0, 1, 1): Fraction(1, 3)})
    assert (lifted * s).coeffs == naive_product(lifted, s).coeffs


def test_within_rejects_another_variable_layout():
    a = unit_series(SeriesSpec(2, 1, 3, 1, 1))
    for spec in (SeriesSpec(1, 2, 3, 1, 1), SeriesSpec(2, 0, 3, 1, 1), SeriesSpec(3, 1, 3, 1, 1)):
        with pytest.raises(IncompatibleSeries, match="windows differ in their variables"):
            a.within(spec)
        with pytest.raises(IncompatibleSeries):
            SeriesMatrix(((a,),)).within(spec)


# -- inverse route equivalence ------------------------------------------------

def _random_metric(rng, dim: int, spec: SeriesSpec) -> SeriesMatrix:
    """Symmetric series matrix with invertible constant term."""
    while True:
        const = [[Fraction(rng.randint(-4, 4)) for _ in range(dim)]
                 for _ in range(dim)]
        for i in range(dim):
            for j in range(i + 1, dim):
                const[j][i] = const[i][j]
        from qkzero import try_rational_inverse
        if try_rational_inverse(const) is not None:
            break
    rows = [[dict() for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            rows[i][j][(0,) * spec.nvars] = const[i][j]
            for _ in range(rng.randint(0, 4)):
                exp = tuple(
                    rng.randint(0, hi) for hi in (
                        [spec.t_order] * spec.num_t
                        + [spec.novikov_order] * spec.num_novikov
                        + [spec.q_order]))
                if sum(exp) == 0:
                    continue
                rows[i][j][exp] = rows[i][j].get(exp, Fraction(0)) \
                    + Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            rows[j][i] = rows[i][j]
    return SeriesMatrix(tuple(
        tuple(TruncatedSeries(spec, rows[i][j]) for j in range(dim))
        for i in range(dim)))


def test_inverse_routes_agree_on_random_metrics():
    import random

    rng = random.Random(20240817)
    spec = SeriesSpec(num_t=2, num_novikov=1, t_order=6, novikov_order=3, q_order=0)
    for trial in range(50):
        dim = 2 + trial % 2
        mat = _random_metric(rng, dim, spec)
        geo = matrix_inverse_geometric(mat)
        direct = matrix_inverse_direct(mat)
        assert geo == direct
        assert mat * geo == SeriesMatrix.identity(spec, dim)


@pytest.mark.parametrize("spec", [
    # every cap reaches t 3, Q 1 after two rounds, but t^3 Q has degree 4
    SeriesSpec(num_t=2, num_novikov=1, t_order=3, novikov_order=1, q_order=0),
    # q-dependent metrics whose q order exceeds the t order: t^2 q^3 and
    # t Q q^2 lie beyond the total degree two rounds certify
    SeriesSpec(num_t=2, num_novikov=0, t_order=2, novikov_order=0, q_order=3),
    SeriesSpec(num_t=1, num_novikov=1, t_order=1, novikov_order=1, q_order=2),
])
def test_newton_inverse_runs_past_the_full_window(spec):
    """Newton's caps bound each group's degree, not the total degree, so
    the inverse is certified only on the full window, once the error starts
    above half its budget."""
    import random

    rng = random.Random(20261018)
    for trial in range(40):
        dim = 1 + trial % 3
        mat = _random_metric(rng, dim, spec)
        inv = matrix_inverse_geometric(mat)
        assert inv.spec == spec
        assert inv == matrix_inverse_direct(mat)
        assert mat * inv == SeriesMatrix.identity(spec, dim)
