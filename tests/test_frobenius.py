"""Potential assembly, quantized metric, quantum product, and identity checks."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import factorial

import pytest

import qkzero.correlators as correlators
import qkzero.frobenius as frobenius
from qkzero import (
    CorrelatorTable,
    IncompleteTable,
    SeriesMatrix,
    TruncatedSeries,
    assemble_potential,
    build_frobenius_data,
    classical_limit_residual,
    flatness_residuals,
    matrix_inverse_geometric,
    point_kring,
    projective_space_kring,
    quantized_metric,
    unit_residual,
    wdvv_residual,
)

from oracles import (
    chi_exponential_series,
    matrix_inverse_direct,
    monomial,
    p2_line_bundle_kring,
    sympy_wdvv_tensor,
    unit_series,
)

POINT = point_kring()
P1 = projective_space_kring(1)
P2 = projective_space_kring(2)
P2_LINE_BUNDLES = p2_line_bundle_kring()


def empty_table(ring, degree_rank=0, target=None):
    return CorrelatorTable.empty(ring, degree_rank, target or {"type": "point"})


def point_potential(t_order):
    return assemble_potential(empty_table(POINT), t_order, 0)


def test_point_potential_is_exponential_without_low_terms():
    p = point_potential(10)
    assert p.series.coefficient({}) == 0
    assert p.series.coefficient({"t0": 1}) == 0
    for n in range(2, 11):
        assert p.series.coefficient({"t0": n}) == Fraction(1, factorial(n))


def test_point_metric_is_exponential():
    fd = build_frobenius_data(point_potential(10))
    entry = fd.gmetric.entries[0][0]
    assert entry.spec.t_order == 8
    for n in range(9):
        assert entry.coefficient({"t0": n}) == Fraction(1, factorial(n))


def test_point_product_is_constant_one():
    fd = build_frobenius_data(point_potential(10))
    c = fd.product[0].entries[0][0]
    assert c == unit_series(c.spec)
    assert c.spec.t_order == 7


def test_point_identities_vanish_exactly():
    fd = build_frobenius_data(point_potential(10))
    assert wdvv_residual(fd).is_zero
    flat = flatness_residuals(fd)
    assert flat.is_zero
    assert unit_residual(fd).is_zero
    assert classical_limit_residual(fd).is_zero


def test_projective_line_potential_low_coefficients():
    p = assemble_potential(empty_table(P1, 1, {"type": "projective", "n": 1}),
                           3, 0)
    assert p.series.coefficient({"t0": 2}) == Fraction(1, 2)
    assert p.series.coefficient({"t0": 1, "t1": 1}) == 1
    assert p.series.coefficient({"t1": 2}) == 0
    assert p.series.coefficient({"t0": 3}) == Fraction(1, 6)
    assert p.series.coefficient({"t0": 2, "t1": 1}) == Fraction(1, 2)
    assert p.series.coefficient({"t0": 1, "t1": 2}) == 0


def test_two_point_term_is_the_pairing():
    # chi(e_i e_j) = g_ij, so the degree-zero two-point terms are the
    # classical quadratic term 1/2 g(t, t), and no term has lower degree.
    table = empty_table(P2_LINE_BUNDLES)
    chi = correlators.degree_zero_chi(P2_LINE_BUNDLES)
    assert [[chi((i, j)) for j in range(3)] for i in range(3)] == [
        [1, 0, 0], [0, 0, 1], [0, 1, 3]]
    quadratic = assemble_potential(table, 2, 0).series
    assert quadratic.coeffs == {(2, 0, 0, 0): Fraction(1, 2), (0, 1, 1, 0): 1,
                                (0, 0, 2, 0): Fraction(3, 2)}
    assert assemble_potential(table, 1, 0).series.is_zero()


def test_projective_line_metric_matches_direct_euler_characteristics():
    p = assemble_potential(empty_table(P1, 1, {"type": "projective", "n": 1}),
                           6, 0)
    gm = quantized_metric(p)
    for i in range(2):
        for j in range(2):
            oracle = chi_exponential_series(P1, (i, j), 4)
            entry = gm.entries[i][j]
            stored = {
                exp[:2]: v for exp, v in entry.coeffs.items()
            }
            assert stored == oracle


def test_projective_line_metric_closed_form():
    # G = exp(t0) * [[1 + t1, 1], [1, 0]] entry by entry.
    p = assemble_potential(empty_table(P1, 1, {"type": "projective", "n": 1}),
                           6, 0)
    gm = quantized_metric(p)
    for k in range(5):
        inv_k = Fraction(1, factorial(k))
        assert gm.entries[0][0].coefficient({"t0": k}) == inv_k
        assert gm.entries[0][1].coefficient({"t0": k}) == inv_k
        assert gm.entries[1][1].coefficient({"t0": k}) == 0
        if k < 4:  # stay inside the certified total degree
            assert gm.entries[0][0].coefficient({"t0": k, "t1": 1}) == inv_k
            assert gm.entries[0][1].coefficient({"t0": k, "t1": 1}) == 0
    assert gm.entries[0][1] == gm.entries[1][0]


@pytest.mark.parametrize("ring,target", [
    (P1, {"type": "projective", "n": 1}),
    (P2, {"type": "projective", "n": 2}),
    (projective_space_kring(3), {"type": "projective", "n": 3}),
    (P2_LINE_BUNDLES, {"type": "custom", "ring": P2_LINE_BUNDLES.to_json_dict()}),
])
def test_projective_classical_identities(ring, target):
    p = assemble_potential(empty_table(ring, 1, target), 6, 0)
    fd = build_frobenius_data(p)
    assert wdvv_residual(fd).is_zero
    flat = flatness_residuals(fd)
    assert flat.r1.is_zero and flat.r2.is_zero
    assert flat.levi_civita.is_zero and flat.metric.is_zero
    assert unit_residual(fd).is_zero
    assert classical_limit_residual(fd).is_zero


def test_classical_product_equals_structure_constants():
    for nproj in (1, 2, 3):
        ring = projective_space_kring(nproj)
        p = assemble_potential(
            empty_table(ring, 1, {"type": "projective", "n": nproj}), 6, 0)
        fd = build_frobenius_data(p)
        # With no Novikov data the product must be the constant classical table.
        for i in range(ring.rank):
            for j in range(ring.rank):
                for k in range(ring.rank):
                    expected = TruncatedSeries.constant(
                        fd.product[i].spec, ring.mult[i][j][k])
                    assert fd.product[i].entries[j][k] == expected, (nproj, i, j, k)


def quantum_p1_table(max_degree=4, max_insertions=9):
    # Every positive-degree invariant of P^1 with insertions from {1, O_pt}
    # is 1 (Buch-Mihalcea); the benchmark's P^1 table, whose seed only
    # shuffles the entry order.
    table = empty_table(P1, 1, {"type": "projective", "n": 1})
    for d in range(1, max_degree + 1):
        for n in range(max_insertions + 1):
            for kappa in combinations_with_replacement(range(2), n):
                table = table.with_entry((d,), kappa, Fraction(1))
    return table


@pytest.mark.parametrize("ring,table,t_order,novikov_order", [
    (P2, empty_table(P2, 1, {"type": "projective", "n": 2}).with_entry(
        (0,), (1, 1, 2, 2), Fraction(3, 7)), 7, 0),
    (P1, quantum_p1_table(), 9, 4),
], ids=["perturbed-P2", "quantum-P1"])
def test_frobenius_data_is_one_matrix_per_class(ring, table, t_order, novikov_order):
    # Off classical data: a perturbed degree-zero entry, and quantum P^1.
    potential = assemble_potential(table, t_order, novikov_order)
    gm = quantized_metric(potential)
    fd = build_frobenius_data(potential)
    rank = ring.rank
    assert fd.gmetric == gm
    assert fd.ginv == matrix_inverse_direct(gm)
    ginv3 = fd.ginv.truncated(t_order=t_order - 3)
    for k in range(rank):
        assert fd.third[k] == gm.derivative(f"t{k}")
        assert fd.product[k] == fd.third[k] * ginv3
    for ijk in combinations_with_replacement(range(rank), 3):
        first = fd.third[ijk[0]].entries[ijk[1]][ijk[2]]
        for i, j, k in permutations(ijk):
            assert fd.third[i].entries[j][k] == first, (i, j, k)


def test_geometric_inverse_doubles_precision_per_round(monkeypatch):
    # The point metric of a qde-check at t and q order 60: 121 is its
    # truncation budget.  Summing the geometric series one power of M at a
    # time would take 63 matrix products; each Newton round doubles the
    # certified total degree for two.
    potential = assemble_potential(empty_table(POINT), 63, 0, q_order=60)
    gm = quantized_metric(potential)
    budget = gm.spec.budget()
    assert budget == 121
    calls = []
    mul = SeriesMatrix.__mul__

    def counted(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(SeriesMatrix, "__mul__", counted)
    ginv = matrix_inverse_geometric(gm)
    assert len(calls) <= 2 * (budget.bit_length() + 1) + 1
    monkeypatch.undo()
    assert gm * ginv == SeriesMatrix.identity(gm.spec, 1)


def test_build_rejects_inverse_failing_certificate(monkeypatch):
    # One wrong coefficient at the top of the window, the order an inverse
    # summed from too few geometric terms would get wrong.
    def wrong_inverse(mat):
        rows = [list(row) for row in matrix_inverse_geometric(mat).entries]
        rows[1][0] = rows[1][0] + monomial(
            mat.spec, {"t0": mat.spec.t_order}, Fraction(1, 7))
        return SeriesMatrix(tuple(map(tuple, rows)))

    monkeypatch.setattr(frobenius, "matrix_inverse_geometric", wrong_inverse)
    table = empty_table(P1, 1, {"type": "projective", "n": 1})
    with pytest.raises(ArithmeticError):
        build_frobenius_data(assemble_potential(table, 6, 0))


def test_positive_degree_demands_table_data():
    table = empty_table(P1, 1, {"type": "projective", "n": 1})
    with pytest.raises(IncompleteTable) as excinfo:
        assemble_potential(table, 4, 1)
    assert excinfo.value.beta == (1,)


def test_positive_degree_terms_flow_into_potential():
    table = empty_table(P1, 1, {"type": "projective", "n": 1})
    for n in range(5):
        for kappa in combinations_with_replacement(range(2), n):
            table = table.with_entry((1,), kappa, Fraction(1))
    p = assemble_potential(table, 4, 1)
    # Q-linear, t-free term comes from the empty-insertion correlator.
    assert p.series.coefficient({"Q0": 1}) == 1
    assert p.series.coefficient({"Q0": 1, "t0": 2}) == Fraction(1, 2)
    assert p.series.coefficient({"Q0": 1, "t0": 1, "t1": 1}) == 1


def test_potential_forms_one_class_product_per_multiset(monkeypatch):
    # P^4 at T = 8 has 1,286 insertion multisets of sizes 1..8; the ones of
    # sizes 1 and 2 are the prefixes of the 1,266 the potential sums over.
    # Multiplying each multiset up from the unit would take 8,545 products.
    calls = []
    mul = correlators._times_basis

    def counted(*args):
        calls.append(None)
        return mul(*args)

    monkeypatch.setattr(correlators, "_times_basis", counted)
    p4 = projective_space_kring(4)
    assemble_potential(empty_table(p4, 1, {"type": "projective", "n": 4}), 8, 0)
    assert len(calls) == 1286


def test_wdvv_detects_injected_quartic():
    # Perturb one quartic correlator of the classical line table; the
    # associativity residual must pick it up, and the full residual tensor
    # must match an independent sympy recomputation.
    table = empty_table(P1, 1, {"type": "projective", "n": 1})
    perturbed_value = Fraction(0) + Fraction(1, 5)
    table = table.with_entry((0,), (0, 1, 1, 1), perturbed_value)
    p = assemble_potential(table, 7, 0)
    fd = build_frobenius_data(p)
    summary = wdvv_residual(fd)
    assert not summary.is_zero

    t_coeffs = {exp[:2]: v for exp, v in p.series.coeffs.items()}
    tensor = sympy_wdvv_tensor(t_coeffs, 2, 7)
    rank = 2
    for i in range(rank):
        for j in range(rank):
            for k in range(j + 1, rank):
                for l in range(rank):
                    lhs = _sum(fd, i, j, k, l)
                    got = {exp[:2]: v for exp, v in lhs.coeffs.items()}
                    assert got == tensor[(i, j, k, l)], (i, j, k, l)

    # The reported witness is the largest entry of the oracle tensor too.
    best = Fraction(0)
    for key in sorted(tensor):
        for exp in sorted(tensor[key]):
            if abs(tensor[key][exp]) > best:
                best = abs(tensor[key][exp])
    assert summary.max_abs == best
    witness_exp = tuple(
        summary.witness["monomial"].get(f"t{i}", 0) for i in range(2))
    key = tuple(summary.witness["indices"])
    assert tensor[key][witness_exp] == Fraction(summary.witness["value"])


def _sum(fd, i, j, k, l):
    rank = fd.ring.rank
    acc = TruncatedSeries.zero(fd.product[0].spec)
    for nu in range(rank):
        acc = acc + fd.product[i].entries[j][nu] * fd.third[nu].entries[k][l]
        acc = acc - fd.product[i].entries[k][nu] * fd.third[nu].entries[j][l]
    return acc


def _classical_p1():
    return build_frobenius_data(
        assemble_potential(empty_table(P1, 1, {"type": "projective", "n": 1}),
                           6, 0))


def _bumped(fd, k, row, col):
    # fd with t0 added to entry (row, col) of product[k].
    bump = monomial(fd.product[k].spec, {"t0": 1})
    rows = [list(r) for r in fd.product[k].entries]
    rows[row][col] = rows[row][col] + bump
    product = list(fd.product)
    product[k] = SeriesMatrix(tuple(map(tuple, rows)))
    return replace(fd, product=tuple(product))


def test_r1_detects_non_potential_family():
    fd = _classical_p1()
    # Entry (0, 1) of the action A_1 = product[1]^T.
    crooked = _bumped(fd, 1, 1, 0)
    flat = flatness_residuals(crooked)
    assert not flat.r1.is_zero
    assert flat.r1.witness["pair"] == [0, 1]
    assert flat.r1.witness["entry"] == [0, 1]


def test_unit_residual_reports_entries_of_the_action():
    fd = _classical_p1()
    # t0 in c_{01}^0: e_0 * e_1 gains t0 e_0, entry (0, 1) of A_0 = product[0]^T.
    unit = unit_residual(_bumped(fd, 0, 1, 0))
    assert unit.witness["entry"] == [0, 1]
    assert unit.witness["monomial"] == {"t0": 1}
    assert unit.witness["value"] == "1/1"


def test_levi_civita_detects_product_not_built_from_the_metric():
    # A perturbed table breaks WDVV, yet product[k] * G = dG/dt_k holds by
    # construction, so the Levi-Civita family stays zero.
    table = empty_table(P1, 1, {"type": "projective", "n": 1}).with_entry(
        (0,), (0, 1, 1, 1), Fraction(1, 5))
    fd = build_frobenius_data(assemble_potential(table, 7, 0))
    assert not wdvv_residual(fd).is_zero
    assert flatness_residuals(fd).levi_civita.is_zero
    # On the classical line G = exp(t0) [[1 + t1, 1], [1, 0]].  t0 in
    # c_{01}^1 shifts row 1 of product[0] * G by t0 G[1] = t0 exp(t0) (1, 0),
    # so only (product[0] * G)[1][0] moves: the symmetrized pieces (0, 0, 1)
    # and (0, 1, 0) move by -t0 exp(t0) / 2, whose largest coefficients are
    # the 1/2s at t0 and t0^2.
    lc = flatness_residuals(_bumped(_classical_p1(), 0, 1, 1)).levi_civita
    assert lc.max_abs == Fraction(1, 2)
    assert lc.witness["indices"] == [0, 0, 1]
    assert lc.witness["monomial"] == {"t0": 1}
    assert lc.witness["value"] == "-1/2"
