"""Potential assembly, quantized metric, quantum product, and identity checks."""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import factorial
from pathlib import Path

import pytest

import qkzero.correlators as correlators
from qkzero import (
    CorrelatorTable,
    IncompleteTable,
    KRingPresentation,
    SeriesMatrix,
    SeriesSpec,
    TruncatedSeries,
    assemble_potential,
    build_frobenius_data,
    classical_limit_residual,
    flatness_residuals,
    load_correlators,
    matrix_inverse_geometric,
    point_kring,
    projective_space_kring,
    quantized_metric,
    unit_residual,
    wdvv_residual,
)
from qkzero.frobenius import residual_summary

from oracles import (
    chi_exponential_series,
    coefficient,
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
DATA = Path(__file__).parent / "data"


def empty_table(ring, degree_rank=0, target=None):
    return CorrelatorTable.empty(ring, degree_rank, target or {"type": "point"})


def point_potential(t_order):
    return assemble_potential(empty_table(POINT), t_order, 0)


def test_point_potential_is_exponential_without_low_terms():
    p = point_potential(10)
    assert coefficient(p.series, {}) == 0
    assert coefficient(p.series, {"t0": 1}) == 0
    for n in range(2, 11):
        assert coefficient(p.series, {"t0": n}) == Fraction(1, factorial(n))


def test_point_metric_is_exponential():
    fd = build_frobenius_data(point_potential(10))
    entry = fd.gmetric.entries[0][0]
    assert entry.spec.t_order == 8
    for n in range(9):
        assert coefficient(entry, {"t0": n}) == Fraction(1, factorial(n))


def test_point_product_is_constant_one():
    fd = build_frobenius_data(point_potential(10))
    c = fd.product[0].entries[0][0]
    assert c == unit_series(c.spec)
    assert c.spec.t_order == 7


def test_point_identities_vanish_exactly():
    fd = build_frobenius_data(point_potential(10))
    assert wdvv_residual(fd).is_zero
    assert all(family.is_zero for family in flatness_residuals(fd).values())
    assert unit_residual(fd).is_zero
    assert classical_limit_residual(fd).is_zero


def test_projective_line_potential_low_coefficients():
    p = assemble_potential(empty_table(P1, 1, {"type": "projective", "n": 1}),
                           3, 0)
    assert coefficient(p.series, {"t0": 2}) == Fraction(1, 2)
    assert coefficient(p.series, {"t0": 1, "t1": 1}) == 1
    assert coefficient(p.series, {"t1": 2}) == 0
    assert coefficient(p.series, {"t0": 3}) == Fraction(1, 6)
    assert coefficient(p.series, {"t0": 2, "t1": 1}) == Fraction(1, 2)
    assert coefficient(p.series, {"t0": 1, "t1": 2}) == 0


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
        assert coefficient(gm.entries[0][0], {"t0": k}) == inv_k
        assert coefficient(gm.entries[0][1], {"t0": k}) == inv_k
        assert coefficient(gm.entries[1][1], {"t0": k}) == 0
        if k < 4:  # stay inside the certified total degree
            assert coefficient(gm.entries[0][0], {"t0": k, "t1": 1}) == inv_k
            assert coefficient(gm.entries[0][1], {"t0": k, "t1": 1}) == 0
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
    assert flat["r1"].is_zero and flat["r2"].is_zero
    assert flat["levicivita"].is_zero and flat["metric"].is_zero
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


def golden_input(name):
    return load_correlators(json.loads((DATA / f"{name}_input.json").read_text()))


@pytest.mark.parametrize("ring,table,t_order,novikov_order", [
    (P2, empty_table(P2, 1, {"type": "projective", "n": 2}).with_entry(
        (0,), (1, 1, 2, 2), Fraction(3, 7)), 7, 0),
    (P1, quantum_p1_table(), 9, 4),
    (P1, golden_input("frobenius_p1_degree_two"), 7, 2),
    (P2, golden_input("frobenius_p2_degree_two"), 6, 2),
    (projective_space_kring(4), empty_table(
        projective_space_kring(4), 1, {"type": "projective", "n": 4}), 8, 0),
], ids=["perturbed-P2", "quantum-P1", "degree-two-P1", "degree-two-P2", "classical-P4"])
def test_frobenius_data_is_one_matrix_per_class(ring, table, t_order, novikov_order):
    # Off classical data: a perturbed degree-zero entry, quantum P^1, and
    # the degree-two tables of the CLI golden files, where WDVV fails; and
    # classical P^4 at rank 5.
    potential = assemble_potential(table, t_order, novikov_order)
    gm = quantized_metric(potential)
    # Every term of G but g carries t or Q, so G is invertible at the origin.
    assert gm.constant_matrix() == ring.pairing
    fd = build_frobenius_data(potential)
    rank = ring.rank
    assert fd.gmetric == gm
    assert fd.ginv == matrix_inverse_direct(gm)
    ginv3 = fd.ginv.within(fd.ginv.spec.truncated(t_order=t_order - 3))
    for k in range(rank):
        assert fd.third[k] == gm.derivative(k)
        assert fd.product[k] == fd.third[k] * ginv3
        # third[k] is symmetric in all three indices, so the product tensor
        # is symmetric in its two lower ones.
        for j in range(rank):
            assert fd.product[k].entries[j] == fd.product[j].entries[k], (j, k)
    for ijk in combinations_with_replacement(range(rank), 3):
        first = fd.third[ijk[0]].entries[ijk[1]][ijk[2]]
        for i, j, k in permutations(ijk):
            assert fd.third[i].entries[j][k] == first, (i, j, k)


def test_geometric_inverse_doubles_precision_per_round(monkeypatch):
    # The point metric of a qde-check at t order 60, widened to q order 60:
    # 121 is its truncation budget.  Summing the geometric series one power
    # of M at a time would take 63 matrix products; each Newton round
    # doubles the certified total degree for two.
    gm = quantized_metric(point_potential(63))
    gm = gm.within(gm.spec.replace(q_order=60))
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
    # A multiply that adds t0 to every product of two non-monomials: Newton's
    # error keeps a degree-1 term, so the loop may never certify an inverse.
    # It must raise, not loop on or hand build an uncertified inverse.
    mul = TruncatedSeries.__mul__

    def broken(self, other):
        out = mul(self, other)
        if isinstance(other, TruncatedSeries) and len(self.nums) > 1 < len(other.nums):
            out = out + monomial(out.spec, {"t0": 1})
        return out

    monkeypatch.setattr(TruncatedSeries, "__mul__", broken)
    for ring, n, t_order in ((P1, 1, 6), (P2, 2, 8)):
        table = empty_table(ring, 1, {"type": "projective", "n": n})
        with pytest.raises(ArithmeticError, match="Newton"):
            build_frobenius_data(assemble_potential(table, t_order, 0))


def test_build_multiplies_no_more_than_newton_and_the_product(monkeypatch):
    # The inverse's stop test is its certificate: no G * G^-1 follows it.
    # Newton takes two products per round (6 rounds on the point at T 63,
    # 3 on P^4 at T 8), then one product[k] per basis class.
    calls = []
    mul = SeriesMatrix.__mul__

    def counted(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(SeriesMatrix, "__mul__", counted)
    for ring, target, t_order, expected in (
            (POINT, {"type": "point"}, 63, 13),
            (projective_space_kring(4), {"type": "projective", "n": 4}, 8, 11)):
        calls.clear()
        degree_rank = 0 if ring is POINT else 1
        fd = build_frobenius_data(assemble_potential(
            empty_table(ring, degree_rank, target), t_order, 0))
        assert len(calls) == expected
        assert fd.ginv == matrix_inverse_direct(fd.gmetric)


def test_p4_pipeline_builds_its_matrices_on_few_window_objects(monkeypatch):
    # Each window is one interned SeriesSpec.  When every truncation and
    # derivative built a fresh spec, this run made 1,007 of them and
    # compared equal but distinct specs 14,789 times.
    specs = {}
    post_init = SeriesMatrix.__post_init__

    def recorded(self):
        post_init(self)
        for row in self.entries:
            for entry in row:
                specs[id(entry.spec)] = entry.spec

    monkeypatch.setattr(SeriesMatrix, "__post_init__", recorded)
    fd = build_frobenius_data(assemble_potential(
        empty_table(projective_space_kring(4), 1, {"type": "projective", "n": 4}), 8, 0))
    families = (wdvv_residual(fd), unit_residual(fd), classical_limit_residual(fd),
                *flatness_residuals(fd).values())
    assert all(family.is_zero for family in families)
    assert 3 <= len(specs) <= 10


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
    assert coefficient(p.series, {"Q0": 1}) == 1
    assert coefficient(p.series, {"Q0": 1, "t0": 2}) == Fraction(1, 2)
    assert coefficient(p.series, {"Q0": 1, "t0": 1, "t1": 1}) == 1


def test_potential_forms_one_class_product_per_multiset(monkeypatch):
    # P^4 at T = 8 has 1,286 insertion multisets of sizes 1..8; the ones of
    # sizes 1 and 2 are the prefixes of the 1,266 the potential sums over.
    # Multiplying each multiset up from the unit would take 8,545 products.
    # The counter goes in after the ring is built, so validation's products
    # are not counted.
    calls = []
    mul = KRingPresentation.times_basis

    def counted(*args):
        calls.append(None)
        return mul(*args)

    p4 = projective_space_kring(4)
    monkeypatch.setattr(KRingPresentation, "times_basis", counted)
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
    return fd.replace(product=tuple(product))


def test_r1_detects_non_potential_family():
    fd = _classical_p1()
    # Entry (0, 1) of the action A_1 = product[1]^T.
    crooked = _bumped(fd, 1, 1, 0)
    flat = flatness_residuals(crooked)
    assert not flat["r1"].is_zero
    assert flat["r1"].witness["pair"] == [0, 1]
    assert flat["r1"].witness["entry"] == [0, 1]


def test_residual_summary_keeps_the_first_largest_coefficient():
    spec = SeriesSpec(2, 1, 3, 2, 1)
    labels = [{"k": k} for k in range(4)]
    pieces = [
        TruncatedSeries.zero(spec),
        monomial(spec, {"q": 1}, Fraction(1, 2)),
        # |-3/2| ties 3/2 inside the series: the smaller exponent t1 wins
        # over t0 Q0, with its sign.
        monomial(spec, {"t0": 1, "Q0": 1}, Fraction(3, 2))
        + monomial(spec, {"t1": 1}, Fraction(-3, 2)) + monomial(spec, {}, 1),
        # Equal maximum, later label: not the witness.
        monomial(spec, {}, Fraction(-3, 2)),
    ]
    summary = residual_summary(zip(labels, pieces), spec)
    assert summary.max_abs == Fraction(3, 2)
    assert summary.witness == {"k": 2, "monomial": {"t1": 1}, "value": "-3/2"}
    assert summary.window == {"t": 3, "novikov": 2, "q": 1}
    assert labels[2] == {"k": 2}
    zero = residual_summary([({"k": 0}, TruncatedSeries.zero(spec))], spec.truncated(q_order=0))
    assert zero.to_json_dict() == {"max_residual": "0/1", "witness": None}
    assert zero.is_zero and zero.window == {"t": 3, "novikov": 2, "q": 0}


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
    assert flatness_residuals(fd)["levicivita"].is_zero
    # On the classical line G = exp(t0) [[1 + t1, 1], [1, 0]].  t0 in
    # c_{01}^1 shifts row 1 of product[0] * G by t0 G[1] = t0 exp(t0) (1, 0),
    # so only (product[0] * G)[1][0] moves: the symmetrized pieces (0, 0, 1)
    # and (0, 1, 0) move by -t0 exp(t0) / 2, whose largest coefficients are
    # the 1/2s at t0 and t0^2.
    lc = flatness_residuals(_bumped(_classical_p1(), 0, 1, 1))["levicivita"]
    assert lc.max_abs == Fraction(1, 2)
    assert lc.witness["indices"] == [0, 0, 1]
    assert lc.witness["monomial"] == {"t0": 1}
    assert lc.witness["value"] == "-1/2"


@pytest.mark.parametrize("n,insertions,value,t_order,reported", [
    (1, (0, 1, 1, 1), Fraction(1, 5), 7, None),
    (2, (1, 1, 2, 2), Fraction(3, 7), 8,
     (Fraction(45, 49), Fraction(90, 49), Fraction(135, 196))),
])
def test_flatness_families_repeat_wdvv(n, insertions, value, t_order, reported):
    # On build_frobenius_data output act_k = G^-1 dG/dt_k, so
    # R1 = -R2 on the T - 4 window and the metric curvature -R1/2 + R2/4
    # is 3/4 R2 there: all three fail exactly when WDVV does.
    table = empty_table(projective_space_kring(n), 1, {"type": "projective", "n": n})
    fd = build_frobenius_data(assemble_potential(
        table.with_entry((0,), insertions, value), t_order, 0))
    assert not wdvv_residual(fd).is_zero
    act = [p.transpose() for p in fd.product]
    window = t_order - 4
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            r1 = act[j].derivative(i) - act[i].derivative(j)
            r2 = act[i] * act[j] - act[j] * act[i]
            r2 = r2.within(r2.spec.truncated(t_order=window))
            assert r1 == r2.scaled(-1)
    flat = flatness_residuals(fd)
    assert not flat["r1"].is_zero
    assert flat["metric"].max_abs == Fraction(3, 4) * flat["r1"].max_abs
    assert Fraction(flat["metric"].witness.pop("value")) == \
        Fraction(-3, 4) * Fraction(flat["r1"].witness.pop("value"))
    assert flat["metric"].witness == flat["r1"].witness
    if reported:
        assert (flat["r1"].max_abs, flat["r2"].max_abs, flat["metric"].max_abs) == reported
