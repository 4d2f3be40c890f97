"""Fundamental solution of the quantum differential equation.

The point target has a closed form and an order-by-order integration
oracle; projective targets at degree zero have an independent table built
from the product splitting of the moduli space, which the values computed
for missing degree-zero keys must reproduce.  Both must satisfy the
connection equation and generalized associativity exactly, and a single
perturbed table entry must surface in the residual with a footprint that
linearity predicts coefficient by coefficient.
"""

import json
import pickle
import tracemalloc
from fractions import Fraction
from math import comb, factorial

import pytest

from qkzero import (
    CorrelatorTable,
    IncompleteTable,
    RingMismatch,
    TruncationMismatch,
    assemble_fundamental_solution,
    assemble_potential,
    build_frobenius_data,
    descendent_euler,
    gwdvv_residuals,
    is_complete,
    point_kring,
    projective_space_kring,
    qde_residual,
    quantized_metric,
    ring_from_target,
)
from qkzero import SeriesMatrix, TruncatedSeries, cli
from qkzero.cli import main
from qkzero.frobenius import matrix_pieces, residual_summary, window_dict

from oracles import (
    degree_zero_descendent_table,
    geometric_q,
    integrate_point_qde,
    monomial,
    naive_connection_defect,
    p2_line_bundle_kring,
    zero_matrix,
)

T_POINT = 6
M_POINT = 4


def _point_setup(t_order=T_POINT, q_order=M_POINT):
    ring = point_kring()
    table = CorrelatorTable.empty(ring, 0, {"type": "point"})
    potential = assemble_potential(table, t_order + 3, 0)
    fd = build_frobenius_data(potential)
    solution = assemble_fundamental_solution(table, t_order, 0, q_order)
    return ring, table, fd, solution


def _projective_setup(nproj, t_order, q_order):
    ring = projective_space_kring(nproj)
    table = degree_zero_descendent_table(
        ring, {"type": "projective", "n": nproj}, t_order, q_order)
    potential = assemble_potential(table, t_order + 3, 0)
    fd = build_frobenius_data(potential)
    solution = assemble_fundamental_solution(table, t_order, 0, q_order)
    return ring, table, fd, solution


def test_point_solution_matches_closed_form():
    _, _, _, solution = _point_setup()
    entry = solution.matrix.entries[0][0]
    assert entry.coefficient({}) == 1
    for d in range(1, M_POINT + 1):
        assert entry.coefficient({"q": d}) == 0
    for n in range(1, T_POINT + 1):
        for d in range(M_POINT + 1):
            expected = Fraction(comb(n + d - 1, d), factorial(n))
            assert entry.coefficient({"t0": n, "q": d}) == expected


def test_point_solution_row_matches_lee_evaluator():
    # The solution computes E(n+2; 0,...,0,d) as a binomial; Lee's general
    # evaluator checks that row independently on a large window.
    t_order = q_order = 40
    _, _, _, solution = _point_setup(t_order, q_order)
    entry = solution.matrix.entries[0][0]
    for n in range(1, t_order + 1):
        for d in range(q_order + 1):
            expected = Fraction(descendent_euler((0,) * (n + 1) + (d,)), factorial(n))
            assert entry.coefficient({"t0": n, "q": d}) == expected, (n, d)


def test_point_solution_matches_integration_oracle():
    _, _, _, solution = _point_setup()
    entry = solution.matrix.entries[0][0]
    oracle = integrate_point_qde(T_POINT, M_POINT)
    for (n, d), value in oracle.items():
        assert entry.coefficient({"t0": n, "q": d}) == value


def test_point_residual_vanishes_on_certified_window():
    _, _, fd, solution = _point_setup()
    summaries = qde_residual(solution, fd)
    assert len(summaries) == 1
    assert summaries[0].is_zero
    assert summaries[0].window == {"t": T_POINT - 1, "novikov": 0, "q": M_POINT}
    assert gwdvv_residuals(solution, fd) == []
    assert is_complete(solution)


@pytest.mark.parametrize("nproj", [1, 2, 3])
def test_degree_zero_solution_satisfies_equation(nproj):
    t_order, q_order = 5, 3
    ring, _, fd, solution = _projective_setup(nproj, t_order, q_order)
    assert solution.matrix.constant_matrix() == ring.pairing
    for summary in qde_residual(solution, fd):
        assert summary.is_zero
    pairs = gwdvv_residuals(solution, fd)
    assert len(pairs) == ring.rank * (ring.rank - 1) // 2
    for _, summary in pairs:
        assert summary.is_zero
    assert is_complete(solution)


def test_transposed_action_fails_equation():
    # The transposed product matrices act on coordinates; the solution
    # carries a paired index.  Using the coordinate-side action must break
    # the equation for any target of rank above one.
    t_order, q_order = 4, 2
    _, _, fd, solution = _projective_setup(1, t_order, q_order)
    flipped = fd.replace(product=tuple(m.transpose() for m in fd.product))
    summaries = qde_residual(solution, flipped)
    assert any(not s.is_zero for s in summaries)


def test_supplied_value_wins_where_computed_chi_vanishes(tmp_path, capsys):
    """On P^1 the computed <e_1, e_1, tau_d(e_1)> is chi(e_1^3) E(3; 0, 0, d)
    = 0 at every d, so S[1][1] has no t1 q^2 term; a table value for that
    key must still enter S, and the QDE must then fail."""
    ring = projective_space_kring(1)
    table = CorrelatorTable.empty(ring, 1, {"type": "projective", "n": 1})
    computed = assemble_fundamental_solution(table, 3, 0, 2).matrix.entries[1][1]
    assert computed.coefficient({"t1": 1, "q": 2}) == 0
    perturbed = table.with_descendent_entry((0,), (1, 1), (1, 2), Fraction(5))
    entry = assemble_fundamental_solution(perturbed, 3, 0, 2).matrix.entries[1][1]
    assert entry.coefficient({"t1": 1, "q": 2}) == 5
    assert entry - computed == monomial(entry.spec, {"t1": 1, "q": 2}, 5)

    path = tmp_path / "table.json"
    path.write_text(json.dumps(perturbed.to_json_dict()))
    code = main(["qde-check", "--input", str(path), "--t-order", "3",
                 "--desc-order", "2"])
    capsys.readouterr()
    assert code == 3


def test_perturbed_entry_footprint():
    delta = Fraction(3, 7)
    ring, table, fd, solution = _point_setup()
    perturbed = table.with_descendent_entry(
        (), (0, 0, 0, 0), (0, 2), descendent_euler((0, 0, 0, 0, 2)) + delta)
    bad = assemble_fundamental_solution(perturbed, T_POINT, 0, M_POINT)

    # The entry enters S once, through the n = 3 insertion block.
    diff = bad.matrix.entries[0][0] - solution.matrix.entries[0][0]
    spec = solution.matrix.spec
    assert diff == monomial(
        spec, {"t0": 3, "q": 2}, delta / factorial(3))

    # Differentiation and the geometric ladder spread it out with the
    # weights linearity dictates; nothing else moves.
    window = T_POINT - 1
    s_entry = bad.matrix.entries[0][0]
    ds = s_entry.derivative("t0").truncated(t_order=window)
    a_entry = fd.product[0].truncated(t_order=window).widened(ds.spec).entries[0][0]
    geom = geometric_q(ds.spec)
    residual = ds - a_entry * s_entry.truncated(t_order=window) * geom
    expected = monomial(ds.spec, {"t0": 2, "q": 2}, delta / 2)
    for e in range(2, M_POINT + 1):
        expected = expected + monomial(
            ds.spec, {"t0": 3, "q": e}, -delta / 6)
    assert residual == expected

    summary = qde_residual(bad, fd)[0]
    assert summary.max_abs == delta / 2
    assert summary.witness["k"] == 0
    assert summary.witness["entry"] == [0, 0]
    assert summary.witness["monomial"] == {"t0": 2, "q": 2}
    assert summary.witness["value"] == "3/14"


def test_missing_marked_entry_reports_key():
    # Degree-zero keys are computed; a positive-degree one must be supplied.
    ring = projective_space_kring(1)
    table = CorrelatorTable.empty(ring, 1, {"type": "projective", "n": 1})
    with pytest.raises(IncompleteTable) as excinfo:
        assemble_fundamental_solution(table, 2, 1, 1)
    assert excinfo.value.beta == (1,)
    assert excinfo.value.insertions == (0,)
    assert excinfo.value.marked == (0, 0)
    assert str(excinfo.value) == (
        "missing correlator: beta=[1], insertions=[0], marked=(class 0, power 0)")
    for exc in (excinfo.value, IncompleteTable((0, 2), (1, 1, 0))):
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is IncompleteTable
        assert (copy.beta, copy.insertions, copy.marked) == (
            exc.beta, exc.insertions, exc.marked)
        assert str(copy) == str(exc)


@pytest.mark.parametrize("target,t_order,q_order", [
    ({"type": "point"}, 6, 4),
    ({"type": "projective", "n": 1}, 5, 3),
    ({"type": "projective", "n": 2}, 4, 2),
    ({"type": "projective", "n": 3}, 3, 2),
])
def test_degree_zero_marked_values_match_product_splitting_oracle(
        target, t_order, q_order):
    ring = ring_from_target(target)
    oracle = degree_zero_descendent_table(ring, target, t_order, q_order)
    empty = CorrelatorTable.empty(ring, 1, target)
    computed = assemble_fundamental_solution(empty, t_order, 0, q_order)
    expected = assemble_fundamental_solution(oracle, t_order, 0, q_order)
    for i in range(ring.rank):
        for j in range(ring.rank):
            assert computed.matrix.entries[i][j] == expected.matrix.entries[i][j], (i, j)


@pytest.mark.parametrize("ring,t_order", [
    (projective_space_kring(1), 5),
    (projective_space_kring(2), 4),
    (projective_space_kring(3), 3),
    (p2_line_bundle_kring(), 4),
])
def test_solution_at_q0_is_the_quantized_metric(ring, t_order):
    # At q^0 the marked slot is a plain insertion, so S_ij sums
    # <e_i, t, ..., t, e_j>/n!, the Hessian of the potential: the two
    # assemblies must walk the same degrees and insertion multisets.
    table = CorrelatorTable.empty(ring, 1, {"type": "custom", "ring": ring.to_json_dict()})
    solution = assemble_fundamental_solution(table, t_order, 0, 2)
    metric = quantized_metric(assemble_potential(table, t_order + 2, 0))
    assert solution.matrix.truncated(q_order=0) == metric


def test_plain_entry_alone_breaks_the_solution_at_q0():
    # chi(e1 e1 e2 e2) = chi(a^6) = 0 on P^2; a plain entry that disagrees,
    # with no matching marked entry, reaches the metric but not S.
    p2 = projective_space_kring(2)
    table = CorrelatorTable.empty(p2, 1, {"type": "projective", "n": 2}).with_entry(
        (0,), (1, 1, 2, 2), Fraction(3, 7))
    solution = assemble_fundamental_solution(table, 4, 0, 2)
    metric = quantized_metric(assemble_potential(table, 6, 0))
    assert solution.matrix.truncated(q_order=0) != metric


@pytest.mark.parametrize("target,degree_rank", [
    ({"type": "point"}, 0),
    ({"type": "projective", "n": 2}, 1),
])
def test_one_q_free_product_checks_every_descendent_order(target, degree_rank):
    # frobenius-check's potential at t order T + 3 serves S at q order 0,
    # M - 1 and M alike: the product never carries q.
    ring = ring_from_target(target)
    table = CorrelatorTable.empty(ring, degree_rank, target)
    t_order = 4
    fd = build_frobenius_data(assemble_potential(table, t_order + 3, 0))
    assert fd.product[0].spec.q_order == 0
    for q_order in (0, M_POINT - 1, M_POINT):
        solution = assemble_fundamental_solution(table, t_order, 0, q_order)
        summaries = qde_residual(solution, fd)
        assert [s.window for s in summaries] == [
            {"t": t_order - 1, "novikov": 0, "q": q_order}] * ring.rank
        assert all(s.is_zero for s in summaries)
        assert all(s.is_zero for _, s in gwdvv_residuals(solution, fd))


def test_qde_check_and_frobenius_check_build_the_same_product(monkeypatch, capsys):
    built = []

    def recording(potential):
        built.append(build_frobenius_data(potential))
        return built[-1]

    monkeypatch.setattr(cli, "build_frobenius_data", recording)
    assert main(["frobenius-check", "--target", "projective:2", "--t-order", "7"]) == 0
    assert main(["qde-check", "--target", "projective:2", "--t-order", "4",
                 "--desc-order", str(M_POINT)]) == 0
    capsys.readouterr()
    assert built[0] == built[1]


def test_product_carrying_q_rejected():
    _, _, fd, solution = _point_setup()
    product = tuple(p.widened(p.spec.replace(q_order=M_POINT)) for p in fd.product)
    with pytest.raises(TruncationMismatch, match="carries q"):
        qde_residual(solution, fd.replace(product=product))
    with pytest.raises(TruncationMismatch, match="carries q"):
        gwdvv_residuals(solution, fd.replace(product=product))


def test_unalignable_truncations_rejected():
    ring, table, fd, solution = _point_setup()
    deep = build_frobenius_data(assemble_potential(table, T_POINT + 3, 1))
    for check in (qde_residual, gwdvv_residuals):
        with pytest.raises(TruncationMismatch, match="Novikov truncations differ"):
            check(solution, deep)
    flat = assemble_fundamental_solution(table, 0, 0, M_POINT)
    for check in (qde_residual, gwdvv_residuals):
        with pytest.raises(TruncationMismatch, match="no common t window"):
            check(flat, fd)


def test_ring_mismatch_rejected():
    _, _, _, point_solution = _point_setup(t_order=4, q_order=2)
    _, _, p1_fd, _ = _projective_setup(1, 4, 2)
    with pytest.raises(RingMismatch):
        qde_residual(point_solution, p1_fd)


def test_window_is_joint_certification():
    ring, table, _, solution = _point_setup()
    shallow_potential = assemble_potential(table, 4, 0)
    shallow_fd = build_frobenius_data(shallow_potential)
    summaries = qde_residual(solution, shallow_fd)
    assert summaries[0].window == {"t": 1, "novikov": 0, "q": M_POINT}
    assert summaries[0].is_zero


def test_deeper_product_is_cut_to_the_solution_window():
    ring, table, _, solution = _point_setup()
    deep_potential = assemble_potential(table, T_POINT + 5, 0)
    summaries = qde_residual(solution, build_frobenius_data(deep_potential))
    assert summaries[0].window == {"t": T_POINT - 1, "novikov": 0, "q": M_POINT}
    assert summaries[0].is_zero


def test_incompleteness_detected_on_degenerate_matrix():
    ring, _, _, solution = _point_setup(t_order=3, q_order=1)
    degenerate = solution.replace(matrix=zero_matrix(solution.spec, ring.rank))
    assert is_complete(solution)
    assert not is_complete(degenerate)


def _oracle_qde_summaries(solution, fd):
    """qde_residual composed from the term-by-term oracles: dS/dt_k on the
    joint window minus the running q-sum of (e_k *) S truncated to it."""
    window = min(solution.spec.t_order - 1, fd.product[0].spec.t_order)
    spec = solution.spec.truncated(t_order=window)
    s = solution.matrix.truncated(t_order=window)
    summaries = []
    for k, a in enumerate(fd.product):
        p = a.truncated(t_order=window).widened(spec) * s
        defect = SeriesMatrix(tuple(
            tuple(TruncatedSeries(spec, naive_connection_defect(s_ij, p_ij, k, spec))
                  for s_ij, p_ij in zip(*rows))
            for rows in zip(solution.matrix.entries, p.entries)))
        summaries.append(residual_summary(matrix_pieces({"k": k}, defect), window_dict(spec)))
    return summaries


def _oracle_gwdvv_summaries(solution, fd):
    """gwdvv_residuals from whole partials, each differentiated from all of
    S and then cut to the joint window."""
    window = min(solution.spec.t_order - 1, fd.product[0].spec.t_order)
    rank = solution.ring.rank
    partials = [solution.matrix.derivative(f"t{k}").truncated(t_order=window)
                for k in range(rank)]
    a = [p.truncated(t_order=window).widened(partials[0].spec) for p in fd.product]
    return [((j, k), residual_summary(
        matrix_pieces({"pair": [j, k]}, a[j] * partials[k] - a[k] * partials[j]),
        window_dict(partials[0].spec)))
        for j in range(rank) for k in range(j + 1, rank)]


@pytest.mark.parametrize("nproj", [1, 2])
@pytest.mark.parametrize("extra", [3, 1])
def test_perturbed_solution_residual_matches_oracle_witness(nproj, extra, monkeypatch):
    """S perturbed on several entries, among them terms of the top t degree,
    which only dS/dt_k reads.  With extra = 1 the product is certified two
    orders below S, so the window stops below S's t order minus one, and the
    derivative must still read S's untruncated layer just above it, while
    the associativity residual differentiates S only up to that layer."""
    t_order, q_order = 5 - nproj, 3
    ring, table, _, solution = _projective_setup(nproj, t_order, q_order)
    fd = build_frobenius_data(assemble_potential(table, t_order + extra, 0))
    window = min(t_order - 1, fd.product[0].spec.t_order)
    spec = solution.spec
    kicks = {(0, 1): monomial(spec, {"t1": window + 1, "q": 1}, Fraction(2, 5)),
             (1, 0): monomial(spec, {"t0": 1, "t1": 1}, Fraction(-3, 7)),
             (1, 1): monomial(spec, {"t0": t_order, "q": 2}, Fraction(1, 9))}
    rows = tuple(tuple(entry + kicks[i, j] if (i, j) in kicks else entry
                       for j, entry in enumerate(row))
                 for i, row in enumerate(solution.matrix.entries))
    bad = solution.replace(matrix=SeriesMatrix(rows))
    summaries = qde_residual(bad, fd)
    assert summaries == _oracle_qde_summaries(bad, fd)
    assert [s.window["t"] for s in summaries] == [window] * ring.rank
    # Every kick moves dS/dt_0 and dS/dt_1.
    assert all(not s.is_zero and s.witness is not None for s in summaries[:2])
    assert qde_residual(solution, fd) == _oracle_qde_summaries(solution, fd)
    expected = _oracle_gwdvv_summaries(bad, fd)
    assert any(not s.is_zero for _, s in expected)
    orders = []
    derivative = SeriesMatrix.derivative

    def recorded(self, var):
        orders.append(self.spec.t_order)
        return derivative(self, var)

    monkeypatch.setattr(SeriesMatrix, "derivative", recorded)
    assert gwdvv_residuals(bad, fd) == expected
    assert orders == [window + 1] * ring.rank


def test_connection_residual_copies_nothing_of_the_solution():
    """On the point at 40/40, (e_0 *) S is S itself; the residual reads it
    in place, so its traced peak stays below a quarter of S's own size
    (one copy of S, or of a q-summed product, would exceed it)."""
    table = CorrelatorTable.empty(point_kring(), 0, {"type": "point"})
    fd = build_frobenius_data(assemble_potential(table, 43, 0))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        solution = assemble_fundamental_solution(table, 40, 0, 40)
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        summaries = qde_residual(solution, fd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summaries[0].is_zero
    assert peak - start < (start - before) / 4


def test_assembly_drops_each_denominator_group_as_it_merges():
    """On the point at 60/60 the assembly's traced peak above its start
    stays below 1.3 times the size of the S it returns: over_lcm pops each
    cell's denominator groups as it merges them (kept alive until every
    row was built, the peak was 1.65 times S)."""
    table = CorrelatorTable.empty(point_kring(), 0, {"type": "point"})
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        # S is held while read, so size - start is S's own traced size.
        solution = assemble_fundamental_solution(table, 60, 0, 60)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 1.3 * (size - start)
