"""Acceptance suite: one test per published guarantee of the package.

Each criterion is a separate test that prints a single pass/fail line, so
the output of a verbose run doubles as a checklist.  Everything is exact
rational arithmetic; "zero" always means identically zero on the stated
window, never small.
"""

import functools
import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, factorial

import pytest

from qkzero import (
    CorrelatorTable,
    InvalidPresentation,
    NotReducible,
    KRingPresentation,
    SeriesMatrix,
    SeriesSpec,
    TruncatedSeries,
    assemble_fundamental_solution,
    assemble_potential,
    build_frobenius_data,
    classical_limit_residual,
    descendent_euler,
    flatness_residuals,
    gwdvv_residuals,
    load_correlators,
    matrix_inverse_geometric,
    point_kring,
    projective_space_kring,
    qde_residual,
    table_consistency_check,
    try_rational_inverse,
    unit_residual,
    wdvv_residual,
)
from qkzero.cli import main

from oracles import (
    branching_values,
    closed_form_single,
    coefficient,
    integrate_point_qde,
    matrix_inverse_direct,
    riemann_roch_n4,
    sympy_wdvv_tensor,
    unit_series,
)


def _criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number} ({name}): FAIL")
                raise
            print(f"[acceptance] criterion {number} ({name}): PASS")
        return wrapper
    return decorate


@_criterion(1, "four-point closed form")
def test_criterion_1_four_point_oracle():
    cases = 0
    for exps in product(range(13), repeat=4):
        if sum(exps) > 12 or min(exps) > 1:
            continue
        assert descendent_euler(exps) == riemann_roch_n4(exps)
        cases += 1
    assert cases >= 450


@_criterion(2, "single-descendent closed form")
def test_criterion_2_closed_form_family():
    for n in range(3, 9):
        for d in range(9):
            index = (0,) * (n - 1) + (d,)
            assert descendent_euler(index) == closed_form_single(n, d)
            assert descendent_euler(index) == comb(n + d - 3, d)


@_criterion(3, "confluence of reduction orders")
def test_criterion_3_confluence():
    checked = 0
    for n in range(4, 8):
        for exps in combinations_with_replacement(range(5), n):
            values = branching_values(exps)
            if not values:
                # reduction closure fails on every order; the library agrees
                with pytest.raises(NotReducible):
                    descendent_euler(exps)
                continue
            assert values == frozenset({descendent_euler(exps)})
            checked += 1
    assert checked >= 200


@_criterion(4, "point Frobenius structure at T=10")
def test_criterion_4_point_frobenius():
    ring = point_kring()
    table = CorrelatorTable.empty(ring, 0, {"type": "point"})
    potential = assemble_potential(table, 10, 0)
    fd = build_frobenius_data(potential)

    metric = fd.gmetric.entries[0][0]
    for n in range(9):
        assert coefficient(metric, {"t0": n}) == Fraction(1, factorial(n))

    one = unit_series(fd.product[0].spec)
    assert fd.product[0].entries[0][0] == one

    assert wdvv_residual(fd).is_zero
    flat = flatness_residuals(fd)
    assert flat["r1"].is_zero and flat["r2"].is_zero
    assert flat["levicivita"].is_zero and flat["metric"].is_zero


@_criterion(5, "projective classical suite at T=6")
def test_criterion_5_projective_classical():
    for nproj in (1, 2):
        ring = projective_space_kring(nproj)
        for i in range(ring.rank):
            for j in range(ring.rank):
                expected = 1 if i + j <= nproj else 0
                assert ring.pairing[i][j] == expected

        table = CorrelatorTable.empty(ring, 1, {"type": "projective", "n": nproj})
        potential = assemble_potential(table, 6, 0)
        fd = build_frobenius_data(potential)
        spec3 = fd.product[0].spec
        for i in range(ring.rank):
            for j in range(ring.rank):
                for k in range(ring.rank):
                    classical = TruncatedSeries.constant(
                        spec3, ring.mult[i][j][k])
                    assert fd.product[i].entries[j][k] == classical
        assert wdvv_residual(fd).is_zero
        assert unit_residual(fd).is_zero
        assert classical_limit_residual(fd).is_zero


@_criterion(6, "metric inverse route equivalence")
def test_criterion_6_inverse_routes():
    rng = random.Random(20260814)
    spec = SeriesSpec(2, 1, 6, 3, 0)
    for _ in range(50):
        dim = rng.choice([2, 3])
        while True:
            base = [[Fraction(rng.randint(-3, 3)) for _ in range(dim)]
                    for _ in range(dim)]
            for i in range(dim):
                for j in range(i + 1, dim):
                    base[j][i] = base[i][j]
            if try_rational_inverse(base) is not None:
                break
        cells = [[dict() for _ in range(dim)] for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                coeffs = {(0, 0, 0, 0): base[i][j]}
                for _ in range(rng.randint(1, 4)):
                    exp = (rng.randint(0, 3), rng.randint(0, 3),
                           rng.randint(0, 3), 0)
                    if sum(exp[:2]) == 0:
                        continue
                    coeffs[exp] = Fraction(rng.randint(-5, 5),
                                           rng.randint(1, 4))
                cells[i][j] = coeffs
                cells[j][i] = coeffs
        mat = SeriesMatrix(tuple(
            tuple(TruncatedSeries(spec, cells[i][j]) for j in range(dim))
            for i in range(dim)))
        geo = matrix_inverse_geometric(mat)
        direct = matrix_inverse_direct(mat)
        assert geo == direct
        assert mat * geo == SeriesMatrix.identity(spec, dim)


@_criterion(7, "point differential equation at T=8, M=8")
def test_criterion_7_point_qde():
    ring = point_kring()
    table = CorrelatorTable.empty(ring, 0, {"type": "point"})
    potential = assemble_potential(table, 11, 0)
    fd = build_frobenius_data(potential)
    solution = assemble_fundamental_solution(table, 8, 0, 8)

    summaries = qde_residual(solution, fd)
    assert len(summaries) == 1
    assert summaries[0].is_zero
    assert summaries[0].window == {"t": 7, "novikov": 0, "q": 8}

    entry = solution.matrix.entries[0][0]
    for (n, d), value in integrate_point_qde(8, 8).items():
        assert coefficient(entry, {"t0": n, "q": d}) == value

    assert gwdvv_residuals(solution, fd) == []


@_criterion(8, "negative controls fail loudly")
def test_criterion_8_negative_controls(tmp_path, capsys):
    # (a) injected quartic: associativity residual with a verified witness
    ring = projective_space_kring(1)
    table = CorrelatorTable.empty(ring, 1, {"type": "projective", "n": 1})
    table = table.with_entry((0,), (0, 1, 1, 1), Fraction(1, 5))
    potential = assemble_potential(table, 7, 0)
    fd = build_frobenius_data(potential)
    summary = wdvv_residual(fd)
    assert not summary.is_zero
    t_coeffs = {exp[:2]: v for exp, v in potential.series.coeffs.items()}
    oracle = sympy_wdvv_tensor(t_coeffs, 2, 7)
    oracle_max = max(
        (abs(v) for entry in oracle.values() for v in entry.values()),
        default=Fraction(0))
    assert summary.max_abs == oracle_max

    quartic_path = tmp_path / "quartic.json"
    quartic_path.write_text(json.dumps(table.to_json_dict()))
    code = main(["frobenius-check", "--input", str(quartic_path),
                 "--t-order", "7"])
    capsys.readouterr()
    assert code == 3

    # (b) one perturbed correlator: consistency check names the entry
    chain = CorrelatorTable.empty(
        point_kring(), 0, {"type": "point"}).to_json_dict()
    chain["correlators"] = [
        {"beta": [], "insertions": [0, 0, 0], "value": "1/1"},
        {"beta": [], "insertions": [0, 0, 0, 0], "value": "1/1"},
        {"beta": [], "insertions": [0, 0, 0, 0, 0], "value": "3/2"},
    ]
    report = table_consistency_check(load_correlators(chain))
    assert len(report.violations) == 1
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(json.dumps(chain))
    code = main(["table-check", "--input", str(chain_path)])
    capsys.readouterr()
    assert code == 3

    # (c) perturbed descendent entry: the predicted residual footprint
    delta = Fraction(3, 7)
    dtable = CorrelatorTable.empty(point_kring(), 0, {"type": "point"})
    dtable = dtable.with_entry(
        (), (0, 0, 0, 0), descendent_euler((0, 0, 0, 0, 2)) + delta, marked=(0, 2))
    dtable_path = tmp_path / "descendent.json"
    dtable_path.write_text(json.dumps(dtable.to_json_dict()))
    code = main(["qde-check", "--input", str(dtable_path),
                 "--t-order", "6", "--desc-order", "4",
                 "--output", str(tmp_path / "qde.json")])
    capsys.readouterr()
    assert code == 3
    doc = json.loads((tmp_path / "qde.json").read_text())
    residual = doc["qde_residuals"][0]
    assert residual["max_residual"] == "3/14"  # delta / 2!
    assert residual["witness"]["monomial"] == {"t0": 2, "q": 2}


@_criterion(9, "validation gates reject mutations")
def test_criterion_9_validation_gates():
    base = projective_space_kring(2)
    mult = [[[Fraction(base.mult[i][j][k]) for k in range(3)]
             for j in range(3)] for i in range(3)]
    pairing = [[Fraction(base.pairing[i][j]) for j in range(3)]
               for i in range(3)]

    attempts = rejections = 0

    def expect_rejection(new_mult, new_pairing):
        nonlocal attempts, rejections
        attempts += 1
        try:
            KRingPresentation(base.labels, new_mult, new_pairing)
        except InvalidPresentation:
            rejections += 1

    for i, j, k in product(range(3), repeat=3):
        for delta in (Fraction(1), Fraction(-1), Fraction(1, 2)):
            mutated = [[[mult[a][b][c] for c in range(3)] for b in range(3)]
                       for a in range(3)]
            mutated[i][j][k] += delta
            expect_rejection(mutated, pairing)

    for i in range(3):
        for j in range(i + 1, 3):
            skewed = [row[:] for row in pairing]
            skewed[i][j] += 1
            expect_rejection(mult, skewed)

    singular_pairings = [
        [[Fraction(1)] * 3 for _ in range(3)],
        [[Fraction(0)] * 3 for _ in range(3)],
        [[Fraction(1), Fraction(2), Fraction(3)],
         [Fraction(2), Fraction(4), Fraction(6)],
         [Fraction(3), Fraction(6), Fraction(9)]],
    ]
    for bad in singular_pairings:
        expect_rejection(mult, bad)

    assert attempts == 81 + 3 + 3
    assert rejections == attempts
