#!/usr/bin/env python3
"""End-to-end run of the point-target pipeline at chosen truncation orders.

Prints the potential, the quantized metric, every structure residual, and
the fundamental solution check, with timings.  Everything is exact; the
residual lines must all read 0.
"""

import argparse
import time
from fractions import Fraction
from math import comb, factorial

from qkzero import (
    CorrelatorTable,
    assemble_fundamental_solution,
    assemble_potential,
    build_frobenius_data,
    flatness_residuals,
    is_complete,
    point_kring,
    qde_residual,
    wdvv_residual,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t-order", type=int, default=8,
                        help="truncation order in the deformation variable")
    parser.add_argument("--desc-order", type=int, default=6,
                        help="truncation order in the descendent variable q")
    args = parser.parse_args()
    t_order, q_order = args.t_order, args.desc_order

    ring = point_kring()
    started = time.perf_counter()

    table = CorrelatorTable.empty(ring, 0, {"type": "point"})
    potential = assemble_potential(ring, table, t_order, 0)
    print(f"potential coefficients (t^n), T = {t_order}:")
    for n in range(t_order + 1):
        print(f"  t^{n}: {potential.series.coefficient({'t0': n})}")

    fd = build_frobenius_data(potential)
    print(f"\nquantized metric (t^n), certified to {t_order - 2}:")
    for n in range(t_order - 1):
        print(f"  t^{n}: {fd.gmetric.entries[0][0].coefficient({'t0': n})}")

    flat = flatness_residuals(fd)
    print("\nstructure residuals (all must be 0):")
    print(f"  associativity : {wdvv_residual(fd).max_abs}")
    print(f"  curvature dA  : {flat.r1.max_abs}")
    print(f"  curvature [A,A]: {flat.r2.max_abs}")
    print(f"  Levi-Civita   : {flat.levi_civita.max_abs}")
    print(f"  metric flat   : {flat.metric.max_abs}")

    deep = assemble_potential(ring, table, t_order + 3, 0, q_order=q_order)
    solution = assemble_fundamental_solution(ring, table, t_order, 0, q_order)
    residuals = qde_residual(solution, build_frobenius_data(deep))
    print(f"\nfundamental solution at T = {t_order}, M = {q_order}:")
    print(f"  differential equation residual: {residuals[0].max_abs}")
    print(f"  window: {residuals[0].window}")
    print(f"  complete: {is_complete(solution)}")

    entry = solution.matrix.entries[0][0]
    mismatches = sum(
        entry.coefficient({"t0": n, "q": d})
        != Fraction(comb(n + d - 1, d), factorial(n))
        for n in range(1, t_order + 1) for d in range(q_order + 1))
    print(f"  closed-form mismatches: {mismatches}")

    print(f"\nelapsed: {time.perf_counter() - started:.2f}s")


if __name__ == "__main__":
    main()
