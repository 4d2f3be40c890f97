#!/usr/bin/env python3
"""Classical-limit suite for projective spaces.

For each dimension up to --max-dim: print the pairing, confirm the
degree-zero quantum product collapses to the classical multiplication
table, verify associativity, flatness, and unit residuals vanish, and
check the quantum differential equation (connection equation, generalized
associativity, completeness) at descendent order QDE_Q_ORDER with the
degree-zero descendent values the library computes, as `qkzero qde-check`
does without --input.  Positive-degree checks need correlator input; see
the qkzero CLI.
"""

import argparse
import time

from qkzero import (
    CorrelatorTable,
    TruncatedSeries,
    assemble_fundamental_solution,
    assemble_potential,
    build_frobenius_data,
    classical_limit_residual,
    flatness_residuals,
    gwdvv_residuals,
    is_complete,
    projective_space_kring,
    qde_residual,
    unit_residual,
    wdvv_residual,
)

QDE_Q_ORDER = 2


def run_dimension(nproj: int, t_order: int) -> bool:
    ring = projective_space_kring(nproj)
    print(f"\nprojective space of dimension {nproj}, rank {ring.rank}")
    print("pairing (rows are basis elements):")
    for row in ring.pairing:
        print("  " + " ".join(str(v) for v in row))

    table = CorrelatorTable.empty(ring, 1, {"type": "projective", "n": nproj})
    potential = assemble_potential(ring, table, t_order, 0)
    fd = build_frobenius_data(potential)

    spec3 = fd.product[0].spec
    classical = all(
        fd.product[i].entries[j][k] == TruncatedSeries.constant(spec3, ring.mult[i][j][k])
        for i in range(ring.rank)
        for j in range(ring.rank)
        for k in range(ring.rank))
    flat = flatness_residuals(fd)

    deep = build_frobenius_data(assemble_potential(
        ring, table, t_order + 3, 0, q_order=QDE_Q_ORDER))
    solution = assemble_fundamental_solution(ring, table, t_order, 0, QDE_Q_ORDER)
    qde_ok = (all(s.is_zero for s in qde_residual(solution, deep))
              and all(s.is_zero for _, s in gwdvv_residuals(solution, deep))
              and is_complete(solution))
    residuals = {
        "product equals classical table": classical,
        "associativity": wdvv_residual(fd).is_zero,
        "unit": unit_residual(fd).is_zero,
        "degree-zero slice": classical_limit_residual(fd).is_zero,
        "flatness": flat.is_zero,
        "qde": qde_ok,
    }
    for name, ok in residuals.items():
        print(f"  {name}: {'ok' if ok else 'VIOLATED'}")
    return all(residuals.values())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-dim", type=int, default=3,
                        help="largest projective dimension to run")
    parser.add_argument("--t-order", type=int, default=6,
                        help="truncation order in the deformation variables")
    args = parser.parse_args()

    started = time.perf_counter()
    all_ok = all(
        # evaluate every dimension, then fold
        [run_dimension(nproj, args.t_order)
         for nproj in range(1, args.max_dim + 1)])
    print(f"\nelapsed: {time.perf_counter() - started:.2f}s")
    raise SystemExit(0 if all_ok else 3)


if __name__ == "__main__":
    main()
