"""Fundamental solution of the quantum differential equation and its residuals.

The solution matrix starts from the pairing and adds every correlator with
one marked descendent slot expanded as a geometric ladder in q:

    S_ij = g_ij + sum over degrees, insertions and powers of
           Q^beta q^d / n! * < e_i, t, ..., t, tau_d(e_j) >.

It must satisfy, column by column, the connection equation

    d S / d t_k = 1/(1-q) * (e_k *) S

together with the generalized associativity identity
(e_j *) dS/dt_k = (e_k *) dS/dt_j.  The first index of S is covariant
(it is paired, not raised), while (e_k *) acts on coordinates through
the transpose of the stored matrix product[k].  Conjugating by the metric
turns one into the other, and self-adjointness of the product collapses
the conjugation to a plain transpose, so the residuals apply product[k]
itself.
Both identities are checked exactly on the largest window the two
truncations certify jointly; the q window never shrinks because 1/(1-q)
acts as a running sum in q, whose q^m coefficient reads only the known
q^0..q^m coefficients.  The product is a function of t and Q alone: its
spec must have q order 0 and the Novikov truncation of S (TruncationMismatch
otherwise), and each residual lifts it into S's q window unchanged
(SeriesMatrix.widened).  Only this module reads a descendent order.
"""

from __future__ import annotations

from functools import cached_property

from .correlators import CorrelatorTable, degree_zero_chi, insertion_multisets
from .errors import IncompleteTable, RingMismatch, TruncationMismatch
from .frobenius import (
    FrobeniusData,
    ResidualSummary,
    matrix_pieces,
    residual_summary,
    window_dict,
)
from .kring import KRingPresentation
from .record import Record
from .series import (
    SeriesMatrix,
    SeriesSpec,
    TruncatedSeries,
    try_rational_inverse,
)


class QDESolution(Record):
    ring: KRingPresentation
    matrix: SeriesMatrix

    @property
    def spec(self) -> SeriesSpec:
        return self.matrix.spec

    @cached_property
    def partials(self) -> tuple[SeriesMatrix, ...]:
        """dS/dt_k for every k, untruncated; shared by both residuals."""
        return tuple(self.matrix.derivative(f"t{k}") for k in range(self.ring.rank))


def assemble_fundamental_solution(table: CorrelatorTable, t_order: int,
                                  novikov_order: int, q_order: int) -> QDESolution:
    """Build S entry by entry from marked descendent correlators.

    A degree-zero key missing from the table is computed: at degree zero the
    moduli space splits as curves times target, so the value is
    chi(prod of insertions * e_j) times E(n+2; 0,...,0,d), the same "table
    value if present, else compute" rule the potential applies to plain
    keys; a table value wins at every power of q, also where the computed
    one is zero.  Degree zero needs at least one plain insertion next to the
    two distinguished slots (three points keep the moduli space alive).  At
    positive degree every key from zero insertions up to the t order must be
    supplied; the first missing one aborts with the key attached.  The walk
    over degrees and insertions is the potential's, with one insertion fewer
    at degree zero; terms are integer numerators over their value's
    denominator times prod m_i!, and each entry of S takes their lcm once
    (TruncatedSeries.over_lcm): no Fraction is built per term.
    """
    ring = table.ring
    rank = ring.rank
    spec = SeriesSpec(rank, table.degree_rank, t_order, novikov_order, q_order)
    cells = [[{g.denominator: {(0,) * spec.nvars: g.numerator}} if g else {} for g in row]
             for row in ring.pairing]
    chi = degree_zero_chi(ring)
    entries = table.descendent_entries
    for beta, kappa, base, weight in insertion_multisets(
            rank, table.degree_rank, t_order, novikov_order, 1):
        positive, n = any(beta), len(kappa)
        # Within one cell the exponent (counts, beta, d) is unique.
        for i in range(rank):
            insertions = tuple(sorted((i,) + kappa))
            for j in range(rank):
                cell, binom, chi_num, chi_terms = cells[i][j], 1, None, None
                for d in range(q_order + 1):
                    if d:
                        # E(n+2; 0,...,0,d) = binom(n-1+d, d) (Lee, IMRN 1997)
                        binom = binom * (n - 1 + d) // d
                    value = entries.get((beta, insertions, (j, d))) if entries else None
                    if value is not None:
                        if value:
                            terms = cell.setdefault(value.denominator * weight, {})
                            terms[base + (d,)] = value.numerator
                        continue
                    if positive:
                        raise IncompleteTable(beta, insertions, (j, d))
                    if chi_num is None:
                        value = chi(insertions + (j,))
                        chi_num = value.numerator
                        if chi_num:
                            chi_terms = cell.setdefault(value.denominator * weight, {})
                    if chi_num:
                        chi_terms[base + (d,)] = chi_num * binom
    rows = tuple(tuple(TruncatedSeries.over_lcm(spec, cell) for cell in row)
                 for row in cells)
    return QDESolution(ring, SeriesMatrix(rows))


def _aligned_window(solution: QDESolution, fd: FrobeniusData) -> int:
    if solution.ring != fd.ring:
        raise RingMismatch("solution and product data use different rings")
    s_spec = solution.spec
    a_spec = fd.product[0].spec
    if s_spec.num_novikov != a_spec.num_novikov \
            or s_spec.novikov_order != a_spec.novikov_order:
        raise TruncationMismatch("Novikov truncations differ")
    if a_spec.q_order:
        raise TruncationMismatch(f"the product carries q to order {a_spec.q_order}")
    window = min(s_spec.t_order - 1, a_spec.t_order)
    if window < 0:
        raise TruncationMismatch("no common t window for the residual")
    return window


def qde_residual(solution: QDESolution, fd: FrobeniusData) -> list[ResidualSummary]:
    """dS/dt_k minus 1/(1-q) times (e_k *) S, one summary per k."""
    window = _aligned_window(solution, fd)
    # Truncate the product, not S: a copy of S would live through the loop.
    order = min(solution.spec.t_order, fd.product[0].spec.t_order)
    s = solution.matrix.truncated(t_order=order)
    summaries = []
    for k, partial in enumerate(solution.partials):
        ds = partial.truncated(t_order=window)
        a = fd.product[k].truncated(t_order=order).widened(s.spec)
        product = (a * s).truncated(t_order=window)
        summed = SeriesMatrix(tuple(tuple(e.over_one_minus_q() for e in row)
                                    for row in product.entries))
        del product  # only its q-sums are read; kept, it adds a copy of S to the peak
        summaries.append(residual_summary(matrix_pieces({"k": k}, ds - summed),
                                          window_dict(ds.spec)))
    return summaries


def gwdvv_residuals(solution: QDESolution, fd: FrobeniusData
                    ) -> list[tuple[tuple[int, int], ResidualSummary]]:
    """(e_j *) dS/dt_k - (e_k *) dS/dt_j for every pair j < k; generalized
    associativity holds exactly when all of them vanish."""
    window = _aligned_window(solution, fd)
    rank = solution.ring.rank
    if rank < 2:
        return []
    partials = [p.truncated(t_order=window) for p in solution.partials]
    a_trunc = [p.truncated(t_order=window).widened(partials[0].spec) for p in fd.product]
    summaries = []
    for j in range(rank):
        for k in range(j + 1, rank):
            residual = a_trunc[j] * partials[k] - a_trunc[k] * partials[j]
            summaries.append(((j, k), residual_summary(
                matrix_pieces({"pair": [j, k]}, residual), window_dict(residual.spec))))
    return summaries


def is_complete(solution: QDESolution) -> bool:
    """Invertibility of the solution at the origin of deformation space.

    False only on a hand-built solution: an assembled S has the pairing g as
    its constant term, and KRingPresentation rejects a singular g."""
    return try_rational_inverse(solution.matrix.constant_matrix()) is not None
