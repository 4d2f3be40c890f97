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
q^0..q^m coefficients.  The connection residual reads S and (e_k *) S row
by row and copies neither; only associativity differentiates S, at rank 2 or
more.  The product is built on S's ring as a function of t and Q alone:
its spec must have q order 0 and the Novikov truncation of S
(IncompatibleSeries otherwise), and each residual lifts it into S's q
window unchanged (SeriesMatrix.within).  Only this module reads a
descendent order.
"""

from __future__ import annotations

from math import lcm

from .correlators import CorrelatorTable, degree_zero_chi, insertion_multisets
from .errors import IncompatibleSeries, IncompleteTable
from .frobenius import (
    FrobeniusData,
    ResidualSummary,
    matrix_pieces,
    residual_summary,
)
from .kring import KRingPresentation
from .record import Record
from .series import SeriesMatrix, SeriesSpec, TruncatedSeries


class QDESolution(Record):
    ring: KRingPresentation
    matrix: SeriesMatrix

    @property
    def spec(self) -> SeriesSpec:
        return self.matrix.spec


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
    (TruncatedSeries.over_lcm): no Fraction is built per term.  Every term
    but g carries t, Q or q, so S's constant term is exactly the pairing g,
    which KRingPresentation keeps nonsingular: S is invertible at the origin.
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
        raise IncompatibleSeries("solution and product data use different rings")
    s_spec = solution.spec
    a_spec = fd.product[0].spec
    if s_spec.num_novikov != a_spec.num_novikov \
            or s_spec.novikov_order != a_spec.novikov_order:
        raise IncompatibleSeries("Novikov truncations differ")
    if a_spec.q_order:
        raise IncompatibleSeries(f"the product carries q to order {a_spec.q_order}")
    window = min(s_spec.t_order - 1, a_spec.t_order)
    if window < 0:
        raise IncompatibleSeries("no common t window for the residual")
    return window


def _connection_defect(s_ij: TruncatedSeries, p_ij: TruncatedSeries, k: int,
                       window: SeriesSpec) -> TruncatedSeries:
    """dS/dt_k - P/(1-q) on window, from one entry of S and of P = (e_k *) S.

    Along each row of fixed t and Novikov exponents the q^m coefficient of
    P/(1-q) is the running sum of P's q^0..q^m ones, and dS/dt_k at e is
    (e_k + 1) S[e + t_k], read from the untruncated S.  Only rows holding a
    term are walked and only nonzero coefficients stored: nothing is copied."""
    nt, top = window.num_t, window.t_order
    rows = {exp[:-1] for exp in p_ij.nums if sum(exp[:nt]) <= top}
    rows.update(exp[:k] + (exp[k] - 1,) + exp[k + 1:-1] for exp in s_ij.nums
                if exp[k] and sum(exp[:nt]) <= top + 1)
    den = lcm(s_ij.den, p_ij.den)
    s_scale, p_scale = den // s_ij.den, den // p_ij.den
    s_get, p_get = s_ij.nums.get, p_ij.nums.get
    out: dict[tuple[int, ...], int] = {}
    for base in rows:
        shifted = base[:k] + (base[k] + 1,) + base[k + 1:]
        factor, total = (base[k] + 1) * s_scale, 0
        for m in range(window.q_order + 1):
            total += p_get(base + (m,), 0)
            value = factor * s_get(shifted + (m,), 0) - p_scale * total
            if value:
                out[base + (m,)] = value
    return TruncatedSeries.from_numerators(window, out, den)


def qde_residual(solution: QDESolution, fd: FrobeniusData) -> list[ResidualSummary]:
    """dS/dt_k minus 1/(1-q) times (e_k *) S, one summary per k."""
    window = solution.spec.truncated(t_order=_aligned_window(solution, fd))
    # S is cut only to the product's order, so at full depth s is S itself.
    s = solution.matrix.within(solution.spec.truncated(
        t_order=min(solution.spec.t_order, fd.product[0].spec.t_order)))
    summaries = []
    for k, a in enumerate(fd.product):
        p = a.within(s.spec) * s
        defect = SeriesMatrix(tuple(
            tuple(_connection_defect(s_ij, p_ij, k, window) for s_ij, p_ij in zip(*rows))
            for rows in zip(solution.matrix.entries, p.entries)))
        summaries.append(residual_summary(matrix_pieces({"k": k}, defect), window))
    return summaries


def gwdvv_residuals(solution: QDESolution, fd: FrobeniusData
                    ) -> list[tuple[tuple[int, int], ResidualSummary]]:
    """(e_j *) dS/dt_k - (e_k *) dS/dt_j for every pair j < k; generalized
    associativity holds exactly when all of them vanish.  S is cut to one t
    order above the window before each derivative, so no cut copy outlives
    the derivative taken from it."""
    window = _aligned_window(solution, fd)
    rank = solution.ring.rank
    if rank < 2:
        return []
    cut = solution.spec.truncated(t_order=window + 1)
    partials = [solution.matrix.within(cut).derivative(k) for k in range(rank)]
    a_trunc = [p.within(partials[0].spec) for p in fd.product]
    summaries = []
    for j in range(rank):
        for k in range(j + 1, rank):
            residual = a_trunc[j] * partials[k] - a_trunc[k] * partials[j]
            summaries.append(((j, k), residual_summary(
                matrix_pieces({"pair": [j, k]}, residual), residual.spec)))
    return summaries

