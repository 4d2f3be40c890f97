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
q^0..q^m coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement
from math import comb, factorial, lcm, prod

from .correlators import CorrelatorTable, degree_zero_chi, effective_degrees
from .errors import IncompleteTable, RingMismatch, TruncationMismatch
from .frobenius import FrobeniusData, ResidualSummary, residual_summary, window_dict
from .kring import KRingPresentation
from .series import (
    SeriesMatrix,
    SeriesSpec,
    TruncatedSeries,
    try_rational_inverse,
)


@dataclass(frozen=True)
class QDESolution:
    ring: KRingPresentation
    matrix: SeriesMatrix

    @property
    def spec(self) -> SeriesSpec:
        return self.matrix.spec

    @cached_property
    def partials(self) -> tuple[SeriesMatrix, ...]:
        """dS/dt_k for every k, untruncated; shared by both residuals."""
        return tuple(self.matrix.derivative(f"t{k}") for k in range(self.ring.rank))


def assemble_fundamental_solution(ring: KRingPresentation, table: CorrelatorTable,
                                  t_order: int, novikov_order: int,
                                  q_order: int) -> QDESolution:
    """Build S entry by entry from marked descendent correlators.

    A degree-zero key missing from the table is computed: at degree zero the
    moduli space splits as curves times target, so the value is
    chi(prod of insertions * e_j) times E(n+2; 0,...,0,d), the same "table
    value if present, else compute" rule the potential applies to plain
    keys.  Degree zero needs at least one plain insertion next to the two
    distinguished slots (three points keep the moduli space alive).  At
    positive degree every key from zero insertions up to the t order must be
    supplied; the first missing one aborts with the key attached.  Terms are
    integer numerators over their value's denominator times prod m_i!, and
    each entry of S takes their lcm once: no Fraction is built per term.
    """
    if table.ring != ring:
        raise RingMismatch("table was built for a different ring presentation")
    rank = ring.rank
    spec = SeriesSpec(rank, table.degree_rank, t_order, novikov_order, q_order)
    cells = [[{g.denominator: {(0,) * spec.nvars: g.numerator}} if g else {} for g in row]
             for row in ring.pairing]
    chi = degree_zero_chi(ring)
    entries = table.descendent_entries
    for beta in effective_degrees(table.degree_rank, novikov_order):
        degree_zero = all(b == 0 for b in beta)
        for n in range(1 if degree_zero else 0, t_order + 1):
            if degree_zero:
                # E(n+2; 0,...,0,d) = binom(n-1+d, d) (Lee, IMRN 1997)
                euler = [comb(n - 1 + d, d) for d in range(q_order + 1)]
            for kappa in combinations_with_replacement(range(rank), n):
                counts = [0] * rank
                for idx in kappa:
                    counts[idx] += 1
                weight = prod(map(factorial, counts))
                # Within one cell the exponent (counts, beta, d) is unique.
                base = tuple(counts) + beta
                for i in range(rank):
                    insertions = tuple(sorted((i,) + kappa))
                    for j in range(rank):
                        cell = cells[i][j]
                        chi_value = None
                        for d in range(q_order + 1):
                            value, scale = entries.get((beta, insertions, (j, d))), 1
                            if value is None:
                                if not degree_zero:
                                    raise IncompleteTable(beta, insertions, (j, d))
                                if chi_value is None:
                                    chi_value = chi(insertions + (j,))
                                value, scale = chi_value, euler[d]
                            if value:
                                terms = cell.setdefault(value.denominator * weight, {})
                                terms[base + (d,)] = value.numerator * scale
    rows = tuple(tuple(_over_lcm(spec, cell) for cell in row) for row in cells)
    return QDESolution(ring, SeriesMatrix(rows))


def _over_lcm(spec: SeriesSpec, groups: dict[int, dict[tuple[int, ...], int]]
              ) -> TruncatedSeries:
    den = lcm(*groups)
    nums: dict[tuple[int, ...], int] = {}
    for group_den, terms in groups.items():
        scale = den // group_den
        nums.update((exp, num * scale) for exp, num in terms.items())
    return TruncatedSeries.from_numerators(spec, nums, den)


def _aligned_window(solution: QDESolution, fd: FrobeniusData) -> int:
    if solution.ring != fd.ring:
        raise RingMismatch("solution and product data use different rings")
    s_spec = solution.spec
    a_spec = fd.product[0].spec
    if s_spec.num_novikov != a_spec.num_novikov \
            or s_spec.novikov_order != a_spec.novikov_order:
        raise TruncationMismatch("Novikov truncations differ")
    if s_spec.q_order != a_spec.q_order:
        raise TruncationMismatch(
            f"descendent orders differ: solution {s_spec.q_order}, "
            f"product {a_spec.q_order}")
    window = min(s_spec.t_order - 1, a_spec.t_order)
    if window < 0:
        raise TruncationMismatch("no common t window for the residual")
    return window


def qde_residual(solution: QDESolution, fd: FrobeniusData) -> list[ResidualSummary]:
    """dS/dt_k minus 1/(1-q) times (e_k *) S, one summary per k."""
    window = _aligned_window(solution, fd)
    rank = solution.ring.rank
    # Truncate the product, not S: a copy of S would live through the loop.
    order = min(solution.spec.t_order, fd.product[0].spec.t_order)
    s = solution.matrix.truncated(t_order=order)
    spec_w = s.spec.truncated(t_order=window)
    summaries = []
    for k in range(rank):
        ds = solution.partials[k].truncated(t_order=window)
        product = (fd.product[k].truncated(t_order=order) * s).truncated(t_order=window)
        pieces = [
            ({"k": k, "entry": [i, j]},
             ds.entries[i][j] - product.entries[i][j].over_one_minus_q())
            for i in range(rank) for j in range(rank)
        ]
        summaries.append(residual_summary(pieces, window_dict(spec_w)))
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
    a_trunc = [p.truncated(t_order=window) for p in fd.product]
    summaries = []
    for j in range(rank):
        for k in range(j + 1, rank):
            residual = a_trunc[j] * partials[k] - a_trunc[k] * partials[j]
            pieces = [
                ({"pair": [j, k], "entry": [a, b]}, residual.entries[a][b])
                for a in range(rank) for b in range(rank)
            ]
            summaries.append(
                ((j, k), residual_summary(pieces, window_dict(residual.spec))))
    return summaries


def is_complete(solution: QDESolution) -> bool:
    """Invertibility of the solution at the origin of deformation space."""
    return try_rational_inverse(solution.matrix.constant_matrix()) is not None
