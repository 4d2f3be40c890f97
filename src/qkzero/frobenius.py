"""Potential, quantized metric, quantum product, and the identities they satisfy.

The potential collects every correlator weighted by Novikov monomials and
divided by insertion multiplicities; the classical quadratic pairing term
is the degree-zero two-point correlator.  Second derivatives give the
quantized metric G_ij, third derivatives contracted with the inverse metric
give the structure constants of the quantum product.  Everything here is
exact.  residual_summary reduces each residual family, given as labelled
series and the spec they were checked on, to a witness and that window.

Truncation bookkeeping: a potential assembled to t-order T certifies the
metric to T-2, third derivatives and the product to T-3, and the curvature
piece built from derivatives of the product to T-4.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from .correlators import CorrelatorTable, degree_zero_chi, insertion_multisets
from .errors import IncompleteTable
from .kring import KRingPresentation
from .record import Record
from .series import (
    SeriesMatrix,
    SeriesSpec,
    TruncatedSeries,
    format_rational,
    matrix_inverse_geometric,
)


class Potential(Record):
    ring: KRingPresentation
    series: TruncatedSeries


class ResidualSummary(Record):
    """Largest absolute coefficient of a residual family, its witness, and the
    window it is certified on as {"t", "novikov", "q"} orders."""

    max_abs: Fraction
    witness: dict | None
    window: dict[str, int]

    @property
    def is_zero(self) -> bool:
        return self.max_abs == 0

    def to_json_dict(self) -> dict:
        return {
            "max_residual": format_rational(self.max_abs),
            "witness": self.witness,
        }


def assemble_potential(table: CorrelatorTable, t_order: int, novikov_order: int) -> Potential:
    """Sum every correlator the truncation demands, the classical quadratic
    pairing term included: it is the degree-zero two-point term, since
    chi(e_i e_j) = g_ij.

    Degree-zero correlators absent from the table fall back to the Euler
    characteristic of the insertion product; positive-degree correlators
    must be supplied, and the first missing key aborts the assembly.  Terms
    are integer numerators over their value's denominator times prod m_i!,
    put over their lcm once.  The potential never involves the descendent
    variable: its spec has q order 0.
    """
    ring = table.ring
    spec = SeriesSpec(ring.rank, table.degree_rank, t_order, novikov_order, 0)
    chi = degree_zero_chi(ring)
    groups: dict[int, dict[tuple[int, ...], int]] = {}
    for beta, kappa, base, weight in insertion_multisets(
            ring.rank, table.degree_rank, t_order, novikov_order, 2):
        value = table.entries.get((beta, kappa))
        if value is None:
            if any(beta):
                raise IncompleteTable(beta, kappa)
            value = chi(kappa)
        if value:
            groups.setdefault(value.denominator * weight, {})[base + (0,)] = value.numerator
    return Potential(ring, TruncatedSeries.over_lcm(spec, groups))


def quantized_metric(potential: Potential) -> SeriesMatrix:
    """G_ij as the Hessian of the potential, certified to t-order T-2."""
    rank = potential.ring.rank
    first = [potential.series.derivative(i) for i in range(rank)]
    return SeriesMatrix(tuple(
        tuple(first[i].derivative(j) for j in range(rank))
        for i in range(rank)
    ))


class FrobeniusData(Record):
    """Metric, inverse metric, and per basis class e_k the matrices
    third[k] = dG/dt_k (entries G_{ijk}, symmetric in all three indices) and
    product[k] = third[k] * G^{-1}, whose row j holds c_{kj}^l, the
    coordinates of e_k * e_j; its transpose is the matrix of multiplication
    by e_k.  Both are certified to t-order T-3."""

    ring: KRingPresentation
    gmetric: SeriesMatrix
    ginv: SeriesMatrix
    third: tuple[SeriesMatrix, ...]
    product: tuple[SeriesMatrix, ...]


def build_frobenius_data(potential: Potential) -> FrobeniusData:
    """Full pipeline from a potential: G, G^{-1}, dG/dt_k and the product
    matrices third[k] * G^{-1}, one per basis class.

    The inverse metric arrives certified: matrix_inverse_geometric returns
    only once Newton's error proves G * G^{-1} = I exactly on the full
    window, and raises ArithmeticError otherwise.
    """
    gmetric = quantized_metric(potential)
    ginv = matrix_inverse_geometric(gmetric)
    third = tuple(gmetric.derivative(k) for k in range(gmetric.dimension))
    ginv3 = ginv.within(third[0].spec)
    return FrobeniusData(
        ring=potential.ring,
        gmetric=gmetric,
        ginv=ginv,
        third=third,
        product=tuple(g3 * ginv3 for g3 in third),
    )


def matrix_pieces(label: dict, m: SeriesMatrix) -> Iterator[tuple[dict, TruncatedSeries]]:
    """Every entry of m, row by row, labelled with label plus its position."""
    for a, row in enumerate(m.entries):
        for b, entry in enumerate(row):
            yield {**label, "entry": [a, b]}, entry


def residual_summary(pieces: Iterable[tuple[dict, TruncatedSeries]],
                     window: SeriesSpec) -> ResidualSummary:
    """Scan labelled residual series in order; report the largest |coefficient|
    on window, the spec they were checked on.  The witness holds the label, the
    monomial in window's variable names and the signed value.  Ties keep the
    earliest label, then the lexicographically smallest exponent, so reports
    are deterministic functions of the input."""
    best, witness, names = Fraction(0), None, window.vars
    for label, series in pieces:
        top = max(map(abs, series.nums.values()), default=0)
        value = Fraction(top, series.den)
        if value > best:
            best = value
            exp = min(e for e, num in series.nums.items() if abs(num) == top)
            witness = {**label, "monomial": {names[i]: p for i, p in enumerate(exp) if p},
                       "value": format_rational(Fraction(series.nums[exp], series.den))}
    return ResidualSummary(best, witness, {
        "t": window.t_order, "novikov": window.novikov_order, "q": window.q_order})


def wdvv_residual(fd: FrobeniusData) -> ResidualSummary:
    """Associativity of the quantum product measured through the pairing:

        sum_nu c_{ij}^nu G_{nu k l}  -  (j <-> k)

    must vanish identically.  Certified to t-order T-3.
    """
    rank = fd.ring.rank
    spec3 = fd.product[0].spec
    zero = TruncatedSeries.zero(spec3)
    pieces: list[tuple[dict, TruncatedSeries]] = []
    for i in range(rank):
        c = fd.product[i].entries
        for j in range(rank):
            for k in range(j + 1, rank):
                for l in range(rank):
                    g = fd.third[l].entries
                    lhs = sum((c[j][nu] * g[nu][k] for nu in range(rank)), zero)
                    rhs = sum((c[k][nu] * g[nu][j] for nu in range(rank)), zero)
                    pieces.append(({"indices": [i, j, k, l]}, lhs - rhs))
    return residual_summary(pieces, spec3)


def unit_residual(fd: FrobeniusData) -> ResidualSummary:
    """Multiplication by e_0 must be the identity at every order."""
    spec3 = fd.product[0].spec
    rank = fd.ring.rank
    diff = fd.product[0] - SeriesMatrix.identity(spec3, rank)
    # The matrix of e_0 * is the transpose of product[0].
    return residual_summary(matrix_pieces({}, diff.transpose()), spec3)


def classical_limit_residual(fd: FrobeniusData) -> ResidualSummary:
    """At Novikov degree zero the product must reduce to the classical
    structure constants at every t-order."""
    rank = fd.ring.rank
    spec3 = fd.product[0].spec
    # Lowering the Novikov order to zero keeps exactly the degree-zero terms.
    spec0 = spec3.truncated(novikov_order=0)
    pieces: list[tuple[dict, TruncatedSeries]] = []
    for i in range(rank):
        c = fd.product[i].within(spec0).entries
        for j in range(rank):
            for k in range(rank):
                diff = c[j][k] - TruncatedSeries.constant(spec0, fd.ring.mult[i][j][k])
                pieces.append(({"indices": [i, j, k]}, diff))
    return residual_summary(pieces, spec3)


def flatness_residuals(fd: FrobeniusData) -> dict[str, ResidualSummary]:
    """R1, R2 and the metric curvature of A_k = product[k]^T, and the
    Levi-Civita family dG/dt_k - sym(product[k] * G).  The last vanishes on
    all build_frobenius_data output, whatever the table: the certified
    inverse makes product[k] * G equal dG/dt_k, which is symmetric.  On
    that output R1, R2 and the metric curvature repeat WDVV: r1 = -r2 and
    metric = 3/4 r2 on the T-4 window, so they fail only when WDVV does.
    Keyed by report name: "r1", "r2", "metric" and "levicivita"."""
    rank = fd.ring.rank
    spec3 = fd.product[0].spec
    spec4 = spec3.truncated(t_order=spec3.t_order - 1)
    act = [p.transpose() for p in fd.product]

    r1_pieces: list[tuple[dict, TruncatedSeries]] = []
    r2_pieces: list[tuple[dict, TruncatedSeries]] = []
    metric_pieces: list[tuple[dict, TruncatedSeries]] = []
    for i in range(rank):
        for j in range(i + 1, rank):
            r1 = act[j].derivative(i) - act[i].derivative(j)
            r2 = act[i] * act[j] - act[j] * act[i]
            # Curvature at the metric specialization z = 1/2: -z R1 + z^2 R2.
            metric = (r1.scaled(Fraction(-1, 2))
                      + r2.within(spec4).scaled(Fraction(1, 4)))
            r1_pieces.extend(matrix_pieces({"pair": [i, j]}, r1))
            r2_pieces.extend(matrix_pieces({"pair": [i, j]}, r2))
            metric_pieces.extend(matrix_pieces({"pair": [i, j]}, metric))

    lc_pieces: list[tuple[dict, TruncatedSeries]] = []
    g3 = fd.gmetric.within(spec3)
    half = Fraction(1, 2)
    for k in range(rank):
        lowered = (fd.product[k] * g3).entries
        for i in range(rank):
            for j in range(rank):
                rhs = (lowered[i][j] + lowered[j][i]).scaled(half)
                lc_pieces.append(({"indices": [k, i, j]},
                                  fd.third[k].entries[i][j] - rhs))

    return {"r1": residual_summary(r1_pieces, spec4),
            "r2": residual_summary(r2_pieces, spec3),
            "metric": residual_summary(metric_pieces, spec4),
            "levicivita": residual_summary(lc_pieces, spec3)}
