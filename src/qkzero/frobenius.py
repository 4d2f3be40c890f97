"""Potential, quantized metric, quantum product, and the identities they satisfy.

The potential collects every correlator weighted by Novikov monomials and
divided by insertion multiplicities; the classical quadratic pairing term
is the degree-zero two-point correlator.  Second derivatives give the
quantized metric G_ij, third derivatives contracted with the inverse metric
give the structure constants of the quantum product.  Everything here is
exact; each report states the window of orders on which its residual is
certified.

Truncation bookkeeping: a potential assembled to t-order T certifies the
metric to T-2, third derivatives and the product to T-3, and the curvature
piece built from derivatives of the product to T-4.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .correlators import CorrelatorTable, degree_zero_chi, insertion_multisets
from .errors import IncompleteTable
from .kring import KRingPresentation
from .series import (
    SeriesMatrix,
    SeriesSpec,
    TruncatedSeries,
    format_rational,
    matrix_inverse_geometric,
)


@dataclass(frozen=True)
class Potential:
    ring: KRingPresentation
    series: TruncatedSeries


@dataclass(frozen=True)
class ResidualSummary:
    """Largest absolute coefficient of a residual family, with its location."""

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


def assemble_potential(table: CorrelatorTable, t_order: int, novikov_order: int,
                       q_order: int = 0) -> Potential:
    """Sum every correlator the truncation demands, the classical quadratic
    pairing term included: it is the degree-zero two-point term, since
    chi(e_i e_j) = g_ij.

    Degree-zero correlators absent from the table fall back to the Euler
    characteristic of the insertion product; positive-degree correlators
    must be supplied, and the first missing key aborts the assembly.  Terms
    are integer numerators over their value's denominator times prod m_i!,
    put over their lcm once.  The potential itself never involves the
    descendent variable, so any q order is certified; carrying one lets
    downstream products meet descendent series without coercion.
    """
    ring = table.ring
    spec = SeriesSpec(ring.rank, table.degree_rank, t_order, novikov_order, q_order)
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
    first = [potential.series.derivative(f"t{i}") for i in range(rank)]
    return SeriesMatrix(tuple(
        tuple(first[i].derivative(f"t{j}") for j in range(rank))
        for i in range(rank)
    ))


@dataclass(frozen=True)
class FrobeniusData:
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

    The inverse metric comes from Newton's iteration on windows of doubling
    degree, certified by the exact product G * G^{-1} = I on the full window.
    Monomials outside the window form an ideal, so truncated series form a
    commutative ring, where a one-sided inverse of a square matrix is
    two-sided: the check is a proof, given correct multiplication.
    """
    gmetric = quantized_metric(potential)
    ginv = matrix_inverse_geometric(gmetric)
    if gmetric * ginv != SeriesMatrix.identity(gmetric.spec, gmetric.dimension):
        raise ArithmeticError(
            "G * G^-1 is not the identity; the inverse or the series "
            "arithmetic is wrong")
    third = tuple(gmetric.derivative(f"t{k}") for k in range(gmetric.dimension))
    ginv3 = ginv.truncated(t_order=third[0].spec.t_order)
    return FrobeniusData(
        ring=potential.ring,
        gmetric=gmetric,
        ginv=ginv,
        third=third,
        product=tuple(g3 * ginv3 for g3 in third),
    )


def window_dict(spec: SeriesSpec) -> dict[str, int]:
    return {"t": spec.t_order, "novikov": spec.novikov_order, "q": spec.q_order}


def matrix_pieces(label: dict, m: SeriesMatrix) -> Iterator[tuple[dict, TruncatedSeries]]:
    """Every entry of m, row by row, labelled with label plus its position."""
    for a, row in enumerate(m.entries):
        for b, entry in enumerate(row):
            yield {**label, "entry": [a, b]}, entry


def residual_summary(pieces: Iterable[tuple[dict, TruncatedSeries]],
                     window: dict[str, int]) -> ResidualSummary:
    """Scan labeled residual series in order; report the largest coefficient.

    Ties keep the earliest label and smallest exponent, so reports are
    deterministic functions of the input.
    """
    best = Fraction(0)
    witness: dict | None = None
    for label, series in pieces:
        value, exp = series.max_abs_coefficient()
        if exp is not None and value > best:
            best = value
            witness = dict(label)
            witness["monomial"] = series.monomial_dict(exp)
            witness["value"] = format_rational(Fraction(series.nums[exp], series.den))
    return ResidualSummary(best, witness, window)


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
    return residual_summary(pieces, window_dict(spec3))


def unit_residual(fd: FrobeniusData) -> ResidualSummary:
    """Multiplication by e_0 must be the identity at every order."""
    spec3 = fd.product[0].spec
    rank = fd.ring.rank
    diff = fd.product[0] - SeriesMatrix.identity(spec3, rank)
    # The matrix of e_0 * is the transpose of product[0].
    return residual_summary(matrix_pieces({}, diff.transpose()), window_dict(spec3))


def classical_limit_residual(fd: FrobeniusData) -> ResidualSummary:
    """At Novikov degree zero the product must reduce to the classical
    structure constants at every t-order."""
    rank = fd.ring.rank
    spec3 = fd.product[0].spec
    # Lowering the Novikov order to zero keeps exactly the degree-zero terms.
    spec0 = spec3.truncated(novikov_order=0)
    pieces: list[tuple[dict, TruncatedSeries]] = []
    for i in range(rank):
        c = fd.product[i].truncated(novikov_order=0).entries
        for j in range(rank):
            for k in range(rank):
                diff = c[j][k] - TruncatedSeries.constant(spec0, fd.ring.mult[i][j][k])
                pieces.append(({"indices": [i, j, k]}, diff))
    return residual_summary(pieces, window_dict(spec3))


@dataclass(frozen=True)
class FlatnessReport:
    """Curvature of the one-parameter family of connections built from the
    product: the coefficient of z is the antisymmetrized derivative of the
    A-family, the coefficient of z^2 is its commutator family, and the
    Levi-Civita and metric checks are the two distinguished specializations.
    """

    r1: ResidualSummary
    r2: ResidualSummary
    levi_civita: ResidualSummary
    metric: ResidualSummary

    @property
    def is_zero(self) -> bool:
        return (self.r1.is_zero and self.r2.is_zero
                and self.levi_civita.is_zero and self.metric.is_zero)


def flatness_residuals(fd: FrobeniusData) -> FlatnessReport:
    """R1, R2 and the metric curvature of A_k = product[k]^T, and the
    Levi-Civita family dG/dt_k - sym(product[k] * G).  The last vanishes on
    all build_frobenius_data output, whatever the table: the certificate
    makes product[k] * G equal dG/dt_k, which is symmetric."""
    rank = fd.ring.rank
    spec3 = fd.product[0].spec
    spec4 = spec3.truncated(t_order=spec3.t_order - 1)
    act = [p.transpose() for p in fd.product]

    r1_pieces: list[tuple[dict, TruncatedSeries]] = []
    r2_pieces: list[tuple[dict, TruncatedSeries]] = []
    metric_pieces: list[tuple[dict, TruncatedSeries]] = []
    for i in range(rank):
        for j in range(i + 1, rank):
            r1 = act[j].derivative(f"t{i}") - act[i].derivative(f"t{j}")
            r2 = act[i] * act[j] - act[j] * act[i]
            # Curvature at the metric specialization z = 1/2: -z R1 + z^2 R2.
            metric = (r1.scaled(Fraction(-1, 2))
                      + r2.truncated(t_order=spec4.t_order).scaled(Fraction(1, 4)))
            r1_pieces.extend(matrix_pieces({"pair": [i, j]}, r1))
            r2_pieces.extend(matrix_pieces({"pair": [i, j]}, r2))
            metric_pieces.extend(matrix_pieces({"pair": [i, j]}, metric))

    lc_pieces: list[tuple[dict, TruncatedSeries]] = []
    g3 = fd.gmetric.truncated(t_order=spec3.t_order)
    half = Fraction(1, 2)
    for k in range(rank):
        lowered = (fd.product[k] * g3).entries
        for i in range(rank):
            for j in range(rank):
                rhs = (lowered[i][j] + lowered[j][i]).scaled(half)
                lc_pieces.append(({"indices": [k, i, j]},
                                  fd.third[k].entries[i][j] - rhs))

    return FlatnessReport(
        r1=residual_summary(r1_pieces, window_dict(spec4)),
        r2=residual_summary(r2_pieces, window_dict(spec3)),
        levi_civita=residual_summary(lc_pieces, window_dict(spec3)),
        metric=residual_summary(metric_pieces, window_dict(spec4)),
    )
