"""Exact genus-zero quantum K-theory: descendent Euler characteristics,
potentials, quantized metrics, quantum products, and the fundamental
solution of the quantum differential equation, all over the rationals."""

from .correlators import (
    ConsistencyReport,
    CorrelatorTable,
    effective_degrees,
    load_correlators,
    ring_from_target,
    table_consistency_check,
)
from .descendents import descendent_euler
from .errors import (
    IncompatibleSeries,
    IncompleteTable,
    InvalidPresentation,
    NotReducible,
    QKError,
    SchemaError,
    SingularMetric,
)
from .frobenius import (
    FrobeniusData,
    Potential,
    ResidualSummary,
    assemble_potential,
    build_frobenius_data,
    classical_limit_residual,
    flatness_residuals,
    quantized_metric,
    unit_residual,
    wdvv_residual,
)
from .kring import (
    KRingPresentation,
    point_kring,
    projective_space_kring,
)
from .qde import (
    QDESolution,
    assemble_fundamental_solution,
    gwdvv_residuals,
    qde_residual,
)
from .series import (
    SeriesMatrix,
    SeriesSpec,
    TruncatedSeries,
    format_rational,
    matrix_inverse_geometric,
    parse_rational,
    try_rational_inverse,
)

__version__ = "0.1.0"
