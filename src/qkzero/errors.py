"""Exception taxonomy shared by all qkzero modules."""

from __future__ import annotations


class QKError(Exception):
    """Base class for all errors raised by this package."""


class IncompatibleSeries(QKError):
    """Arithmetic attempted between series with different variable layouts or truncation orders."""


class UnknownVariable(QKError):
    """A variable name that does not belong to the series' variable groups."""


class SingularMetric(QKError):
    """Matrix inversion attempted on a series matrix with singular constant term."""


class InvalidPresentation(QKError):
    """A ring presentation violating commutativity, associativity, the unit law,
    pairing symmetry, pairing invertibility, or multiplication/pairing compatibility."""


class RingMismatch(QKError):
    """A QDE solution checked against product data built on a different ring."""


class NotReducible(QKError):
    """A descendent index outside the closure of the string/dilaton reduction.

    Carries the index as requested and the index, every power >= 2, where the
    reduction stopped; the two differ when the request has a 0 or 1 power.
    """

    def __init__(self, requested: tuple[int, ...], reached: tuple[int, ...]):
        # The fields are the args, so pickling rebuilds the exception; the
        # label is formatted only when it is read.
        super().__init__(requested, reached)
        self.requested = requested
        self.reached = reached

    def __str__(self) -> str:
        requested, reached = self.requested, self.reached
        label = f"E({len(requested)}; {list(requested)}) is not reducible: "
        if sorted(requested) == sorted(reached):
            return label + "every power is >= 2"
        return label + f"reduction reaches E({len(reached)}; {list(reached)})"


class SchemaError(QKError):
    """Malformed JSON document for a ring presentation or correlator table."""


class DuplicateEntry(SchemaError):
    """Two correlator entries with the same key after multiset normalization."""


class IneffectiveDegree(SchemaError):
    """A degree vector with a negative component."""


class IncompleteTable(QKError):
    """A correlator required by the requested truncation is missing from the table.

    Carries the missing key so callers can report exactly what data is needed.
    """

    def __init__(self, beta: tuple[int, ...], insertions: tuple[int, ...],
                 marked: tuple[int, int] | None = None):
        super().__init__(beta, insertions, marked)
        self.beta = beta
        self.insertions = insertions
        self.marked = marked

    def __str__(self) -> str:
        label = f"missing correlator: beta={list(self.beta)}, insertions={list(self.insertions)}"
        if self.marked is not None:
            label += f", marked=(class {self.marked[0]}, power {self.marked[1]})"
        return label


class TruncationMismatch(QKError):
    """Residual evaluation attempted on objects whose truncations cannot be aligned."""
