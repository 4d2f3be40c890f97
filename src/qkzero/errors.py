"""Exception taxonomy shared by all qkzero modules: seven classes under
QKError.  The CLI exits 2 on NotReducible and 1 on any other QKError."""

from __future__ import annotations


class QKError(Exception):
    """Base class for all errors raised by this package."""


class IncompatibleSeries(QKError):
    """Objects whose variables, windows or rings do not fit together: series
    arithmetic across windows, a t index outside the series' variables, or a
    QDE solution checked against product data it cannot be aligned with."""


class SingularMetric(QKError):
    """Matrix inversion attempted on a series matrix with singular constant term."""


class InvalidPresentation(QKError):
    """A ring presentation violating commutativity, associativity, the unit law,
    pairing symmetry, pairing invertibility, or multiplication/pairing compatibility."""


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
    """Malformed input for a ring presentation or correlator table, among them
    a duplicate key after multiset normalization and a negative degree."""


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
