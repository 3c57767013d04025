"""Shared exception types."""


class DomainError(ValueError):
    """An argument lies outside the validity domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative evaluation failed to reach the requested tolerance.

    The best partial result, when one exists, is attached as ``partial``
    (a QuadratureResult or SeriesResult).
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial

    def scaled(self, factor):
        """The error for ``factor`` (> 0) times the quantity: the partial
        result scaled alike, the message kept."""
        partial = None if self.partial is None else self.partial.scaled(factor)
        return ConvergenceError(str(self), partial)
