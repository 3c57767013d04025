"""Shared exception types."""


class DomainError(ValueError):
    """An argument lies outside the validity domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative evaluation failed to reach the requested tolerance.

    The best partial result, when one exists, is attached as ``partial``
    (a QuadratureResult or SeriesResult).  The partial and the numbers in
    the message are in the units of the quantity the caller asked for: a
    quadrature's integrand carries its own prefactor, and the Hermite
    summer applies the caller's ``factor`` to both.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
