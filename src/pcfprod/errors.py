"""Shared exception types, and the check that gives a query its domain."""

import functools


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


def checked(cls):
    """Make the NamedTuple query ``cls`` run its ``_check`` method, which
    raises :class:`DomainError` for a field outside the domain, on every
    construction: by call, by ``_make`` and so by ``_replace``."""
    new = cls.__new__

    @functools.wraps(new)
    def __new__(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        self._check()
        return self

    cls.__new__ = __new__
    cls._make = classmethod(lambda cls, iterable: cls(*iterable))
    return cls
