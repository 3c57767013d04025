"""Verification records: one both-sides evaluation of one identity."""

from __future__ import annotations

from typing import NamedTuple

from .errors import DomainError

_REL_FLOOR = 1e-300
_ABS_SWITCH = 1e-280


class VerificationRecord(NamedTuple):
    """Both side values of one identity at one parameter point.

    ``passed`` reflects the identity's configured tolerance: relative
    error for ordinary magnitudes, absolute error when the right side is
    essentially zero (|rhs| < 1e-280).  ``skipped`` marks grid points
    outside the identity's validity domain; such records carry no
    numbers and never count as failures.  A failed record with a NaN
    right side marks a route that raised ``ConvergenceError``; its left
    side is the route's partial result, NaN where it has none.
    """

    identity_id: str
    params: dict[str, float]
    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    passed: bool
    evaluations: int
    skipped: bool = False
    note: str = ""

    @property
    def status(self) -> str:
        if self.skipped:
            return "skip"
        return "pass" if self.passed else "fail"


def make_record(
    identity_id: str,
    params: dict[str, float],
    lhs: float,
    rhs: float,
    tol: float,
    evaluations: int,
    mode: str = "relative",
    note: str = "",
) -> VerificationRecord:
    """Build a record; ``passed`` applies ``tol`` per the identity's contract.

    ``mode="relative"`` compares rel_err against tol (abs_err when the
    right side is essentially zero).  ``mode="mixed"`` compares abs_err
    against tol*(1 + max|side|), for identities whose series route loses
    all relative accuracy to cancellation when the value is tiny.
    ``note`` reports anything the caller changed for this record.
    """
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / max(abs(lhs), abs(rhs), _REL_FLOOR)
    if mode == "mixed":
        passed = abs_err <= tol * (1.0 + max(abs(lhs), abs(rhs)))
    elif abs(rhs) < _ABS_SWITCH:
        passed = abs_err <= tol
    else:
        passed = rel_err <= tol
    return VerificationRecord(
        identity_id, dict(params), lhs, rhs, abs_err, rel_err, passed, evaluations, note=note
    )


def error_record(identity_id: str, params: dict[str, float], exc: Exception) -> VerificationRecord:
    """A record for a point whose evaluation raised ``exc``.

    A ``DomainError`` makes it a skip, any other error a failure; the
    note is the exception message.  A route's partial result, a whole
    left side, gives the record's left side and, as its term count or
    evaluations, the cost.
    """
    partial = getattr(exc, "partial", None)
    lhs = getattr(partial, "value", float("nan"))
    cost = getattr(partial, "evaluations", getattr(partial, "terms_used", 0))
    return VerificationRecord(
        identity_id, dict(params), lhs, float("nan"), float("nan"),
        float("nan"), False, cost, skipped=isinstance(exc, DomainError), note=str(exc),
    )
