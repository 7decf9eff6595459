"""Exception types raised across the package.

All errors derive from :class:`PhononStatsError`, so callers can catch one
base type. The CLI maps them onto exit codes: invalid input -> 1,
non-convergence / numerical failure -> 2.
"""

from __future__ import annotations


class PhononStatsError(Exception):
    """Base class for all package errors."""


class DomainError(PhononStatsError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NotConverged(PhononStatsError):
    """A series hit its term cap before reaching the requested tolerance.

    Typically signals a pathologically large ``x = 2*n_th/C``; the
    high-temperature route is the intended fallback in that regime.
    """

    def __init__(self, message: str, *, terms_used: int | None = None):
        super().__init__(message)
        self.terms_used = terms_used


class SingularSystem(PhononStatsError):
    """The steady-state linear system is singular or numerically degenerate.

    Usually means the generator has a multi-dimensional null space, e.g.
    disconnected Fock sectors under a pure two-phonon jump operator.
    """


class UnphysicalState(PhononStatsError):
    """A solved density matrix violates positivity beyond roundoff level."""


class BudgetExceeded(PhononStatsError):
    """Truncation ladder hit the Hilbert-space dimension cap.

    Carries the last attempted truncation and its report (when available)
    so callers can inspect how far convergence got.
    """

    def __init__(self, message: str, *, last_spec=None, last_report=None):
        super().__init__(message)
        self.last_spec = last_spec
        self.last_report = last_report
