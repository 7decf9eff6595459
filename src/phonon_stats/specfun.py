"""The series front end: the reciprocal-gamma sums of the exact route.

The central object is the triple of reciprocal-gamma series

    S_j(nu, x) = sum_{k>=0} w_j(k) x^k / Gamma(nu + k),
    w_0 = 1,  w_1 = k,  w_2 = k(k-1),

from which the steady-state mean phonon number and second-order correlation
of the two-phonon-damped oscillator follow as ratios. At the parameter values
of interest ``x`` reaches 1e6 and beyond, where a ULP of log S_j ~ -nu log nu
is 1e-9 or worse. So the kernel (:mod:`phonon_stats._kernels`) sums the Kummer
sums f_j = Gamma(nu) S_j from their exact term ratio x/(nu + k) and returns
S_1/S_0 and S_2/S_0; no absolute scale, and no gamma function, is formed.
The domain is 0 <= x <= nu: in the application nu - x = 1/C, so every term
ratio is below 1 and the kernel sums from the first, largest term. All three
sums are nonnegative there, so no sign bookkeeping is needed. The module
imports no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _kernels
from .errors import DomainError, NotConverged

__all__ = ["SeriesSums", "recip_gamma_series"]


@dataclass(frozen=True)
class SeriesSums:
    """S_0, S_1, S_2 as log f_0 = log(Gamma(nu) S_0), the ratios
    m1 = S_1/S_0 and m2 = S_2/S_0, and the number of terms summed.

    Form ratios of the sums from ``m1``/``m2`` and differences of log S_0 at
    one nu from ``log_f``. ``terms_used`` counts evaluated terms and is
    diagnostics, not a contract (the kernel evaluates a small overshoot past
    the terms the stop rule needs).
    """

    log_f: float
    m1: float
    m2: float
    terms_used: int


def recip_gamma_series(nu: float, x: float) -> SeriesSums:
    """Evaluate S_0, S_1, S_2 at (nu, x) as Kummer sums of their term ratios.

    Summation runs from the first term, the largest for x <= nu, and stops
    once a term contributes less than 1e-18 relative to each sum
    (``_kernels._SERIES_TOL``). An ``x`` that needs more than
    ``_kernels._MAX_TERMS`` terms raises :class:`NotConverged`; the
    high-temperature closed forms are the intended route there.

    Parameters
    ----------
    nu : float
        Shift of the gamma argument; must be positive. In the steady-state
        application nu = (1 + 2 n_th) / C.
    x : float
        Series argument; must satisfy 0 <= x <= nu. In the application
        x = 2 n_th / C = nu - 1/C, which can be enormous in the
        high-temperature regime.

    Returns
    -------
    SeriesSums
    """
    nu, x = _check_args(nu, x)
    log_f, m1, m2, terms, ok = next(zip(*_kernels.series_logsums(nu, x)))
    if not ok:
        raise _not_converged(nu, x, terms)
    return SeriesSums(log_f, m1, m2, terms)


def _check_args(nu, x) -> tuple[float, float]:
    """(nu, x) as floats, or the :class:`DomainError` of :func:`recip_gamma_series`."""
    nu = float(nu)
    x = float(x)
    if not math.isfinite(nu) or nu <= 0.0:
        raise DomainError(f"recip_gamma_series requires nu > 0, got {nu!r}")
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"recip_gamma_series requires x >= 0, got {x!r}")
    if x > nu:
        raise DomainError(f"recip_gamma_series requires x <= nu, got nu={nu!r}, x={x!r}")
    return nu, x


def _not_converged(nu, x, terms) -> NotConverged:
    """The error of a series at (nu, x) that ran out of its term budget."""
    return NotConverged(
        f"series at nu={nu:g}, x={x:g} did not converge within the "
        f"{_kernels._MAX_TERMS}-term budget (use the high-temperature route instead)",
        terms_used=int(terms),
    )
