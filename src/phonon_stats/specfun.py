"""Numerically stable special functions and series sums.

The central object is the triple of reciprocal-gamma series

    S_j(nu, x) = sum_{k>=0} w_j(k) x^k / Gamma(nu + k),
    w_0 = 1,  w_1 = k,  w_2 = k(k-1),

from which the steady-state mean phonon number and second-order correlation
of the two-phonon-damped oscillator follow as ratios. At the parameter values
of interest ``x`` reaches 1e6 and beyond, where a ULP of log S_j ~ -nu log nu
is 1e-9 or worse. So the kernel (:mod:`phonon_stats._kernels`) sums the Kummer
sums f_j = Gamma(nu) S_j from their exact term ratio x/(nu + k) and returns
S_1/S_0 and S_2/S_0 before any absolute scale; :func:`recip_gamma_series` is
the one place that applies log Gamma(nu). All three sums are nonnegative for
``nu > 0, x >= 0``, so no sign bookkeeping is needed.

The module imports no scipy at load time: only :func:`erfcx`, which the
high-temperature route alone calls, imports ``scipy.special`` on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _kernels
from .errors import DomainError, NotConverged

__all__ = ["SeriesSums", "log_gamma", "erfcx", "recip_gamma_series"]


@dataclass(frozen=True)
class SeriesSums:
    """S_0, S_1, S_2 as log f_0 = log(Gamma(nu) S_0), the ratios
    m1 = S_1/S_0 and m2 = S_2/S_0, and the number of terms summed.

    Form ratios of the sums from ``m1``/``m2`` and differences of log S_0 at
    one nu from ``log_f``. ``log_s0``/``log_s1``/``log_s2`` add the absolute
    scale log Gamma(nu), whose ULP is 1e-9 at nu ~ 1e6; they are ``-inf`` when
    the sum is zero (S_1 and S_2 at ``x = 0``). The linear properties
    ``s0``/``s1``/``s2`` may overflow to ``inf`` for large ``x``.

    ``terms_used`` counts evaluated terms and is diagnostics, not a contract
    (the kernel evaluates a small overshoot past the term peak).
    """

    log_f: float
    m1: float
    m2: float
    log_gamma_nu: float
    terms_used: int

    @property
    def log_s0(self) -> float:
        return self.log_f - self.log_gamma_nu

    @property
    def log_s1(self) -> float:
        return self.log_s0 + math.log(self.m1) if self.m1 > 0.0 else -math.inf

    @property
    def log_s2(self) -> float:
        return self.log_s0 + math.log(self.m2) if self.m2 > 0.0 else -math.inf

    @property
    def s0(self) -> float:
        return math.exp(self.log_s0)

    @property
    def s1(self) -> float:
        return math.exp(self.log_s1)

    @property
    def s2(self) -> float:
        return math.exp(self.log_s2)


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0.

    Thin, domain-checked wrapper over the platform ``lgamma`` (relative error
    at the 1e-15 level across [1e-3, 1e6]). The series kernels use no gamma
    function; only the absolute scale of :class:`SeriesSums` does.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


_scipy_erfcx = None  # scipy.special.erfcx, bound by the first erfcx call


def erfcx(x: float) -> float:
    """Scaled complementary error function exp(x^2) * erfc(x) for x >= 0.

    Evaluated via scipy's Cephes/Faddeeva implementation (relative error
    below 1e-12), which is the stable form: the unscaled erfc underflows
    near x ~ 27 while erfcx decays only like 1/(x sqrt(pi)). ``scipy.special``
    is imported on the first call, so the exact route never loads it.
    """
    global _scipy_erfcx
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"erfcx requires x >= 0, got {x!r}")
    if _scipy_erfcx is None:
        from scipy.special import erfcx as _scipy_erfcx
    return float(_scipy_erfcx(x))


def recip_gamma_series(nu: float, x: float) -> SeriesSums:
    """Evaluate S_0, S_1, S_2 at (nu, x) as Kummer sums of their term ratios.

    Summation stops once a term past the (unique) peak contributes less than
    1e-18 relative to each sum (``_kernels._SERIES_TOL``). An ``x`` that needs
    more than ``_kernels._MAX_TERMS`` terms raises :class:`NotConverged`; the
    high-temperature closed forms are the intended route there.

    Parameters
    ----------
    nu : float
        Shift of the gamma argument; must be positive. In the steady-state
        application nu = (1 + 2 n_th) / C.
    x : float
        Series argument; must be nonnegative. In the application
        x = 2 n_th / C, which can be enormous in the high-temperature regime.

    Returns
    -------
    SeriesSums
    """
    nu = float(nu)
    x = float(x)
    if not math.isfinite(nu) or nu <= 0.0:
        raise DomainError(f"recip_gamma_series requires nu > 0, got {nu!r}")
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"recip_gamma_series requires x >= 0, got {x!r}")
    log_f, m1, m2, terms, ok = _kernels.series_logsums(nu, x)
    if not ok:
        raise NotConverged(
            f"series at nu={nu:g}, x={x:g} did not converge within the "
            f"{_kernels._MAX_TERMS}-term budget (use the high-temperature route instead)",
            terms_used=int(terms),
        )
    return SeriesSums(log_f, m1, m2, math.lgamma(nu), int(terms))
