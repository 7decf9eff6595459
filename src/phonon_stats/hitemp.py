"""High-temperature (thermal-diffusion) steady-state statistics.

For n_th >> C the steady state admits a Glauber-Sudarshan representation
P_s(mu) ∝ exp(-|mu|^2/n_th - C|mu|^4/n_th). With s = |mu|^2, every
normally-ordered observable reduces to moments of the exponential-quartic
weight on the half line,

    M_n(a, b) = ∫_0^∞ s^n exp(-a s - b s^2) ds,
    a = 1/n_th,  b = C/n_th,

so that  n_ss = M_1/M_0  and  g2(0) = M_2 M_0 / M_1^2.  Both depend on q = C*n_th
alone and come from one continued fraction, Laplace's for erfcx (see
:func:`_fraction`), with no moment table. For the populations, M_0 has the
stable closed form (sqrt(pi)/(2 sqrt(b))) * erfcx(a/(2 sqrt(b))), integration
by parts gives a M_0 + 2 b M_1 = 1, and deeper moments follow from

    M_{n+1} = (n M_{n-1} - a M_n) / (2 b).

The recursion subtracts nearly equal quantities when a/sqrt(b) is large; it
is run upward in a scale-invariant log form only where an a-priori roundoff
amplification gate admits it. Elsewhere the same recursion runs backward as
the positive continued fraction  M_n/M_{n-1} = n / (a + 2b M_{n+1}/M_n)
(Miller's algorithm for its minimal solution), anchored at the closed form
of M_0. No quadrature is involved.

Fock-level statistics come from projecting the same measure onto number
states: P(n) ∝ M_n(a', b)/n! with a' = 1 + 1/n_th, whose exact normalizer is
sum_n M_n(a', b)/n! = M_0(a, b) (the e^s factor shifts a' back to a).

The observables need only ``math`` (:func:`erfcx` is evaluated here), so the
module imports no scipy; the populations import ``scipy.special.gammaln`` for
log n! when they first run.

This module labels itself an approximation: its validity degrades as n_th/C
shrinks, quantified against the exact series by the validation tooling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError, NotConverged, RecursionUnstable
from .report import SteadyStateReport
from .exact import _check_cn, classify_regime

__all__ = [
    "MomentTable",
    "erfcx",
    "gaussian_quartic_moments",
    "mean_phonon_hitemp",
    "g2_hitemp",
    "steady_state_hitemp",
]


# erfc(x) stays a normal float below this; from here up erfcx is its
# asymptotic series
_ERFCX_ASYMPTOTIC_FROM = 26.0
# (-1)^k (2k - 1)!!, k = 11 down to 0: the series' coefficients in
# t = 1/(2x^2), highest first for Horner's rule. The first omitted term is
# below 1e-26 relative at x = 26
_ERFCX_SERIES = tuple((-1) ** k * math.prod(range(1, 2 * k, 2)) for k in reversed(range(12)))
_VELTKAMP = 134217729.0  # 2^27 + 1 splits a double into two 26-bit halves


def erfcx(x: float) -> float:
    """Scaled complementary error function exp(x^2) * erfc(x) for x >= 0.

    Below x = 26 it is erfc(x) exp(hi) (1 + lo), with x^2 = hi + lo split
    exactly by Dekker's product (Numer. Math. 18, 224 (1971)), so exp(x^2)
    loses nothing to the rounding of x^2. From x = 26 up, where erfc(x)
    heads into the subnormals, it is the asymptotic series
    (1/(x sqrt(pi))) sum_k (-1)^k (2k-1)!!/(2x^2)^k (DLMF 7.12.1), twelve
    terms by Horner's rule; t = 1/(2x^2) underflows to 0 harmlessly once x^2
    overflows. Within 1e-15 relative of 40-digit mpmath on [0, 1e8] and
    beyond; ``math`` only, no scipy.
    """
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"erfcx requires x >= 0, got {x!r}")
    if x < _ERFCX_ASYMPTOTIC_FROM:
        hi = x * x
        split = _VELTKAMP * x
        x_hi = split - (split - x)
        x_lo = x - x_hi
        lo = ((x_hi * x_hi - hi) + 2.0 * x_hi * x_lo) + x_lo * x_lo
        return math.erfc(x) * math.exp(hi) * (1.0 + lo)
    t = 0.5 / x / x
    s = 0.0
    for c in _ERFCX_SERIES:
        s = s * t + c
    return s / math.sqrt(math.pi) / x


@dataclass(eq=False)
class MomentTable:
    """Moments M_n(a, b) in log form, n = 0..n_max.

    ``method`` records which direction produced the table: "recursion"
    (upward) or "backward" (continued fraction).
    """

    a: float
    b: float
    log_m: np.ndarray
    method: str

    @property
    def n_max(self) -> int:
        return len(self.log_m) - 1


def _check_ab(a: float, b: float) -> tuple[float, float]:
    a = float(a)
    b = float(b)
    if not math.isfinite(a) or a < 0.0:
        raise DomainError(f"a must be >= 0, got {a!r}")
    if not math.isfinite(b) or b <= 0.0:
        raise DomainError(f"b must be > 0, got {b!r}")
    return a, b


def _recursion_amplification_log(r: float, n_max: int) -> float:
    """Worst-case log roundoff amplification of the upward recursion.

    Each step forms n*m~_{n-1} - r*m~_n, two nearly equal quantities for
    r >> 1 (the difference is the quartic correction ~ 2(n+1)/r relative to
    r), so a unit roundoff is magnified by ~ r^2/(2k) at step k. Returns
    the log of the peak partial product of those factors, reached at
    k ~ r^2/2; it is 0 where r^2/2 <= 1. It measures only this per-step
    cancellation, not how the error then grows with the order n, so it
    does not bound the moments' error (ROADMAP K10).
    """
    t = 0.5 * r * r
    if t <= 1.0 or n_max == 0:  # no step is amplified (0 * log(inf) is nan)
        return 0.0
    # compared as floats first: t overflows to inf once r^2 does (b near the
    # smallest float), and an infinite amplification refuses the recursion
    k = n_max if t >= n_max else int(t)
    return k * math.log(t) - math.lgamma(k + 1.0)


# refuse the recursion, and let the backward fraction take over, once the
# per-step cancellation can magnify a unit roundoff past ~1e5. It bounds
# that cancellation only, not the moments' error: (a, b, n) = (0.7, 1, 1000)
# passes with no amplification at all, yet its log M_1000 is off by 2.9e-3
# against mpmath (ROADMAP K10)
_AMP_LOG_MAX = math.log(1e5)


def _moments_recursion(a: float, b: float, n_max: int) -> np.ndarray:
    """Scaled log-space recursion. Raises RecursionUnstable on cancellation."""
    rb = math.sqrt(b)
    r = a / rb  # moments of exp(-r t - t^2) after s = t/sqrt(b)
    if _recursion_amplification_log(r, n_max) > _AMP_LOG_MAX:
        raise RecursionUnstable(
            f"moment recursion would amplify roundoff beyond tolerance at "
            f"a={a:g}, b={b:g} (a/sqrt(b)={r:g}, orders={n_max})"
        )
    log_m = np.empty(n_max + 1)
    half_log_b = 0.5 * math.log(b)
    l_pp = math.log(0.5 * math.sqrt(math.pi) * erfcx(0.5 * r))  # log m~_0
    log_m[0] = l_pp - half_log_b
    if n_max == 0:
        return log_m
    m1 = 0.5 * (1.0 - r * math.exp(l_pp))
    if m1 <= 0.0:
        raise RecursionUnstable(
            f"first-moment cancellation at a={a:g}, b={b:g} (a/sqrt(b)={r:g})"
        )
    l_p = math.log(m1)
    log_m[1] = l_p - 2.0 * half_log_b
    for n in range(1, n_max):
        # m~_{n+1} = (n m~_{n-1} - r m~_n)/2, evaluated relative to m~_n
        coef = n * math.exp(l_pp - l_p) - r
        if coef <= 0.0:
            raise RecursionUnstable(
                f"moment recursion lost positivity at order {n + 1} "
                f"(a={a:g}, b={b:g}, a/sqrt(b)={r:g})"
            )
        l_new = l_p + math.log(0.5 * coef)
        log_m[n + 1] = l_new - (n + 2) * half_log_b
        l_pp, l_p = l_p, l_new
    return log_m


def _moments_backward(a: float, b: float, n_max: int) -> np.ndarray:
    """Miller's backward fraction for the moments the recursion refuses.

    M_n is the minimal solution of the recursion, so the scaled ratios
    tau_n = m~_n/m~_{n-1} follow from  tau_n = n / (r + 2 tau_{n+1}),  in
    which every term is positive, anchored at the erfcx closed form of m~_0.
    Its bracket closes within a few dozen levels of the window when
    r = a/sqrt(b) is large, which is where the recursion is refused; at small
    r it would need millions of levels, so it never replaces the recursion.
    """
    r = a / math.sqrt(b)
    # sigma_k = 2 tau_{k+1} = 2(k+1) / (r + sigma_{k+1})
    sigma, levels, ok, _ = _kernels.backward_ratios(2.0, r, 0.0, n_max)
    if not ok:
        raise NotConverged(
            f"backward moment fraction at a={a:g}, b={b:g} (a/sqrt(b)={r:g}) "
            f"did not settle within {levels} levels",
            terms_used=levels,
        )
    log_m = np.empty(n_max + 1)
    log_m[0] = math.log(0.5 * math.sqrt(math.pi) * erfcx(0.5 * r))
    log_m[1:] = log_m[0] + np.cumsum(np.log(0.5 * sigma))
    return log_m - 0.5 * math.log(b) * np.arange(1.0, n_max + 2.0)


def gaussian_quartic_moments(a: float, b: float, n_max: int) -> MomentTable:
    """Moment table of the exponential-quartic weight exp(-a s - b s^2).

    Parameters
    ----------
    a, b : float
        Weight coefficients, a >= 0, b > 0.
    n_max : int
        Highest moment order.

    The integration-by-parts recursion runs upward where its roundoff
    amplification stays small (``method == "recursion"``); elsewhere the same
    recursion runs backward as a positive continued fraction
    (``method == "backward"``). The direction follows from a/sqrt(b) alone.
    An ``n_max`` too large for the term budget raises :class:`NotConverged`
    before either direction runs.
    """
    a, b = _check_ab(a, b)
    n_max = _kernels.check_window(n_max, "moment table at a=%g, b=%g", a, b)
    try:
        return MomentTable(a, b, _moments_recursion(a, b, n_max), "recursion")
    except RecursionUnstable:
        return MomentTable(a, b, _moments_backward(a, b, n_max), "backward")


def _fraction(C: float, n_th: float) -> tuple[float, float]:
    """(n_ss/n_th, g2) from the tail R of Laplace's continued fraction.

    With z = 1/(2 sqrt(q)), sqrt(pi) erfcx(z) = 1/(z + (1/2)/(z + R)), where
    R = t_2 and t_k = (k/2)/(z + t_{k+1}) (DLMF 7.9.2). Put into the closed
    forms, n_ss = n_th z/(z + R) and g2 = 2R(z + R) exactly, with nothing to
    cancel or overflow. For z >= 1/2 (q <= 1) R is summed bottom-up over
    n = 30 + ceil(100/z^2) levels from the tail's large-k expansion, at
    k = n + 1: t_k ~ sqrt(k/2) - z/2 + (z^2 - 1)/(4 sqrt(2k)) + z/(8k).
    Below, R = 1/(2K) - z with K = 1/(sqrt(pi) erfcx(z)) - z, whose
    subtractions magnify erfcx's roundoff 4-fold at z = 1/2 and 29-fold at
    z = 1.5. z = 0.5/(sqrt(C) sqrt(n_th)) overflows only where q is
    subnormal, and there the q -> 0 limits (1, 2) are returned.
    """
    z = 0.5 / (math.sqrt(C) * math.sqrt(n_th))
    if z == math.inf:
        return 1.0, 2.0
    if z >= 0.5:
        n = 30 + math.ceil(100.0 / (z * z))
        k = n + 1.0
        r = math.sqrt(0.5 * k) - 0.5 * z + (z * z - 1.0) / (4.0 * math.sqrt(2.0 * k)) + z / (8.0 * k)
        for k in range(n, 1, -1):
            r = 0.5 * k / (z + r)
    else:
        r = 0.5 / (1.0 / (math.sqrt(math.pi) * erfcx(z)) - z) - z
    return z / (z + r), 2.0 * r * (z + r)


def mean_phonon_hitemp(C: float, n_th: float) -> float:
    """Mean occupation M_1/M_0 = -1/(2C) + sqrt(n_th/(pi C))/erfcx(z),
    z = 1/(2 sqrt(C n_th)), as n_th z/(z + R) (:func:`_fraction`); it tends
    to sqrt(n_th/(pi C)) as q = C*n_th grows."""
    C, n_th = _check_cn(C, n_th, positive_nth=True)
    return n_th * _fraction(C, n_th)[0]


def g2_hitemp(C: float, n_th: float) -> float:
    """Second-order correlation M_2 M_0 / M_1^2 of the thermal-diffusion state.

    Depends on (C, n_th) only through q = C*n_th, interpolating monotonically
    between the thermal value 2 (q -> 0) and pi/2 (q -> inf); evaluated as
    2R(z + R) (:func:`_fraction`), with no moment table.
    """
    C, n_th = _check_cn(C, n_th, positive_nth=True)
    return _fraction(C, n_th)[1]


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) for a 1-D array with a finite maximum.

    The operations of ``scipy.special.logsumexp`` without its array-API
    dispatch, which cost it 90-130 us a call where these take 7-25 us: the
    entries equal to the maximum are counted (m) and left out of the shifted
    sum s, so the result log1p(s/m) + log(m) + max equals scipy's bit for bit.
    Normalizing by M_0 instead (ROADMAP D10) will delete it.
    """
    a_max = a.max()
    tied = a == a_max
    m = np.float64(np.count_nonzero(tied))
    s = np.exp(np.where(tied, -np.inf, a) - a_max).sum()
    if s != 0:
        s = s / m
    return float(np.log1p(s) + np.log(m) + a_max)


def _fock_projection(C: float, n_th: float, n_max: int) -> tuple[np.ndarray, float, str]:
    """Window populations, log of their unnormalized window sum, moment method.

    The moments run on a = 1 + 1/n_th, b = C/n_th and r = a/sqrt(b). Where
    one of them leaves the floats (b overflows or underflows, or a or r
    overflows) the point is refused with a DomainError that names C and
    n_th, although its n_ss and g2 stay finite.
    """
    # the one scipy call left on this route; D10's cumulative log ratios need
    # no log n! and delete it
    from scipy.special import gammaln

    a, b = 1.0 + 1.0 / n_th, C / n_th
    r = a / math.sqrt(b) if b > 0.0 else math.inf
    if not (b < math.inf and r < math.inf):
        raise DomainError(
            f"populations at C={C:g}, n_th={n_th:g}: the moment weight exp(-a s - b s^2) "
            f"leaves the floats (a = 1 + 1/n_th = {a:g}, b = C/n_th = {b:g}, a/sqrt(b) = {r:g})"
        )
    n_max = _kernels.check_window(n_max, "populations at C=%g, n_th=%g", C, n_th)
    table = gaussian_quartic_moments(a, b, n_max)
    log_raw = table.log_m - gammaln(np.arange(table.n_max + 1, dtype=np.float64) + 1.0)
    log_z = _logsumexp(log_raw)
    return np.exp(log_raw - log_z), log_z, table.method


def steady_state_hitemp(
    C: float, n_th: float, n_max: int | None = None
) -> SteadyStateReport:
    """Full high-temperature report with tail accounting.

    ``population_tail`` in the diagnostics is the mass beyond ``n_max``
    relative to the exact normalizer, i.e. what the explicit-sum
    normalization of the population vector absorbed.
    """
    C, n_th = _check_cn(C, n_th, positive_nth=True)
    n_ss = mean_phonon_hitemp(C, n_th)
    if n_max is None:  # a Poisson width: it can hide a super-Poissonian tail (K2)
        width = n_ss + 10.0 * math.sqrt(n_ss + 1.0)
        # an infinite n_ss (n_th/C overflows) is refused here, before ceil()
        _kernels.check_window(width, "populations at C=%g, n_th=%g", C, n_th)
        n_max = max(30, math.ceil(width))
    # the populations go first, so their window check precedes any moment table
    populations, log_z, method = _fock_projection(C, n_th, n_max)
    g2 = g2_hitemp(C, n_th)
    norm = gaussian_quartic_moments(1.0 / n_th, C / n_th, 0)
    tail = max(0.0, 1.0 - math.exp(log_z - norm.log_m[0]))
    return SteadyStateReport(
        n_ss=n_ss,
        g2=g2,
        populations=populations,
        regime=classify_regime(C, n_th),
        diagnostics={
            "model": "hitemp",
            "moment_method": method,
            "population_tail": tail,
            "n_max": n_max,
        },
    )
