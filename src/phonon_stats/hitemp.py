"""High-temperature (thermal-diffusion) steady-state statistics.

For n_th >> C the steady state admits a Glauber-Sudarshan representation
P_s(mu) ∝ exp(-|mu|^2/n_th - C|mu|^4/n_th). With s = |mu|^2, every
normally-ordered observable reduces to moments of the exponential-quartic
weight on the half line,

    M_n(a, b) = ∫_0^∞ s^n exp(-a s - b s^2) ds,
    a = 1/n_th,  b = C/n_th,

so that  n_ss = M_1/M_0  and  g2(0) = M_2 M_0 / M_1^2.  M_0 has the stable
closed form (sqrt(pi)/(2 sqrt(b))) * erfcx(a/(2 sqrt(b))), integration by
parts gives a M_0 + 2 b M_1 = 1, and deeper moments follow from

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

This module labels itself an approximation: its validity degrades as n_th/C
shrinks, quantified against the exact series by the validation tooling.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, logsumexp

from . import _kernels
from .errors import DomainError, NotConverged, RecursionUnstable
from .report import Regime, SteadyStateReport
from .exact import classify_regime, default_m_max
from .specfun import erfcx

__all__ = [
    "MomentTable",
    "gaussian_quartic_moments",
    "mean_phonon_hitemp",
    "g2_hitemp",
    "phonon_distribution_hitemp",
    "steady_state_hitemp",
]


from dataclasses import dataclass


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

    def moment(self, n: int) -> float:
        return float(np.exp(self.log_m[n]))


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
    r), so a unit roundoff is magnified by ~ r^2/(2k) at step k. The
    cumulative factor prod_k r^2/(2k) peaks at k ~ r^2/2 and relative error
    freezes once the recurrence's growing solution dominates, so the peak
    partial product is the right stability measure.
    """
    t = 0.5 * r * r
    if t <= 1.0:
        return 0.0
    k = min(n_max, int(t))
    return k * math.log(t) - math.lgamma(k + 1.0)


# refuse the recursion once roundoff can be magnified past ~1e5 (keeps the
# recursion's absolute moment accuracy near 1e-11; the backward fraction
# takes over)
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
    The fraction converges in a few multiples of n_max levels when
    r = a/sqrt(b) is large, which is where the recursion is refused; at small
    r it would need millions of levels, so it never replaces the recursion.
    """
    r = a / math.sqrt(b)
    # sigma_k = 2 tau_{k+1} = 2(k+1) / (r + sigma_{k+1})
    sigma, levels, ok = _kernels.backward_ratios(2.0, r, 0.0, n_max)
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
    """
    a, b = _check_ab(a, b)
    n_max = int(n_max)
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max!r}")
    try:
        return MomentTable(a, b, _moments_recursion(a, b, n_max), "recursion")
    except RecursionUnstable:
        return MomentTable(a, b, _moments_backward(a, b, n_max), "backward")


def _check_cn(C: float, n_th: float) -> tuple[float, float]:
    C = float(C)
    n_th = float(n_th)
    if not math.isfinite(C) or C <= 0.0:
        raise DomainError(f"C must be positive, got {C!r}")
    if not math.isfinite(n_th) or n_th <= 0.0:
        raise DomainError(f"n_th must be positive, got {n_th!r}")
    return C, n_th


def mean_phonon_hitemp(C: float, n_th: float) -> float:
    """Closed-form mean occupation -1/(2C) + sqrt(n_th/(pi C))/erfcx(z).

    z = sqrt(1/(4 C n_th)). Equals M_1/M_0 identically (integration by
    parts); evaluated via erfcx so neither factor under- or overflows. For
    q = C*n_th < 1e-8 the two terms cancel to relative O(q), so the expansion
    n_th (1 - 4q + 40 q^2) + O(q^3) is used instead.
    """
    C, n_th = _check_cn(C, n_th)
    q = C * n_th
    if q < 1e-8:
        return n_th * (1.0 - 4.0 * q + 40.0 * q * q)
    z = 0.5 / math.sqrt(q)
    return -0.5 / C + math.sqrt(n_th / (math.pi * C)) / erfcx(z)


def g2_hitemp(C: float, n_th: float) -> float:
    """Second-order correlation M_2 M_0 / M_1^2 of the thermal-diffusion state.

    Depends on (C, n_th) only through q = C*n_th, interpolating monotonically
    between the thermal value 2 (q -> 0) and pi/2 (q -> inf). Below q = 1e-5
    the asymptotic expansion 2 - 4q + 72 q^2 + O(q^3) replaces the moment
    ratio, which loses ~eps/q^2 relative accuracy to cancellation there.
    """
    C, n_th = _check_cn(C, n_th)
    q = C * n_th
    if q < 1e-5:
        return 2.0 - 4.0 * q + 72.0 * q * q
    t = gaussian_quartic_moments(1.0 / n_th, C / n_th, 2)
    return float(math.exp(t.log_m[2] + t.log_m[0] - 2.0 * t.log_m[1]))


def _fock_projection(C: float, n_th: float, n_max: int) -> tuple[np.ndarray, float, str]:
    """Window populations, log of their unnormalized window sum, moment method."""
    table = gaussian_quartic_moments(1.0 + 1.0 / n_th, C / n_th, n_max)
    log_raw = table.log_m - gammaln(np.arange(table.n_max + 1, dtype=np.float64) + 1.0)
    log_z = float(logsumexp(log_raw))
    return np.exp(log_raw - log_z), log_z, table.method


def phonon_distribution_hitemp(C: float, n_th: float, n_max: int) -> np.ndarray:
    """Fock distribution P(0..n_max) ∝ M_n(1 + 1/n_th, C/n_th)/n!.

    Normalized by the explicit sum over 0..n_max (so the returned vector sums
    to exactly 1); the true tail beyond n_max is available from the exact
    normalizer M_0(1/n_th, C/n_th) and is reported by
    :func:`steady_state_hitemp`. One moment table serves every level: the
    upward recursion or, where it is refused, the backward fraction, whose
    cost grows linearly with ``n_max``.
    """
    C, n_th = _check_cn(C, n_th)
    return _fock_projection(C, n_th, n_max)[0]


def steady_state_hitemp(
    C: float, n_th: float, n_max: int | None = None
) -> SteadyStateReport:
    """Full high-temperature report with tail accounting.

    ``population_tail`` in the diagnostics is the mass beyond ``n_max``
    relative to the exact normalizer, i.e. what the explicit-sum
    normalization of the population vector absorbed.
    """
    C, n_th = _check_cn(C, n_th)
    n_ss = mean_phonon_hitemp(C, n_th)
    g2 = g2_hitemp(C, n_th)
    if n_max is None:
        n_max = default_m_max(n_ss)
    populations, log_z, method = _fock_projection(C, n_th, n_max)
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
