"""Exact steady-state statistics of the two-phonon-damped oscillator.

The reduced master equation

    drho/dtau = (C/2) D[b^2] rho + (n_th/2) D[b†] rho + ((n_th+1)/2) D[b] rho

admits a closed-form steady state whose observables reduce to ratios of the
reciprocal-gamma series S_j(nu, x) evaluated at

    nu = (1 + 2 n_th) / C,      x = 2 n_th / C:

    n_ss  = S_1 / (2 S_0),
    g2(0) = S_2 S_0 / S_1^2.

The Fock-level populations take the double-series form

    P(m) = T_m / (m! * S_0(nu, 2y)),    y = n_th / C,
    T_m  = sum_{k>=m} [k!/(k-m)!] y^k / Gamma(nu + k),

with the normalization folded in analytically: summing P(m) over all m
collapses, via the binomial identity sum_m C(k, m) = 2^k, to exactly 1. This
form is positive, exactly normalized, and regular everywhere in C > 0,
n_th > 0 — including the coherent point C = 1 + 2 n_th, where it reduces to a
Poisson distribution with mean n_th/(2 n_th + 1), so no branch switching is
needed there. The truncation to m <= m_max leaves a reported tail, never a
silent renormalization.

The double series is never summed level by level. The flux balance across
the cut between n and n+1,

    n_th P_n = (n_th + 1 + C n) P_{n+1} + C (n+2) P_{n+2},

has only positive terms when read downward, so T_0 = S_0(nu, y) and the
backward continued fraction for T_{m+1}/T_m give every level (see
:func:`phonon_stats._kernels.population_logsums`).

Valid at all temperatures; the companion high-temperature module trades
exactness for closed forms when x = 2 n_th / C exceeds the series budget.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from . import _kernels
from .errors import DomainError, NotConverged
from .report import G2_UNDEFINED_BELOW, Regime, SteadyStateReport
from .specfun import recip_gamma_series

__all__ = [
    "mean_phonon_exact",
    "g2_exact",
    "phonon_populations_exact",
    "classify_regime",
    "steady_state_exact",
    "default_m_max",
]


def _check_cn(C: float, n_th: float, *, positive_nth: bool = False) -> tuple[float, float]:
    C = float(C)
    n_th = float(n_th)
    if not math.isfinite(C) or C <= 0.0:
        raise DomainError(f"C must be positive, got {C!r}")
    if not math.isfinite(n_th) or n_th < 0.0 or (positive_nth and n_th == 0.0):
        kind = "positive" if positive_nth else "nonnegative"
        raise DomainError(f"n_th must be {kind}, got {n_th!r}")
    return C, n_th


def mean_phonon_exact(C: float, n_th: float, *, max_terms: int = 10_000_000) -> float:
    """Steady-state mean phonon number S_1/(2 S_0).

    Returns exactly 0.0 at ``n_th = 0`` (the steady state is the ground
    state; no series evaluation involved).
    """
    C, n_th = _check_cn(C, n_th)
    if n_th == 0.0:
        return 0.0
    sums = recip_gamma_series((1.0 + 2.0 * n_th) / C, 2.0 * n_th / C, max_terms=max_terms)
    return 0.5 * math.exp(sums.log_s1 - sums.log_s0)


def g2_exact(C: float, n_th: float, *, max_terms: int = 10_000_000) -> float | None:
    """Equal-time second-order correlation S_2 S_0 / S_1^2.

    Returns ``None`` when undefined, i.e. when the mean occupation falls
    below the definability threshold (vacuum limit: the formula is 0/0; the
    physical limit value is 0 but is not emitted as data).
    """
    C, n_th = _check_cn(C, n_th)
    if n_th == 0.0:
        return None
    sums = recip_gamma_series((1.0 + 2.0 * n_th) / C, 2.0 * n_th / C, max_terms=max_terms)
    n_ss = 0.5 * math.exp(sums.log_s1 - sums.log_s0)
    if n_ss < G2_UNDEFINED_BELOW:
        return None
    return math.exp(sums.log_s2 + sums.log_s0 - 2.0 * sums.log_s1)


def default_m_max(n_ss: float, n_th: float | None = None) -> int:
    """Population cutoff covering the distribution to ~10 sigma.

    When ``n_th`` is supplied the cutoff also covers the thermal-bath floor:
    as C -> 0 the distribution tends to a geometric one whose tail shrinks
    only by n_th/(n_th+1) per step, far slower than the cooled bulk's width
    suggests, and reaching 1e-9 tail mass there takes ~ 21*(n_th+1) states.
    """
    m = max(30, int(math.ceil(n_ss + 10.0 * math.sqrt(n_ss + 1.0))))
    if n_th is not None and n_th > 0.0:
        m = max(m, int(math.ceil(21.0 * (n_th + 1.0))))
    return m


def phonon_populations_exact(
    C: float,
    n_th: float,
    m_max: int | None = None,
    *,
    max_terms: int = 10_000_000,
) -> np.ndarray:
    """Fock populations P(0..m_max) of the exact steady state.

    Evaluates the analytically normalized double series described in the
    module docstring through its backward recurrence: one series for T_0, one
    continued-fraction pass per depth doubling, and the normalizer
    S_0(nu, 2y). The returned vector is the exact P(m) truncated at ``m_max``
    (default: a ~10-sigma cutoff from the mean occupation) — its shortfall
    from 1 is true tail mass, reported by :func:`steady_state_exact` in the
    diagnostics, never renormalized away. ``max_terms`` caps each series and
    the recurrence depth; reaching it raises :class:`NotConverged`. The first
    recurrence depth is 2*m_max + 50 and the check needs one deeper run, so a
    cap of 2*m_max + 50 or less always raises.
    """
    C, n_th = _check_cn(C, n_th, positive_nth=True)
    if m_max is None:
        m_max = default_m_max(mean_phonon_exact(C, n_th, max_terms=max_terms), n_th)
    m_max = int(m_max)
    if m_max < 0:
        raise DomainError(f"m_max must be >= 0, got {m_max!r}")
    nu = (1.0 + 2.0 * n_th) / C
    y = n_th / C
    log_t, terms, ok = _kernels.population_logsums(nu, y, m_max, 1e-18, max_terms)
    if not ok:
        raise NotConverged(
            f"population recurrence at C={C:g}, n_th={n_th:g} hit the {max_terms}-term cap",
            terms_used=int(terms),
        )
    norm = recip_gamma_series(nu, 2.0 * y, max_terms=max_terms)
    m = np.arange(m_max + 1, dtype=np.float64)
    return np.exp(log_t - gammaln(m + 1.0) - norm.log_s0)


def classify_regime(C: float, n_th: float) -> Regime:
    """Parameter-space regime label.

    Vacuum at ``n_th = 0``; otherwise compares C against the coherent-point
    value 2 n_th + 1 (equality within 1e-12 relative -> Coherent; above ->
    Antibunched; below -> Bunched).
    """
    C, n_th = _check_cn(C, n_th)
    if n_th == 0.0:
        return Regime.VACUUM
    boundary = 2.0 * n_th + 1.0
    if abs(C - boundary) <= 1e-12 * boundary:
        return Regime.COHERENT
    return Regime.ANTIBUNCHED if C > boundary else Regime.BUNCHED


def steady_state_exact(
    C: float,
    n_th: float,
    m_max: int | None = None,
    *,
    max_terms: int = 10_000_000,
) -> SteadyStateReport:
    """Full report: mean occupation, g2, populations, regime, diagnostics."""
    C, n_th = _check_cn(C, n_th)
    if n_th == 0.0:
        populations = np.zeros((m_max if m_max is not None else 30) + 1)
        populations[0] = 1.0
        return SteadyStateReport(
            n_ss=0.0,
            g2=None,
            populations=populations,
            regime=Regime.VACUUM,
            diagnostics={"model": "exact", "population_tail": 0.0},
        )
    sums = recip_gamma_series((1.0 + 2.0 * n_th) / C, 2.0 * n_th / C, max_terms=max_terms)
    n_ss = 0.5 * math.exp(sums.log_s1 - sums.log_s0)
    g2 = None
    if n_ss >= G2_UNDEFINED_BELOW:
        g2 = math.exp(sums.log_s2 + sums.log_s0 - 2.0 * sums.log_s1)
    if m_max is None:
        m_max = default_m_max(n_ss, n_th)
    populations = phonon_populations_exact(C, n_th, m_max, max_terms=max_terms)
    tail = max(0.0, 1.0 - float(populations.sum()))
    return SteadyStateReport(
        n_ss=n_ss,
        g2=g2,
        populations=populations,
        regime=classify_regime(C, n_th),
        diagnostics={
            "model": "exact",
            "series_terms": sums.terms_used,
            "population_tail": tail,
            "m_max": m_max,
        },
    )
