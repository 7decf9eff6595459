"""Exact steady-state statistics of the two-phonon-damped oscillator.

The reduced master equation

    drho/dtau = (C/2) D[b^2] rho + (n_th/2) D[b†] rho + ((n_th+1)/2) D[b] rho

admits a closed-form steady state whose observables reduce to ratios of the
reciprocal-gamma series S_j(nu, x) evaluated at

    nu = (1 + 2 n_th) / C,      x = 2 n_th / C:

    n_ss  = S_1 / (2 S_0) = m1 / 2,
    g2(0) = S_2 S_0 / S_1^2 = m2 / m1^2,

with m1 = S_1/S_0 and m2 = S_2/S_0 summed from the term ratios
t_{k+1}/t_k = x/(nu + k), t_0 = 1 (see :mod:`phonon_stats.specfun`).

The Fock-level populations take the double-series form

    P(m) = B_m(nu, y) / f_0(nu, 2y),    y = n_th / C,
    B_m  = sum_{k>=m} C(k, m) t_k(nu, y),   f_0 = sum_k t_k = Gamma(nu) S_0,

with the normalization folded in analytically: summing P(m) over all m
collapses, via the binomial identity sum_m C(k, m) = 2^k, to exactly 1. This
form is positive, exactly normalized, and regular everywhere in C > 0,
n_th > 0 — including the coherent point C = 1 + 2 n_th, where it reduces to a
Poisson distribution with mean n_th/(2 n_th + 1), so no branch switching is
needed there. The truncation to m <= m_max leaves a reported tail, never a
silent renormalization. Without an explicit m_max the window ends at the
first level m whose tail bound P_m n_th/(1 + C m), which the flux balance
below gives, is at most 1e-12.

The double series is never summed level by level. The flux balance across
the cut between n and n+1,

    n_th P_n = (n_th + 1 + C n) P_{n+1} + C (n+2) P_{n+2},

has only positive terms when read downward, so P_0 = f_0(nu, y)/f_0(nu, 2y)
and the backward continued fraction for P_{m+1}/P_m = rho_m/(m+1) give every
level (see :func:`phonon_stats._kernels.population_logsums`).

Valid at all temperatures; the companion high-temperature module trades
exactness for closed forms, which the CLI's ``auto`` takes past n_th/C = 1e6.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels, specfun
from .errors import DomainError, NotConverged
from .report import G2_UNDEFINED_BELOW, Regime, SteadyStateReport
from .specfun import SeriesSums, recip_gamma_series

__all__ = [
    "observables_exact",
    "mean_phonon_exact",
    "g2_exact",
    "phonon_populations_exact",
    "classify_regime",
    "steady_state_exact",
]

# a window chosen here ends at the first level whose tail bound is at most this
_TAIL_TOL = 1e-12


def _check_cn(C: float, n_th: float, *, positive_nth: bool = False) -> tuple[float, float]:
    C = float(C)
    n_th = float(n_th)
    if not math.isfinite(C) or C <= 0.0:
        raise DomainError(f"C must be finite and positive, got {C!r}")
    if not math.isfinite(n_th) or n_th < 0.0 or (positive_nth and n_th == 0.0):
        kind = "positive" if positive_nth else "nonnegative"
        raise DomainError(f"n_th must be finite and {kind}, got {n_th!r}")
    return C, n_th


def _series_args(C: float, n_th: float) -> tuple[float, float] | None:
    """The point's checked series arguments (nu, x), or ``None`` at
    ``n_th = 0``, where the state is the ground state and no series is
    summed. Raises the point's :class:`~phonon_stats.errors.DomainError`,
    which names C and n_th also where nu = (1 + 2 n_th)/C overflows."""
    C, n_th = _check_cn(C, n_th)
    if n_th == 0.0:
        return None
    try:
        return specfun._check_args((1.0 + 2.0 * n_th) / C, 2.0 * n_th / C)
    except DomainError as err:
        raise DomainError(f"series at C={C:g}, n_th={n_th:g}: {err}") from err


def _observables(C: float, n_th: float) -> tuple[float, float | None, SeriesSums | None]:
    """(n_ss, g2, series sums) from one series evaluation.

    n_ss = m1/2; g2 = m2/m1^2, or ``None`` below the definability
    threshold. The sums' ``log_f`` is also the log of the population
    normalizer f_0(nu, 2y). At ``n_th = 0`` the state is the ground state:
    (0.0, None, None) with no series evaluation. The series is looked up as
    this module's global, so a wrapper set on ``exact.recip_gamma_series``
    sees every one-point call (a grid's points go to the kernel together,
    through :func:`_observables_grid`).
    """
    args = _series_args(C, n_th)
    if args is None:
        return 0.0, None, None
    sums = recip_gamma_series(*args)
    return (*_ratios(sums.m1, sums.m2), sums)


def _ratios(m1: float, m2: float) -> tuple[float, float | None]:
    n_ss = 0.5 * m1
    g2 = None
    if n_ss >= G2_UNDEFINED_BELOW:
        g2 = m2 / (m1 * m1)
    return n_ss, g2


def _observables_grid(args) -> list:
    """:func:`observables_exact` at points given by their
    :func:`_series_args`, with the series of all of them summed in one
    kernel call.

    Returns one entry per point: its (n_ss, g2), or the
    :class:`~phonon_stats.errors.NotConverged` that the point raises alone.
    Each value and each message equals the one-point call's, since every
    kernel row equals the kernel called with that row alone.
    """
    out = [(0.0, None)] * len(args)
    rows = [(j, *nu_x) for j, nu_x in enumerate(args) if nu_x is not None]
    if rows:
        index, nu, x = zip(*rows)
        for j, nu_j, x_j, row in zip(index, nu, x, zip(*_kernels.series_logsums(nu, x))):
            _, m1, m2, terms, ok = row
            out[j] = _ratios(m1, m2) if ok else specfun._not_converged(nu_j, x_j, terms)
    return out


def observables_exact(C: float, n_th: float) -> tuple[float, float | None]:
    """(n_ss, g2) from a single series evaluation, with no Fock populations.

    Each value equals what :func:`mean_phonon_exact` and :func:`g2_exact`
    return separately, at half their combined cost.
    """
    n_ss, g2, _ = _observables(C, n_th)
    return n_ss, g2


def mean_phonon_exact(C: float, n_th: float) -> float:
    """Steady-state mean phonon number S_1/(2 S_0).

    Returns exactly 0.0 at ``n_th = 0`` (the steady state is the ground
    state; no series evaluation involved).
    """
    return _observables(C, n_th)[0]


def g2_exact(C: float, n_th: float) -> float | None:
    """Equal-time second-order correlation S_2 S_0 / S_1^2.

    Returns ``None`` when undefined, i.e. when the mean occupation falls
    below the definability threshold (vacuum limit: the formula is 0/0; the
    physical limit value is 0 but is not emitted as data).
    """
    return _observables(C, n_th)[1]


def _budget_error(C: float, n_th: float, terms: int) -> NotConverged:
    return NotConverged(
        f"population recurrence at C={C:g}, n_th={n_th:g} hit the "
        f"{_kernels._MAX_TERMS}-term budget",
        terms_used=int(terms),
    )


def _window(C: float, n_th: float, m_max: int, log_b0: float, log_f2: float) -> np.ndarray:
    """P(0..m_max) from the backward recurrence anchored at log B_0,
    normalized by the given log f_0(nu, 2y) (the ``log_f`` of
    :func:`_observables`)."""
    m_max = _kernels.check_window(m_max, "populations at C=%g, n_th=%g", C, n_th)
    log_b, levels, ok = _kernels.population_logsums(
        (1.0 + 2.0 * n_th) / C, n_th / C, m_max, log_b0
    )
    if not ok:
        raise _budget_error(C, n_th, levels)
    return np.exp(log_b - log_f2)


def _bound_window(C: float, n_th: float, log_p0: float) -> int:
    """The first level m where the flux-balance bound on the tail past it,
    U_m n_th/(1 + C m) with U_m = P_0 prod_{n<m} q_n >= P_m, is at most
    ``_TAIL_TOL``. That is U_{m+1} (1 + n_th/(1 + C m)), summed in logs
    over blocks of levels that double up to ``_kernels._CHUNK`` and end at
    the term budget; where the bound still fails there, the level reached,
    which the window check refuses."""
    log_tol, log_u, lo, size = math.log(_TAIL_TOL), log_p0, 0, 64
    end = _kernels._MAX_TERMS - _kernels._EXCESS
    # where C m overflows, q_m is 0 and the bound -inf
    with np.errstate(over="ignore", divide="ignore"):
        while lo < end:
            m = np.arange(lo, min(lo + size, end), dtype=np.float64)
            log_next = log_u + np.cumsum(np.log(n_th / (n_th + 1.0 + C * m)))
            held = np.flatnonzero(log_next + np.log1p(n_th / (1.0 + C * m)) <= log_tol)
            if held.size:
                return lo + int(held[0])
            log_u, lo, size = log_next[-1], lo + m.size, min(2 * size, _kernels._CHUNK)
    return lo


def _populations(
    C: float, n_th: float, m_max: int | None, log_f2: float
) -> np.ndarray:
    """P(0..m_max); with ``m_max=None`` the window ends where its tail is bounded.

    The flux balance gives P_{n+1} <= q_n P_n with q_n = n_th/(n_th + 1 + C n)
    falling in n, so the mass past level m is below P_m q_m/(1 - q_m) =
    P_m n_th/(1 + C m), with no 1 - sum(P) and its roundoff. The window ends
    at the first level where that bound is at most ``_TAIL_TOL``. It is
    sized once, before any level is computed, where the bound holds for
    P_0 prod_{n<m} q_n >= P_m with P_0 = B_0/f_0(nu, 2y) (:func:`_bound_window`),
    and cut at the first level whose own bound holds; a window whose last
    level fails its own bound is refused. The series for B_0 = f_0(nu, y)
    is summed once.
    """
    log_b0, _, _, terms, ok = next(
        zip(*_kernels.series_logsums((1.0 + 2.0 * n_th) / C, n_th / C))
    )
    if not ok:
        raise _budget_error(C, n_th, terms)
    if m_max is not None:
        return _window(C, n_th, m_max, log_b0, log_f2)
    m_max = _bound_window(C, n_th, log_b0 - log_f2)
    p = _window(C, n_th, m_max, log_b0, log_f2)
    with np.errstate(over="ignore"):  # 1 + C m past the floats: the bound is 0
        held = p * n_th / (1.0 + C * np.arange(m_max + 1.0)) <= _TAIL_TOL
    if not held[-1]:
        raise NotConverged(
            f"populations at C={C:g}, n_th={n_th:g}: the tail bound fails at "
            f"the end of the {m_max}-level window sized for it",
            terms_used=m_max,
        )
    return p[: int(np.argmax(held)) + 1]


def phonon_populations_exact(C: float, n_th: float, m_max: int | None = None) -> np.ndarray:
    """Fock populations P(0..m_max) of the exact steady state.

    Evaluates the analytically normalized double series described in the
    module docstring through its backward recurrence: one series for B_0, one
    bracketed continued-fraction pass for the level ratios, and one series for
    the normalizer f_0(nu, 2y), which also gives the mean occupation. The
    returned vector is the exact P(m) truncated at ``m_max`` (default: the
    first level m whose flux-balance tail bound P_m n_th/(1 + C m) is at most
    1e-12) — its shortfall from 1 is true tail mass, reported by
    :func:`steady_state_exact` in the diagnostics, never renormalized away.
    A series or a recurrence that needs more than the term budget raises
    :class:`NotConverged`; so does a window too wide for it, before that
    window's first level is computed. At ``n_th = 0`` it is the ground state,
    ``[1.0]`` padded with zeros to an explicit ``m_max``.
    """
    return steady_state_exact(C, n_th, m_max).populations


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


def steady_state_exact(C: float, n_th: float, m_max: int | None = None) -> SteadyStateReport:
    """Full report: mean occupation, g2, populations, regime, diagnostics."""
    C, n_th = _check_cn(C, n_th)
    if n_th == 0.0:
        # every q_m is 0 here, so the window rule ends the window at level 0
        m_max = _kernels.check_window(0 if m_max is None else m_max, "ground state")
        populations = np.zeros(m_max + 1)
        populations[0] = 1.0
        return SteadyStateReport(
            n_ss=0.0,
            g2=None,
            populations=populations,
            regime=Regime.VACUUM,
            diagnostics={"model": "exact", "population_tail": 0.0},
        )
    n_ss, g2, sums = _observables(C, n_th)
    populations = _populations(C, n_th, m_max, sums.log_f)
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
            "m_max": populations.size - 1,
        },
    )
