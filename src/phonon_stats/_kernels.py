"""Low-level kernels for the reciprocal-gamma series and the population sums.

The series kernel evaluates the Kummer sums

    f_j(nu, x) = sum_{k>=0} w_j(k) t_k,   t_0 = 1,   t_{k+1}/t_k = x/(nu + k),

with w_0 = 1, w_1 = k, w_2 = k(k-1); f_0 = 1F1(1; nu; x) = Gamma(nu) S_0(nu, x)
(DLMF 13.2.2). No gamma function enters: log t_k is a cumulative sum of the
exact log ratios log1p((x - nu - k)/(nu + k)), anchored at the peak index
k* = max(0, floor(x - nu) + 1) that the ratio gives. The terms are positive,
so each chunk is summed pairwise and the chunk partials with ``math.fsum``.
The range first ends min(12 sqrt(x + 10), 45 nu/(nu - x)) + 60 terms past
the peak, the second bound where nu > x: every ratio is then at most x/nu,
and 45 nu/(nu - x) >= 45/log(nu/x) terms fall below 1e-19. It doubles until
its last term falls below ``_SERIES_TOL`` relative to each sum, or until
``_MAX_TERMS``. The kernel returns log f_0 and the ratios f_1/f_0 and f_2/f_0,
so the observables never meet the scale log Gamma(nu) ~ nu log nu.

The per-level population sums B_m(nu, y) = sum_{k>=m} C(k, m) t_k come from
the anchor B_0 = f_0(nu, y) and a backward continued fraction for the ratios
(m+1) B_{m+1}/B_m (Miller's algorithm), run by :func:`backward_ratios`, which
the high-temperature moment table shares. Its fractions are positive, so two
runs from a zero tail at adjacent depths bracket the minimal solution; the
depth grows until that bracket closes, and one run carries it down.

``_MAX_TERMS``, the one budget of series terms and recurrence levels on both
analytic routes, is read at call time, so a test can lower it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NotConverged

_CHUNK = 1 << 18

# the series stops once its last term is below this, relative to each sum
_SERIES_TOL = 1e-18

# the backward ratios are accepted once their bracket is this narrow, relative
_RATIO_TOL = 1e-15

# levels run below the window before the bracket is first checked; doubled
# until it closes
_EXCESS = 64

_MAX_TERMS = 10_000_000


def _log_ratios(nu, x, d, i):
    """log(t_{i+1}/t_i) = log(x/(nu + i)) at the indices ``i``, d = x - nu.

    ``i`` is monotone (a chunk of consecutive indices, either direction).

    log1p(a), a = (d - i)/(nu + i), keeps the small logs near the peak
    accurate; where the ratio 1 + a is below 1/2, a is near -1 and 1 + a has
    lost digits, so the log of the ratio itself is taken there, or
    log x - log(nu + i) where the ratio underflows to 0.
    """
    den = nu + i
    a = (d - i) / den
    lr = np.log1p(np.maximum(a, -0.5))
    low = a < -0.5
    if low.any():
        ratio = x / den[low]
        if ratio[0] and ratio[-1]:  # the smallest ratio is at one end
            lr[low] = np.log(ratio)
        else:
            split = math.log(x) - np.log(den[low])
            lr[low] = np.log(ratio, out=split, where=ratio > 0.0)
    return lr


def series_logsums(nu, x):
    """Return (log_f0, m1, m2, terms_used, converged) for the Kummer sums.

    m1 = f_1/f_0 and m2 = f_2/f_0. When the budget falls at or before the
    peak, nothing is summed and the sums are NaN (with ``converged`` False).
    """
    nu, x, cap = float(nu), float(x), _MAX_TERMS
    if x == 0.0:
        return 0.0, 0.0, 0.0, 1, True
    d = x - nu
    k_peak = max(0, math.floor(d) + 1)
    width = 12.0 * math.sqrt(x + 10.0)
    if nu > x:  # every ratio x/(nu + k) is at most x/nu
        width = min(width, 45.0 * nu / (nu - x))
    n_hi = int(min(cap, math.ceil(k_peak + width + 60.0)))
    if n_hi <= k_peak:
        return math.nan, math.nan, math.nan, n_hi + 1, False
    parts = ([1.0], [float(k_peak)], [k_peak * (k_peak - 1.0)])  # the peak term

    def add(k, ell):  # ell = log(t_k/t_peak) for the chunk k; returns its last
        e = np.exp(ell)
        for part, w in zip(parts, (e, k * e, k * (k - 1.0) * e)):
            part.append(w.sum())
        return ell[-1]

    ell = 0.0
    for hi in range(k_peak, 0, -_CHUNK):  # below the peak, downward from it
        i = np.arange(hi - 1.0, max(hi - _CHUNK, 0) - 1.0, -1.0)
        ell = add(i, ell - np.cumsum(_log_ratios(nu, x, d, i)))
    log_peak, ell, done = -ell, 0.0, k_peak
    while True:  # above the peak, extended until the stop rule holds
        for lo in range(done, n_hi, _CHUNK):
            i = np.arange(lo, min(lo + _CHUNK, n_hi), dtype=np.float64)
            ell = add(i + 1.0, ell + np.cumsum(_log_ratios(nu, x, d, i)))
        done = n_hi
        s0, s1, s2 = (math.fsum(part) for part in parts)
        t_last = math.exp(ell)
        ok = (
            t_last <= _SERIES_TOL * s0
            and n_hi * t_last <= _SERIES_TOL * s1
            and n_hi * (n_hi - 1.0) * t_last <= _SERIES_TOL * s2
        )
        if ok or n_hi >= cap:
            return log_peak + math.log(s0), s1 / s0, s2 / s0, n_hi + 1, ok
        n_hi = int(min(cap, 2 * n_hi))


# ---------------------------------------------------------------------------
# backward recurrences
# ---------------------------------------------------------------------------


def check_window(m_max, what, *args):
    """Return ``m_max`` as an int once the window 0..m_max is valid and fits.

    Raises :class:`NotConverged` before any work when the first backward depth
    for its ``m_max`` ratios, ``m_max + _EXCESS``, already reaches
    ``_MAX_TERMS``. ``what % args`` names the window in the message; it is
    formatted only on failure, since the check runs per point. A float
    ``m_max`` is compared before it is converted, so an infinite (or nan)
    window is refused by the budget, not by ``int()``.
    """
    if not m_max + _EXCESS < _MAX_TERMS:
        raise NotConverged(
            f"{what % args}: a window of {m_max} levels does not fit the "
            f"{_MAX_TERMS}-term budget",
            terms_used=_MAX_TERMS,
        )
    m_max = int(m_max)
    if m_max < 0:
        raise DomainError(f"{what % args}: the window end must be >= 0, got {m_max!r}")
    return m_max


def backward_ratios(p, q, s, n_ratios):
    """Minimal solution of x_k = p(k+1) / (q + s k + x_{k+1}), k < n_ratios.

    For p, q > 0 and s >= 0 the map is positive and decreasing in x_{k+1}, so
    the runs from a zero tail x_D = 0 and x_{D-1} = 0 bracket the minimal
    solution at every level below D-1 (the alternating convergents of a
    positive continued fraction; Jones & Thron, Continued Fractions, 1980,
    ch. 4; Gautschi, SIAM Rev. 9, 24 (1967)). Both lanes run in one loop from
    D = n_ratios + ``_EXCESS`` to the top level n_ratios - 1, and the excess
    doubles until their relative gap there is at most ``_RATIO_TOL``, or until
    D reaches ``_MAX_TERMS``. For c > 0, |log((c+u)/(c+v))| < |log(u/v)|, so
    the gap only narrows further down: one lane carries the midpoint of the
    bracket from the top level to level 0.

    Returns (ratios, levels_run, converged, width): ``levels_run`` counts the
    levels visited, a level both lanes run once; ``width`` is the final
    relative gap at the top level, which bounds the relative error of every
    returned ratio up to roundoff.
    """
    top = n_ratios - 1
    if top < 0:
        return np.empty(0), 0, True, 0.0
    excess, levels = _EXCESS, 0
    while True:
        depth = min(n_ratios + excess, _MAX_TERMS)
        lo, hi = 0.0, p * depth / (q + s * (depth - 1))  # x_{D-1} on each lane
        for k in range(depth - 2, top - 1, -1):
            num, den = p * (k + 1), q + s * k
            lo, hi = num / (den + hi), num / (den + lo)
        levels += depth - top
        gap = hi - lo
        width = gap / lo if lo > 0.0 else (math.inf if gap > 0.0 else 0.0)
        converged = width <= _RATIO_TOL
        if converged or depth >= _MAX_TERMS:
            break
        excess *= 2
    out = np.empty(n_ratios)
    out[top] = x = 0.5 * (lo + hi)
    for k in range(top - 1, -1, -1):
        x = p * (k + 1) / (q + s * k + x)
        out[k] = x
    return out, levels + top, converged, width


def population_logsums(nu, y, m_max):
    """Return (log_B[0..m_max], terms_used, converged) for the population sums.

    With T_m = m! B_m / Gamma(nu), the sums obey
    y(n+1) T_n = (nu - y + n) T_{n+1} + T_{n+2}  (the birth-death flux
    balance of the steady state), and T is its minimal solution, so the
    ratios rho_n = T_{n+1}/T_n = (n+1) B_{n+1}/B_n follow from the backward
    continued fraction

        rho_n = y(n+1) / (nu - y + n + rho_{n+1}),

    in which every term is positive when nu > y (in the application
    nu - y = (1 + n_th)/C). B_0 = f_0(nu, y) anchors the chain;
    ``terms_used`` counts its terms plus the backward levels run, and
    ``_MAX_TERMS`` caps each of the two.
    """
    nu, y, m_max = float(nu), float(y), int(m_max)
    log_b = np.empty(m_max + 1)
    log_b[0], _, _, terms, ok = series_logsums(nu, y)
    rho, levels, ok_rho, _ = backward_ratios(y, nu - y, 1.0, m_max)
    log_b[1:] = log_b[0] + np.cumsum(np.log(rho / np.arange(1.0, m_max + 1.0)))
    return log_b, terms + levels, ok and ok_rho
