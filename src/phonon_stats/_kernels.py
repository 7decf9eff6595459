"""Low-level kernels for the reciprocal-gamma series and the population sums.

The series kernel evaluates the Kummer sums

    f_j(nu, x) = sum_{k>=0} w_j(k) t_k,   t_0 = 1,   t_{k+1}/t_k = x/(nu + k),

with w_0 = 1, w_1 = k, w_2 = k(k-1); f_0 = 1F1(1; nu; x) = Gamma(nu) S_0(nu, x)
(DLMF 13.2.2). No gamma function enters: log t_k is a cumulative sum of the
exact log ratios log1p((x - nu - k)/(nu + k)), anchored at the peak index
k* = max(0, floor(x - nu) + 1) that the ratio gives. The terms are positive,
so each chunk is summed pairwise and the chunk partials with ``math.fsum``.
The range first ends about 12*sqrt(x) terms past the peak and doubles until
its last term falls below ``_SERIES_TOL`` relative to each sum, or until
``_MAX_TERMS``. The kernel returns log f_0 and the ratios f_1/f_0 and f_2/f_0,
so the observables never meet the scale log Gamma(nu) ~ nu log nu.

The per-level population sums B_m(nu, y) = sum_{k>=m} C(k, m) t_k come from
the anchor B_0 = f_0(nu, y) and a backward continued fraction for the ratios
(m+1) B_{m+1}/B_m (Miller's algorithm), with the start depth chosen by
:func:`backward_ratios`, which the high-temperature moment table shares.

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

# the backward ratios are accepted once a doubled start depth moves none of
# them by more than this, relative
_RATIO_TOL = 1e-15

_MAX_TERMS = 10_000_000


def _log_ratios(nu, x, d, i):
    """log(t_{i+1}/t_i) = log(x/(nu + i)) at the indices ``i``, d = x - nu.

    log1p(a), a = (d - i)/(nu + i), keeps the small logs near the peak
    accurate; where the ratio 1 + a is below 1/2, a is near -1 and 1 + a has
    lost digits, so the log of the ratio itself is taken there.
    """
    den = nu + i
    a = (d - i) / den
    lr = np.log1p(np.maximum(a, -0.5))
    low = a < -0.5
    if low.any():
        lr[low] = np.log(x / den[low])
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
    n_hi = int(min(cap, math.ceil(k_peak + 12.0 * math.sqrt(x + 10.0) + 60.0)))
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


def first_depth(n_ratios):
    """Start depth of :func:`backward_ratios`; its check needs a deeper run."""
    return 2 * n_ratios + 50


def check_window(m_max, what, *args):
    """Return ``m_max`` as an int once the window 0..m_max is valid and fits.

    Raises :class:`NotConverged` before any work when the first backward depth
    for its ``m_max`` ratios already reaches ``_MAX_TERMS``, which leaves no
    room for the doubling check. ``what % args`` names the window in the
    message; it is formatted only on failure, since the check runs per point.
    """
    m_max = int(m_max)
    if m_max < 0:
        raise DomainError(f"{what % args}: the window end must be >= 0, got {m_max!r}")
    if first_depth(m_max) >= _MAX_TERMS:
        raise NotConverged(
            f"{what % args}: a window of {m_max} levels does not fit the "
            f"{_MAX_TERMS}-term budget",
            terms_used=_MAX_TERMS,
        )
    return m_max


def backward_ratios(p, q, s, n_ratios):
    """Miller's backward algorithm for x_k = p(k+1) / (q + s k + x_{k+1}).

    Returns the first ``n_ratios`` ratios x_0..x_{n_ratios-1} of the minimal
    solution. Every term is positive for p, q > 0 and s >= 0. Each run starts
    from a zero tail ratio at level ``depth`` and goes down to level 0; the
    result stops depending on ``depth`` once it is deep enough, so the depth
    starts at :func:`first_depth` (2*n_ratios + 50) and doubles until two
    successive runs agree to ``_RATIO_TOL`` relative, or until the depth
    reaches ``_MAX_TERMS``.

    Returns (ratios, levels_run, converged); ``levels_run`` sums the depths
    of all runs.
    """

    def run(depth):
        x = 0.0
        for k in range(depth - 1, n_ratios - 1, -1):
            x = p * (k + 1) / (q + s * k + x)
        out = np.empty(n_ratios)
        for k in range(n_ratios - 1, -1, -1):
            x = p * (k + 1) / (q + s * k + x)
            out[k] = x
        return out

    depth = min(first_depth(n_ratios), _MAX_TERMS)
    ratios = run(depth)
    levels = depth
    while depth < _MAX_TERMS:
        depth = min(2 * depth, _MAX_TERMS)
        prev, ratios = ratios, run(depth)
        levels += depth
        if np.all(np.abs(ratios - prev) <= _RATIO_TOL * ratios):
            return ratios, levels, True
    return ratios, levels, False


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
    rho, levels, ok_rho = backward_ratios(y, nu - y, 1.0, m_max)
    log_b[1:] = log_b[0] + np.cumsum(np.log(rho / np.arange(1.0, m_max + 1.0)))
    return log_b, terms + levels, ok and ok_rho
