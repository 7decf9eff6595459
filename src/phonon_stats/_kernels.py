"""Low-level kernels for the reciprocal-gamma series and the population sums.

The series kernel evaluates sums of the shape

    S_j(nu, x) = sum_{k>=0} w_j(k) * x**k / Gamma(nu + k)

in log space: terms are generated as ``exp(k*log(x) - lgamma(nu+k))`` relative
to the analytic peak, because at large ``x`` the terms span hundreds of orders
of magnitude. All summands are nonnegative, and the term sequence is strictly
log-concave in ``k`` (term ratios are products of decreasing positive factors),
so the peak is unique and sits at the stationary point k ~ x - nu + 1/2.
Terms are evaluated in vectorized chunks via ``scipy.special.gammaln``; each
chunk is sorted ascending and summed pairwise, and the chunk partials are
combined with ``math.fsum``. The summed range first ends about
12*sqrt(x) terms past the peak and doubles until its last term falls below
``_SERIES_TOL`` relative to each sum, or until ``max_terms``.

The per-level population sums

    T_m(nu, y) = sum_{k>=m} [k!/(k-m)!] * y**k / Gamma(nu + k)

come from one S_0 anchor and a backward continued fraction for the ratios
T_{m+1}/T_m (Miller's algorithm), with the start depth chosen by
:func:`backward_ratios`, which the high-temperature moment table shares.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

_NINF = float("-inf")

_CHUNK = 1 << 18

# the series stops once its last term is below this, relative to each sum
_SERIES_TOL = 1e-18

# the backward ratios are accepted once a doubled start depth moves none of
# them by more than this, relative
_RATIO_TOL = 1e-15


def series_logsums(nu, x, max_terms=10_000_000):
    """Return (log_s0, log_s1, log_s2, terms_used, converged) for S_j(nu, x)."""
    nu, x, max_terms = float(nu), float(x), int(max_terms)
    if x == 0.0:
        return -math.lgamma(nu), _NINF, _NINF, 1, True
    lx = math.log(x)
    kc = max(x - nu + 0.5, 0.0)  # stationary point of k*lx - lgamma(nu+k)
    cand = {0, int(kc), int(kc) + 1, max(int(kc) - 1, 0)}
    gmax = max(k * lx - math.lgamma(nu + k) for k in cand)
    n_hi = int(min(max_terms, math.ceil(kc + 12.0 * math.sqrt(x + 10.0) + 60.0)))
    while True:
        p0 = []
        p1 = []
        p2 = []
        t_last = w1_last = w2_last = 0.0
        for start in range(0, n_hi + 1, _CHUNK):
            k = np.arange(start, min(start + _CHUNK, n_hi + 1), dtype=np.float64)
            ell = k * lx - gammaln(nu + k)
            e = np.exp(ell - gmax)
            p0.append(np.sort(e).sum())
            p1.append(np.sort(k * e).sum())
            p2.append(np.sort(k * (k - 1.0) * e).sum())
            t_last = e[-1]
            w1_last = k[-1] * e[-1]
            w2_last = k[-1] * (k[-1] - 1.0) * e[-1]
        s0 = math.fsum(p0)
        s1 = math.fsum(p1)
        s2 = math.fsum(p2)
        ok = (
            n_hi > kc
            and t_last <= _SERIES_TOL * s0
            and w1_last <= _SERIES_TOL * s1
            and w2_last <= _SERIES_TOL * s2
        )
        if ok or n_hi >= max_terms:
            # s0 is 0 only when the cap falls before the analytic peak and
            # every evaluated term underflows against it (never when ok)
            l0, l1, l2 = (math.log(s) + gmax if s > 0.0 else _NINF for s in (s0, s1, s2))
            return l0, l1, l2, n_hi + 1, ok
        n_hi = int(min(max_terms, 2 * n_hi))


# ---------------------------------------------------------------------------
# backward recurrences
# ---------------------------------------------------------------------------


def backward_ratios(p, q, s, n_ratios, max_terms=10_000_000):
    """Miller's backward algorithm for x_k = p(k+1) / (q + s k + x_{k+1}).

    Returns the first ``n_ratios`` ratios x_0..x_{n_ratios-1} of the minimal
    solution. Every term is positive for p, q > 0 and s >= 0. Each run starts
    from a zero tail ratio at level ``depth`` and goes down to level 0; the
    result stops depending on ``depth`` once it is deep enough, so the depth
    starts at 2*n_ratios + 50 and doubles until two successive runs agree to
    ``_RATIO_TOL`` relative, or until ``max_terms`` levels are reached (a cap
    of 2*n_ratios + 50 or less leaves no room for the check).

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

    depth = min(2 * n_ratios + 50, max_terms)
    ratios = run(depth)
    levels = depth
    while depth < max_terms:
        depth = min(2 * depth, max_terms)
        prev, ratios = ratios, run(depth)
        levels += depth
        if np.all(np.abs(ratios - prev) <= _RATIO_TOL * ratios):
            return ratios, levels, True
    return ratios, levels, False


def population_logsums(nu, y, m_max, max_terms=10_000_000):
    """Return (log_T[0..m_max], terms_used, converged) for the population sums.

    The sums obey  y(n+1) T_n = (nu - y + n) T_{n+1} + T_{n+2}  (the
    birth-death flux balance of the steady state), and T is its minimal
    solution, so the ratios rho_n = T_{n+1}/T_n follow from the backward
    continued fraction

        rho_n = y(n+1) / (nu - y + n + rho_{n+1}),

    in which every term is positive when nu > y (in the application
    nu - y = (1 + n_th)/C). T_0 = S_0(nu, y) anchors the chain;
    ``terms_used`` counts its terms plus the backward levels run, and
    ``max_terms`` caps each of the two.
    """
    nu, y, m_max = float(nu), float(y), int(m_max)
    log_t = np.empty(m_max + 1)
    if y == 0.0:
        log_t[0] = -math.lgamma(nu)
        log_t[1:] = _NINF
        return log_t, 1, True
    log_t[0], _, _, terms, ok = series_logsums(nu, y, max_terms)
    rho, levels, ok_rho = backward_ratios(y, nu - y, 1.0, m_max, max_terms)
    log_t[1:] = log_t[0] + np.cumsum(np.log(rho))
    return log_t, terms + levels, ok and ok_rho
