"""Low-level kernels for the reciprocal-gamma series and the population sums.

The series kernels evaluate sums of the shape

    S_j(nu, x) = sum_{k>=0} w_j(k) * x**k / Gamma(nu + k)

in log space: terms are generated as ``exp(k*log(x) - lgamma(nu+k))`` relative
to a running peak, because at large ``x`` the terms span hundreds of orders of
magnitude. All summands are nonnegative, and the term sequence is strictly
log-concave in ``k`` (term ratios are products of decreasing positive factors),
so the peak is unique: "past the peak" is detected exactly by the first
non-increasing term, and termination applies the relative tolerance only there.

S_j has two interchangeable lanes:

* a numba lane — scalar ``@njit`` loops, one ``math.lgamma`` per term, online
  peak rescaling, Kahan-compensated accumulation;
* a numpy lane — chunked vectorized terms via ``scipy.special.gammaln``, the
  analytic peak as the shift, ascending sort + pairwise sum per chunk, chunk
  partials combined with ``math.fsum``.

The numba lane is the default when numba imports; set the environment variable
``PHONON_STATS_NO_NUMBA=1`` to force the numpy lane. The lanes agree to
~1e-13 relative at moderate arguments (pinned by tests), degrading to ~1e-10
by x ~ 1e5 where ulp-level lgamma disagreement on ~1e6-sized values stops
cancelling; ``terms_used`` may differ (the numpy lane evaluates a small
analytic overshoot past the peak).

The per-level population sums

    T_m(nu, y) = sum_{k>=m} [k!/(k-m)!] * y**k / Gamma(nu + k)

have a single lane: one S_0 anchor and a backward continued fraction for the
ratios T_{m+1}/T_m (Miller's algorithm), with the start depth chosen by
:func:`backward_ratios`, which the high-temperature moment table shares.
"""

from __future__ import annotations

import math
import os

import numpy as np
from scipy.special import gammaln

_NINF = float("-inf")

try:
    if os.environ.get("PHONON_STATS_NO_NUMBA", "").strip() not in ("", "0"):
        raise ImportError("numba disabled via PHONON_STATS_NO_NUMBA")
    from numba import njit

    HAS_NUMBA = True
except ImportError:
    HAS_NUMBA = False

    def njit(*args, **kwargs):  # no-op decorator so the source below still defines
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap


# ---------------------------------------------------------------------------
# numba lane (compiled when available; the undecorated python versions are
# never used directly — the numpy lane below is the fallback)
# ---------------------------------------------------------------------------


@njit(cache=True)
def _series_logsums_scalar(nu, x, rel_tol, max_terms):
    if x == 0.0:
        return -math.lgamma(nu), _NINF, _NINF, 1, True
    lx = math.log(x)
    shift = -math.lgamma(nu)  # log of the k = 0 term
    s0 = 1.0
    c0 = 0.0
    s1 = 0.0
    c1 = 0.0
    s2 = 0.0
    c2 = 0.0
    prev_ell = shift
    past_peak = False
    k = 1
    while k <= max_terms:
        ell = k * lx - math.lgamma(nu + k)
        if ell <= prev_ell:
            past_peak = True
        if ell > shift:
            f = math.exp(shift - ell)
            s0 *= f
            c0 *= f
            s1 *= f
            c1 *= f
            s2 *= f
            c2 *= f
            shift = ell
        t = math.exp(ell - shift)
        kf = float(k)
        w1 = kf * t
        w2 = kf * (kf - 1.0) * t
        # Kahan updates
        y = t - c0
        tmp = s0 + y
        c0 = (tmp - s0) - y
        s0 = tmp
        y = w1 - c1
        tmp = s1 + y
        c1 = (tmp - s1) - y
        s1 = tmp
        y = w2 - c2
        tmp = s2 + y
        c2 = (tmp - s2) - y
        s2 = tmp
        if past_peak and t <= rel_tol * s0 and w1 <= rel_tol * s1 and w2 <= rel_tol * s2:
            l1 = math.log(s1) + shift if s1 > 0.0 else _NINF
            l2 = math.log(s2) + shift if s2 > 0.0 else _NINF
            return math.log(s0) + shift, l1, l2, k + 1, True
        prev_ell = ell
        k += 1
    l1 = math.log(s1) + shift if s1 > 0.0 else _NINF
    l2 = math.log(s2) + shift if s2 > 0.0 else _NINF
    return math.log(s0) + shift, l1, l2, max_terms + 1, False


# ---------------------------------------------------------------------------
# numpy lane
# ---------------------------------------------------------------------------

_CHUNK = 1 << 18


def _series_logsums_numpy(nu, x, rel_tol, max_terms):
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
            and t_last <= rel_tol * s0
            and w1_last <= rel_tol * s1
            and w2_last <= rel_tol * s2
        )
        if ok or n_hi >= max_terms:
            # s0 is 0 only when the cap falls before the analytic peak and
            # every evaluated term underflows against it (never when ok)
            l0, l1, l2 = (math.log(s) + gmax if s > 0.0 else _NINF for s in (s0, s1, s2))
            return l0, l1, l2, n_hi + 1, ok
        n_hi = int(min(max_terms, 2 * n_hi))


# ---------------------------------------------------------------------------
# dispatch (series only)
# ---------------------------------------------------------------------------

_series_impl = _series_logsums_scalar if HAS_NUMBA else _series_logsums_numpy


def series_logsums(nu, x, rel_tol=1e-18, max_terms=10_000_000):
    """Return (log_s0, log_s1, log_s2, terms_used, converged) for S_j(nu, x)."""
    return _series_impl(float(nu), float(x), float(rel_tol), int(max_terms))


def series_logsums_numpy(nu, x, rel_tol=1e-18, max_terms=10_000_000):
    """numpy lane, always available (lane-equivalence tests)."""
    return _series_logsums_numpy(float(nu), float(x), float(rel_tol), int(max_terms))


series_logsums_numba = _series_logsums_scalar if HAS_NUMBA else None


# ---------------------------------------------------------------------------
# backward recurrences (one lane)
# ---------------------------------------------------------------------------


# the backward ratios are accepted once a doubled start depth moves none of
# them by more than this, relative
_RATIO_TOL = 1e-15


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


def population_logsums(nu, y, m_max, rel_tol=1e-18, max_terms=10_000_000):
    """Return (log_T[0..m_max], terms_used, converged) for the population sums.

    The sums obey  y(n+1) T_n = (nu - y + n) T_{n+1} + T_{n+2}  (the
    birth-death flux balance of the steady state), and T is its minimal
    solution, so the ratios rho_n = T_{n+1}/T_n follow from the backward
    continued fraction

        rho_n = y(n+1) / (nu - y + n + rho_{n+1}),

    in which every term is positive when nu > y (in the application
    nu - y = (1 + n_th)/C). T_0 = S_0(nu, y) anchors the chain. ``rel_tol``
    goes to that anchor series; ``terms_used`` counts its terms plus the
    backward levels run, and ``max_terms`` caps each of the two.
    """
    nu, y, m_max = float(nu), float(y), int(m_max)
    log_t = np.empty(m_max + 1)
    if y == 0.0:
        log_t[0] = -math.lgamma(nu)
        log_t[1:] = _NINF
        return log_t, 1, True
    log_t[0], _, _, terms, ok = series_logsums(nu, y, rel_tol, max_terms)
    rho, levels, ok_rho = backward_ratios(y, nu - y, 1.0, m_max, max_terms)
    log_t[1:] = log_t[0] + np.cumsum(np.log(rho))
    return log_t, terms + levels, ok and ok_rho
