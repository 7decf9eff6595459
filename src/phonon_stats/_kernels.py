"""Low-level kernels for the reciprocal-gamma series and the population sums.

The series kernel evaluates the Kummer sums

    f_j(nu, x) = sum_{k>=0} w_j(k) t_k,   t_0 = 1,   t_{k+1}/t_k = x/(nu + k),

with w_0 = 1, w_1 = k, w_2 = k(k-1); f_0 = 1F1(1; nu; x) = Gamma(nu) S_0(nu, x)
(DLMF 13.2.2), for 0 <= x <= nu. No gamma function enters: log t_k is a
cumulative sum of the exact log ratios log1p((x - nu - k)/(nu + k)) from
t_0 = 1. In the application nu - x = 1/C (and nu - y = (1 + n_th)/C for the
population anchor f_0(nu, y)), so every ratio is at most 1 and the first
term is the largest. The terms are positive, so each chunk is summed
pairwise and the chunk partials with ``math.fsum``. The range first ends
min(12 sqrt(x + 10), 45 nu/(nu - x)) + 60 terms in, the second bound where
nu > x: every ratio is then at most x/nu, and 45 nu/(nu - x) >= 45/log(nu/x)
terms fall below 1e-19. It doubles until its last term falls below
``_SERIES_TOL`` relative to each sum, or until ``_MAX_TERMS``. The kernel
returns log f_0 and the ratios f_1/f_0 and f_2/f_0, so the observables never
meet the scale log Gamma(nu) ~ nu log nu.

The kernel takes its points as rows and evaluates them together: each round
takes every pending row's next chunk of at most ``_CHUNK`` terms, sorts the
chunks by length and stacks chunks of similar length into 2-D blocks of at
most ``_CHUNK`` elements, whose log ratios, row-wise cumulative sums,
exponentials and weights are single numpy calls. Each row sums its chunk
over its own length and keeps its own chunk boundaries and doubling rounds,
so every row of a batched call equals the call with that row alone, bit for
bit. The one-point callers pass one row, through the same block code.

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
from operator import itemgetter

import numpy as np

from .errors import DomainError, NotConverged

# terms in one chunk of a row, and elements in one 2-D block of stacked
# chunks; at 2^18 a long row ran three times slower, its temporaries faulted
# in afresh for every chunk
_CHUNK = 1 << 14

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

    ``i`` holds one chunk of consecutive indices per row; ``nu``, ``x`` and
    ``d`` are columns, one value per row.

    log1p(a), a = (d - i)/(nu + i), keeps the small logs of ratios near 1
    accurate; where the ratio 1 + a is below 1/2, a is near -1 and 1 + a has
    lost digits, so the log of the ratio itself is taken there, or
    log x - log(nu + i) where the ratio underflows to 0.
    """
    den = nu + i
    a = (d - i) / den
    lr = np.log1p(np.maximum(a, -0.5))
    low = a < -0.5
    if np.count_nonzero(low):
        ratio = (x / den)[low]
        if np.count_nonzero(ratio) == ratio.size:
            lr[low] = np.log(ratio)
        else:
            log_x = np.vectorize(math.log, otypes=[np.float64])(x)
            split = (log_x - np.log(den))[low]
            lr[low] = np.log(ratio, out=split, where=ratio > 0.0)
    return lr


class _Row:
    """One row's state: the next index ``lo``, the end ``n_hi`` of its
    current range, the log ``ell`` of its last term, and the partials of its
    three sums, one triple per chunk."""

    __slots__ = ("index", "nu", "x", "d", "lo", "n_hi", "ell", "parts")

    def __init__(self, index, nu, x, n_hi):
        self.index, self.nu, self.x, self.d = index, nu, x, x - nu
        self.lo, self.n_hi, self.ell = 0, n_hi, 0.0
        self.parts = [(1.0, 0.0, -0.0)]  # the term t_0 = 1


def _chunks(rows, sizes):
    """Sum the next ``sizes[r]`` terms of each row in one 2-D block.

    A chunk runs upward from ``lo``. Each row appends the pairwise sums of
    its chunk over its own length, so its partials do not depend on the
    other rows.
    """
    width = sizes[0]
    lo, nu, x, d, ell0 = np.array([(r.lo, r.nu, r.x, r.d, r.ell) for r in rows]).T[:, :, None]
    i = lo + np.arange(width, dtype=np.float64)
    # the chunk's log ratios lead to the terms k = i + 1
    ell = _log_ratios(nu, x, d, i).cumsum(1)
    ell += ell0
    k = i + 1.0
    w = np.empty((3,) + ell.shape)  # t_k, k t_k, k(k-1) t_k
    e = np.exp(ell, w[0])
    np.multiply(k, e, w[1])
    np.multiply(k * i, e, w[2])
    w = w.reshape(3, -1)
    for start, row, n in zip(range(0, ell.size, width), rows, sizes):
        row.parts.append(np.add.reduce(w[:, start : start + n], 1).tolist())
        row.lo += n
        row.ell = ell.item(start + n - 1)


def _blocks(rows):
    """(rows, sizes) per block: the rows' next chunks, longest first, cut
    into blocks of chunks at least half as long as the block's first and of
    at most ``_CHUNK`` elements."""
    todo = sorted(((min(_CHUNK, r.n_hi - r.lo), r) for r in rows), key=itemgetter(0), reverse=True)
    blocks = []
    for n, row in todo:
        if blocks and 2 * n >= width and (len(sizes) + 1) * width <= _CHUNK:
            block.append(row)
            sizes.append(n)
        else:
            block, sizes, width = [row], [n], n
            blocks.append((block, sizes))
    return blocks


def series_logsums(nu, x):
    """Return (log_f0, m1, m2, terms_used, converged) for the Kummer sums.

    ``nu`` and ``x`` are 1-D arrays with one row per point, each with
    0 <= x <= nu (the callers check it); each returned item is a tuple with
    one entry per row: m1 = f_1/f_0 and m2 = f_2/f_0. A row that does not
    converge within the budget has NaN sums and ``converged`` False.

    All rows run together (see the module docstring): each round stacks the
    rows' next chunks into blocks of at most ``_CHUNK`` elements
    (:func:`_blocks`), and every row equals the call with that row alone,
    bit for bit. A float ``nu`` and ``x`` are one row.
    """
    nu = np.array(nu, dtype=np.float64, ndmin=1).tolist()
    x = np.array(x, dtype=np.float64, ndmin=1).tolist()
    cap, nan = _MAX_TERMS, math.nan
    out = [(0.0, 0.0, 0.0, 1, True)] * len(nu)  # the row at x = 0
    rows = []
    for index, (nu_r, x_r) in enumerate(zip(nu, x)):
        if x_r == 0.0:
            continue
        width = 12.0 * math.sqrt(x_r + 10.0)
        if nu_r > x_r:  # every ratio x/(nu + k) is at most x/nu
            width = min(width, 45.0 * nu_r / (nu_r - x_r))
        n_hi = int(min(cap, math.ceil(width + 60.0)))
        rows.append(_Row(index, nu_r, x_r, n_hi))
    while rows:  # each range extended until the stop rule holds
        for block, sizes in _blocks(rows):
            _chunks(block, sizes)
        pending = []
        for row in rows:
            n_hi = row.n_hi
            if row.lo < n_hi:  # a range longer than one chunk
                pending.append(row)
                continue
            s0, s1, s2 = map(math.fsum, zip(*row.parts))
            t_last = math.exp(row.ell)
            ok = (
                t_last <= _SERIES_TOL * s0
                and n_hi * t_last <= _SERIES_TOL * s1
                and n_hi * (n_hi - 1.0) * t_last <= _SERIES_TOL * s2
            )
            if ok:
                out[row.index] = (math.log(s0), s1 / s0, s2 / s0, n_hi + 1, True)
            elif n_hi >= cap:
                out[row.index] = (nan, nan, nan, n_hi + 1, False)
            else:
                row.n_hi = int(min(cap, 2 * n_hi))
                pending.append(row)
        rows = pending
    return tuple(zip(*out)) or ((),) * 5


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


def population_logsums(nu, y, m_max, log_b0):
    """Return (log_B[0..m_max], levels_run, converged) for the population sums.

    With T_m = m! B_m / Gamma(nu), the sums obey
    y(n+1) T_n = (nu - y + n) T_{n+1} + T_{n+2}  (the birth-death flux
    balance of the steady state), and T is its minimal solution, so the
    ratios rho_n = T_{n+1}/T_n = (n+1) B_{n+1}/B_n follow from the backward
    continued fraction

        rho_n = y(n+1) / (nu - y + n + rho_{n+1}),

    in which every term is positive when nu > y (in the application
    nu - y = (1 + n_th)/C). The caller's ``log_b0`` = log f_0(nu, y) (the
    ``log_f0`` of :func:`series_logsums`) anchors the chain, so a caller that
    widens its window sums that series once; ``levels_run`` counts the
    backward levels, which ``_MAX_TERMS`` caps.
    """
    nu, y, m_max = float(nu), float(y), int(m_max)
    log_b = np.empty(m_max + 1)
    log_b[0] = log_b0
    rho, levels, ok, _ = backward_ratios(y, nu - y, 1.0, m_max)
    log_b[1:] = log_b0 + np.cumsum(np.log(rho / np.arange(1.0, m_max + 1.0)))
    return log_b, levels, ok
