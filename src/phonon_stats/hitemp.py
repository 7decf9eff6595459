"""High-temperature (thermal-diffusion) steady-state statistics.

For n_th >> C the steady state admits a Glauber-Sudarshan representation
P_s(mu) ∝ exp(-|mu|^2/n_th - C|mu|^4/n_th). With s = |mu|^2, every
normally-ordered observable reduces to moments of the exponential-quartic
weight on the half line,

    M_n(a, b) = ∫_0^∞ s^n exp(-a s - b s^2) ds,
    a = 1/n_th,  b = C/n_th,

so that  n_ss = M_1/M_0  and  g2(0) = M_2 M_0 / M_1^2.  Both depend on q = C*n_th
alone and come from the tail R of one continued fraction, Laplace's for
erfcx (see :func:`_tail`), with no moment table; :func:`erfcx` itself reads
the same tail from x = 1/2 up. For the populations, M_0 has the
stable closed form (sqrt(pi)/(2 sqrt(b))) * erfcx(a/(2 sqrt(b))), integration
by parts gives a M_0 + 2 b M_1 = 1, and deeper moments follow from

    M_{n+1} = (n M_{n-1} - a M_n) / (2 b).

M_n is the recursion's minimal solution: the dominant solution outgrows it
by about exp(r sqrt(2n)), r = a/sqrt(b), so the ratios M_n/M_{n-1} are run
upward only while r sqrt(2 n_max) stays below a bound that keeps that
growth under 1e-13. Elsewhere the same recursion runs backward as the
positive continued fraction  M_n/M_{n-1} = n / (a + 2b M_{n+1}/M_n)
(Miller's algorithm; Gautschi, SIAM Rev. 9, 24 (1967)). Either way the
table is the closed-form log M_0 and the log ratios. No quadrature is
involved.

Fock-level statistics come from projecting the same measure onto number
states: P(n) ∝ M_n(a', b)/n! with a' = 1 + 1/n_th, whose exact normalizer is
sum_n M_n(a', b)/n! = M_0(a, b) (the e^s factor shifts a' back to a). log P
is a cumulative sum of log(M_n/M_{n-1}) - log n, so no log n! is formed.

The module needs only ``math`` and numpy (:func:`erfcx` is evaluated here,
as erfc(x) exp(x^2) below x = 1/2 and from the fraction tail above): neither
the observables nor the populations import scipy.

This module labels itself an approximation: its validity degrades as n_th/C
shrinks, quantified against the exact series by the validation tooling.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError, NotConverged
from .report import Regime, SteadyStateReport
from .exact import _check_cn

__all__ = [
    "MomentTable",
    "erfcx",
    "gaussian_quartic_moments",
    "observables_hitemp",
    "mean_phonon_hitemp",
    "g2_hitemp",
    "steady_state_hitemp",
]


def _tail(z: float) -> float:
    """The tail R of Laplace's continued fraction at z > 0.

    sqrt(pi) erfcx(z) = 1/(z + (1/2)/(z + R)), where R = t_2 and
    t_k = (k/2)/(z + t_{k+1}) (DLMF 7.9.2). For z >= 1/2 R is summed
    bottom-up over n = 30 + ceil(100/z^2) levels from the tail's large-k
    expansion, at k = n + 1: t_k ~ sqrt(k/2) - z/2 + (z^2 - 1)/(4 sqrt(2k))
    + z/(8k); where z^2 overflows that start is inf and the next level 0,
    which the levels below absorb. Below, R = 1/(2K) - z with
    K = 1/(sqrt(pi) erfc(z) exp(z^2)) - z, whose subtractions magnify the
    roundoff of erfc(z) exp(z^2) 4-fold at z = 1/2 and 29-fold at z = 1.5,
    so the fraction runs down to z = 1/2.
    """
    if z >= 0.5:
        n = 30 + math.ceil(100.0 / (z * z))
        k = n + 1.0
        r = math.sqrt(0.5 * k) - 0.5 * z + (z * z - 1.0) / (4.0 * math.sqrt(2.0 * k)) + z / (8.0 * k)
        for k in range(n, 1, -1):
            r = 0.5 * k / (z + r)
        return r
    return 0.5 / (1.0 / (math.sqrt(math.pi) * (math.erfc(z) * math.exp(z * z))) - z) - z


def erfcx(x: float) -> float:
    """Scaled complementary error function exp(x^2) * erfc(x) for x >= 0.

    Below x = 1/2 it is erfc(x) exp(x^2): there the rounding of x^2 moves
    exp(x^2) by at most eps/8. From 1/2 up it is Laplace's continued fraction
    (1/sqrt(pi))/(x + (1/2)/(x + R)) with the tail R of :func:`_tail`; the
    division by sqrt(pi) keeps x up to the largest double from overflowing.
    Within 1e-15 relative of 40-digit mpmath on [0, 1e8] and beyond; over
    runs of 4,000 neighbouring doubles from x = 3/4 up it never rises (the
    fraction uses only +, / and sqrt). ``math`` only, no scipy.
    """
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"erfcx requires x >= 0, got {x!r}")
    if x < 0.5:
        return math.erfc(x) * math.exp(x * x)
    return (1.0 / math.sqrt(math.pi)) / (x + 0.5 / (x + _tail(x)))


@dataclass(eq=False)
class MomentTable:
    """Moments M_n(a, b), n = 0..n_max, as log M_0 and the log ratios
    log(M_n/M_{n-1}), n = 1..n_max; ``log_m`` is formed when it is read.

    ``method`` records which direction produced the ratios: "recursion"
    (upward) or "backward" (continued fraction).
    """

    a: float
    b: float
    log_m0: float
    log_ratios: np.ndarray
    method: str

    @property
    def n_max(self) -> int:
        return len(self.log_ratios)

    @property
    def log_m(self) -> np.ndarray:
        """Prefix sums of log M_0 and the ratios, each corrected by the
        accumulated rounding errors of the sums before it (TwoSum), which
        would otherwise reach 6 ulp of log M_1000."""
        x = np.concatenate(([self.log_m0], self.log_ratios))
        s = np.cumsum(x)
        prev, total = s[:-1], s[1:]
        term = total - prev
        s[1:] += np.cumsum((prev - (total - term)) + (x[1:] - term))
        return s


def _check_ab(a: float, b: float) -> tuple[float, float]:
    a = float(a)
    b = float(b)
    if not math.isfinite(a) or a < 0.0:
        raise DomainError(f"a must be >= 0, got {a!r}")
    if not math.isfinite(b) or b <= 0.0:
        raise DomainError(f"b must be > 0, got {b!r}")
    return a, b


# run the recursion upward only while r sqrt(2 n_max) <= this, r = a/sqrt(b).
# M_n is its minimal solution and the dominant one outgrows it by about
# exp(r sqrt(2n)), so one ulp of M_0 grows to about eps exp(r sqrt(2n))
# relative by order n (ROADMAP K10); ln(1e-13/eps) = 6.11 keeps that below
# 1e-13. On the gate, against 60-digit mpmath, the upward log(M_n/M_0) errs
# by at most 6.7e-14 for r >= 0.1 and by 6.6e-13 at r = 0.02 (n = 46,665),
# where the steps' own roundoff adds up
_UPWARD_MAX = math.log(1e-13 / sys.float_info.epsilon)


def _moments_recursion(r: float, m0: float, n_max: int) -> np.ndarray:
    """Log ratios log(m~_n/m~_{n-1}), n = 1..n_max, of the scaled moments
    m~_n of exp(-r t - t^2), by the upward recursion
    m~_{n+1} = (n m~_{n-1} - r m~_n)/2 as t_{n+1} = (n/t_n - r)/2 on the
    ratios t_n = m~_n/m~_{n-1}, from m~_0 = ``m0`` and m~_1 = (1 - r m~_0)/2."""
    t = np.empty(n_max)
    if n_max:
        t[0] = x = 0.5 * (1.0 / m0 - r)
        for n in range(1, n_max):
            x = 0.5 * (n / x - r)
            t[n] = x
    return np.log(t)


def _moments_backward(r: float, n_max: int) -> np.ndarray:
    """The same log ratios by Miller's backward fraction, where the gate
    refuses the upward recursion.

    M_n is the recursion's minimal solution, so the ratios t_n follow from
    t_n = n / (r + 2 t_{n+1}), in which every term is positive. Its bracket
    closes within a few dozen levels of the window when r is large; for
    r <= 1 it takes about 4,300/r^2 levels, which the gate keeps below about
    230 times the window.
    """
    # sigma_k = 2 t_{k+1} = 2(k+1) / (r + sigma_{k+1})
    sigma, levels, ok, _ = _kernels.backward_ratios(2.0, r, 0.0, n_max)
    if not ok:
        raise NotConverged(
            f"backward moment fraction at a/sqrt(b)={r:g} did not settle "
            f"within {levels} levels",
            terms_used=levels,
        )
    return np.log(0.5 * sigma)


def gaussian_quartic_moments(a: float, b: float, n_max: int) -> MomentTable:
    """Moment table of the exponential-quartic weight exp(-a s - b s^2).

    Parameters
    ----------
    a, b : float
        Weight coefficients, a >= 0, b > 0.
    n_max : int
        Highest moment order.

    log M_0 comes from the closed form (sqrt(pi)/(2 sqrt(b))) erfcx(r/2),
    r = a/sqrt(b), the ratios M_n/M_{n-1} from the integration-by-parts
    recursion, run upward while
    r sqrt(2 n_max) <= ``_UPWARD_MAX``, which bounds its
    roundoff growth (``method == "recursion"``), and backward as a positive
    continued fraction beyond (``method == "backward"``). An ``n_max`` too
    large for the term budget raises :class:`NotConverged` before either
    direction runs.
    """
    a, b = _check_ab(a, b)
    n_max = _kernels.check_window(n_max, "moment table at a=%g, b=%g", a, b)
    r = a / math.sqrt(b)
    m0 = 0.5 * math.sqrt(math.pi) * erfcx(0.5 * r)  # M_0 of exp(-r t - t^2)
    if r * math.sqrt(2.0 * n_max) <= _UPWARD_MAX:
        method, log_t = "recursion", _moments_recursion(r, m0, n_max)
    else:
        method, log_t = "backward", _moments_backward(r, n_max)
    half_log_b = 0.5 * math.log(b)
    return MomentTable(a, b, math.log(m0) - half_log_b, log_t - half_log_b, method)


def observables_hitemp(C: float, n_th: float) -> tuple[float, float]:
    """(n_ss, g2) from the tail R of one continued fraction (:func:`_tail`).

    With z = 1/(2 sqrt(q)), q = C*n_th, the closed forms become
    n_ss = n_th z/(z + R) and g2 = 2R(z + R) exactly, with nothing to cancel
    or overflow. z = 0.5/(sqrt(C) sqrt(n_th)) overflows only where q is
    subnormal, and there the q -> 0 limits (n_th, 2) are returned. Each value
    equals what :func:`mean_phonon_hitemp` and :func:`g2_hitemp` return
    separately, at half their combined cost.
    """
    C, n_th = _check_cn(C, n_th, positive_nth=True)
    z = 0.5 / (math.sqrt(C) * math.sqrt(n_th))
    if z == math.inf:
        return n_th, 2.0
    r = _tail(z)
    return n_th * (z / (z + r)), 2.0 * r * (z + r)


def mean_phonon_hitemp(C: float, n_th: float) -> float:
    """Mean occupation M_1/M_0 = -1/(2C) + sqrt(n_th/(pi C))/erfcx(z),
    z = 1/(2 sqrt(C n_th)), as n_th z/(z + R) (:func:`_tail`); it tends
    to sqrt(n_th/(pi C)) as q = C*n_th grows."""
    return observables_hitemp(C, n_th)[0]


def g2_hitemp(C: float, n_th: float) -> float:
    """Second-order correlation M_2 M_0 / M_1^2 of the thermal-diffusion state.

    Depends on (C, n_th) only through q = C*n_th, interpolating monotonically
    between the thermal value 2 (q -> 0) and pi/2 (q -> inf); evaluated as
    2R(z + R) (:func:`_tail`), with no moment table.
    """
    return observables_hitemp(C, n_th)[1]


def _fock_projection(C: float, n_th: float, n_max: int) -> tuple[np.ndarray, float, str]:
    """Window populations, log of their unnormalized window sum, moment method.

    log(M_n/n!) is log M_0 plus the cumulative sum of log(M_k/M_{k-1}) - log k,
    so no log n! is formed. The moments run on a = 1 + 1/n_th, b = C/n_th
    and r = a/sqrt(b). Where one of them leaves the floats (b overflows or
    underflows, or a or r overflows) the point is refused with a DomainError
    that names C and n_th, although its n_ss and g2 stay finite.
    """
    a, b = 1.0 + 1.0 / n_th, C / n_th
    r = a / math.sqrt(b) if b > 0.0 else math.inf
    if not (b < math.inf and r < math.inf):
        raise DomainError(
            f"populations at C={C:g}, n_th={n_th:g}: the moment weight exp(-a s - b s^2) "
            f"leaves the floats (a = 1 + 1/n_th = {a:g}, b = C/n_th = {b:g}, a/sqrt(b) = {r:g})"
        )
    n_max = _kernels.check_window(n_max, "populations at C=%g, n_th=%g", C, n_th)
    table = gaussian_quartic_moments(a, b, n_max)
    log_p = np.zeros(n_max + 1)
    np.cumsum(table.log_ratios - np.log(np.arange(1.0, n_max + 1.0)), out=log_p[1:])
    shift = log_p.max()
    p = np.exp(log_p - shift)
    s = p.sum()
    return p / s, table.log_m0 + shift + math.log(s), table.method


def steady_state_hitemp(
    C: float, n_th: float, n_max: int | None = None
) -> SteadyStateReport:
    """Full high-temperature report with tail accounting.

    ``population_tail`` in the diagnostics is the mass beyond ``n_max``
    relative to the exact normalizer M_0(1/n_th, C/n_th), i.e. what the
    explicit-sum normalization of the population vector absorbed.
    """
    C, n_th = _check_cn(C, n_th, positive_nth=True)
    n_ss, g2 = observables_hitemp(C, n_th)
    if n_max is None:  # a Poisson width: it can hide a super-Poissonian tail (K2)
        width = n_ss + 10.0 * math.sqrt(n_ss + 1.0)
        # an infinite n_ss (n_th/C overflows) is refused here, before ceil()
        _kernels.check_window(width, "populations at C=%g, n_th=%g", C, n_th)
        n_max = max(30, math.ceil(width))
    populations, log_z, method = _fock_projection(C, n_th, n_max)
    norm = gaussian_quartic_moments(1.0 / n_th, C / n_th, 0)
    tail = max(0.0, -math.expm1(log_z - norm.log_m0))
    return SteadyStateReport(
        n_ss=n_ss,
        g2=g2,
        populations=populations,
        regime=Regime.BUNCHED,  # g2 lies in [pi/2, 2] at every point
        diagnostics={
            "model": "hitemp",
            "moment_method": method,
            "population_tail": tail,
            "n_max": n_max,
        },
    )
