import math

import numpy as np
import pytest

from phonon_stats import HAS_NUMBA, specfun
from phonon_stats._kernels import population_logsums, series_logsums, series_logsums_numpy
from phonon_stats.errors import DomainError, NotConverged

# reference values frozen from a 50-digit mpmath evaluation of the defining
# formulas (lgamma, erfcx, and direct high-precision summation of the sums)

LGAMMA_REF = [
    (0.001, 6.9071788853838537),
    (0.37, 0.87694681948487929),
    (2.5, 0.28468287047291916),
    (10.0, 12.80182748008147),
    (1234.5, 7550.5509010778949),
    (1e6, 12815504.569147612),
]

ERFCX_REF = [
    (0.25, 0.77034654773099674),
    (1.0, 0.427583576155807),
    (3.0, 0.17900115118138995),
    (10.0, 0.056140992743822586),
]


@pytest.mark.parametrize("x,want", LGAMMA_REF)
def test_log_gamma_reference_values(x, want):
    assert specfun.log_gamma(x) == pytest.approx(want, rel=5e-15)


@pytest.mark.parametrize("x,want", ERFCX_REF)
def test_erfcx_reference_values(x, want):
    assert specfun.erfcx(x) == pytest.approx(want, rel=5e-15)


def test_log_gamma_domain():
    with pytest.raises(DomainError):
        specfun.log_gamma(0.0)
    with pytest.raises(DomainError):
        specfun.log_gamma(-1.5)
    with pytest.raises(DomainError):
        specfun.log_gamma(float("nan"))


def test_erfcx_domain():
    with pytest.raises(DomainError):
        specfun.erfcx(float("nan"))
    with pytest.raises(DomainError):
        specfun.erfcx(float("inf"))


def test_series_sums_reference_point():
    s = specfun.recip_gamma_series(0.3, 0.2)
    assert s.s0 == pytest.approx(0.59457630316407353, rel=1e-13)
    assert s.s1 == pytest.approx(0.30112774605273279, rel=1e-13)
    assert s.s2 == pytest.approx(0.088802486027541427, rel=1e-13)
    assert s.converged
    assert s.terms_used >= 1


def test_series_sums_nu_one_closed_form():
    # at nu = 1 the sums collapse: S0 = e^x, S1 = x e^x, S2 = x^2 e^x
    x = 2.0
    s = specfun.recip_gamma_series(1.0, x)
    assert s.s0 == pytest.approx(math.exp(x), rel=1e-12)
    assert s.s1 == pytest.approx(x * math.exp(x), rel=1e-12)
    assert s.s2 == pytest.approx(x * x * math.exp(x), rel=1e-12)


def test_series_sums_x_zero():
    s = specfun.recip_gamma_series(0.7, 0.0)
    assert s.s0 == pytest.approx(1.0 / math.gamma(0.7), rel=1e-14)
    assert s.log_s1 == -math.inf
    assert s.log_s2 == -math.inf
    assert s.s1 == 0.0 and s.s2 == 0.0


@pytest.mark.parametrize("nu", [0.3, 1.7, 12.0])
@pytest.mark.parametrize("x", [0.05, 1.0, 7.5, 50.0])
def test_series_contiguity_identities(nu, x):
    """Shift identities tying the weighted sums together.

    S1(nu, x) = x * (S0(nu+1, x) + S1(nu+1, x))
    S1(nu, x) = (x - nu + 1) S0(nu, x) + (nu - 1)/Gamma(nu)
    S2(nu, x) = (x - nu) S1(nu, x) + x S0(nu, x)

    (Derived by reindexing k -> k+1 and using Gamma(nu+k+1) =
    (nu+k) Gamma(nu+k); they catch sign/offset mistakes the reference
    values alone would miss.)
    """
    s = specfun.recip_gamma_series(nu, x)
    up = specfun.recip_gamma_series(nu + 1.0, x)
    assert s.s1 == pytest.approx(x * (up.s0 + up.s1), rel=1e-11)
    rhs = (x - nu + 1.0) * s.s0 + (nu - 1.0) / math.gamma(nu)
    assert s.s1 == pytest.approx(rhs, rel=1e-10, abs=1e-13 * s.s0)
    assert s.s2 == pytest.approx((x - nu) * s.s1 + x * s.s0, rel=1e-10, abs=1e-13 * s.s0)


@pytest.mark.parametrize("nu", [0.2, 1.0, 5.0, 300.0])
@pytest.mark.parametrize("x", [0.0, 0.3, 4.0, 200.0, 2e4])
def test_series_cauchy_schwarz(nu, x):
    # sum k w(k) with weights w(k) = x^k/Gamma(nu+k): first moment squared
    # is bounded by second moment times mass
    s = specfun.recip_gamma_series(nu, x)
    if x == 0.0:
        assert s.log_s1 == -math.inf and s.log_s2 == -math.inf
        return
    lhs = 2.0 * s.log_s1
    rhs = (
        math.log(math.exp(s.log_s2 - s.log_s0) + math.exp(s.log_s1 - s.log_s0))
        + 2.0 * s.log_s0
    )
    assert lhs <= rhs + 1e-12


def test_series_not_converged_carries_term_count():
    with pytest.raises(NotConverged) as exc:
        specfun.recip_gamma_series(0.5, 1e5, max_terms=100)
    assert exc.value.terms_used is not None
    assert exc.value.terms_used >= 100


def test_series_domain_errors():
    with pytest.raises(DomainError):
        specfun.recip_gamma_series(0.0, 1.0)
    with pytest.raises(DomainError):
        specfun.recip_gamma_series(-2.0, 1.0)
    with pytest.raises(DomainError):
        specfun.recip_gamma_series(1.0, -0.5)
    with pytest.raises(DomainError):
        specfun.recip_gamma_series(1.0, 1.0, max_terms=0)


@pytest.mark.skipif(not HAS_NUMBA, reason="numba lane not available")
def test_series_lanes_agree_on_observables():
    """The jit and numpy lanes must give the same physics.

    Raw log sums at x ~ 1e4 are ~1e7 in magnitude, where a ULP is ~1e-9 —
    comparing them directly just measures float granularity. Compare the
    dimensionless observables built from log differences instead.
    """
    for nu, x in [(0.5, 0.0), (0.5, 3.0), (2.0, 40.0), (21.0, 20.0),
                  (1e3, 1e3), (2001.0, 2e3), (2e4, 2e4)]:
        l0a, l1a, l2a, _, oka = series_logsums(nu, x)
        l0b, l1b, l2b, _, okb = series_logsums_numpy(nu, x)
        assert oka and okb
        if x == 0.0:
            assert l1a == l1b == -math.inf
            continue
        n_a = 0.5 * math.exp(l1a - l0a)
        n_b = 0.5 * math.exp(l1b - l0b)
        g_a = math.exp(l2a + l0a - 2.0 * l1a)
        g_b = math.exp(l2b + l0b - 2.0 * l1b)
        assert n_a == pytest.approx(n_b, rel=1e-10)
        assert g_a == pytest.approx(g_b, rel=1e-10)


@pytest.mark.parametrize("nu,y,m_max", [(3.0, 1.0, 12), (110.0, 50.0, 40), (2001.0, 1e3, 30)])
def test_population_logsums_match_double_series(nu, y, m_max):
    """The backward recurrence reproduces the defining sums
    T_m = sum_{k>=m} [k!/(k-m)!] y^k / Gamma(nu + k), summed directly at
    30 digits (nu > y, so the terms decay geometrically past k = m)."""
    mpmath = pytest.importorskip("mpmath")
    log_t, _, ok = population_logsums(nu, y, m_max)
    assert ok
    ref = []
    with mpmath.workdps(30):
        for m in range(m_max + 1):
            s = mpmath.mpf(0)
            k = m
            while True:
                t = mpmath.exp(mpmath.loggamma(k + 1) - mpmath.loggamma(k - m + 1)
                               + k * mpmath.log(y) - mpmath.loggamma(nu + k))
                s += t
                if k > m + 10 and t < s * mpmath.mpf(10) ** -25:
                    break
                k += 1
            ref.append(float(mpmath.log(s)))
    np.testing.assert_allclose(log_t, ref, rtol=1e-14, atol=1e-12)
