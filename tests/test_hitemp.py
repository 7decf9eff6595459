import math

import numpy as np
import pytest

from phonon_stats import hitemp
from phonon_stats.errors import DomainError


def test_moments_closed_form_pure_gaussian():
    # a = 0: M_0 = (sqrt(pi)/2)/sqrt(b), M_1 = 1/(2b), M_2 = (sqrt(pi)/4) b^-1.5
    for b in (1e-6, 0.5, 1.0, 1e4):
        t = hitemp.gaussian_quartic_moments(0.0, b, 2)
        assert t.moment(0) == pytest.approx(0.5 * math.sqrt(math.pi / b), rel=1e-12)
        assert t.moment(1) == pytest.approx(0.5 / b, rel=1e-12)
        assert t.moment(2) == pytest.approx(0.25 * math.sqrt(math.pi) * b**-1.5, rel=1e-12)


def test_moments_reference_values():
    # frozen from a 50-digit mpmath quadrature of the defining integrals
    t = hitemp.gaussian_quartic_moments(1.0, 1.0, 2)
    assert t.method == "recursion"
    assert t.moment(0) == pytest.approx(0.54564136076504704, rel=1e-12)
    assert t.moment(1) == pytest.approx(0.22717931961747648, rel=1e-12)
    assert t.moment(2) == pytest.approx(0.15923102057378528, rel=1e-12)


def _pcfd_log_moments(a, b, n_max):
    """log M_n from the parabolic-cylinder closed form (30-digit mpmath):
    M_n = b^{-(n+1)/2} n! e^{r^2/8} 2^{-(n+1)/2} D_{-(n+1)}(r/sqrt(2)),
    r = a/sqrt(b)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        b = mpmath.mpf(b)
        r = mpmath.mpf(a) / mpmath.sqrt(b)
        return np.array([
            float(
                -(n + 1) * mpmath.log(2 * b) / 2
                + mpmath.loggamma(n + 1)
                + r * r / 8
                + mpmath.log(mpmath.pcfd(-(n + 1), r / mpmath.sqrt(2)))
            )
            for n in range(n_max + 1)
        ])


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0, 4.0, 10.0, 100.0, 1e4])
@pytest.mark.parametrize("b", [1e-6, 1.0, 1e4])
def test_recursion_agrees_with_quadrature(r, b):
    # the reference is the closed form of the defining integral; r <= 4 runs
    # the upward recursion, r >= 10 the backward fraction
    a = r * math.sqrt(b)
    t = hitemp.gaussian_quartic_moments(a, b, 10)
    assert t.method == ("recursion" if r <= 4.0 else "backward")
    assert np.max(np.abs(t.log_m - _pcfd_log_moments(a, b, 10))) <= 1e-8


def test_recursion_refuses_cancellation_regime():
    # a/sqrt(b) = 1e4: the upward recursion would amplify roundoff by >> 1e5,
    # so the table comes from the backward fraction
    t = hitemp.gaussian_quartic_moments(1.0, 1e-8, 10)
    assert t.method == "backward"
    assert np.max(np.abs(t.log_m - _pcfd_log_moments(1.0, 1e-8, 10))) <= 1e-8


def test_moments_log_convex():
    # Cauchy-Schwarz for moments of a positive measure
    for a, b in [(0.0, 1.0), (1.0, 1.0), (3.0, 0.1), (100.0, 1e4), (1.0, 1e-8)]:
        t = hitemp.gaussian_quartic_moments(a, b, 8)
        lm = t.log_m
        assert np.all(lm[2:] + lm[:-2] >= 2.0 * lm[1:-1] - 1e-12)


def test_mean_matches_moment_ratio():
    # the closed form is M_1/M_0 by integration by parts; check both regimes
    for C, n_th, rel in [(1.0, 1.0, 1e-12), (1e-3, 1.0, 1e-9)]:
        t = hitemp.gaussian_quartic_moments(1.0 / n_th, C / n_th, 1)
        want = math.exp(t.log_m[1] - t.log_m[0])
        assert hitemp.mean_phonon_hitemp(C, n_th) == pytest.approx(want, rel=rel)


def test_observables_reference_values():
    # frozen from a 50-digit mpmath evaluation of the moment ratios
    assert hitemp.mean_phonon_hitemp(1e2, 1e4) == pytest.approx(
        5.6400793196888417, rel=1e-12
    )
    assert hitemp.g2_hitemp(1e-2, 1e4) == pytest.approx(
        1.5832296200885366, rel=1e-12
    )
    assert hitemp.g2_hitemp(1e-6, 1e4) == pytest.approx(
        1.9658750893283686, rel=1e-12
    )


def test_g2_limits():
    # q -> 0: thermal bunching; q -> inf: pi/2
    assert hitemp.g2_hitemp(1e-10, 1e4) == pytest.approx(2.0, rel=1e-3)
    assert hitemp.g2_hitemp(1e6, 1e4) == pytest.approx(math.pi / 2.0, abs=1e-3)


def test_mean_strong_damping_asymptote():
    # n_ss -> sqrt(n_th/(pi C)) for q >> 1
    C, n_th = 1e3, 1e4
    assert hitemp.mean_phonon_hitemp(C, n_th) == pytest.approx(
        math.sqrt(n_th / (math.pi * C)), rel=1e-2
    )


def test_branch_continuity():
    """The asymptotic expansions must hand over to the moment route without
    a visible seam (the switchovers sit at q = 1e-5 for g2, 1e-8 for the
    mean)."""
    n_th = 1.0
    for q0, fn, tol in [
        (1e-5, hitemp.g2_hitemp, 1e-9),
        (1e-8, hitemp.mean_phonon_hitemp, 1e-7),
    ]:
        below = fn(q0 * (1.0 - 1e-9) / n_th, n_th)
        above = fn(q0 * (1.0 + 1e-9) / n_th, n_th)
        assert abs(above - below) / abs(below) <= tol


def test_distribution_moments():
    C, n_th = 1e2, 1e4
    p = hitemp.phonon_distribution_hitemp(C, n_th, 150)
    assert abs(p.sum() - 1.0) <= 1e-12  # normalized over the window by design
    n = np.arange(p.size, dtype=float)
    n_ss = hitemp.mean_phonon_hitemp(C, n_th)
    assert n @ p == pytest.approx(n_ss, rel=1e-8)
    var = (n - n_ss) ** 2 @ p
    # 1 < g2 < 2 here: super-Poissonian but narrower than thermal
    assert n_ss < var < n_ss * (n_ss + 1.0)


def test_steady_state_report():
    rep = hitemp.steady_state_hitemp(1e2, 1e4)
    assert rep.n_ss == pytest.approx(5.6400793196888417, rel=1e-12)
    assert rep.g2 == pytest.approx(hitemp.g2_hitemp(1e2, 1e4), rel=1e-14)
    assert abs(rep.populations.sum() - 1.0) <= 1e-12
    d = rep.diagnostics
    assert d["model"] == "hitemp"
    assert d["moment_method"] in ("recursion", "backward")
    # the default window covers the bulk; the honest tail estimate is the
    # point of the diagnostic (slowly decaying distribution, so it is not 0)
    assert 0.0 <= d["population_tail"] < 1e-2
    assert d["n_max"] == rep.populations.size - 1
    wide = hitemp.steady_state_hitemp(1e2, 1e4, n_max=150)
    assert wide.diagnostics["population_tail"] < 1e-10


def test_domain_errors():
    with pytest.raises(DomainError):
        hitemp.mean_phonon_hitemp(0.0, 1.0)
    with pytest.raises(DomainError):
        hitemp.g2_hitemp(1.0, 0.0)  # high-temperature model needs n_th > 0
    with pytest.raises(DomainError):
        hitemp.gaussian_quartic_moments(-1.0, 1.0, 2)
    with pytest.raises(DomainError):
        hitemp.gaussian_quartic_moments(1.0, 0.0, 2)
    with pytest.raises(DomainError):
        hitemp.gaussian_quartic_moments(1.0, 1.0, -1)
    with pytest.raises(DomainError):
        hitemp.phonon_distribution_hitemp(1.0, 1.0, -1)
