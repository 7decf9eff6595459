import math

import numpy as np
import pytest

from phonon_stats import _kernels, hitemp
from phonon_stats.errors import DomainError, NotConverged


def test_moments_closed_form_pure_gaussian():
    # a = 0: M_0 = (sqrt(pi)/2)/sqrt(b), M_1 = 1/(2b), M_2 = (sqrt(pi)/4) b^-1.5
    for b in (1e-6, 0.5, 1.0, 1e4):
        m = np.exp(hitemp.gaussian_quartic_moments(0.0, b, 2).log_m)
        assert m[0] == pytest.approx(0.5 * math.sqrt(math.pi / b), rel=1e-12)
        assert m[1] == pytest.approx(0.5 / b, rel=1e-12)
        assert m[2] == pytest.approx(0.25 * math.sqrt(math.pi) * b**-1.5, rel=1e-12)


def test_moments_reference_values():
    # frozen from a 50-digit mpmath quadrature of the defining integrals
    t = hitemp.gaussian_quartic_moments(1.0, 1.0, 2)
    assert t.method == "recursion"
    m = np.exp(t.log_m)
    assert m[0] == pytest.approx(0.54564136076504704, rel=1e-12)
    assert m[1] == pytest.approx(0.22717931961747648, rel=1e-12)
    assert m[2] == pytest.approx(0.15923102057378528, rel=1e-12)


def _pcfd_log_moments(a, b, orders):
    """log M_n at the given orders n from the parabolic-cylinder closed form
    (30-digit mpmath):
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
            for n in orders
        ])


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0, 4.0, 10.0, 100.0, 1e4])
@pytest.mark.parametrize("b", [1e-6, 1.0, 1e4])
def test_recursion_agrees_with_quadrature(r, b):
    # the reference is the closed form of the defining integral; the upward
    # recursion runs while r sqrt(20) <= 6.11, so for r <= 1, and the
    # backward fraction from r = 2 up
    a = r * math.sqrt(b)
    t = hitemp.gaussian_quartic_moments(a, b, 10)
    assert t.method == ("recursion" if r <= 1.0 else "backward")
    assert np.max(np.abs(t.log_m - _pcfd_log_moments(a, b, range(11)))) <= 1e-8


def test_recursion_refuses_cancellation_regime():
    # a/sqrt(b) = 1e4: the dominant solution would outgrow the moments by
    # about exp(r sqrt(2n)) = exp(44721), so the table comes from the
    # backward fraction
    t = hitemp.gaussian_quartic_moments(1.0, 1e-8, 10)
    assert t.method == "backward"
    assert np.max(np.abs(t.log_m - _pcfd_log_moments(1.0, 1e-8, range(11)))) <= 1e-8


@pytest.mark.parametrize("r, n_max", [
    (0.3, 1000), (0.5, 1000), (0.7, 1000), (1.0, 300), (2.0, 100), (3.0, 30), (4.76, 30),
])
def test_moments_past_the_upward_gate(r, n_max):
    """Where r sqrt(2 n_max) > 6.11 the dominant solution would magnify one
    ulp of M_0 by about exp(r sqrt(2n)), so the ratios run backward: log M_n
    is within 2e-12 of mpmath at 41 orders up to n_max (measured: 4.6e-13,
    one ulp of log M_1000; the upward recursion erred by 5.0e-4 at
    (0.7, 1000) and 1.9e-3 at (4.76, 30))."""
    t = hitemp.gaussian_quartic_moments(r, 1.0, n_max)
    assert t.method == "backward"
    orders = np.unique(np.linspace(0, n_max, 41).astype(int))
    assert np.max(np.abs(t.log_m[orders] - _pcfd_log_moments(r, 1.0, orders))) <= 2e-12


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


def _moment_ratios(C, n_th):
    """n_ss and g2 of the thermal-diffusion state at 80 digits: the moment
    ratios of exp(-r t - t^2), r = 1/sqrt(C n_th), from the closed form of
    m_0 and integration by parts, with C and n_th taken as given."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(80):
        q = mpmath.mpf(C) * mpmath.mpf(n_th)
        r = 1 / mpmath.sqrt(q)
        m0 = mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(r * r / 4) * mpmath.erfc(r / 2)
        m1 = (1 - r * m0) / 2
        m2 = (m0 - r * m1) / 2
        return float(n_th * m1 / (m0 * mpmath.sqrt(q))), float(m2 * m0 / (m1 * m1))


@pytest.mark.parametrize("C, n_th", [(1e-200, 1e200), (1e-160, 1e160)])
def test_observables_depend_on_q_alone(C, n_th):
    """At q = 1 with n_th/C past the float range, n_ss/n_th and g2 are those
    of (C, n_th) = (1, 1): no moment parameter underflows and n_ss is finite."""
    assert hitemp.mean_phonon_hitemp(C, n_th) / n_th == pytest.approx(
        hitemp.mean_phonon_hitemp(1.0, 1.0), rel=1e-13, abs=0
    )
    assert hitemp.g2_hitemp(C, n_th) == pytest.approx(hitemp.g2_hitemp(1.0, 1.0), rel=1e-13, abs=0)


@pytest.mark.parametrize("C, n_th", [(1e200, 1e200), (1e154, 1e154), (1e308, 1.0), (1.7e308, 2.0)])
def test_observables_past_overflowing_q(C, n_th):
    # q = C n_th, pi q or pi C overflows: n_ss is its q -> inf limit
    # sqrt(n_th/(pi C)) and g2 the strong-damping value pi/2, up to the
    # |log b| eps that the moment scale b = C/n_th leaves in g2
    limit = math.sqrt(n_th / C / math.pi)
    assert hitemp.mean_phonon_hitemp(C, n_th) == pytest.approx(limit, rel=1e-15)
    rel = max(1e-15, 2e-15 * abs(math.log(C / n_th)))
    assert hitemp.g2_hitemp(C, n_th) == pytest.approx(math.pi / 2.0, rel=rel)


def _accuracy_points():
    """(C, n_th) with n_th in {1e-3, ..., 1e6} and q = C n_th in [1e-12, 1e12],
    two per decade (490 points); 100 seeded log-uniform points with q in
    [1e-2, 1e2], where the continued fraction meets the erfcx form at q = 1;
    and the inputs of :func:`test_observables_past_overflowing_q`."""
    points = [(float(q) / n_th, float(n_th))
              for n_th in np.logspace(-3, 6, 10) for q in np.logspace(-12, 12, 49)]
    rng = np.random.default_rng(1703)
    for q, n_th in zip(10.0 ** rng.uniform(-2, 2, 100), 10.0 ** rng.uniform(-3, 6, 100)):
        points.append((float(q / n_th), float(n_th)))
    return points + [(1e200, 1e200), (1e154, 1e154), (1e308, 1.0), (1.7e308, 2.0)]


def _assert_observables_match_mpmath(C, n_th):
    """n_ss within 2e-15 and g2 within 4e-15 relative of the 80-digit
    moment ratios."""
    n_ref, g_ref = _moment_ratios(C, n_th)
    assert hitemp.mean_phonon_hitemp(C, n_th) == pytest.approx(n_ref, rel=2e-15, abs=0)
    assert hitemp.g2_hitemp(C, n_th) == pytest.approx(g_ref, rel=4e-15, abs=0)


def test_observables_match_mpmath():
    """Against the 80-digit moment ratios, n_ss is within 2e-15 and g2 within
    4e-15 relative on 594 points (measured: 6.7e-16 and 1.2e-15, where the
    closed forms they replace lost up to 2.4e-12 and 3.2e-12)."""
    points = _accuracy_points()
    assert len(points) >= 400
    for C, n_th in points:
        _assert_observables_match_mpmath(C, n_th)


@pytest.mark.parametrize("n_th", [1e2, 3e4, 1e7])
def test_observables_match_moment_ratios(n_th):
    """Over q = C n_th in [1e-5, 1e6], where g2 once came from an upward
    moment recursion, both observables keep the bounds of
    :func:`test_observables_match_mpmath`."""
    for q in np.logspace(-5, 6, 23):
        _assert_observables_match_mpmath(float(q) / n_th, n_th)


@pytest.mark.parametrize("n_th", [1e-3, 1.0, 1e4, 1e6])
def test_observables_continuous_across_the_switch(n_th):
    """At z = 1/2 (q = 1) R passes from the bottom-up fraction to the erfcx
    form: the values at the nine C around q = 1, neighbours in the floats
    with z on both sides of 1/2, agree to 4e-15 (measured: 6.7e-16 for n_ss
    and 1.1e-15 for g2)."""
    grid = [1.0 / n_th]
    for _ in range(4):
        grid = [math.nextafter(grid[0], 0.0), *grid, math.nextafter(grid[-1], math.inf)]
    z = [0.5 / (math.sqrt(C) * math.sqrt(n_th)) for C in grid]
    assert min(z) < 0.5 <= max(z)
    for fn in (hitemp.mean_phonon_hitemp, hitemp.g2_hitemp):
        values = [fn(C, n_th) for C in grid]
        assert max(values) / min(values) - 1.0 <= 4e-15


def test_observables_at_subnormal_q():
    # z = 0.5/(sqrt(C) sqrt(n_th)) overflows where C n_th is subnormal (here
    # it underflows to 0): the q -> 0 limits, exactly
    assert 0.5 / (math.sqrt(5e-324) * math.sqrt(1e-300)) == math.inf
    assert hitemp.mean_phonon_hitemp(5e-324, 1e-300) == 1e-300
    assert hitemp.g2_hitemp(5e-324, 1e-300) == 2.0


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


@pytest.mark.parametrize("q", [
    1.5e-8, 3e-8, 5e-7, 3e-6, 8e-6, 1e-5 * (1.0 - 1e-9), 1e-5, 1e-5 * (1.0 + 1e-9), 2e-5,
])
def test_mean_near_the_series_switch_matches_moment_ratio(q):
    """Around q = 1e-5, where a series n_th (1 - 4q + 40q^2 - 592q^3) once
    took over from a closed form whose cancelling terms lost up to 5e-9,
    both observables keep the bounds of :func:`test_observables_match_mpmath`."""
    n_th = 1e4
    _assert_observables_match_mpmath(q / n_th, n_th)


def test_branch_continuity():
    """No seam at q = 1e-5, where series expansions once handed over to the
    closed forms: both sides keep the mpmath bounds, and the values one
    part in 1e9 apart in q differ by no more than that."""
    n_th = 1.0
    for q in (1e-5 * (1.0 - 1e-9), 1e-5 * (1.0 + 1e-9)):
        _assert_observables_match_mpmath(q / n_th, n_th)
    for fn in (hitemp.g2_hitemp, hitemp.mean_phonon_hitemp):
        below = fn(1e-5 * (1.0 - 1e-9) / n_th, n_th)
        above = fn(1e-5 * (1.0 + 1e-9) / n_th, n_th)
        assert abs(above - below) / abs(below) <= 1e-10


def test_distribution_moments():
    C, n_th = 1e2, 1e4
    p = hitemp.steady_state_hitemp(C, n_th, 150).populations
    assert abs(p.sum() - 1.0) <= 1e-12  # normalized over the window by design
    n = np.arange(p.size, dtype=float)
    n_ss = hitemp.mean_phonon_hitemp(C, n_th)
    assert n @ p == pytest.approx(n_ss, rel=1e-8)
    var = (n - n_ss) ** 2 @ p
    # 1 < g2 < 2 here: super-Poissonian but narrower than thermal
    assert n_ss < var < n_ss * (n_ss + 1.0)


def _populations_reference(C, n_th, n_max):
    """Window-normalized P_n = M_n(a', b)/n!, a' = 1 + 1/n_th, b = C/n_th,
    from the upward moment recursion at 80 digits, which leaves more than 40
    where r sqrt(2 n_max) <= 80."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(80):
        b = mpmath.mpf(C) / n_th
        r = (1 + 1 / mpmath.mpf(n_th)) / mpmath.sqrt(b)
        m = [mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(r * r / 4) * mpmath.erfc(r / 2)]
        m.append((1 - r * m[0]) / 2)
        for n in range(1, n_max):
            m.append((n * m[n - 1] - r * m[n]) / 2)
        w = [m[n] / (mpmath.factorial(n) * mpmath.sqrt(b) ** n) for n in range(n_max + 1)]
        z = mpmath.fsum(w)
        return np.array([float(x / z) for x in w])


@pytest.mark.parametrize("C, n_th", [(55.36464, 1251.893), (220.34, 2973.95), (1e2, 1e4), (10.0, 1.0)])
def test_populations_match_mpmath(C, n_th):
    """The populations are within 1e-13 relative of an 80-digit reference
    (measured: at most 1.2e-14; 6.6e-15 at (55.36464, 1251.893), where the
    upward recursion that the old gate admitted erred by up to 2.9e-3)."""
    p = hitemp.steady_state_hitemp(C, n_th).populations
    ref = _populations_reference(C, n_th, p.size - 1)
    assert np.max(np.abs(p - ref) / ref) <= 1e-13


def test_population_tail_has_no_floor():
    """At 41,440 levels the window holds all the mass to roundoff, and the
    tail says so: 0.0 (log n! from gammaln left a floor of 4.0e-12 here)."""
    rep = hitemp.steady_state_hitemp(2.22278e-3, 34053.2, 41440)
    assert rep.diagnostics["population_tail"] <= 1e-13


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
        hitemp.steady_state_hitemp(1.0, 1.0, -1)


def test_open_bracket_raises_not_converged(monkeypatch):
    # at a/sqrt(b) = 6 the recursion is refused for 100 orders, and the
    # backward bracket needs 128 levels past the window to close; a budget of
    # 165 admits the window (its first depth 164) but stops the bracket
    monkeypatch.setattr(_kernels, "_MAX_TERMS", 165)
    with pytest.raises(NotConverged) as exc:
        hitemp.gaussian_quartic_moments(6.0, 1.0, 100)
    assert "backward moment fraction" in str(exc.value)
    assert exc.value.terms_used >= 165


def test_window_budget_checked_before_either_direction(monkeypatch):
    # 1e8 levels need a backward depth past the 1e7-term budget; unpatched,
    # either direction would walk 1e8 levels before failing
    def refuse(*args, **kwargs):
        raise AssertionError("moment direction ran")

    monkeypatch.setattr(hitemp, "_moments_recursion", refuse)
    monkeypatch.setattr(_kernels, "backward_ratios", refuse)
    with pytest.raises(NotConverged) as exc:
        hitemp.steady_state_hitemp(1.0, 1.0, 10**8)
    assert exc.value.terms_used == 10_000_000
