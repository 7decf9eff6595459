import math

import inspect
import warnings

import numpy as np
import pytest

import phonon_stats
from phonon_stats import _kernels, exact
from phonon_stats.errors import DomainError, NotConverged
from phonon_stats.report import Regime

# frozen from a 50-digit mpmath evaluation of the series ratios
FROZEN_OBSERVABLES = [
    # (C, n_th) -> (n_ss, g2), tolerance
    ((10.0, 1.0), (0.25322884922445058, 0.58227906174382116), 1e-11),
    ((0.1, 0.5), (0.43362864430096019, 1.7648783168289985), 1e-11),
    ((1e-3, 5.0), (4.9047477239314443, 1.9797575948430586), 1e-14),
]


@pytest.mark.parametrize("point,want,rel", FROZEN_OBSERVABLES)
def test_observables_reference_values(point, want, rel):
    C, n_th = point
    assert exact.mean_phonon_exact(C, n_th) == pytest.approx(want[0], rel=rel)
    assert exact.g2_exact(C, n_th) == pytest.approx(want[1], rel=rel)


@pytest.mark.parametrize("n_th", [0.1, 1.0, 5.0, 20.0, 40.0])
def test_coherent_point_identities(n_th):
    # at C = 2 n_th + 1 the state is coherent: Poisson statistics
    C = 2.0 * n_th + 1.0
    assert exact.mean_phonon_exact(C, n_th) == pytest.approx(n_th / C, rel=1e-10)
    assert exact.g2_exact(C, n_th) == pytest.approx(1.0, rel=1e-10)


def test_mean_phonon_monotone_cooling():
    n_th = 2.0
    values = [exact.mean_phonon_exact(C, n_th) for C in np.logspace(-3, 3, 30)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(n_th, rel=0.05)  # weak damping ~ thermal


@pytest.mark.parametrize("point", [(10.0, 1.0), (1e-3, 5.0), (7.3, 0.0), (1.0, 1e-13)])
def test_observables_exact_is_one_series_call(point, monkeypatch):
    C, n_th = point
    want = (exact.mean_phonon_exact(C, n_th), exact.g2_exact(C, n_th))
    calls = []
    series = exact.recip_gamma_series

    def counted(*args, **kwargs):
        calls.append(args)
        return series(*args, **kwargs)

    monkeypatch.setattr(exact, "recip_gamma_series", counted)
    assert exact.observables_exact(C, n_th) == want
    assert len(calls) == (0 if n_th == 0.0 else 1)


@pytest.mark.parametrize("fn", [exact.steady_state_exact, exact.phonon_populations_exact])
def test_populations_share_the_observables_series(fn, monkeypatch):
    """The population normalizer S_0(nu, 2 n_th/C) is the S_0 of n_ss, so a
    report or a default-window population vector sums that series once."""
    calls = []
    series = exact.recip_gamma_series

    def counted(*args, **kwargs):
        calls.append(args)
        return series(*args, **kwargs)

    monkeypatch.setattr(exact, "recip_gamma_series", counted)
    fn(10.0, 1.0)
    assert len(calls) == 1


def test_vacuum_is_exact_zero():
    assert exact.mean_phonon_exact(7.3, 0.0) == 0.0
    assert exact.g2_exact(7.3, 0.0) is None


def test_g2_undefined_below_threshold():
    # occupation ~ 1e-13 sits below the definability threshold
    assert exact.g2_exact(1.0, 1e-13) is None


def test_populations_reference_values():
    # frozen from an extended-precision evaluation of the double series
    want = np.array([
        0.76466605521803499,
        0.21819054262332915,
        0.016414248498568834,
        0.00070731868801677158,
        2.1330934054996479e-05,
        4.9457596513768482e-07,
    ])
    got = exact.phonon_populations_exact(10.0, 1.0, 5)
    np.testing.assert_allclose(got, want, rtol=1e-10)


def test_populations_basic_integrity():
    p = exact.phonon_populations_exact(3.0, 1.0)
    assert p.min() >= -1e-12
    assert abs(p.sum() - 1.0) <= 1e-9
    m = np.arange(p.size, dtype=float)
    n_ss = exact.mean_phonon_exact(3.0, 1.0)
    g2 = exact.g2_exact(3.0, 1.0)
    assert m @ p == pytest.approx(n_ss, rel=1e-9)
    assert (m * (m - 1.0)) @ p == pytest.approx(g2 * n_ss * n_ss, rel=1e-9)


def test_populations_poisson_at_coherent_point():
    n_th = 20.0
    C = 2.0 * n_th + 1.0
    lam = n_th / C
    p = exact.phonon_populations_exact(C, n_th, 20)
    m = np.arange(21, dtype=float)
    poisson = np.exp(m * math.log(lam) - lam - np.cumsum(np.log(np.maximum(m, 1.0))))
    np.testing.assert_allclose(p, poisson, rtol=1e-8)


def test_populations_continuous_through_coherent_point():
    """The stationary solution is analytic in C; passing through
    C = 2 n_th + 1 must not produce a jump (no special-casing needed)."""
    n_th = 1.5
    C0 = 2.0 * n_th + 1.0
    below = exact.phonon_populations_exact(C0 * (1.0 - 1e-11), n_th, 25)
    above = exact.phonon_populations_exact(C0 * (1.0 + 1e-11), n_th, 25)
    assert np.max(np.abs(below - above)) <= 1e-8


def test_populations_wide_window():
    """A hot, weakly damped point on an explicit window of 6322 levels."""
    C, n_th = 1e-2, 300.0
    rep = exact.steady_state_exact(C, n_th, m_max=6321)
    p = rep.populations
    # birth-death flux balance across every cut n | n+1
    n = np.arange(p.size - 2, dtype=float)
    lhs = n_th * p[:-2]
    rhs = (n_th + 1.0 + C * n) * p[1:-1] + C * (n + 2.0) * p[2:]
    live = lhs > 1e-250
    assert np.all(np.abs(lhs - rhs)[live] <= 1e-8 * lhs[live])
    assert abs(math.fsum(p) + rep.diagnostics["population_tail"] - 1.0) <= 1e-10
    assert np.arange(p.size) @ p == pytest.approx(rep.n_ss, rel=1e-8)


@pytest.mark.parametrize("point", [(3.0, 1.0), (1e-2, 300.0), (1.0, 1e5), (1e-6, 10.0)])
def test_default_window_ends_where_the_tail_bound_holds(point):
    # the flux balance gives P_{n+1} <= q_n P_n, q_n = n_th/(n_th + 1 + C n)
    # falling, so P_m q_m/(1 - q_m) bounds the mass past level m
    C, n_th = point
    rep = exact.steady_state_exact(C, n_th)
    p = rep.populations
    m = np.arange(p.size, dtype=float)
    q = n_th / (n_th + 1.0 + C * m)
    bound = p * q / (1.0 - q)
    assert bound[-1] <= 1e-12 < bound[-2]
    assert 1.0 - math.fsum(p) <= 1e-12
    assert rep.diagnostics["m_max"] == p.size - 1
    np.testing.assert_array_equal(exact.phonon_populations_exact(C, n_th), p)
    assert exact.steady_state_exact(C, 0.0).populations.size == 1


def test_populations_normalized_at_large_x():
    """nu = 2.001e6 and 2y = 2e6: P_0 = f_0(nu, y)/f_0(nu, 2y) carries no
    log Gamma(nu) ~ 2.7e7, so the vector sums to 1 within rounding (the true
    tail past level 8000 is about 2e-34)."""
    p = exact.phonon_populations_exact(1e-3, 1e3, 8000)
    assert abs(1.0 - math.fsum(p)) <= 1e-13


def test_populations_ground_state():
    # n_th = 0 is the ground state on both population entry points, with no
    # series or recurrence (whose log would divide by zero there)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert exact.phonon_populations_exact(1.0, 0.0).tolist() == [1.0]
        assert exact.phonon_populations_exact(1.0, 0.0, 3).tolist() == [1.0, 0.0, 0.0, 0.0]
        assert exact.steady_state_exact(1.0, 0.0).populations.tolist() == [1.0]
    # an explicit window still goes through the window check
    with pytest.raises(DomainError):
        exact.phonon_populations_exact(1.0, 0.0, -2)


def test_populations_domain():
    with pytest.raises(DomainError):
        exact.phonon_populations_exact(1.0, 1.0, -2)
    with pytest.raises(DomainError):
        exact.mean_phonon_exact(0.0, 1.0)
    with pytest.raises(DomainError):
        exact.mean_phonon_exact(-3.0, 1.0)
    with pytest.raises(DomainError):
        exact.mean_phonon_exact(1.0, -0.1)


def test_series_cap_raises_not_converged():
    # x = 2 n_th / C = 2e14 needs ~1e8 terms: the series is the wrong tool
    # here and must say so instead of running forever
    with pytest.raises(NotConverged):
        exact.mean_phonon_exact(1e-7, 1e7)


def test_tiny_n_th_series_warns_nothing():
    # x/(nu + k) underflows to 0 in the series at n_th = 5e-324
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert exact.mean_phonon_exact(1.0, 5e-324) == 5e-324


def test_population_cap_raises_not_converged(monkeypatch):
    # a 60-term budget cannot hold the first backward depth 5 + 64: the
    # window is refused before any level is computed
    monkeypatch.setattr(_kernels, "_MAX_TERMS", 60)
    with pytest.raises(NotConverged) as exc:
        exact.phonon_populations_exact(10.0, 1.0, 5)
    assert exc.value.terms_used >= 60


@pytest.mark.parametrize("fn", [exact.steady_state_exact, exact.phonon_populations_exact])
def test_population_cap_checked_before_any_level(fn, monkeypatch):
    # 1e8 levels need a recurrence deeper than the 1e7-term budget: that is
    # known before the first level is computed
    def refuse(*args, **kwargs):
        raise AssertionError("backward recurrence ran")

    monkeypatch.setattr(_kernels, "backward_ratios", refuse)
    with pytest.raises(NotConverged) as exc:
        fn(10.0, 1.0, 10**8)
    assert exc.value.terms_used == 10_000_000


def test_ground_state_window_checked_against_the_budget():
    # the ground state needs no recurrence, but its window obeys the same budget
    with pytest.raises(NotConverged) as exc:
        exact.steady_state_exact(10.0, 0.0, 10**7 - 64)
    assert exc.value.terms_used == 10_000_000
    with pytest.raises(DomainError):
        exact.steady_state_exact(10.0, 0.0, -2)


def test_public_api_has_no_term_cap_keyword():
    # budgets and tolerances are module constants, not per-call keywords:
    # the term budget, the truncation ladder's and the detuning loop's
    for name in phonon_stats.__all__:
        obj = getattr(phonon_stats, name)
        if callable(obj) and not inspect.isclass(obj):
            params = inspect.signature(obj).parameters
            for knob in ("max_terms", "rel_tol", "dim_cap", "max_iter"):
                assert knob not in params, (name, knob)


def test_classify_regime():
    assert exact.classify_regime(5.0, 0.0) is Regime.VACUUM
    n_th = 2.0
    C0 = 2.0 * n_th + 1.0
    assert exact.classify_regime(C0, n_th) is Regime.COHERENT
    assert exact.classify_regime(C0 * (1.0 + 3e-12), n_th) is Regime.ANTIBUNCHED
    assert exact.classify_regime(C0 * (1.0 - 3e-12), n_th) is Regime.BUNCHED


def test_steady_state_report_vacuum():
    rep = exact.steady_state_exact(4.0, 0.0)
    assert rep.n_ss == 0.0
    assert rep.g2 is None
    assert rep.populations[0] == 1.0
    assert rep.regime is Regime.VACUUM
    assert rep.diagnostics["population_tail"] == 0.0


def test_steady_state_report_contents():
    rep = exact.steady_state_exact(10.0, 1.0)
    assert rep.n_ss == pytest.approx(0.25322884922445058, rel=1e-11)
    assert rep.g2 == pytest.approx(0.58227906174382116, rel=1e-11)
    assert rep.regime is Regime.ANTIBUNCHED
    assert abs(rep.populations.sum() - 1.0) <= 1e-9
    d = rep.diagnostics
    assert d["model"] == "exact"
    assert d["series_terms"] >= 1
    assert 0.0 <= d["population_tail"] < 1e-8
    assert d["m_max"] == rep.populations.size - 1
