import math

import numpy as np
import pytest

from phonon_stats import exact
from phonon_stats.errors import DomainError, NotConverged
from phonon_stats.report import Regime

# frozen from a 50-digit mpmath evaluation of the series ratios
FROZEN_OBSERVABLES = [
    # (C, n_th) -> (n_ss, g2), tolerance
    ((10.0, 1.0), (0.25322884922445058, 0.58227906174382116), 1e-11),
    ((0.1, 0.5), (0.43362864430096019, 1.7648783168289985), 1e-11),
    # large-nu point (nu = 11000): log-space accumulation costs a few digits
    ((1e-3, 5.0), (4.9047477239314443, 1.9797575948430586), 1e-10),
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
    """A hot, weakly damped point whose default window spans 6322 levels."""
    C, n_th = 1e-2, 300.0
    rep = exact.steady_state_exact(C, n_th)
    p = rep.populations
    assert rep.diagnostics["m_max"] == 6321
    # birth-death flux balance across every cut n | n+1
    n = np.arange(p.size - 2, dtype=float)
    lhs = n_th * p[:-2]
    rhs = (n_th + 1.0 + C * n) * p[1:-1] + C * (n + 2.0) * p[2:]
    live = lhs > 1e-250
    assert np.all(np.abs(lhs - rhs)[live] <= 1e-8 * lhs[live])
    assert abs(math.fsum(p) + rep.diagnostics["population_tail"] - 1.0) <= 1e-10
    assert np.arange(p.size) @ p == pytest.approx(rep.n_ss, rel=1e-8)


def test_populations_domain():
    with pytest.raises(DomainError):
        exact.phonon_populations_exact(1.0, 0.0, 10)  # needs n_th > 0
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


def test_population_cap_raises_not_converged():
    # 60 levels cannot hold the doubling check of the backward recurrence
    with pytest.raises(NotConverged) as exc:
        exact.phonon_populations_exact(10.0, 1.0, 5, max_terms=60)
    assert exc.value.terms_used >= 60


def test_classify_regime():
    assert exact.classify_regime(5.0, 0.0) is Regime.VACUUM
    n_th = 2.0
    C0 = 2.0 * n_th + 1.0
    assert exact.classify_regime(C0, n_th) is Regime.COHERENT
    assert exact.classify_regime(C0 * (1.0 + 3e-12), n_th) is Regime.ANTIBUNCHED
    assert exact.classify_regime(C0 * (1.0 - 3e-12), n_th) is Regime.BUNCHED


def test_default_m_max():
    assert exact.default_m_max(0.0) == 30
    assert exact.default_m_max(100.0) == math.ceil(100.0 + 10.0 * math.sqrt(101.0))
    # thermal-bath floor dominates for weakly damped hot states
    assert exact.default_m_max(1.0, 5.0) == 126


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
