import ast
import math
from pathlib import Path

import numpy as np
import pytest

from phonon_stats import _kernels, hitemp, specfun
from phonon_stats._kernels import population_logsums
from phonon_stats.errors import DomainError, NotConverged

# reference values frozen from a 50-digit mpmath evaluation of the defining
# formulas (erfcx, and direct high-precision summation of the sums)

ERFCX_REF = [
    (0.25, 0.77034654773099674),
    (1.0, 0.427583576155807),
    (3.0, 0.17900115118138995),
    (10.0, 0.056140992743822586),
]


# erfcx lives with its one caller, the high-temperature route
@pytest.mark.parametrize("x,want", ERFCX_REF)
def test_erfcx_reference_values(x, want):
    assert hitemp.erfcx(x) == pytest.approx(want, rel=5e-15)


def test_erfcx_domain():
    with pytest.raises(DomainError):
        hitemp.erfcx(float("nan"))
    with pytest.raises(DomainError):
        hitemp.erfcx(float("inf"))


def _sums(nu, x):
    """S_0, S_1, S_2 at (nu, x) with the absolute scale Gamma(nu) put back."""
    s = specfun.recip_gamma_series(nu, x)
    s0 = math.exp(s.log_f - math.lgamma(nu))
    return s0, s.m1 * s0, s.m2 * s0


def test_series_sums_reference_point():
    s0, s1, s2 = _sums(0.3, 0.2)
    assert s0 == pytest.approx(0.59457630316407353, rel=1e-13)
    assert s1 == pytest.approx(0.30112774605273279, rel=1e-13)
    assert s2 == pytest.approx(0.088802486027541427, rel=1e-13)
    assert specfun.recip_gamma_series(0.3, 0.2).terms_used >= 1


def test_series_sums_nu_one_closed_form():
    # at nu = 1 the sums collapse: S0 = e^x, S1 = x e^x, S2 = x^2 e^x
    x = 2.0
    s0, s1, s2 = _sums(1.0, x)
    assert s0 == pytest.approx(math.exp(x), rel=1e-12)
    assert s1 == pytest.approx(x * math.exp(x), rel=1e-12)
    assert s2 == pytest.approx(x * x * math.exp(x), rel=1e-12)


def test_series_sums_x_zero():
    s0, s1, s2 = _sums(0.7, 0.0)
    assert s0 == pytest.approx(1.0 / math.gamma(0.7), rel=1e-14)
    assert s1 == 0.0 and s2 == 0.0


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
    s0, s1, s2 = _sums(nu, x)
    up0, up1, _ = _sums(nu + 1.0, x)
    assert s1 == pytest.approx(x * (up0 + up1), rel=1e-11)
    rhs = (x - nu + 1.0) * s0 + (nu - 1.0) / math.gamma(nu)
    assert s1 == pytest.approx(rhs, rel=1e-10, abs=1e-13 * s0)
    assert s2 == pytest.approx((x - nu) * s1 + x * s0, rel=1e-10, abs=1e-13 * s0)


@pytest.mark.parametrize("nu", [0.2, 1.0, 5.0, 300.0, 2000010.0])
@pytest.mark.parametrize("x", [0.0, 0.3, 4.0, 200.0, 2e4, 2e6])
def test_series_cauchy_schwarz(nu, x):
    # sum k w(k) with weights w(k) = x^k/Gamma(nu+k): first moment squared
    # is bounded by second moment times mass, S_1^2 <= S_0 (S_2 + S_1), i.e.
    # m1^2 <= m1 + m2 on the ratio fields (no absolute scale log Gamma(nu)
    # enters). Measured margin: at least 4.9e-7 relative on this grid.
    s = specfun.recip_gamma_series(nu, x)
    if x == 0.0:
        assert s.m1 == 0.0 and s.m2 == 0.0
        return
    assert s.m1 * s.m1 <= s.m1 + s.m2


def test_series_not_converged_carries_term_count(monkeypatch):
    # a budget at or before the term peak (k ~ 1e5) sums nothing
    monkeypatch.setattr(_kernels, "_MAX_TERMS", 100)
    with pytest.raises(NotConverged) as exc:
        specfun.recip_gamma_series(0.5, 1e5)
    assert exc.value.terms_used is not None
    assert exc.value.terms_used >= 100


def test_series_domain_errors():
    with pytest.raises(DomainError):
        specfun.recip_gamma_series(0.0, 1.0)
    with pytest.raises(DomainError):
        specfun.recip_gamma_series(-2.0, 1.0)
    with pytest.raises(DomainError):
        specfun.recip_gamma_series(1.0, -0.5)


def _application(C, n_th):
    return (1.0 + 2.0 * n_th) / C, 2.0 * n_th / C


@pytest.mark.parametrize("nu,x", [
    (0.5, 3.0), (2.0, 40.0), (21.0, 20.0), (1e3, 1e3), (2001.0, 2e3), (2e4, 2e4),
    # (C, n_th) = (0.01, 1e3), (1e-3, 1e3), (0.1, 1e5), (1, 1e6): x up to 2e6
    _application(0.01, 1e3), _application(1e-3, 1e3),
    _application(0.1, 1e5), _application(1.0, 1e6),
    # x > nu: the terms peak at k ~ 1e5
    (0.5, 1e5),
    # x/nu = 2e-9: every term ratio is far below 1
    _application(1.0, 1e-9),
])
def test_series_observables_match_mpmath(nu, x):
    """n_ss = S_1/(2 S_0) and g2 = S_2 S_0/S_1^2 against a 40-digit direct sum.

    Only ratios of the sums enter, so the reference starts at 1 some 40 peak
    widths below the peak (lower terms are below 1e-300 of it), steps the
    terms by their ratio x/(nu + k) at 40 digits, and stops once a term past
    the peak falls below 1e-45 of the sum. Worst measured error 6.7e-16.
    """
    mpmath = pytest.importorskip("mpmath")
    s = specfun.recip_gamma_series(nu, x)
    with mpmath.workdps(40):
        k = max(0, int(x - nu - 40.0 * math.sqrt(x + 10.0)))
        t = mpmath.mpf(1)
        s0 = s1 = s2 = mpmath.mpf(0)
        while True:
            s0 += t
            s1 += k * t
            s2 += k * (k - 1) * t
            if k > x - nu and t < s0 * mpmath.mpf(10) ** -45:
                break
            t = t * x / (nu + k)
            k += 1
        n_ref = float(s1 / (2 * s0))
        g2_ref = float(s2 * s0 / (s1 * s1))
    assert 0.5 * s.m1 == pytest.approx(n_ref, rel=1e-14)
    assert s.m2 / (s.m1 * s.m1) == pytest.approx(g2_ref, rel=1e-14)


@pytest.mark.parametrize("nu,x", [(0.5, 3e3), (2001.0, 2e3), (10.0, 1e4)])
def test_series_chunks_join_exactly(nu, x, monkeypatch):
    """Chunks of 50 terms on both sides of the peak (and across the doublings
    of the range) give the sums of one chunk per side."""
    whole = _kernels.series_logsums(nu, x)
    monkeypatch.setattr(_kernels, "_CHUNK", 50)
    chunked = _kernels.series_logsums(nu, x)
    assert chunked[3:] == whole[3:]
    np.testing.assert_allclose(chunked[:3], whole[:3], rtol=1e-14)


def _rows(nu, x):
    """series_logsums as one (log_f0, m1, m2, terms_used, converged) per row."""
    return list(zip(*_kernels.series_logsums(nu, x)))


def _same(a, b):
    """Equal bit for bit, a NaN equal to a NaN."""
    return all(u == v or (u != u and v != v) for u, v in zip(a, b))


def _first_range(nu, x):
    """Terms in a row's first range, peak included (the kernel's own rule)."""
    k_peak = max(0, math.floor(x - nu) + 1)
    width = 12.0 * math.sqrt(x + 10.0)
    if nu > x:
        width = min(width, 45.0 * nu / (nu - x))
    return k_peak, math.ceil(k_peak + width + 60.0) + 1


# x = 0; peaks past k = 0; the points of the chunking test; underflowing
# ratios; seeded log-uniform rows on both sides of nu = x
_FIXED = [(1.0, 0.0), (3.0, 2.0), (1e-3, 50.0), (0.5, 3e3), (2001.0, 2e3), (10.0, 1e4),
          (810.0, 800.0), (20001.0, 2e4), (1.0, 5e-324), (5.0, 1e-300), (2.0, 1e-3)]


def _parity_grid():
    rng = np.random.default_rng(2017)
    nu = np.concatenate([[p[0] for p in _FIXED], 10.0 ** rng.uniform(-3, 4, 60)])
    x = np.concatenate([[p[1] for p in _FIXED], 10.0 ** rng.uniform(-4, 4, 60)])
    return nu, x


@pytest.mark.parametrize("patch", [
    {},
    {"_CHUNK": 50},  # every row split into chunks of 50 terms
    {"_SERIES_TOL": 1e-250},  # every row extends its range by doubling
    {"_MAX_TERMS": 400},  # rows past the budget, at or after their peak
])
def test_series_rows_equal_one_row_calls(patch, monkeypatch):
    """Each row of one batched kernel call equals the kernel called on that
    row alone, bit for bit, whatever else the call holds."""
    nu, x = _parity_grid()
    free = _rows(nu, x)
    for name, value in patch.items():
        monkeypatch.setattr(_kernels, name, value)
    batched = _rows(nu, x)
    assert len(batched) == len(nu)
    for row, a, b in zip(batched, nu, x):
        assert _same(row, _rows(a, b)[0]), (a, b)
    # the grid exercises what the patch is there for
    starts = [_first_range(a, b) for a, b in zip(nu, x)]
    assert any(k_peak > 0 for k_peak, _ in starts)
    terms = [row[3] for row in batched]
    if "_CHUNK" in patch:
        assert sum(t > 2 * 50 for t in terms) >= 20
    if "_SERIES_TOL" in patch:
        assert sum(t > n for t, (_, n) in zip(terms, starts) if t > 1) >= 20
    if "_MAX_TERMS" in patch:
        # refused rows hold NaN sums; a row whose range fits the budget is
        # as without it
        refused = [row for row in batched if not row[4]]
        assert any(k_peak >= 400 for k_peak, _ in starts) and len(refused) >= 5
        assert all(math.isnan(v) for row in refused for v in row[:3])
        fits = [(row, ref) for row, ref in zip(batched, free) if ref[3] <= 400]
        assert len(fits) >= 20 and all(row == ref for row, ref in fits)


@pytest.mark.parametrize("nu,y,m_max", [(3.0, 1.0, 12), (110.0, 50.0, 40), (2001.0, 1e3, 30)])
def test_population_logsums_match_double_series(nu, y, m_max):
    """The backward recurrence reproduces the defining sums
    B_m = sum_{k>=m} C(k, m) Gamma(nu) y^k / Gamma(nu + k), summed directly
    at 30 digits (nu > y, so the terms decay geometrically past k = m)."""
    mpmath = pytest.importorskip("mpmath")
    log_b0, _, _, _, ok_b0 = _rows(nu, y)[0]
    log_t, _, ok = population_logsums(nu, y, m_max, log_b0)
    assert ok and ok_b0
    ref = []
    with mpmath.workdps(30):
        for m in range(m_max + 1):
            s = mpmath.mpf(0)
            k = m
            while True:
                t = mpmath.exp(mpmath.loggamma(k + 1) - mpmath.loggamma(k - m + 1)
                               - mpmath.loggamma(m + 1) + mpmath.loggamma(nu)
                               + k * mpmath.log(y) - mpmath.loggamma(nu + k))
                s += t
                if k > m + 10 and t < s * mpmath.mpf(10) ** -25:
                    break
                k += 1
            ref.append(float(mpmath.log(s)))
    np.testing.assert_allclose(log_t, ref, rtol=1e-14, atol=1e-12)


def _minimal_solution(p, q, s, n):
    """x_0..x_{n-1} of x_k = p(k+1)/(q + s k + x_{k+1}) at 50 digits, run down
    from a zero tail at depth 4n + 1000; a tail twice as deep agrees to 50
    digits at every point below."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        p, q, s = mpmath.mpf(p), mpmath.mpf(q), mpmath.mpf(s)
        x, out = mpmath.mpf(0), []
        for k in range(4 * n + 999, -1, -1):
            x = p * (k + 1) / (q + s * k + x)
            if k < n:
                out.append(x)
    return out[::-1]


def _fraction(route, C, n_th):
    """(p, q, s) of the backward fraction that ``route`` runs at (C, n_th)."""
    if route == "exact":  # population ratios: p = y, q = nu - y, s = 1
        nu, y = (1.0 + 2.0 * n_th) / C, n_th / C
        return y, nu - y, 1.0
    a, b = 1.0 + 1.0 / n_th, C / n_th  # hitemp Fock moment table
    return 2.0, a / math.sqrt(b), 0.0


# the default windows there: 330 exact levels and 2590 hitemp levels, the
# latter from the backward moment table (a/sqrt(b) = 3914)
BRACKET_POINTS = [("exact", 0.05, 200.0, 330), ("hitemp", 2.22278e-3, 34053.2, 2590)]


@pytest.mark.parametrize("route,C,n_th,n", BRACKET_POINTS)
def test_backward_ratios_match_mpmath_minimal_solution(route, C, n_th, n):
    p, q, s = _fraction(route, C, n_th)
    ratios, levels, ok, width = _kernels.backward_ratios(p, q, s, n)
    assert ok and width <= _kernels._RATIO_TOL
    # one pass: the window plus the first excess over it
    assert levels == n + _kernels._EXCESS
    ref = np.array([float(x) for x in _minimal_solution(p, q, s, n)])
    np.testing.assert_allclose(ratios, ref, rtol=_kernels._RATIO_TOL, atol=0.0)


@pytest.mark.parametrize("route,C,n_th,n", BRACKET_POINTS)
def test_open_bracket_bounds_every_level(route, C, n_th, n, monkeypatch):
    """A budget one level past the window stops the lanes after one step:
    the bracket stays open, and its width still bounds the error of every
    returned ratio against the 50-digit minimal solution."""
    p, q, s = _fraction(route, C, n_th)
    monkeypatch.setattr(_kernels, "_MAX_TERMS", n + 1)
    ratios, _, ok, width = _kernels.backward_ratios(p, q, s, n)
    assert not ok and width > _kernels._RATIO_TOL
    ref = _minimal_solution(p, q, s, n)
    err = max(float(abs(x - r) / r) for x, r in zip(ratios, ref))
    assert err <= width + 1e-15


def test_backward_ratios_short_windows():
    ratios, levels, ok, width = _kernels.backward_ratios(2.0, 6.0, 0.0, 0)
    assert ratios.shape == (0,) and levels == 0 and ok and width == 0.0
    ratios, levels, ok, width = _kernels.backward_ratios(2.0, 6.0, 0.0, 1)
    assert ratios.shape == (1,) and ok and width <= _kernels._RATIO_TOL
    assert ratios[0] == pytest.approx(float(_minimal_solution(2.0, 6.0, 0.0, 1)[0]), rel=1e-15)


def test_check_window_bounds_the_first_depth():
    # the first backward depth is m_max + 64, which must stay below the budget
    cap = _kernels._MAX_TERMS
    assert _kernels.check_window(cap - 65, "window") == cap - 65
    with pytest.raises(NotConverged) as exc:
        _kernels.check_window(cap - 64, "window")
    assert exc.value.terms_used == cap


@pytest.mark.parametrize("module", ["_kernels.py", "exact.py", "specfun.py"])
def test_exact_route_modules_import_no_scipy(module):
    """The series kernel and the exact route need only numpy and math:
    no import anywhere in these files, function bodies included, names scipy."""
    tree = ast.parse(Path(specfun.__file__).with_name(module).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
    assert not any(name.split(".")[0] == "scipy" for name in imported)
