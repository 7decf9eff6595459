import ast
import math
import sys
from pathlib import Path

import mpmath
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


def _erfcx_mpmath(x: float):
    """exp(x^2) erfc(x) to 40 digits. From x = 30 up the asymptotic series is
    summed at 40 digits until its terms fall below 1e-45 (its smallest term,
    near k = x^2, is about exp(-x^2)): mpmath's own erfc loses digits there,
    2e-17 relative at x = 1e150, and fails past about 1e154."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        if x < 30:
            return mpmath.erfc(x) * mpmath.exp(x * x)
        t, term, total, k = 1 / (2 * x * x), mpmath.mpf(1), mpmath.mpf(0), 0
        while abs(term) > mpmath.mpf(10) ** -45:
            total += term
            k += 1
            term *= -(2 * k - 1) * t
        return total / (x * mpmath.sqrt(mpmath.pi))


def test_erfcx_matches_mpmath():
    """Both sides of the switch to the continued fraction at x = 1/2, x = 26,
    where erfc(x) nears the subnormals, and x past 1e154, where x^2
    overflows, up to the largest double: 6,419 points in all. Measured worst: 2.3e-16, and 4.7e-16 at the largest double, whose
    erfcx of 3.1e-309 is subnormal (spacing 1.6e-15 relative)."""
    rng = np.random.default_rng(7)
    points = np.concatenate([
        [0.0, 5e-324, 1e-300, 0.5 - 1e-9, 0.5, 0.5 + 1e-9, 26.0 - 1e-9, 26.0,
         26.0 + 1e-9, 1e154, 1.4e154, 1e200, 1e300, 2e307, sys.float_info.max],
        np.linspace(0.0, 30.0, 3001),
        np.logspace(-8.0, 8.0, 2001),
        0.5 + np.linspace(-1e-6, 1e-6, 201),
        26.0 + np.linspace(-1e-6, 1e-6, 201),
        rng.uniform(0.0, 40.0, 500),
        rng.uniform(0.0, 1e8, 500),
    ])
    assert len(points) >= 6000
    worst = 0.0
    for x in map(float, points):
        ref = _erfcx_mpmath(x)
        worst = max(worst, float(abs(hitemp.erfcx(x) - ref) / ref))
    assert worst <= 1e-15


def test_erfcx_is_monotone_across_the_switch():
    """erfcx falls strictly over 201 points 1e-9 apart around x = 1/2, where
    erfc(x) exp(x^2) hands over to the continued fraction, and around
    x = 26, where erfc(x) nears the subnormals."""
    for switch in (0.5, 26.0):
        values = [hitemp.erfcx(switch + k * 1e-9) for k in range(-100, 101)]
        assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("x0", [0.75, 2.0, 10.0, 26.0, 1e3])
def test_erfcx_never_rises_between_neighbouring_doubles(x0):
    """From x = 3/4 up erfcx never rises over 4,000 consecutive doubles. The
    fraction branch uses only +, / and sqrt, which are correctly rounded, so
    this does not depend on the platform's libm."""
    x, prev, rises = x0, hitemp.erfcx(x0), 0
    for _ in range(4000):
        x = math.nextafter(x, math.inf)
        value = hitemp.erfcx(x)
        rises += value > prev
        prev = value
    assert rises == 0


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
    for x in (0.75, 1.0):
        s0, s1, s2 = _sums(1.0, x)
        assert s0 == pytest.approx(math.exp(x), rel=1e-12)
        assert s1 == pytest.approx(x * math.exp(x), rel=1e-12)
        assert s2 == pytest.approx(x * x * math.exp(x), rel=1e-12)


def test_series_sums_x_zero():
    s0, s1, s2 = _sums(0.7, 0.0)
    assert s0 == pytest.approx(1.0 / math.gamma(0.7), rel=1e-14)
    assert s1 == 0.0 and s2 == 0.0


@pytest.mark.parametrize("gap", [0.3, 1.7, 12.0])  # nu - x, which is 1/C in the application
@pytest.mark.parametrize("x", [0.05, 1.0, 7.5, 50.0])
def test_series_contiguity_identities(gap, x):
    """Shift identities tying the weighted sums together, at nu = x + gap.

    S1(nu, x) = x * (S0(nu+1, x) + S1(nu+1, x))
    S1(nu, x) = (x - nu + 1) S0(nu, x) + (nu - 1)/Gamma(nu)
    S2(nu, x) = (x - nu) S1(nu, x) + x S0(nu, x)

    (Derived by reindexing k -> k+1 and using Gamma(nu+k+1) =
    (nu+k) Gamma(nu+k); they catch sign/offset mistakes the reference
    values alone would miss.)
    """
    nu = x + gap
    s0, s1, s2 = _sums(nu, x)
    up0, up1, _ = _sums(nu + 1.0, x)
    assert s1 == pytest.approx(x * (up0 + up1), rel=1e-11)
    rhs = (x - nu + 1.0) * s0 + (nu - 1.0) / math.gamma(nu)
    assert s1 == pytest.approx(rhs, rel=1e-10, abs=1e-13 * s0)
    assert s2 == pytest.approx((x - nu) * s1 + x * s0, rel=1e-10, abs=1e-13 * s0)


@pytest.mark.parametrize("gap", [0.2, 1.0, 5.0, 300.0, 2000010.0])  # nu - x
@pytest.mark.parametrize("x", [0.0, 0.3, 4.0, 200.0, 2e4, 2e6])
def test_series_cauchy_schwarz(gap, x):
    # sum k w(k) with weights w(k) = x^k/Gamma(nu+k): first moment squared
    # is bounded by second moment times mass, S_1^2 <= S_0 (S_2 + S_1), i.e.
    # m1^2 <= m1 + m2 on the ratio fields (no absolute scale log Gamma(nu)
    # enters). Measured margin: at least 0.57 relative on this grid.
    s = specfun.recip_gamma_series(x + gap, x)
    if x == 0.0:
        assert s.m1 == 0.0 and s.m2 == 0.0
        return
    assert s.m1 * s.m1 <= s.m1 + s.m2


def test_series_not_converged_carries_term_count(monkeypatch):
    # at nu - x = 0.5 and x = 1e5 the terms fall below 1e-18 only after
    # some 2,900, far past this budget
    monkeypatch.setattr(_kernels, "_MAX_TERMS", 100)
    with pytest.raises(NotConverged) as exc:
        specfun.recip_gamma_series(1e5 + 0.5, 1e5)
    assert exc.value.terms_used is not None
    assert exc.value.terms_used >= 100


def test_series_domain_errors():
    with pytest.raises(DomainError):
        specfun.recip_gamma_series(0.0, 1.0)
    with pytest.raises(DomainError):
        specfun.recip_gamma_series(-2.0, 1.0)
    with pytest.raises(DomainError):
        specfun.recip_gamma_series(1.0, -0.5)
    # past nu the terms grow: outside the domain 0 <= x <= nu
    with pytest.raises(DomainError, match="nu=1.0, x=2.0"):
        specfun.recip_gamma_series(1.0, 2.0)


def _application(C, n_th):
    return (1.0 + 2.0 * n_th) / C, 2.0 * n_th / C


@pytest.mark.parametrize("nu,x", [
    (3.5, 3.0), (42.0, 40.0), (21.0, 20.0), (1e3, 1e3), (2001.0, 2e3), (2e4, 2e4),
    # (C, n_th) = (0.01, 1e3), (1e-3, 1e3), (0.1, 1e5), (1, 1e6): x up to 2e6
    _application(0.01, 1e3), _application(1e-3, 1e3),
    _application(0.1, 1e5), _application(1.0, 1e6),
    # nu - x = 0.5 at x = 1e5: the terms fall below 1e-18 only after some 2,900
    (1e5 + 0.5, 1e5),
    # x/nu = 2e-9: every term ratio is far below 1
    _application(1.0, 1e-9),
])
def test_series_observables_match_mpmath(nu, x):
    """n_ss = S_1/(2 S_0) and g2 = S_2 S_0/S_1^2 against a 40-digit direct sum.

    Only ratios of the sums enter, so the reference starts at t_0 = 1, steps
    the terms by their ratio x/(nu + k) <= 1 at 40 digits, and stops once a
    term falls below 1e-45 of the sum. Worst measured error 1.6e-15 (at
    x/nu = 2e-9).
    """
    mpmath = pytest.importorskip("mpmath")
    s = specfun.recip_gamma_series(nu, x)
    with mpmath.workdps(40):
        k = 0
        t = mpmath.mpf(1)
        s0 = s1 = s2 = mpmath.mpf(0)
        while True:
            s0 += t
            s1 += k * t
            s2 += k * (k - 1) * t
            if t < s0 * mpmath.mpf(10) ** -45:
                break
            t = t * x / (nu + k)
            k += 1
        n_ref = float(s1 / (2 * s0))
        g2_ref = float(s2 * s0 / (s1 * s1))
    assert 0.5 * s.m1 == pytest.approx(n_ref, rel=1e-14)
    assert s.m2 / (s.m1 * s.m1) == pytest.approx(g2_ref, rel=1e-14)


@pytest.mark.parametrize("gap,x", [(0.5, 3e3), (2001.0, 2e3), (10.0, 1e4)])
def test_series_chunks_join_exactly(gap, x, monkeypatch):
    """Chunks of 50 terms (and across the doublings of the range) give the
    sums of one chunk, at nu = x + gap."""
    nu = x + gap
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
    """Terms in a row's first range, t_0 included (the kernel's own rule)."""
    width = 12.0 * math.sqrt(x + 10.0)
    if nu > x:
        width = min(width, 45.0 * nu / (nu - x))
    return math.ceil(width + 60.0) + 1


# x = 0; x = nu; the points of the chunking test; underflowing ratios; seeded
# log-uniform rows with log-uniform gaps nu - x
_FIXED = [(1.0, 0.0), (3.0, 2.0), (2.0, 2.0), (1e3, 1e3), (3000.5, 3e3), (2001.0, 2e3),
          (10010.0, 1e4), (810.0, 800.0), (20001.0, 2e4), (1.0, 5e-324), (5.0, 1e-300),
          (2.0, 1e-3)]


def _parity_grid():
    rng = np.random.default_rng(2017)
    gap = 10.0 ** rng.uniform(-3, 4, 60)
    x = 10.0 ** rng.uniform(-4, 4, 60)
    nu = np.concatenate([[p[0] for p in _FIXED], x + gap])
    x = np.concatenate([[p[1] for p in _FIXED], x])
    return nu, x


@pytest.mark.parametrize("patch", [
    {},
    {"_CHUNK": 50},  # every row split into chunks of 50 terms
    {"_SERIES_TOL": 1e-250},  # every row extends its range by doubling
    {"_MAX_TERMS": 400},  # rows past the budget
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
    assert all(b <= a for a, b in zip(nu, x))
    starts = [_first_range(a, b) for a, b in zip(nu, x)]
    terms = [row[3] for row in batched]
    if "_CHUNK" in patch:
        assert sum(t > 2 * 50 for t in terms) >= 20
    if "_SERIES_TOL" in patch:
        assert sum(t > n for t, n in zip(terms, starts) if t > 1) >= 20
    if "_MAX_TERMS" in patch:
        # refused rows hold NaN sums; a row whose range fits the budget is
        # as without it
        refused = [row for row in batched if not row[4]]
        assert len(refused) >= 5
        assert all(math.isnan(v) for row in refused for v in row[:3])
        fits = [(row, ref) for row, ref in zip(batched, free) if ref[3] <= 400]
        assert len(fits) >= 20 and all(row == ref for row, ref in fits)


def test_long_rows_at_the_kernel_chunk_equal_one_row_calls():
    """At the unpatched ``_CHUNK`` (2^13 terms), the row of (C, n_th) =
    (0.01, 1e4), x = 2e6, takes 17,032 terms, so three chunks; a second long
    row's last chunk stacks with its last one in a block. Mixed with short
    rows in one call, each row equals its one-row call bit for bit."""
    nu = [2e6 + 100.0, 1.95e6 + 50.0, 3.0, 810.0, 20001.0, 1e3 + 0.5]
    x = [2e6, 1.95e6, 2.0, 800.0, 2e4, 1e3]
    batched = _rows(nu, x)
    assert batched[0][3] == 17032 and _kernels._CHUNK == 8192
    assert all(row[3] > 2 * _kernels._CHUNK for row in batched[:2])
    for row, a, b in zip(batched, nu, x):
        assert _same(row, _rows(a, b)[0]), (a, b)


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


def _imported(node, *, into_functions: bool):
    """Absolute module names imported under ``node``, skipping function
    bodies unless ``into_functions``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and not into_functions:
            continue
        if isinstance(child, ast.Import):
            yield from (alias.name for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            yield child.module
        yield from _imported(child, into_functions=into_functions)


@pytest.mark.parametrize("module", ["_kernels.py", "exact.py", "specfun.py", "hitemp.py"])
def test_exact_route_modules_import_no_scipy(module):
    """The series kernel and the exact route need only numpy and math: no
    import anywhere in these files, function bodies included, names scipy.
    The hitemp route imports none at module level, so its observables load
    no scipy; ``_fock_projection`` imports ``gammaln`` in its body until
    its populations need no log n! (ROADMAP D10)."""
    tree = ast.parse(Path(specfun.__file__).with_name(module).read_text())
    imported = set(_imported(tree, into_functions=module != "hitemp.py"))
    assert not any(name.split(".")[0] == "scipy" for name in imported)
