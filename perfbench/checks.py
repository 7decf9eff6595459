"""Correctness checks that do not share code with the package.

References are computed with mpmath, outside the timed phase:

* exact route: the confluent-hypergeometric forms of the series ratios,
  S_0(nu, x) = 1F1(1; nu; x)/Gamma(nu), S_1 = x S_0', S_2 = x^2 S_0'', so
  n_ss = x M(2, nu+1, x) / (2 nu M(1, nu, x)) and
  g2 = 2 nu/(nu+1) M(3, nu+2, x) M(1, nu, x) / M(2, nu+1, x)^2;
* hitemp route: M_0 = sqrt(pi/b)/2 exp(a^2/4b) erfc(a/(2 sqrt b)),
  M_1 = (1 - a M_0)/(2b), M_2 = (M_0 - a M_1)/(2b) at 50 digits.

Exact populations must satisfy the flux balance across the cut n | n+1,
n_th P_n = (n_th + 1 + C n) P_{n+1} + C (n+2) P_{n+2}, sum with the reported
tail to 1, and have mean n_ss. Hitemp populations must be a probability
vector whose reported tail accounts for its mean deficit: the true mean is
(1 - tail) * (window mean) + tail * (mean beyond the window), and the latter
exceeds the window. A hitemp point whose tail is not small (K2 in ROADMAP.md)
is counted in ``k2_points``: the report discloses the lost mass, so the
output is not wrong, but the population vector is not the distribution.

Every check returns the number of failed points of the call plus notes.
"""

from __future__ import annotations

import csv
import io
import json
import math

import mpmath as mp

from workloads import ORACLE_TOL

# relative tolerance on n_ss and g2 against the references: the series lanes
# are documented to ~1e-10 at x ~ 1e5 and measure 4e-9 at x = 2e6
OBS_TOL = 1e-8
FLUX_TOL = 1e-8
K2_TAIL = 1e-6

_refs: dict = {}


def reference(route: str, C: float, n_th: float) -> tuple[float, float | None]:
    """(n_ss, g2) of the steady state from mpmath; g2 None at n_th = 0."""
    key = (route, C, n_th)
    if key not in _refs:
        _refs[key] = _exact_ref(C, n_th) if route == "exact" else _hitemp_ref(C, n_th)
    return _refs[key]


def _exact_ref(C, n_th):
    if n_th == 0.0:
        return 0.0, None
    with mp.workdps(30):
        nu = mp.mpf(1 + 2 * n_th) / C
        x = mp.mpf(2 * n_th) / C
        f1 = mp.hyp1f1(1, nu, x, maxterms=10**7)
        f2 = mp.hyp1f1(2, nu + 1, x, maxterms=10**7)
        f3 = mp.hyp1f1(3, nu + 2, x, maxterms=10**7)
        return float(x * f2 / (2 * nu * f1)), float(2 * nu / (nu + 1) * f3 * f1 / f2**2)


def _hitemp_ref(C, n_th):
    with mp.workdps(50):
        a = 1 / mp.mpf(n_th)
        b = mp.mpf(C) / n_th
        m0 = mp.sqrt(mp.pi / b) / 2 * mp.exp(a * a / (4 * b)) * mp.erfc(a / (2 * mp.sqrt(b)))
        m1 = (1 - a * m0) / (2 * b)
        m2 = (m0 - a * m1) / (2 * b)
        return float(m1 / m0), float(m2 * m0 / m1**2)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a)


def _obs_ok(route, C, n_th, n_ss, g2) -> str | None:
    """None when (n_ss, g2) match the reference, else the reason."""
    r_n, r_g = reference(route, C, n_th)
    if not (isinstance(n_ss, float) and _rel(n_ss, r_n) <= OBS_TOL):
        return f"n_ss {n_ss!r} vs {r_n!r} at C={C!r} n_th={n_th!r}"
    if r_g is None:
        return None if g2 is None else f"g2 {g2!r}, want undefined at n_th=0"
    if not (isinstance(g2, float) and _rel(g2, r_g) <= OBS_TOL):
        return f"g2 {g2!r} vs {r_g!r} at C={C!r} n_th={n_th!r}"
    return None


def _regime(route, C, n_th) -> str | None:
    """Regime from the reference g2; None where it is within 1e-9 of 1."""
    _, g2 = reference(route, C, n_th)
    if g2 is None:
        return "Vacuum"
    if abs(g2 - 1.0) < 1e-9:
        return None
    return "Antibunched" if g2 < 1.0 else "Bunched"


def _float(text: str) -> float | None:
    return float(text) if text != "" else None


def _grid(call):
    return [(c, n) for n in call["n_th"] for c in call["C"]]


def _csv_rows(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def check_sweep(call, out):
    header, rows = _csv_rows(out["stdout"])
    grid = _grid(call)
    if header != ["C", "n_th", "model", "n_ss", "g2", "regime"] or len(rows) != len(grid):
        return len(grid), [f"sweep output has {len(rows)} rows for {len(grid)} points"]
    failed, notes = 0, []
    for (C, n_th), row in zip(grid, rows):
        why = None
        if float(row[0]) != C or float(row[1]) != n_th or row[2] != "exact":
            why = f"row {row[:3]} for C={C!r} n_th={n_th!r}"
        else:
            why = _obs_ok("exact", C, n_th, float(row[3]), _float(row[4]))
            want = _regime("exact", C, n_th)
            if why is None and want is not None and row[5] != want:
                why = f"regime {row[5]} at C={C!r} n_th={n_th!r}, want {want}"
        if why:
            failed += 1
            notes.append(why)
    return failed, notes


def _exact_populations(C, n_th, n_ss, pops, tail):
    if not all(math.isfinite(p) and p >= 0.0 for p in pops):
        return "negative or non-finite population"
    if abs(math.fsum(pops) + tail - 1.0) > 1e-10:
        return f"populations sum {math.fsum(pops)!r} + tail {tail!r} != 1"
    for n in range(len(pops) - 2):
        lhs = n_th * pops[n]
        rhs = (n_th + 1.0 + C * n) * pops[n + 1] + C * (n + 2) * pops[n + 2]
        if lhs > 1e-250 and abs(lhs - rhs) > FLUX_TOL * max(lhs, rhs):
            return f"flux balance off by {abs(lhs - rhs) / lhs:.2e} at n={n}"
    mean = math.fsum(n * p for n, p in enumerate(pops))
    if tail <= 1e-9 and _rel(mean, n_ss) > 1e-6:
        return f"population mean {mean!r} vs n_ss {n_ss!r}"
    return None


def _hitemp_populations(n_ss, pops, tail):
    """(failure reason or None, whether the point shows K2)."""
    if not all(math.isfinite(p) and p >= 0.0 for p in pops):
        return "negative or non-finite population", False
    if abs(math.fsum(pops) - 1.0) > 1e-9 or not 0.0 <= tail < 1.0:
        return f"populations sum {math.fsum(pops)!r}, tail {tail!r}", False
    mean = math.fsum(n * p for n, p in enumerate(pops))
    beyond = len(pops)  # the smallest level outside the window
    if n_ss < (1.0 - tail) * mean + tail * beyond - 1e-9 * n_ss:
        return f"reported tail {tail!r} cannot hold the mean deficit", False
    shows_k2 = tail > K2_TAIL or _rel(mean, n_ss) > 1e-6
    if tail <= 1e-12 and _rel(mean, n_ss) > 1e-6:
        return f"tail {tail!r} but population mean {mean!r} vs n_ss {n_ss!r}", shows_k2
    return None, shows_k2


def check_stats(call, out):
    C, n_th, route = call["C"][0], call["n_th"][0], call["route"]
    d = json.loads(out["stdout"])
    p = d["params"]
    if p["C"] != C or p["n_th"] != n_th or p["model"] != route:
        return 1, [f"params {p} for C={C!r} n_th={n_th!r} route={route}"], 0
    why = _obs_ok(route, C, n_th, d["n_ss"], d["g2"])
    want = _regime(route, C, n_th)
    if why is None and want is not None and d["regime"] != want:
        why = f"regime {d['regime']} at C={C!r} n_th={n_th!r}, want {want}"
    if why:
        return 1, [why], 0
    n_ss = reference(route, C, n_th)[0]
    tail = d["diagnostics"]["population_tail"]
    if route == "exact":
        why = _exact_populations(C, n_th, n_ss, d["populations"], tail)
        k2 = False
    else:
        why, k2 = _hitemp_populations(n_ss, d["populations"], tail)
    return (1 if why else 0), ([why] if why else []), int(k2)


def check_figure(call, out):
    grid = _grid(call)
    lines = out["stdout"].split()
    if len(lines) != 2 or lines[0] != call["csv"]:
        return len(grid), [f"figure printed {lines!r}"]
    header, rows = _csv_rows(out["csv"])
    if header != ["C", "n_th", "n_ss", "g2"] or len(rows) != len(grid):
        return len(grid), [f"figure csv has {len(rows)} rows for {len(grid)} points"]
    failed, notes = 0, []
    for (C, n_th), row in zip(grid, rows):
        c_row, n_row = float(row[0]), float(row[1])
        if _rel(c_row, C) > 1e-12 or n_row != n_th:
            why = f"row C={row[0]} n_th={row[1]} for C={C!r} n_th={n_th!r}"
        else:
            why = _obs_ok(call["route"], c_row, n_th, float(row[2]), _float(row[3]))
        if why:
            failed += 1
            notes.append(why)
    return failed, notes


def check_validate(call, out):
    grid = _grid(call)
    d = json.loads(out["stdout"])
    tol = ORACLE_TOL[call["oracle"]]
    pts = d["points"]
    if d["oracle"] != call["oracle"] or len(pts) != len(grid):
        return len(grid), [f"validate ran {d['oracle']} on {len(pts)} points"]
    failed, notes = 0, []
    for (C, n_th), pt in zip(grid, pts):
        why = None
        if pt["C"] != C or pt["n_th"] != n_th or pt["skipped"] or pt["model"] != "exact":
            why = f"point {pt}"
        elif pt["dev_n_ss"] > tol["n_ss"] or pt["pop_l1"] > tol["pop_l1"]:
            why = f"deviation {pt}"
        elif (pt["dev_g2"] is None) != (n_th == 0.0) or (pt["dev_g2"] or 0.0) > tol["g2"]:
            why = f"g2 deviation {pt}"
        if why:
            failed += 1
            notes.append(why)
    if not d["pass"] and not failed:
        return len(grid), ["validate reported fail with every point inside tolerance"]
    return failed, notes


def check_call(call, out) -> tuple[int, list[str], int]:
    """(failed points, notes, K2 points) of one successful call's output."""
    try:
        if call["kind"] == "stats":
            return check_stats(call, out)
        check = {"sweep": check_sweep, "figure": check_figure,
                 "validate": check_validate}[call["kind"]]
        failed, notes = check(call, out)
        return failed, notes, 0
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return call["points"], [f"unreadable output: {type(exc).__name__}: {exc}"], 0
