"""Seeded workloads: the argv lists one closed-loop client sends to the CLI.

A workload is a *pass*: an ordered list of calls, each one ``phonon-stats``
command line plus the points it evaluates (so the checker knows what the
output must contain). The timed phase repeats the pass; the seed fixes every
input. Inputs are drawn by jittered stratified sampling (one draw per cell of
a fixed grid over the workload's domain) rather than i.i.d. draws: per-point
cost spans three decades here, and stratification keeps the cost of a pass,
and so the metrics, nearly independent of the seed while every seed still
sees different inputs.
"""

from __future__ import annotations

import math
import os
import random

WORKLOADS = ("sweep", "reports", "curves", "validate")

# Two-mode oracles are compared with the tolerance of acceptance criterion 07;
# the reduced oracle with the CLI defaults.
ORACLE_TOL = {
    "oracle-reduced": {"n_ss": 1e-6, "g2": 1e-6, "pop_l1": 1e-5},
    "oracle-rwa": {"n_ss": 5e-2, "g2": 5e-2, "pop_l1": 5e-2},
    "oracle-prerwa": {"n_ss": 5e-2, "g2": 5e-2, "pop_l1": 5e-2},
}

# A hitemp population window above this many levels takes over ~0.7 s per
# point today (one quadrature per level); q is drawn above the floor that
# keeps the window under it, so one point cannot dominate a pass.
HITEMP_MAX_LEVELS = 4000


def _num(x: float) -> str:
    return repr(float(x))


def _join(values) -> str:
    return ",".join(_num(v) for v in values)


def _strata(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """One log-uniform draw in each of k equal log-width cells of [lo, hi]."""
    a, b = math.log10(lo), math.log10(hi)
    return [10.0 ** (a + (b - a) * (i + rng.random()) / k) for i in range(k)]


def _logspace(lo: float, hi: float, steps: int) -> list[float]:
    a, b = math.log10(lo), math.log10(hi)
    return [10.0 ** (a + (b - a) * i / (steps - 1)) for i in range(steps)]


def _hitemp_mean_estimate(C: float, n_th: float) -> float:
    """n_ss of the high-temperature forms, for sizing only (not a reference)."""
    z = 0.5 / math.sqrt(C * n_th)
    if z > 25.0:  # math.erfc underflows soon after; n_ss -> n_th (1 - 4 q) here
        return n_th
    erfcx = math.exp(z * z) * math.erfc(z)
    return -0.5 / C + math.sqrt(n_th / (math.pi * C)) / erfcx


def _window(n_ss: float) -> int:
    return max(30, int(math.ceil(n_ss + 10.0 * math.sqrt(n_ss + 1.0))))


def _sweep(rng, tiny):
    n_c = 4 if tiny else 12
    lo, hi = -2.0, 3.0
    step = (hi - lo) / (n_c - 1)
    logs = [lo + step * i for i in range(n_c)]
    # interior points jitter; the domain edges stay put because the cost of a
    # sweep is set by its corners (small C, large n_th)
    for i in range(1, n_c - 1):
        logs[i] += step * rng.uniform(-0.3, 0.3)
    c_values = [10.0 ** v for v in logs]
    nth_values = [0.1, 10.0 ** rng.uniform(-0.1, 0.1), 10.0 ** rng.uniform(0.9, 1.1), 100.0]
    if tiny:
        nth_values = nth_values[:2]
    call = {
        "kind": "sweep",
        "argv": ["sweep", "--model", "auto", "--c-set", _join(c_values),
                 "--nth-set", _join(nth_values)],
        "C": c_values,
        "n_th": nth_values,
    }
    warm = ["sweep", "--model", "auto", "--c-set", _num(c_values[0]),
            "--nth-set", _num(nth_values[0])]
    return [call], warm


def _stats_call(C, n_th, route):
    argv = ["stats", "--C", _num(C), "--n-th", _num(n_th)]
    if route == "hitemp":
        argv[1:1] = ["--model", "hitemp"]
    return {"kind": "stats", "argv": argv, "C": [C], "n_th": [n_th], "route": route}


def _lattice(rng, n, g):
    """A Fibonacci lattice of n points with generator g in the unit square,
    shifted by a seeded random vector (mod 1).

    Every seed sees a translate of the same lattice, so each coordinate's
    marginal is an evenly spaced grid and the cost of a pass, which is steep
    in the corners, barely depends on the seed.
    """
    s1, s2 = rng.random(), rng.random()
    return [((i / n + s1) % 1.0, (i * g / n + s2) % 1.0) for i in range(n)]


def _log_between(lo, hi, t):
    return 10.0 ** (math.log10(lo) + (math.log10(hi) - math.log10(lo)) * t)


def _q_floor(n_th):
    """Smallest q in [1e-2, 1e6] whose hitemp window fits HITEMP_MAX_LEVELS."""
    lo, hi = math.log10(1e-2), math.log10(1e6)
    if _window(_hitemp_mean_estimate(1e-2 / n_th, n_th)) <= HITEMP_MAX_LEVELS:
        return 1e-2
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _window(_hitemp_mean_estimate(10.0**mid / n_th, n_th)) <= HITEMP_MAX_LEVELS:
            hi = mid
        else:
            lo = mid
    return 10.0**hi


def _reports(rng, tiny):
    (ne, ge), (nh, gh) = ((3, 2), (2, 1)) if tiny else ((55, 34), (34, 21))
    calls = []
    # exact route: n_th log-uniform in [1, 300], C log-uniform in [1e-2, 1e2]
    for u, v in _lattice(rng, ne, ge):
        calls.append(_stats_call(_log_between(1e-2, 1e2, v), _log_between(1.0, 300.0, u),
                                 "exact"))
    # hitemp route: n_th log-uniform in [1e3, 1e5], q = C n_th log-uniform in
    # [1e-2, 1e6] above the floor where the window passes HITEMP_MAX_LEVELS
    for u, v in _lattice(rng, nh, gh):
        n_th = _log_between(1e3, 1e5, u)
        q = _log_between(_q_floor(n_th), 1e6, v)
        calls.append(_stats_call(q / n_th, n_th, "hitemp"))
    rng.shuffle(calls)
    return calls, list(calls[0]["argv"])


def _figure_call(fig, nth_values, c_lo, c_hi, steps, route, out_dir, tag):
    out = os.path.join(out_dir, tag)
    argv = ["figure", str(fig), "--nth-set", _join(nth_values),
            "--c-range", f"{_num(c_lo)}:{_num(c_hi)}:{steps}:log", "--out", out]
    return {
        "kind": "figure",
        "argv": argv,
        "fig": fig,
        "csv": os.path.join(out, f"figure{fig}.csv"),
        "C": _logspace(c_lo, c_hi, steps),
        "n_th": list(nth_values),
        "route": route,
    }


def _curves(rng, tiny, out_dir):
    s = 4 if tiny else 1
    calls = []
    # figure 1: mean occupation on the hitemp forms across the figure's range
    nth = _strata(rng, 1e3, 1e6, 4 // s)
    calls.append(_figure_call(1, nth, 1e-9 * 10 ** (0.5 * rng.random()),
                              1e3 * 10 ** (-0.5 * rng.random()), 30 // s, "hitemp",
                              out_dir, "fig1"))
    # figure 2 inside the q band 1e-5..1e-3 where the moment table of g2
    # falls back to quadrature
    n0 = _strata(rng, 1e3, 1e5, 1)[0]
    calls.append(_figure_call(2, [n0], 1.05e-5 / n0, 0.95e-3 / n0, 40 // s, "hitemp",
                              out_dir, "fig2"))
    # figure 4 over its default range
    nth = _strata(rng, 1.0, 40.0, 4 // s)
    calls.append(_figure_call(4, nth, 0.1 * 10 ** (0.2 * rng.random()),
                              1e3 * 10 ** (-0.2 * rng.random()), 40 // s, "exact",
                              out_dir, "fig4"))
    # figure 4 pushed toward the auto handoff: x = 2 n_th / C up to ~1e6
    n1 = _strata(rng, 1e2, 1e3, 1)[0]
    x_max = 1e6 * 10 ** (-0.2 * rng.random())
    calls.append(_figure_call(4, [n1], 2.0 * n1 / x_max, 1.0, 20 // s, "exact",
                              out_dir, "fig4x"))
    # figure 5: the (C, n_th) map
    nth = _strata(rng, 0.1, 40.0, 10 // s)
    calls.append(_figure_call(5, nth, 0.1 * 10 ** (0.2 * rng.random()),
                              1e3 * 10 ** (-0.2 * rng.random()), 20 // s, "exact",
                              out_dir, "fig5"))
    return calls, list(calls[0]["argv"])


def _validate_call(oracle, c_values, nth_values, argv_grid):
    tol = ORACLE_TOL[oracle]
    argv = ["validate"] + argv_grid
    if oracle != "oracle-reduced":
        argv += ["--oracle", oracle, "--tol-nss", _num(tol["n_ss"]),
                 "--tol-g2", _num(tol["g2"]), "--tol-pop", _num(tol["pop_l1"])]
    return {"kind": "validate", "argv": argv, "oracle": oracle,
            "C": list(c_values), "n_th": list(nth_values)}


def _validate(rng, tiny):
    # the default run: reduced oracle on the CLI's built-in 5 x 5 grid
    default_c = [0.1, 1.0, 3.0, 11.0, 50.0]
    default_nth = [0.0, 0.5, 1.0, 3.0, 5.0]
    calls = [_validate_call("oracle-reduced", default_c, default_nth, [])]
    # two-mode oracles where their truncation ladders stop at the same rung
    # (RWA 32x4, pre-RWA 16x4); pre-RWA at n_th >= 0.4 or C < 1.5 climbs to
    # 32x5, ~12 s and ~1.1 GB
    for _ in range(1 if tiny else 3):
        C = _strata(rng, 2.0, 8.0, 1)[0]
        n_th = _strata(rng, 0.1, 0.4, 1)[0]
        calls.append(_validate_call("oracle-rwa", [C], [n_th],
                                    ["--c-set", _num(C), "--nth-set", _num(n_th)]))
    C = _strata(rng, 2.0, 8.0, 1)[0]
    n_th = _strata(rng, 0.1, 0.3, 1)[0]
    calls.append(_validate_call("oracle-prerwa", [C], [n_th],
                                ["--c-set", _num(C), "--nth-set", _num(n_th)]))
    if tiny:
        calls[0] = _validate_call("oracle-reduced", [1.0, 3.0], [0.5], [
            "--c-set", "1.0,3.0", "--nth-set", "0.5"])
    warm = ["validate", "--c-set", _num(default_c[0]), "--nth-set", _num(default_nth[0])]
    return calls, warm


def build(name: str, seed: int, out_dir: str, tiny: bool = False) -> dict:
    """The pass and warm-up argv of workload ``name`` for ``seed``.

    ``out_dir`` receives figure files; ``tiny`` shrinks the pass for the
    self-check.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "sweep":
        calls, warm = _sweep(rng, tiny)
    elif name == "reports":
        calls, warm = _reports(rng, tiny)
    elif name == "curves":
        calls, warm = _curves(rng, tiny, out_dir)
    elif name == "validate":
        calls, warm = _validate(rng, tiny)
    else:
        raise ValueError(f"unknown workload {name!r}")
    for call in calls:
        call["points"] = len(call["C"]) * len(call["n_th"])
    return {"name": name, "seed": seed, "warmup": warm, "calls": calls}
