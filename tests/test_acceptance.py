"""Acceptance suite: one test per published behavior contract of the package.

Each test records a one-line verdict (printed after the run by the hook in
conftest.py) and asserts its own runtime budget, so a green run doubles as a
performance smoke test.
"""

import csv
import io
import json
import math
import time
from contextlib import contextmanager
from functools import partial

import numpy as np
import pytest

from conftest import ACCEPTANCE_RESULTS
from phonon_stats import exact, hitemp, lindblad
from phonon_stats.cli import main
from phonon_stats.lindblad import TruncationSpec, build_reduced_liouvillian


@contextmanager
def _criterion(num: int, label: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        dt = time.perf_counter() - t0
        ACCEPTANCE_RESULTS.append(
            f"[ACCEPTANCE] {num:02d} {label}: FAIL ({dt:.2f} s)"
        )
        raise
    dt = time.perf_counter() - t0
    if dt > budget_s:
        ACCEPTANCE_RESULTS.append(
            f"[ACCEPTANCE] {num:02d} {label}: FAIL "
            f"(runtime {dt:.2f} s > budget {budget_s:g} s)"
        )
        raise AssertionError(f"runtime {dt:.2f} s exceeds budget {budget_s:g} s")
    ACCEPTANCE_RESULTS.append(f"[ACCEPTANCE] {num:02d} {label}: PASS ({dt:.2f} s)")


def _rel_dev(a: float, b: float, floor: float = 1e-9) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) if scale < floor else abs(a - b) / scale


NTH_GRID = (0.0, 0.5, 1.0, 3.0, 5.0)
C_GRID = (0.1, 1.0, 3.0, 11.0, 50.0)


def test_01_oracle_equivalence():
    with _criterion(1, "oracle equivalence", 60.0):
        worst_n, worst_g = 0.0, 0.0
        for n_th in NTH_GRID:
            for C in C_GRID:
                _, rep = lindblad.converge_truncation(
                    partial(build_reduced_liouvillian, C, n_th), TruncationSpec(dim_mech=8)
                )
                worst_n = max(worst_n, _rel_dev(exact.mean_phonon_exact(C, n_th), rep.n_ss))
                if n_th > 0.0:
                    worst_g = max(worst_g, _rel_dev(exact.g2_exact(C, n_th), rep.g2))
        assert worst_n <= 1e-6, f"max n_ss deviation {worst_n:.3e}"
        assert worst_g <= 1e-6, f"max g2 deviation {worst_g:.3e}"


def test_02_coherent_point():
    with _criterion(2, "coherent point", 10.0):
        for n_th in (0.1, 1.0, 5.0, 20.0, 40.0):
            C = 2.0 * n_th + 1.0
            assert abs(exact.g2_exact(C, n_th) - 1.0) <= 1e-9
            assert abs(exact.mean_phonon_exact(C, n_th) - n_th / C) <= 1e-9
        _, rep = lindblad.converge_truncation(
            partial(build_reduced_liouvillian, 41.0, 20.0), TruncationSpec(dim_mech=8)
        )
        assert _rel_dev(rep.n_ss, 20.0 / 41.0) <= 1e-6
        assert _rel_dev(rep.g2, 1.0) <= 1e-6


def test_03_regime_boundary():
    with _criterion(3, "regime boundary", 30.0):
        exceptions = 0
        for C in np.logspace(-1.0, 3.0, 40):
            for n_th in np.logspace(-1.0, math.log10(40.0), 40):
                g2 = exact.g2_exact(float(C), float(n_th))
                if math.copysign(1.0, g2 - 1.0) != math.copysign(
                    1.0, 2.0 * n_th + 1.0 - C
                ):
                    exceptions += 1
        assert exceptions == 0


def test_04_thermal_and_ground_state_endpoints():
    with _criterion(4, "thermal and ground-state endpoints", 10.0):
        assert exact.g2_exact(1e-4, 5.0) == pytest.approx(2.0, rel=1e-2)
        assert exact.mean_phonon_exact(1e-4, 5.0) == pytest.approx(5.0, rel=1e-2)
        for C in (1.0, 10.0):
            _, rep = lindblad.converge_truncation(
                partial(build_reduced_liouvillian, C, 0.0), TruncationSpec(dim_mech=8)
            )
            assert rep.populations[0] >= 1.0 - 1e-10


def test_05_high_temperature_limits():
    with _criterion(5, "high-temperature limits", 1.0):
        assert abs(hitemp.g2_hitemp(1e6, 1e4) - math.pi / 2.0) <= 1e-3
        assert abs(hitemp.g2_hitemp(1e-2, 1e4) - 2.0) <= 1e-2
        want = math.sqrt(1e4 / (math.pi * 1e3))
        assert _rel_dev(hitemp.mean_phonon_hitemp(1e3, 1e4), want) <= 1e-2


def test_06_cross_regime_consistency():
    with _criterion(6, "cross-regime consistency", 60.0):
        devs_g2, devs_n = {}, {}
        for n_th in (1e2, 1e3):
            devs_g2[n_th] = _rel_dev(hitemp.g2_hitemp(1.0, n_th), exact.g2_exact(1.0, n_th))
            devs_n[n_th] = _rel_dev(
                hitemp.mean_phonon_hitemp(1.0, n_th), exact.mean_phonon_exact(1.0, n_th)
            )
        assert devs_g2[1e3] < devs_g2[1e2]
        assert devs_n[1e2] <= 5e-2 and devs_n[1e3] <= 5e-2


def test_07_adiabatic_elimination():
    with _criterion(7, "adiabatic elimination", 300.0):
        C, gamma, n_th = 3.0, 1.0, 1.0
        ref_n = exact.mean_phonon_exact(C, n_th)
        ref_g = exact.g2_exact(C, n_th)
        devs = {}
        for kappa in (200.0, 400.0):
            g = math.sqrt(C * gamma * kappa / 4.0)
            sup = lindblad.build_two_mode_rwa_liouvillian(
                g, kappa, gamma, n_th, TruncationSpec(dim_mech=30, dim_cav=4)
            )
            rep = lindblad.observables(lindblad.steady_state(sup))
            devs[kappa] = (_rel_dev(rep.n_ss, ref_n), _rel_dev(rep.g2, ref_g))
        assert devs[400.0][0] <= 5e-2 and devs[400.0][1] <= 5e-2
        assert devs[400.0][0] < devs[200.0][0]
        assert devs[400.0][1] < devs[200.0][1]


@pytest.mark.slow
def test_08_rotating_wave_validity():
    with _criterion(8, "rotating-wave validity", 600.0):
        # omega'/kappa = 50 with the drive saturating g0*n_c/omega' = 1e-3:
        # C = 3, kappa = 2000, omega' = 1e5, g = sqrt(1500), n_c = 20/3
        from phonon_stats.params import ReducedParams

        kappa, gamma, n_th = 2000.0, 1.0, 1.0
        g = math.sqrt(1500.0)
        red = ReducedParams(
            C=3.0,
            n_th=n_th,
            n_c=20.0 / 3.0,
            g=g,
            omega_m_eff=1e5,
            Gamma_opt=3.0,
            Delta_c=-2e5,
        )
        trunc = TruncationSpec(dim_mech=30, dim_cav=4)
        rwa = lindblad.observables(
            lindblad.steady_state(
                lindblad.build_two_mode_rwa_liouvillian(g, kappa, gamma, n_th, trunc)
            )
        )
        plain = lindblad.observables(
            lindblad.steady_state(
                lindblad.build_prerwa_liouvillian(red, kappa, gamma, n_th, trunc)
            )
        )
        toggled = lindblad.observables(
            lindblad.steady_state(
                lindblad.build_prerwa_liouvillian(
                    red, kappa, gamma, n_th, trunc,
                    include_quadratic_fluctuation=True,
                )
            )
        )
        assert _rel_dev(plain.n_ss, rwa.n_ss) <= 0.10
        assert _rel_dev(toggled.n_ss, plain.n_ss) <= 0.01


def test_09_population_integrity():
    with _criterion(9, "population integrity", 30.0):
        for n_th in NTH_GRID:
            if n_th == 0.0:
                continue
            for C in C_GRID:
                p = exact.phonon_populations_exact(C, n_th)
                assert abs(p.sum() - 1.0) <= 1e-8
                assert p.min() >= -1e-12
                m = np.arange(p.size, dtype=float)
                n_ss = exact.mean_phonon_exact(C, n_th)
                g2 = exact.g2_exact(C, n_th)
                assert _rel_dev(float(m @ p), n_ss) <= 1e-5
                assert _rel_dev(float((m * (m - 1.0)) @ p), g2 * n_ss * n_ss) <= 1e-5


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_10_figure_data_properties(tmp_path):
    with _criterion(10, "figure-data properties", 120.0):
        out = str(tmp_path)
        for fig in (1, 2, 5, 6):
            assert main(["figure", str(fig), "--out", out]) == 0

        # figure 1: cooling curves, monotone in C, thermal plateau at weak C
        curves = {}
        for row in _csv_rows(tmp_path / "figure1.csv"):
            curves.setdefault(float(row["n_th"]), []).append(
                (float(row["C"]), float(row["n_ss"]))
            )
        for n_th, pts in curves.items():
            pts.sort()
            values = [v for _, v in pts]
            assert all(b < a for a, b in zip(values, values[1:])), n_th
            assert values[0] == pytest.approx(n_th, rel=1e-2)

        # figure 2: g2 confined to the [pi/2, 2] corridor
        g2s = [float(r["g2"]) for r in _csv_rows(tmp_path / "figure2.csv")]
        assert min(g2s) >= math.pi / 2.0 - 0.01
        assert max(g2s) <= 2.0 + 0.01

        # figure 5: the g2 = 1 contour tracks C = 2 n_th + 1 within one cell
        grid = {}
        for row in _csv_rows(tmp_path / "figure5.csv"):
            grid.setdefault(float(row["n_th"]), []).append(
                (float(row["C"]), float(row["g2"]))
            )
        for n_th, pts in grid.items():
            pts.sort()
            cs = [c for c, _ in pts]
            signs = [g > 1.0 for _, g in pts]
            flips = [i for i in range(1, len(signs)) if signs[i - 1] and not signs[i]]
            assert len(flips) == 1, f"contour crossing not unique at n_th={n_th}"
            i = flips[0]
            c_star = 2.0 * n_th + 1.0
            # the true crossing must lie in the flip cell or a neighbor
            lo = cs[max(0, i - 2)]
            hi = cs[min(len(cs) - 1, i + 1)]
            assert lo <= c_star <= hi, (n_th, lo, c_star, hi)

        # figure 6: the C = 41 column is Poissonian at n_th = 20
        rows = _csv_rows(tmp_path / "figure6.csv")
        n = np.array([float(r["n"]) for r in rows])
        p = np.array([float(r["P_C41"]) for r in rows])
        mean = float(n @ p)
        var = float((n - mean) ** 2 @ p)
        assert var / mean == pytest.approx(1.0, abs=1e-3)
