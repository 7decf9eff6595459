import math

import pytest
from scipy.optimize import brentq

from phonon_stats import constants, exact, lindblad, params
from phonon_stats.errors import DomainError, FixedPointDiverged
from phonon_stats.params import (
    PhysicalParams,
    ReducedParams,
    bose_occupation,
    derive_reduced,
)


def test_bose_occupation_room_temperature():
    # 1 MHz oscillator at 300 K; frozen from a direct extended-precision
    # evaluation of 1/(exp(hbar w / kB T) - 1) with the same CODATA constants
    got = bose_occupation(2.0 * math.pi * 1e6, 300.0)
    assert got == pytest.approx(6250985.2408283842, rel=1e-12)
    # classical limit cross-check: n ~ kB T/(hbar w) - 1/2
    classical = constants.KB * 300.0 / (constants.HBAR * 2.0 * math.pi * 1e6) - 0.5
    assert got == pytest.approx(classical, rel=1e-7)


def test_bose_occupation_ln2_point():
    # hbar w / kB T = ln 2  ->  exactly one quantum on average
    T = 1.0
    omega = math.log(2.0) * constants.KB * T / constants.HBAR
    assert bose_occupation(omega, T) == pytest.approx(1.0, rel=1e-12)


def test_bose_occupation_zero_temperature():
    assert bose_occupation(2.0 * math.pi * 1e6, 0.0) == 0.0


def test_bose_occupation_monotone_in_temperature():
    omega = 2.0 * math.pi * 5e6
    temps = [1e-3, 0.1, 4.2, 77.0, 300.0]
    occs = [bose_occupation(omega, T) for T in temps]
    assert all(b > a for a, b in zip(occs, occs[1:]))


def test_bose_occupation_deep_quantum_no_overflow():
    # hbar w / kB T ~ 5e4: exp overflows naively; occupation underflows to 0
    assert bose_occupation(2.0 * math.pi * 1e12, 1e-3) == 0.0


def test_bose_occupation_domain():
    with pytest.raises(DomainError):
        bose_occupation(0.0, 300.0)
    with pytest.raises(DomainError):
        bose_occupation(2.0 * math.pi * 1e6, -1.0)


def _phys(**kw):
    base = dict(g0=1e-2, kappa=1e4, gamma=1.0, omega_m=1e6, eta_mag=1e5, n_th=1.0)
    base.update(kw)
    return PhysicalParams(**base)


def test_physical_params_validation():
    with pytest.raises(DomainError):
        _phys(kappa=0.0)
    with pytest.raises(DomainError):
        _phys(gamma=-1.0)
    with pytest.raises(DomainError):
        _phys(omega_m=0.0)
    with pytest.raises(DomainError):
        _phys(g0=-1e-3)
    # exactly one of n_th / T
    with pytest.raises(DomainError):
        PhysicalParams(g0=1e-2, kappa=1e4, gamma=1.0, omega_m=1e6,
                       eta_mag=1e5, n_th=1.0, T=4.2)
    with pytest.raises(DomainError):
        PhysicalParams(g0=1e-2, kappa=1e4, gamma=1.0, omega_m=1e6, eta_mag=1e5)


def test_thermal_occupation_paths():
    assert _phys(n_th=3.5).thermal_occupation == 3.5
    omega = math.log(2.0) * constants.KB / constants.HBAR  # one quantum at T=1
    p = PhysicalParams(g0=0.0, kappa=1e4, gamma=1.0, omega_m=omega,
                       eta_mag=0.0, n_th=None, T=1.0)
    assert p.thermal_occupation == pytest.approx(1.0, rel=1e-12)


def test_reduced_params_validation():
    with pytest.raises(DomainError):
        ReducedParams(C=-1.0, n_th=1.0, n_c=1.0, g=1.0, omega_m_eff=1e6,
                      Gamma_opt=1.0, Delta_c=-2e6)
    with pytest.raises(DomainError):
        # detuning must sit on the two-phonon resonance
        ReducedParams(C=1.0, n_th=1.0, n_c=1.0, g=1.0, omega_m_eff=1e6,
                      Gamma_opt=1.0, Delta_c=-1.9e6)


def test_derive_reduced_against_root_finder():
    """The damped fixed point must agree with an independent 1-d root solve
    of n_c (4 (omega_m + 2 g0 n_c)^2 + kappa^2/4) = eta^2."""
    phys = _phys()

    def h(n):
        wp = phys.omega_m + 2.0 * phys.g0 * n
        return n * (4.0 * wp * wp + 0.25 * phys.kappa * phys.kappa) - phys.eta_mag**2

    hi = phys.eta_mag**2 / (4.0 * phys.omega_m**2)  # ignores the shift: upper bound
    n_ref = brentq(h, 0.0, 2.0 * hi, xtol=1e-300, rtol=8.9e-16)

    red = derive_reduced(phys)
    assert red.n_c == pytest.approx(n_ref, rel=1e-10)
    g_ref = phys.g0 * math.sqrt(n_ref)
    assert red.g == pytest.approx(g_ref, rel=1e-10)
    assert red.C == pytest.approx(4.0 * g_ref**2 / (phys.gamma * phys.kappa), rel=1e-10)


def test_derive_reduced_internal_relations():
    phys = _phys()
    red = derive_reduced(phys)
    # residual of the self-consistency condition
    wp = red.omega_m_eff
    resid = abs(red.n_c * (4.0 * wp * wp + 0.25 * phys.kappa**2) - phys.eta_mag**2)
    assert resid <= 1e-10 * phys.eta_mag**2
    assert red.omega_m_eff == pytest.approx(phys.omega_m + 2.0 * phys.g0 * red.n_c, rel=1e-14)
    assert red.Delta_c == -2.0 * red.omega_m_eff
    assert red.Gamma_opt == pytest.approx(4.0 * red.g**2 / phys.kappa, rel=1e-14)
    assert red.C * phys.gamma == pytest.approx(red.Gamma_opt, rel=1e-14)
    assert red.n_th == 1.0


def test_derive_reduced_pump_scaling():
    # in the g0 n_c << omega_m regime the cooperativity scales as eta^2
    red1 = derive_reduced(_phys())
    red2 = derive_reduced(_phys(eta_mag=2e5))
    assert red2.C == pytest.approx(4.0 * red1.C, rel=1e-6)


def test_derive_reduced_closed_forms():
    # no coupling: the loop is a single division
    red = derive_reduced(_phys(g0=0.0))
    want = 1e10 / (4e12 + 0.25e8)
    assert red.n_c == pytest.approx(want, rel=1e-14)
    assert red.C == 0.0 and red.g == 0.0
    # no pump
    red = derive_reduced(_phys(eta_mag=0.0))
    assert red.n_c == 0.0 and red.C == 0.0


def test_derive_reduced_iteration_cap(monkeypatch):
    monkeypatch.setattr(params, "_MAX_ITER", 1)
    with pytest.raises(FixedPointDiverged):
        derive_reduced(_phys())


def test_derive_reduced_cooperativity_matches_the_two_mode_oracle():
    """The C that derive_reduced reports is the one the two-mode RWA model
    at its g reduces to: the oracle at (red.g, kappa) matches the exact
    route at red.C within acceptance criterion 07's 5e-2."""
    kappa, gamma, n_th, g0, omega_m, n_c = 400.0, 1.0, 1.0, 1.0, 1e5, 300.0
    # the pump that holds n_c photons at the shifted two-phonon resonance,
    # so g^2 = g0^2 n_c = 300 and C = 4 g^2/(gamma kappa) = 3
    wp = omega_m + 2.0 * g0 * n_c
    eta = math.sqrt(n_c * (4.0 * wp * wp + 0.25 * kappa * kappa))
    red = derive_reduced(PhysicalParams(g0, kappa, gamma, omega_m, eta, n_th=n_th))
    assert red.C == pytest.approx(3.0, rel=1e-10)
    sup = lindblad.build_two_mode_rwa_liouvillian(
        red.g, kappa, gamma, n_th, lindblad.TruncationSpec(dim_mech=30, dim_cav=4)
    )
    rep = lindblad.observables(lindblad.steady_state(sup))
    n_ref, g2_ref = exact.observables_exact(red.C, n_th)
    assert rep.n_ss == pytest.approx(n_ref, rel=5e-2)
    assert rep.g2 == pytest.approx(g2_ref, rel=5e-2)
