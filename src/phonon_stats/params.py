"""Laboratory parameters and their reduction to dimensionless model inputs.

The reduced model of the two-phonon-damped oscillator is controlled by two
dimensionless numbers: the multiphoton cooperativity ``C = 4 g^2/(gamma kappa)``
and the bath occupation ``n_th``. This module maps a physical parameter set
(quadratic coupling g0, cavity linewidth kappa, mechanical linewidth gamma,
bare mechanical frequency omega_m, pump rate eta, and bath temperature) onto
those numbers, including the self-consistent choice of cavity detuning.

Self-consistency: the drive is red-detuned by twice the *effective* mechanical
frequency, Delta_c = -2 omega'_m, but omega'_m = omega_m + 2 g0 n_c is itself
shifted by the intracavity photon number n_c = eta^2/(Delta_c^2 + kappa^2/4).
``derive_reduced`` solves this loop by damped fixed-point iteration, which is
a strong contraction for any physically valid input (the damped map's local
slope magnitude stays below 1/2 at every fixed point).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import HBAR, KB
from .errors import DomainError, FixedPointDiverged

__all__ = ["PhysicalParams", "ReducedParams", "bose_occupation", "derive_reduced"]


def bose_occupation(omega_m: float, T: float) -> float:
    """Bose-Einstein occupation 1/(exp(hbar*omega_m/(kB*T)) - 1).

    ``T = 0`` returns exactly 0.0; very large ``hbar*omega/(kB*T)`` underflows
    gracefully to 0.0 rather than overflowing.
    """
    omega_m = float(omega_m)
    T = float(T)
    if not math.isfinite(omega_m) or omega_m <= 0.0:
        raise DomainError(f"omega_m must be finite and positive, got {omega_m!r}")
    if not math.isfinite(T) or T < 0.0:
        raise DomainError(f"T must be finite and nonnegative, got {T!r}")
    if T == 0.0:
        return 0.0
    a = HBAR * omega_m / (KB * T)
    if a > 700.0:  # expm1 would overflow; occupation is e^-a to this accuracy
        return math.exp(-a)
    return 1.0 / math.expm1(a)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


@dataclass(frozen=True)
class PhysicalParams:
    """Laboratory-frame parameters (angular frequencies, any common unit).

    Exactly one of ``n_th`` (dimensionless bath occupation) or ``T`` (kelvin,
    interpreted with ``omega_m``) must be supplied.
    """

    g0: float
    kappa: float
    gamma: float
    omega_m: float
    eta_mag: float
    n_th: float | None = None
    T: float | None = None

    def __post_init__(self):
        _require(math.isfinite(self.g0) and self.g0 >= 0.0, "g0 must be >= 0")
        _require(math.isfinite(self.kappa) and self.kappa > 0.0, "kappa must be > 0")
        _require(math.isfinite(self.gamma) and self.gamma > 0.0, "gamma must be > 0")
        _require(math.isfinite(self.omega_m) and self.omega_m > 0.0, "omega_m must be > 0")
        _require(math.isfinite(self.eta_mag) and self.eta_mag >= 0.0, "eta_mag must be >= 0")
        _require(
            (self.n_th is None) != (self.T is None),
            "exactly one of n_th or T must be supplied",
        )
        if self.n_th is not None:
            _require(math.isfinite(self.n_th) and self.n_th >= 0.0, "n_th must be >= 0")
        if self.T is not None:
            _require(math.isfinite(self.T) and self.T >= 0.0, "T must be >= 0")

    @property
    def thermal_occupation(self) -> float:
        """Bath occupation, from n_th directly or from (omega_m, T)."""
        if self.n_th is not None:
            return float(self.n_th)
        return bose_occupation(self.omega_m, self.T)


@dataclass(frozen=True)
class ReducedParams:
    """Dimensionless model inputs plus the derived trace quantities."""

    C: float
    n_th: float
    n_c: float
    g: float
    omega_m_eff: float
    Gamma_opt: float
    Delta_c: float

    def __post_init__(self):
        _require(math.isfinite(self.C) and self.C >= 0.0, "C must be >= 0")
        _require(math.isfinite(self.n_th) and self.n_th >= 0.0, "n_th must be >= 0")
        _require(math.isfinite(self.n_c) and self.n_c >= 0.0, "n_c must be >= 0")
        _require(math.isfinite(self.g) and self.g >= 0.0, "g must be >= 0")
        _require(
            math.isfinite(self.omega_m_eff) and self.omega_m_eff > 0.0,
            "omega_m_eff must be > 0",
        )
        _require(math.isfinite(self.Gamma_opt) and self.Gamma_opt >= 0.0, "Gamma_opt must be >= 0")
        _require(
            abs(self.Delta_c + 2.0 * self.omega_m_eff) <= 1e-9 * self.omega_m_eff,
            "Delta_c must equal -2*omega_m_eff",
        )


# the detuning loop: relative change at which the photon number is accepted,
# and the most damped rounds it may take; read at call time
_FIXED_POINT_TOL = 1e-12
_MAX_ITER = 10_000


def derive_reduced(phys: PhysicalParams) -> ReducedParams:
    """Solve the self-consistent detuning loop and form the reduced parameters.

    Returns a :class:`ReducedParams` satisfying, to ``_FIXED_POINT_TOL``,

        n_c = eta^2 / (Delta_c^2 + kappa^2/4),
        omega'_m = omega_m + 2 g0 n_c,
        Delta_c = -2 omega'_m,

    with g = g0 sqrt(n_c), Gamma_opt = 4 g^2/kappa (the two-phonon rate left
    by eliminating the cavity, see :mod:`.lindblad`), C = Gamma_opt/gamma.

    Raises
    ------
    FixedPointDiverged
        If the damped iteration has not met ``_FIXED_POINT_TOL`` within
        ``_MAX_ITER`` rounds (parameters far outside the g0*n_c << omega'_m
        regime).
    """
    eta2 = phys.eta_mag * phys.eta_mag
    kap2 = 0.25 * phys.kappa * phys.kappa
    n_th = phys.thermal_occupation

    def photon_map(n: float) -> float:
        om_eff = phys.omega_m + 2.0 * phys.g0 * n
        return eta2 / (4.0 * om_eff * om_eff + kap2)

    if phys.g0 == 0.0 or eta2 == 0.0:
        n_c = photon_map(0.0)
    else:
        n_c = eta2 / (4.0 * phys.omega_m * phys.omega_m + kap2)
        for _ in range(_MAX_ITER):
            f = photon_map(n_c)
            if abs(f - n_c) <= _FIXED_POINT_TOL * max(f, n_c):
                n_c = f
                break
            if not math.isfinite(f):
                raise FixedPointDiverged(
                    "photon-number iteration produced a non-finite value"
                )
            n_c = 0.5 * (n_c + f)  # damped update
        else:
            raise FixedPointDiverged(
                f"photon-number fixed point not converged to {_FIXED_POINT_TOL:g} "
                f"within {_MAX_ITER} iterations"
            )

    omega_m_eff = phys.omega_m + 2.0 * phys.g0 * n_c
    g = phys.g0 * math.sqrt(n_c)
    gamma_opt = 4.0 * g * g / phys.kappa
    return ReducedParams(
        C=gamma_opt / phys.gamma,
        n_th=n_th,
        n_c=n_c,
        g=g,
        omega_m_eff=omega_m_eff,
        Gamma_opt=gamma_opt,
        Delta_c=-2.0 * omega_m_eff,
    )
