"""The pre-RWA oracle's parameter set, validated.

The reduced model of the two-phonon-damped oscillator is controlled by two
dimensionless numbers: the multiphoton cooperativity ``C = 4 g^2/(gamma kappa)``
and the bath occupation ``n_th``. The pre-RWA Lindblad oracle also needs the
drive behind C: the intracavity photon number n_c, the coupling g, the
effective mechanical frequency omega'_m, the optical rate Gamma_opt and the
cavity detuning Delta_c = -2 omega'_m. :class:`ReducedParams` holds them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = ["ReducedParams"]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


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
