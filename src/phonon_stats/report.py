"""Shared report container for steady-state observables."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = ["Regime", "SteadyStateReport", "G2_UNDEFINED_BELOW"]

G2_UNDEFINED_BELOW = 1e-12
"""Mean phonon number below which g2 = <b†²b²>/<b†b>² is reported as undefined
rather than as an indeterminate 0/0 ratio."""


class Regime(str, Enum):
    BUNCHED = "Bunched"
    COHERENT = "Coherent"
    ANTIBUNCHED = "Antibunched"
    VACUUM = "Vacuum"


@dataclass(eq=False)
class SteadyStateReport:
    """Steady-state observables of the mechanical mode.

    ``g2`` is ``None`` when undefined (mean occupation below
    :data:`G2_UNDEFINED_BELOW`). ``diagnostics`` carries method-specific
    metadata: series term counts, truncation tail mass, solver residuals.
    """

    n_ss: float
    g2: float | None
    populations: np.ndarray
    regime: Regime
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "n_ss": self.n_ss,
            "g2": self.g2,
            "regime": self.regime.value,
            "populations": np.asarray(self.populations).tolist(),
            "diagnostics": dict(self.diagnostics),
        }


def regime_from_observables(n_ss: float, g2: float | None) -> Regime:
    """Label a regime from measured observables (oracle reports).

    A solved steady state carries truncation-level noise in g2, so the
    coherent label uses a 1e-6 band around g2 = 1 instead of exact equality.
    """
    if g2 is None or n_ss < G2_UNDEFINED_BELOW:
        return Regime.VACUUM
    if abs(g2 - 1.0) <= 1e-6:
        return Regime.COHERENT
    return Regime.ANTIBUNCHED if g2 < 1.0 else Regime.BUNCHED
