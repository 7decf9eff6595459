"""Steady-state phonon statistics of a two-phonon-damped mechanical oscillator.

Three independent routes to the same observables:

* :mod:`phonon_stats.exact` — closed-form series solution, valid everywhere;
* :mod:`phonon_stats.hitemp` — high-temperature closed forms (n_th >> C);
* :mod:`phonon_stats.lindblad` — truncated-Fock-space master-equation solves,
  the oracle the analytic routes are validated against.

:mod:`phonon_stats.params` maps laboratory parameters onto the two
dimensionless model inputs (cooperativity C, bath occupation n_th);
:mod:`phonon_stats.cli` exposes everything as the ``phonon-stats`` command.
The series sums run in one vectorized numpy kernel
(:mod:`phonon_stats._kernels`).
"""

from .errors import (
    BudgetExceeded,
    DomainError,
    FixedPointDiverged,
    NotConverged,
    PhononStatsError,
    RecursionUnstable,
    SingularSystem,
    UnphysicalState,
)
from .exact import (
    classify_regime,
    g2_exact,
    mean_phonon_exact,
    observables_exact,
    phonon_populations_exact,
    steady_state_exact,
)
from .hitemp import (
    g2_hitemp,
    gaussian_quartic_moments,
    mean_phonon_hitemp,
    phonon_distribution_hitemp,
    steady_state_hitemp,
)
from .lindblad import (
    PreRWAModel,
    ReducedModel,
    TruncationSpec,
    TwoModeRWAModel,
    converge_truncation,
    observables,
    steady_state,
)
from .params import PhysicalParams, ReducedParams, bose_occupation, derive_reduced
from .report import Regime, SteadyStateReport
from .specfun import SeriesSums, erfcx, log_gamma, recip_gamma_series

__version__ = "0.1.0"

# there is no numba lane: the series kernel is numpy only (perfbench stamps this)
HAS_NUMBA = False

__all__ = [
    "__version__",
    "HAS_NUMBA",
    # errors
    "PhononStatsError",
    "DomainError",
    "NotConverged",
    "FixedPointDiverged",
    "RecursionUnstable",
    "SingularSystem",
    "UnphysicalState",
    "BudgetExceeded",
    # parameters
    "PhysicalParams",
    "ReducedParams",
    "bose_occupation",
    "derive_reduced",
    # special functions
    "SeriesSums",
    "log_gamma",
    "erfcx",
    "recip_gamma_series",
    # exact route
    "observables_exact",
    "mean_phonon_exact",
    "g2_exact",
    "phonon_populations_exact",
    "classify_regime",
    "steady_state_exact",
    # high-temperature route
    "mean_phonon_hitemp",
    "g2_hitemp",
    "gaussian_quartic_moments",
    "phonon_distribution_hitemp",
    "steady_state_hitemp",
    # oracle route
    "TruncationSpec",
    "ReducedModel",
    "TwoModeRWAModel",
    "PreRWAModel",
    "steady_state",
    "observables",
    "converge_truncation",
    # reports
    "Regime",
    "SteadyStateReport",
]
