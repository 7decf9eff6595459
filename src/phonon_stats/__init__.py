"""Steady-state phonon statistics of a two-phonon-damped mechanical oscillator.

Three independent routes to the same observables:

* :mod:`phonon_stats.exact` — closed-form series solution, valid everywhere;
* :mod:`phonon_stats.hitemp` — high-temperature closed forms (n_th >> C);
* :mod:`phonon_stats.lindblad` — truncated-Fock-space master-equation solves,
  the oracle the analytic routes are validated against. An oracle is a
  callable from a :class:`TruncationSpec` to a generator, e.g.
  ``functools.partial(lindblad.build_reduced_liouvillian, C, n_th)``, whose
  truncation :func:`converge_truncation` grows until the observables settle.

:mod:`phonon_stats.cli` exposes everything as the ``phonon-stats`` command.
The series sums run in one vectorized numpy kernel
(:mod:`phonon_stats._kernels`). Tolerances and budgets are module constants,
not keywords: ``_kernels._MAX_TERMS``, ``lindblad._LADDER_REL_TOL`` and
``lindblad._DIM_CAP``.

Importing the package loads only :mod:`phonon_stats.errors`. Every other
public name is looked up in ``_LAZY`` and its module is imported on first
access (a PEP 562 module ``__getattr__``), and so are the submodules
themselves, e.g. ``phonon_stats.lindblad``. Neither analytic route imports
scipy: ``exact`` and ``hitemp`` (:func:`erfcx` and the Fock populations
included) need only numpy and ``math``; ``lindblad`` loads ``scipy.sparse``.
"""

import importlib

from .errors import (
    BudgetExceeded,
    DomainError,
    NotConverged,
    PhononStatsError,
    SingularSystem,
    UnphysicalState,
)

__version__ = "0.1.0"

# there is no numba lane: the series kernel is numpy only (perfbench stamps this)
HAS_NUMBA = False

# submodule -> the public names it defines, loaded on first access
_EXPORTS = {
    "params": ("ReducedParams",),
    "specfun": ("SeriesSums", "recip_gamma_series"),
    "exact": (
        "observables_exact",
        "mean_phonon_exact",
        "g2_exact",
        "phonon_populations_exact",
        "classify_regime",
        "steady_state_exact",
    ),
    "hitemp": (
        "observables_hitemp",
        "mean_phonon_hitemp",
        "g2_hitemp",
        "gaussian_quartic_moments",
        "erfcx",
        "steady_state_hitemp",
    ),
    "lindblad": (
        "TruncationSpec",
        "steady_state",
        "observables",
        "converge_truncation",
    ),
    "report": ("Regime", "SteadyStateReport"),
}
_LAZY = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"_kernels", "cli"}


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


# the version stamps, the error types imported above and every lazy name
__all__ = [
    "__version__",
    "HAS_NUMBA",
    *(k for k, v in globals().items() if isinstance(v, type) and issubclass(v, PhononStatsError)),
    *_LAZY,
]
