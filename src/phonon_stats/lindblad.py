"""Truncated-Hilbert-space Lindblad steady states (the brute-force route).

Everything in :mod:`.exact` and :mod:`.hitemp` is closed-form; this module
solves the same physics numerically so the two routes can check each other
with no shared code path. Three generators are provided:

* the reduced single-mode master equation with two-phonon damping
  (C/2) D[b^2] + thermal contact, in units of the mechanical linewidth;
* the two-mode model it descends from, a cavity coupled via
  H = g (a^dag b^2 + b^dag^2 a) with cavity loss kappa — second-order
  elimination of the cavity maps it onto the reduced model with two-phonon
  rate 4 g^2/kappa, i.e. effective cooperativity 4 g^2/(gamma kappa), with
  corrections of order 1/kappa;
* the same two-mode system before the rotating-wave approximation, with
  counter-rotating terms and (optionally) the quadratic fluctuation term
  retained, to quantify what the RWA discards.

Dissipators carry the convention D[o] rho = 2 o rho o^dag - o^dag o rho
- rho o^dag o with rate prefactors of 1/2, so rates match decay constants.

Every generator is a Hamiltonian plus a list of (jump operator, rate) pairs,
assembled sparse by one function in the effective-Hamiltonian form
(Dalibard, Castin & Molmer, PRL 68, 580 (1992)): with column stacking,
vec(X rho Y) = (Y^T kron X) vec(rho), and A = -i H - (1/2) sum_k rate_k
o_k^dag o_k, it is I kron A + conj(A) kron I + sum_k rate_k conj(o_k) kron
o_k, cavity slot first. A builder's generator is linear in its rates and
couplings, sum_k c_k G_k, so that function forms each unit part G_k (one
unit-rate jump or one unit Hamiltonian term) once per model and truncation;
a bounded cache keeps them, and each build only weighs them with its c_k.

Each builder also declares a weak symmetry (Buca & Prosen, NJP 14, 073007
(2012); Albert & Jiang, PRA 89, 022118 (2014)) as an integer charge per
basis state: n_b for the reduced model, 2 n_a + n_b for the two-mode RWA
model, n_b mod 2 before the RWA. The sector of entries rho_ij with charge_i
= charge_j holds the diagonal and L maps it into itself and its complement
into the complement, so the steady state lies in it and only that block is
solved: d unknowns instead of d^2 for the reduced model. It is solved in the
generator's dtype (real for the reduced model), pinned by replacing one row
with the trace constraint (scaled to the Liouvillian's own norm so the
system stays well conditioned); the solution is hermitized, one
eigen-decomposition enforces positivity up to a small floor and is kept as
``min_eigenvalue``, and the residual of the whole generator is checked
before anything is reported.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import MatrixRankWarning, spsolve

from .errors import (
    BudgetExceeded,
    DomainError,
    SingularSystem,
    UnphysicalState,
)
from .params import ReducedParams
from .report import G2_UNDEFINED_BELOW, SteadyStateReport, regime_from_observables

__all__ = [
    "TruncationSpec",
    "Superoperator",
    "DensityMatrix",
    "build_reduced_liouvillian",
    "build_two_mode_rwa_liouvillian",
    "build_prerwa_liouvillian",
    "steady_state",
    "observables",
    "ReducedModel",
    "TwoModeRWAModel",
    "PreRWAModel",
    "converge_truncation",
]

_EIG_FLOOR = -1e-8
_RESIDUAL_TOL = 1e-10
_POPULATION_TAIL_TOL = 1e-9


@dataclass(frozen=True)
class TruncationSpec:
    """Hilbert-space cutoffs: ``dim_mech`` Fock levels, ``dim_cav`` for the
    cavity (1 = no cavity slot)."""

    dim_mech: int
    dim_cav: int = 1

    def __post_init__(self) -> None:
        if self.dim_mech < 2:
            raise DomainError(f"dim_mech must be >= 2, got {self.dim_mech}")
        if self.dim_cav < 1:
            raise DomainError(f"dim_cav must be >= 1, got {self.dim_cav}")

    @property
    def dim(self) -> int:
        return self.dim_mech * self.dim_cav


@dataclass(eq=False)
class Superoperator:
    """Sparse Liouvillian acting on vec(rho), dims = (dim_cav, dim_mech).

    ``charge`` declares a weak symmetry: one integer label per basis state
    such that the sector S = {(i, j) : charge_i == charge_j} of vec(rho) is
    closed under L, and so is its complement. S holds the diagonal, so the
    steady state lies in it. ``charge=None`` makes S every entry.
    """

    dims: tuple[int, int]
    matrix: sp.csr_matrix
    charge: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.charge is not None and np.shape(self.charge) != (self.dim,):
            raise DomainError(f"charge needs one integer per basis state, {self.dim} in all")

    @property
    def dim(self) -> int:
        return self.dims[0] * self.dims[1]

    def sector(self) -> np.ndarray:
        """Ascending vec(rho) indices (column stacking) of the sector S;
        every index when no charge is declared."""
        d = self.dim
        if self.charge is None:
            return np.arange(d * d)
        same = self.charge[:, None] == self.charge[None, :]
        return np.flatnonzero(same.ravel(order="F"))

    def trace_defect(self) -> float:
        """max_j |sum_i <i| L applied to basis unit |j>| traced — exactly 0
        for any Lindblad generator, so this measures assembly error."""
        d = self.dim
        trace_row = np.zeros(d * d)
        trace_row[:: d + 1] = 1.0
        defect = trace_row @ self.matrix
        return float(np.max(np.abs(defect)))


@dataclass(eq=False)
class DensityMatrix:
    """Solved steady state; ``residual`` is ||L vec(rho)||_2 / ||L||_inf and
    ``min_eigenvalue`` the smallest eigenvalue before any positivity repair
    (the value checked against the floor)."""

    matrix: np.ndarray
    dims: tuple[int, int]
    residual: float
    min_eigenvalue: float


def _destroy(dim: int) -> sp.csr_matrix:
    return sp.diags(np.sqrt(np.arange(1, dim)), 1, format="csr")


def _lift(op: sp.spmatrix, dims: tuple[int, int], slot: int) -> sp.csr_matrix:
    """Embed a single-mode operator at ``slot`` (0 = cavity, 1 = mechanics)."""
    eye_c = sp.identity(dims[0], format="csr")
    eye_m = sp.identity(dims[1], format="csr")
    if slot == 0:
        return sp.kron(op, eye_m, format="csr")
    return sp.kron(eye_c, op, format="csr")


def _liouvillian(h: sp.spmatrix | None, jumps) -> sp.csr_matrix:
    """vec form of -i[h, .] + sum_k (rate_k/2) D[o_k] for ``jumps`` of
    (o_k, rate_k); ``h = None`` (no Hamiltonian) keeps a real generator real."""
    d = (jumps[0][0] if h is None else h).shape[0]
    eye = sp.identity(d, format="csr")
    a = sum((0.5 * rate) * (op.conj().T @ op) for op, rate in jumps)
    a = -a if h is None else (-1j) * h - a
    out = sp.kron(eye, a) + sp.kron(a.conj(), eye)
    for op, rate in jumps:
        out = out + rate * sp.kron(op.conj(), op)
    return out.tocsr()


def _unit_terms(model: str, dims: tuple[int, int]):
    """Unit-rate jump operators and unit-coupling Hamiltonian terms of
    ``model``, in the order of the coefficients its builder passes."""
    if model == "reduced":
        b = _destroy(dims[1])
        return [b @ b, b.conj().T, b], []
    a = _lift(_destroy(dims[0]), dims, 0)
    b = _lift(_destroy(dims[1]), dims, 1)
    ad, bd = a.conj().T, b.conj().T
    jumps = [a, bd, b]  # cavity loss, thermal gain, thermal loss
    if model == "rwa":
        return jumps, [ad @ b @ b + bd @ bd @ a]
    x2 = (b + bd) @ (b + bd)
    num_a = ad @ a
    return jumps, [num_a, bd @ b, b @ b + bd @ bd, (a + ad) @ x2, num_a @ x2]


@functools.lru_cache(maxsize=16)
def _unit_parts(model: str, dims: tuple[int, int]):
    """The unit generators G_k of ``model`` at ``dims``, each from
    :func:`_liouvillian`, stacked on the union of their sparsity patterns.

    Returns (indices, indptr, weights): the CSR pattern of sum_k c_k G_k and
    a sparse (nnz, K) matrix whose product with the coefficients c gives the
    data array in that pattern.
    """
    jumps, terms = _unit_terms(model, dims)
    gens = [_liouvillian(None, [(op, 1.0)]) for op in jumps]
    gens += [_liouvillian(h, []) for h in terms]
    n = gens[0].shape[0]
    coos = [g.tocoo() for g in gens]
    keys = np.concatenate([c.row.astype(np.int64) * n + c.col for c in coos])
    union, slot = np.unique(keys, return_inverse=True)
    part = np.repeat(np.arange(len(coos)), [c.nnz for c in coos])
    dtype = np.result_type(*(g.dtype for g in gens))
    vals = np.concatenate([c.data.astype(dtype) for c in coos])
    weights = sp.csr_matrix((vals, (slot, part)), shape=(union.size, len(coos)))
    indptr = np.searchsorted(union, np.arange(n + 1, dtype=np.int64) * n)
    return (union % n).astype(np.int32), indptr.astype(np.int32), weights


def _assemble(model: str, dims: tuple[int, int], coefs) -> sp.csr_matrix:
    """sum_k coefs[k] G_k, in arrays of its own (the cache stays untouched)."""
    indices, indptr, weights = _unit_parts(model, dims)
    data = weights @ np.asarray(coefs, dtype=np.float64)
    n = indptr.size - 1
    return sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(n, n))


def _check_finite(**params: float) -> None:
    # nan passes every sign check, and inf or nan leaves a singular generator
    for name, val in params.items():
        if not math.isfinite(val):
            raise DomainError(f"{name} must be finite, got {val!r}")


def build_reduced_liouvillian(
    C: float, n_th: float, trunc: TruncationSpec
) -> Superoperator:
    """Single-mode generator (C/2) D[b^2] + (n_th/2) D[b^dag]
    + ((n_th+1)/2) D[b], time in units of 1/gamma. Every jump moves n_b
    on both sides of rho alike, so the charge is n_b and the steady
    state is diagonal."""
    if trunc.dim_cav != 1:
        raise DomainError("reduced model is single-mode; dim_cav must be 1")
    C = float(C)
    n_th = float(n_th)
    _check_finite(C=C, n_th=n_th)
    if C < 0.0 or n_th < 0.0:
        raise DomainError("C and n_th must be nonnegative")
    dims = (1, trunc.dim_mech)
    matrix = _assemble("reduced", dims, (C, n_th, n_th + 1.0))
    return Superoperator(dims, matrix, charge=np.arange(dims[1]))


def _two_mode_checks(model, trunc, kappa, gamma, n_th, **finite):
    """Checks the two-mode builders share: cavity loss kappa, mechanical
    contact gamma at occupation n_th. ``finite`` holds the builder's own
    parameters checked ahead of these. Returns (dims, jump coefficients)."""
    if trunc.dim_cav < 2:
        raise DomainError(f"{model} model needs dim_cav >= 2")
    _check_finite(**finite, kappa=kappa, gamma=gamma, n_th=n_th)
    if kappa <= 0.0 or gamma <= 0.0:
        raise DomainError("kappa and gamma must be positive")
    if n_th < 0.0:
        raise DomainError("n_th must be nonnegative")
    dims = (trunc.dim_cav, trunc.dim_mech)
    return dims, [kappa, gamma * n_th, gamma * (n_th + 1.0)]


def build_two_mode_rwa_liouvillian(
    g: float,
    kappa: float,
    gamma: float,
    n_th: float,
    trunc: TruncationSpec,
) -> Superoperator:
    """Cavity + mechanics with H = g (a^dag b^2 + b^dag^2 a) in the rotating
    frame, cavity loss kappa, mechanical contact gamma at occupation n_th.
    H conserves 2 n_a + n_b and each jump moves it on both sides of rho
    alike, so that is the charge."""
    dims, coefs = _two_mode_checks("two-mode", trunc, kappa, gamma, n_th, g=g)
    matrix = _assemble("rwa", dims, coefs + [g])
    charge = np.add.outer(2 * np.arange(dims[0]), np.arange(dims[1])).ravel()
    return Superoperator(dims, matrix, charge=charge)


def build_prerwa_liouvillian(
    reduced: ReducedParams,
    kappa: float,
    gamma: float,
    n_th: float,
    trunc: TruncationSpec,
    *,
    include_quadratic_fluctuation: bool = False,
) -> Superoperator:
    """Laboratory-frame two-mode generator, before any rotating-wave step.

    H = -Delta_c a^dag a + omega' b^dag b + g0 n_c (b^dag^2 + b^2)
        + g (a + a^dag)(b + b^dag)^2
        [+ g0 a^dag a (b + b^dag)^2   when include_quadratic_fluctuation]

    with Delta_c = -2 omega' taken from ``reduced`` (enforced there), the
    displaced-frame coupling g = g0 sqrt(n_c), and the static squeezing term
    g0 n_c = g sqrt(n_c) carried by the condensate displacement. Frequencies
    are in the same units as kappa and gamma. Only the parity of n_b
    survives the counter-rotating terms: the charge is n_b mod 2.
    """
    dims, coefs = _two_mode_checks("pre-RWA", trunc, kappa, gamma, n_th)
    if reduced.n_c == 0.0 and reduced.g > 0.0:
        raise DomainError(
            "pre-RWA model needs the cavity occupation n_c that produced g"
        )
    g = reduced.g
    g0 = 0.0
    if include_quadratic_fluctuation and reduced.n_c > 0.0:
        g0 = g / math.sqrt(reduced.n_c)
    coefs += [-reduced.Delta_c, reduced.omega_m_eff, g * math.sqrt(reduced.n_c), g, g0]
    matrix = _assemble("prerwa", dims, coefs)
    charge = np.tile(np.arange(dims[1]) % 2, dims[0])
    return Superoperator(dims, matrix, charge=charge)


def steady_state(sup: Superoperator) -> DensityMatrix:
    """Null vector of the generator in its declared sector, pinned by the
    trace constraint.

    Only the block L[S, S] of the sector S (see :class:`Superoperator`) is
    solved, in the generator's own dtype, so a real generator takes a real
    factorization; with no charge S is every entry. The row of rho[0, 0]
    is replaced by the trace functional scaled to ||L||_inf, the right-hand
    side is that same scale, and the sparse LU solution is hermitized and
    floor-checked; the one ``eigvalsh`` of that check also sets
    ``min_eigenvalue``, which :func:`observables` reports. The residual is
    taken against the whole generator. Raises :class:`SingularSystem` when
    the factorization degenerates or that residual exceeds
    ``1e-10 ||L||_inf`` (e.g. a generator with multiple steady states), and
    :class:`UnphysicalState` when an eigenvalue falls below -1e-8. A second
    steady state outside the sector goes unseen, so only generators whose
    symmetry is known declare a charge.
    """
    d = sup.dim
    L = sup.matrix.tocsr()
    scale = float(np.max(np.abs(L).sum(axis=1))) or 1.0

    sector = sup.sector()
    n = sector.size
    coo = L[sector][:, sector].tocoo()
    keep = coo.row != 0  # rho[0, 0] is sector entry 0
    trace_cols = np.searchsorted(sector, np.arange(d) * (d + 1))
    rows = np.concatenate([coo.row[keep], np.zeros(d, dtype=coo.row.dtype)])
    cols = np.concatenate([coo.col[keep], trace_cols])
    vals = np.concatenate([coo.data[keep], np.full(d, scale, dtype=L.dtype)])
    pinned = sp.csc_matrix((vals, (rows, cols)), shape=(n, n))

    rhs = np.zeros(n, dtype=L.dtype)
    rhs[0] = scale
    with warnings.catch_warnings():
        warnings.simplefilter("error", MatrixRankWarning)
        try:
            sol = spsolve(pinned, rhs)
        except (RuntimeError, MatrixRankWarning) as exc:
            raise SingularSystem(f"sparse solve failed: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise SingularSystem("sparse solve returned non-finite entries")

    vec = np.zeros(d * d, dtype=sol.dtype)
    vec[sector] = sol
    rho = vec.reshape(d, d, order="F")  # column stacking
    rho = 0.5 * (rho + rho.conj().T)
    tr = float(np.real(np.trace(rho)))
    if abs(tr) < 1e-300:
        raise SingularSystem("solved state has vanishing trace")
    rho /= tr

    min_eig = float(np.linalg.eigvalsh(rho)[0])
    if min_eig < _EIG_FLOOR:
        raise UnphysicalState(
            f"steady state has eigenvalue {min_eig:.3e} below {_EIG_FLOOR:g}; "
            "truncation is too tight for this parameter set"
        )
    if min_eig < 0.0:
        w, v = np.linalg.eigh(rho)
        w = np.clip(w, 0.0, None)
        rho = (v * w) @ v.conj().T
        rho /= np.real(np.trace(rho))

    residual = float(np.linalg.norm(L @ rho.reshape(-1, order="F")))
    if residual > _RESIDUAL_TOL * scale:
        raise SingularSystem(
            f"steady state residual {residual:.3e} exceeds "
            f"{_RESIDUAL_TOL:g} * ||L||_inf = {_RESIDUAL_TOL * scale:.3e}; "
            "the generator's kernel is likely degenerate"
        )
    return DensityMatrix(rho, sup.dims, residual / scale, min_eig)


def _partial_trace_mech(rho: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    full = rho.reshape(dims[0], dims[1], dims[0], dims[1])
    return np.einsum("aiaj->ij", full)


def _partial_trace_cav(rho: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    full = rho.reshape(dims[0], dims[1], dims[0], dims[1])
    return np.einsum("aibi->ab", full)


def observables(state: DensityMatrix, mode: str = "mech") -> SteadyStateReport:
    """Occupation, g2(0), and Fock populations of one mode of the state;
    ``min_eigenvalue`` is the state's, so where the positivity repair fired
    it is the negative eigenvalue checked against the floor, not 0."""
    if mode == "mech":
        red = _partial_trace_mech(state.matrix, state.dims)
    elif mode == "cav":
        red = _partial_trace_cav(state.matrix, state.dims)
    else:
        raise DomainError(f"mode must be 'mech' or 'cav', got {mode!r}")
    pops = np.clip(np.real(np.diag(red)), 0.0, None)
    n = np.arange(len(pops), dtype=np.float64)
    n_ss = float(n @ pops)
    m2 = float((n * (n - 1.0)) @ pops)
    g2 = m2 / n_ss**2 if n_ss >= G2_UNDEFINED_BELOW else None
    top_two = float(pops[-2:].sum()) if len(pops) >= 2 else float(pops.sum())
    return SteadyStateReport(
        n_ss=n_ss,
        g2=g2,
        populations=pops,
        regime=regime_from_observables(n_ss, g2),
        diagnostics={
            "model": "lindblad",
            "residual": state.residual,
            "top_two_population": top_two,
            "min_eigenvalue": state.min_eigenvalue,
        },
    )


@dataclass(frozen=True)
class ReducedModel:
    C: float
    n_th: float

    def build(self, trunc: TruncationSpec) -> Superoperator:
        return build_reduced_liouvillian(self.C, self.n_th, trunc)


@dataclass(frozen=True)
class TwoModeRWAModel:
    g: float
    kappa: float
    gamma: float
    n_th: float

    def build(self, trunc: TruncationSpec) -> Superoperator:
        return build_two_mode_rwa_liouvillian(
            self.g, self.kappa, self.gamma, self.n_th, trunc
        )


@dataclass(frozen=True)
class PreRWAModel:
    reduced: ReducedParams
    kappa: float
    gamma: float
    n_th: float
    include_quadratic_fluctuation: bool = False

    def build(self, trunc: TruncationSpec) -> Superoperator:
        return build_prerwa_liouvillian(
            self.reduced,
            self.kappa,
            self.gamma,
            self.n_th,
            trunc,
            include_quadratic_fluctuation=self.include_quadratic_fluctuation,
        )


def _grow(trunc: TruncationSpec) -> TruncationSpec:
    # the builders refuse a cavity slot on the reduced model and a two-mode
    # model without one, so dim_cav > 1 says the cavity grows too
    return TruncationSpec(
        dim_mech=trunc.dim_mech * 2,
        dim_cav=trunc.dim_cav + 1 if trunc.dim_cav > 1 else 1,
    )


def converge_truncation(
    model,
    initial: TruncationSpec,
    *,
    rel_tol: float = 1e-6,
    dim_cap: int = 4096,
) -> tuple[TruncationSpec, SteadyStateReport]:
    """Grow the truncation until the mechanical observables stop moving.

    Doubles dim_mech each round (and bumps dim_cav for two-mode models);
    accepts once n_ss and g2 change by less than ``rel_tol`` between rounds
    (with an absolute floor of 1e-12 so vacuum-level observables, which are
    pure solver noise, can still settle) AND the top two mechanical
    populations sum below 1e-9. Raises :class:`BudgetExceeded`
    carrying the last attempted spec and report when the next step would
    pass ``dim_cap``.
    """
    trunc = initial
    prev: SteadyStateReport | None = None
    while True:
        report = observables(steady_state(model.build(trunc)), mode="mech")
        tail_ok = report.diagnostics["top_two_population"] < _POPULATION_TAIL_TOL
        if prev is not None and tail_ok:
            dn = math.isclose(report.n_ss, prev.n_ss, rel_tol=rel_tol, abs_tol=1e-12)
            if report.g2 is None or prev.g2 is None:
                dg = report.g2 is None and prev.g2 is None
            else:
                dg = math.isclose(report.g2, prev.g2, rel_tol=rel_tol, abs_tol=1e-12)
            if dn and dg:
                return trunc, report
        nxt = _grow(trunc)
        if nxt.dim > dim_cap:
            raise BudgetExceeded(
                f"next truncation {nxt.dim_cav}x{nxt.dim_mech} exceeds "
                f"dim_cap={dim_cap} before convergence",
                last_spec=trunc,
                last_report=report,
            )
        prev = report
        trunc = nxt

