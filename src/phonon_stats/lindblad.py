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
o_k, cavity slot first. That function is the full reference; the
builders assemble only the sector block the solve reads (below). A
builder's generator is linear in its rates and couplings, sum_k c_k G_k,
so each unit part G_k (one unit-rate jump or one unit Hamiltonian term)
is formed once per model and truncation, restricted to the sector, from
the nonzeros of its Kronecker factors; a bounded cache keeps them, and
each build only weighs them with its c_k.

Each builder also declares a weak symmetry (Buca & Prosen, NJP 14, 073007
(2012); Albert & Jiang, PRA 89, 022118 (2014)) as an integer charge per
basis state: n_b for the reduced model, 2 n_a + n_b for the two-mode RWA
model, n_b mod 2 before the RWA. The sector of entries rho_ij with charge_i
= charge_j holds the diagonal and L maps it into itself and its complement
into the complement, so the steady state lies in it and only that block is
built and solved: d unknowns instead of d^2 for the reduced model, and
memory and time that scale with the sector, not with d^2. Two solves
share that block:

* sparse LU in the generator's dtype (real for the reduced model), pinned
  by replacing one row with the trace constraint (scaled to the
  Liouvillian's own norm so the system stays well conditioned). It runs
  where the sector is small next to d^2: the reduced model (n = d) and
  the two-mode RWA model (n of about 4 d at 4x32).
* GMRES preconditioned by the generator's non-jump part, inverted in its
  eigenbasis (Nation, arXiv:1504.06768, reviews such solvers). It runs
  where the sector holds more than d^1.5 entries and the generator
  carries its factors: the pre-RWA parity sector (n = d^2/2), whose 4-D
  lattice sparse LU fills almost densely. Measured on 2 vCPUs at C = 4,
  n_th = 0.2, GMRES against LU: 7 against 8-10 ms at 3x8, 13-18 against
  247-276 ms at 4x16, 26 against 645-788 ms at 5x16, and 0.14 s against
  10.8 s (623 MiB peak) at 5x32; 15 to 33 iterations for C in [0.1, 50]
  and n_th in [0, 1], with and without the quadratic fluctuation term.
  On the other models GMRES loses: 22-26 against 10-12 ms for RWA at
  4x32, 20 against 2 ms for the reduced model at 64 levels.

Both end in one tail on the sector entries, which stay the state: no d x d
array is formed. They are hermitized with their transposes and normalized,
positivity is checked per charge block (rho is block-diagonal in the
charge, so its spectrum is the union of the blocks' spectra; the reduced
model's blocks are its diagonal entries) up to a small floor and kept as
``min_eigenvalue``, only blocks with a negative eigenvalue are repaired,
and the residual against the sector block is checked before anything is
reported. That residual equals the whole generator's because the charge
is checked to close its sector (L[S^c, S] = 0) once, where the block is
formed: in the builders' cache, or when a hand-built generator's block is
sliced from its matrix.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, MatrixRankWarning, gmres, spsolve

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
    "converge_truncation",
]

_EIG_FLOOR = -1e-8
_RESIDUAL_TOL = 1e-10
_POPULATION_TAIL_TOL = 1e-9
# the truncation ladder: relative change of n_ss and g2 at which a rung is
# accepted, and the largest Hilbert dimension it may try; read at call time
_LADDER_REL_TOL = 1e-6
_DIM_CAP = 4096
# GMRES on the preconditioned system: relative residual, Krylov basis size
# (restart + 1 vectors of the sector's length are held, 12.5 MB at 5x32)
# and restart cycles. Pre-RWA took 11 to 40 iterations at most points tried
# (3x8 to 5x32, C in [0.01, 100], n_th in [0, 5], kappa 200 and 2000) and
# up to 86 at 5x32 with n_th >= 2 and small C or kappa = 200.
_KRYLOV_RTOL = 1e-12
_KRYLOV_RESTART = 60
_KRYLOV_CYCLES = 5


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

    ``h`` and ``jumps`` are the generator's factors, the Hamiltonian and
    the (o_k, rate_k) pairs that :func:`_liouvillian` turns into
    ``matrix``; :func:`steady_state` uses them for its Krylov solve. A
    generator without jumps carries no factors. The builders pass
    ``matrix=None``: they assemble only the block L[S, S] that the solve
    reads, and ``matrix`` is formed from the factors when first read. Their
    jump operators are shared with their cache and are read-only.
    """

    dims: tuple[int, int]
    matrix: sp.csr_matrix | None = field(repr=False)
    charge: np.ndarray | None = None
    h: sp.csr_matrix | None = None
    jumps: tuple = ()
    # (layout, L[S, S]); see _sector_block
    _block: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.charge is not None and np.shape(self.charge) != (self.dim,):
            raise DomainError(f"charge needs one integer per basis state, {self.dim} in all")
        if self.matrix is None:
            if not self.jumps:
                raise DomainError("a generator needs its matrix or its jump operators")
            del self.matrix  # formed by __getattr__ when first read

    def __getattr__(self, name: str):
        # reached only for attributes not set, and only ``matrix`` may be
        if name != "matrix":
            raise AttributeError(name)
        self.matrix = _liouvillian(self.h, self.jumps)
        return self.matrix

    @property
    def dim(self) -> int:
        return self.dims[0] * self.dims[1]

    def sector(self) -> np.ndarray:
        """Ascending vec(rho) indices (column stacking) of the sector S;
        every index when no charge is declared."""
        return _sector(self.charge, self.dim)

    def trace_defect(self) -> float:
        """max_j |sum_i <i| L applied to basis unit |j>| traced, over the
        sector block the solve reads (L maps the complement into itself,
        which holds no diagonal entry) — exactly 0 for any Lindblad
        generator, so this measures assembly error."""
        lay, block = self._sector_block()
        trace_row = np.zeros(block.shape[0])
        trace_row[lay.diag] = 1.0
        defect = trace_row @ block
        return float(np.max(np.abs(defect)))

    def _sector_block(self) -> tuple[_Layout, sp.csr_matrix]:
        """The :class:`_Layout` of the charge and the block L[S, S].

        The builders set both from their cache. A hand-built generator's
        block is sliced from ``matrix`` here, once, after the check that L
        maps no entry of S outside it (L[S^c, S] = 0): a charge that fails
        it raises :class:`DomainError`.
        """
        if self._block is None:
            d = self.dim
            sector = self.sector()
            L = self.matrix.tocsr()
            outside = np.ones(d * d, dtype=bool)
            outside[sector] = False
            if L[outside][:, sector].count_nonzero():
                raise DomainError(
                    "the declared charge does not close its sector: "
                    "L maps entries of S outside it"
                )
            block = L[sector][:, sector]
            block.sum_duplicates()
            n = sector.size
            rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(block.indptr))
            self._block = (_layout(self.charge, d, sector, rows * n + block.indices), block)
        return self._block


@dataclass(frozen=True, eq=False)
class _Layout:
    """What a charge fixes about the steady-state solve at one dimension d.

    ``sector`` holds S's ascending vec(rho) indices, ``diag`` the positions
    in S of rho's diagonal, ``mirror`` the position of each entry's
    transpose, ``block_pos`` those of the charge blocks' entries, one
    (k, m, m) array per block size m (:func:`_blocks`). ``indices``/``indptr``
    are the CSR pattern of L[S, S]; ``pinned_indices``/``pinned_indptr`` the
    CSC pattern of the system the sparse LU solves, the row of rho[0, 0]
    (sector entry 0) replaced by the trace functional, and ``take`` maps
    its entries to the block's data, the trace entries to index nnz, where
    the solve appends the scale. The builders keep one per (model, dims);
    its arrays are read-only.
    """

    charge: np.ndarray | None
    sector: np.ndarray
    diag: np.ndarray
    mirror: np.ndarray
    block_pos: list
    indices: np.ndarray
    indptr: np.ndarray
    pinned_indices: np.ndarray
    pinned_indptr: np.ndarray
    take: np.ndarray


@dataclass(eq=False)
class DensityMatrix:
    """Solved steady state: ``values`` holds its sector entries rho_S in the
    order of ``layout.sector`` (rho is zero outside S), ``residual`` is
    ||L[S, S] rho_S||_2 / ||L[S, S]||_inf (equal to the whole generator's,
    see :func:`steady_state`), ``min_eigenvalue`` the smallest eigenvalue
    before any positivity repair (the value checked against the floor),
    ``solver`` the solve that ran (``"sector-lu"`` or ``"krylov"``) and
    ``iterations`` the Krylov iteration count (None for the LU)."""

    values: np.ndarray
    layout: _Layout
    dims: tuple[int, int]
    residual: float
    min_eigenvalue: float
    solver: str = "sector-lu"
    iterations: int | None = None


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


def _sector(charge, d: int) -> np.ndarray:
    """Ascending vec(rho) indices of S = {(i, j) : charge_i == charge_j};
    every index for ``charge=None``."""
    if charge is None:
        return np.arange(d * d)
    # pairs within each charge block, so nothing of size d^2 is formed
    keys = [(idx[:, None, :] * d + idx[:, :, None]).ravel() for idx in _blocks(charge, d)]
    return np.sort(np.concatenate(keys))


def _blocks(charge, d: int) -> list[np.ndarray]:
    """Basis indices of the charge blocks, grouped by block size: one (k, m)
    array per size m, one row per block. With no charge the whole basis is
    one block."""
    if charge is None:
        return [np.arange(d)[None, :]]
    order = np.argsort(charge, kind="stable")
    _, starts, sizes = np.unique(charge[order], return_index=True, return_counts=True)
    return [order[starts[sizes == m][:, None] + np.arange(m)] for m in np.unique(sizes)]


def _compressed(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(indices, indptr) of n x n entries given as ascending unique keys
    major * n + minor: the CSR pattern for keys row * n + col, the CSC
    pattern for col * n + row."""
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    return (keys % n).astype(np.int32), indptr.astype(np.int32)


def _layout(charge, d: int, sector: np.ndarray, keys: np.ndarray) -> _Layout:
    """The :class:`_Layout` of ``charge`` at dimension ``d``, given its
    ``sector``, where ``keys`` are row * n + col of the entries of L[S, S],
    ascending and unique."""
    n = sector.size
    diag = np.searchsorted(sector, np.arange(d) * (d + 1))
    cols, rows = np.divmod(sector, d)  # column stacking
    mirror = np.searchsorted(sector, rows * d + cols)
    block_pos = [np.searchsorted(sector, idx[:, :, None] + idx[:, None, :] * d)
                 for idx in _blocks(charge, d)]
    kept = np.flatnonzero(keys >= n)  # every row but row 0
    # column-major keys; the trace entries sit in row 0, at rho's diagonal
    pinned = np.concatenate([keys[kept] % n * n + keys[kept] // n, diag * n])
    order = np.argsort(pinned)
    take = np.concatenate([kept, np.full(d, keys.size)])[order].astype(np.int32)
    lay = _Layout(
        charge, sector, diag, mirror, block_pos,
        *_compressed(keys, n), *_compressed(pinned[order], n), take,
    )
    for arr in (lay.sector, lay.diag, lay.mirror, *lay.block_pos, lay.indices,
                lay.indptr, lay.pinned_indices, lay.pinned_indptr, lay.take):
        arr.flags.writeable = False
    return lay


def _equal_pairs(k1: np.ndarray, k2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (p, q) of every pair with k1[p] == k2[q]."""
    order = np.argsort(k2, kind="stable")
    ks = k2[order]
    lo = np.searchsorted(ks, k1, side="left")
    count = np.searchsorted(ks, k1, side="right") - lo
    p = np.repeat(np.arange(k1.size), count)
    q = order[np.arange(p.size) + np.repeat(lo - np.cumsum(count) + count, count)]
    return p, q


def _sector_kron(m1, m2, charge: np.ndarray, sector: np.ndarray):
    """kron(m1, m2)[S, S] as (keys, values), key = row * n + col for row and
    column given as positions in S, without forming the d^2 x d^2 product.

    With column stacking kron(m1, m2) sends rho[i, j] to rho[i', j'] with
    weight m1[j', j] m2[i', i]. S's columns have charge_i == charge_j, so
    the nonzeros of m1 and m2 are paired where their columns carry equal
    charge. A pair whose row (i', j') has unequal charges lands outside S:
    the charge does not close its sector, and :class:`DomainError` is raised.
    """
    c1, c2 = m1.tocoo(), m2.tocoo()
    p, q = _equal_pairs(charge[c1.col], charge[c2.col])
    i, j = c2.row[q], c1.row[p]
    if np.any(charge[i] != charge[j]):
        raise DomainError(
            "the declared charge does not close its sector: "
            "L maps entries of S outside it"
        )
    d = charge.size
    rows = np.searchsorted(sector, j.astype(np.int64) * d + i)
    cols = np.searchsorted(sector, c1.col[p].astype(np.int64) * d + c2.col[q])
    return rows * sector.size + cols, c1.data[p] * c2.data[q]


def _kron_factors(jumps, terms, d: int):
    """(k, m1, m2) for each Kronecker product kron(m1, m2) of the unit
    generator G_k, in the form of the module docstring: a unit-rate jump o
    gives I kron A + conj(A) kron I + conj(o) kron o with A = -(1/2) o^dag
    o, a unit Hamiltonian term t the first two with A = -i t."""
    eye = sp.identity(d, format="csr")
    for k, op in enumerate(jumps):
        a = -0.5 * (op.conj().T @ op)
        yield from ((k, eye, a), (k, a.conj(), eye), (k, op.conj(), op))
    for k, t in enumerate(terms, len(jumps)):
        a = -1j * t
        yield from ((k, eye, a), (k, a.conj(), eye))


def _unit_ops(model: str, dims: tuple[int, int]):
    """Unit-rate jump operators and unit-coupling Hamiltonian terms of
    ``model``, in the order of the coefficients its builder passes, and its
    charge (see the builders)."""
    if model == "reduced":
        b = _destroy(dims[1])
        jumps, terms = [b @ b, b.conj().T, b], []
        charge = np.arange(dims[1])
    else:
        a = _lift(_destroy(dims[0]), dims, 0)
        b = _lift(_destroy(dims[1]), dims, 1)
        ad, bd = a.conj().T, b.conj().T
        jumps = [a, bd, b]  # cavity loss, thermal gain, thermal loss
        if model == "rwa":
            terms = [ad @ b @ b + bd @ bd @ a]
            charge = np.add.outer(2 * np.arange(dims[0]), np.arange(dims[1])).ravel()
        else:
            x2 = (b + bd) @ (b + bd)
            num_a = ad @ a
            terms = [num_a, bd @ b, b @ b + bd @ bd, (a + ad) @ x2, num_a @ x2]
            charge = np.tile(np.arange(dims[1]) % 2, dims[0])
    return [op.tocsr() for op in jumps], terms, charge


@functools.lru_cache(maxsize=16)
def _unit_parts(model: str, dims: tuple[int, int]):
    """The unit generators G_k of ``model`` at ``dims`` restricted to the
    sector, stacked on the union of their sparsity patterns.

    Each G_k is a sum of Kronecker products (see the module docstring), and
    each product enters through :func:`_sector_kron`, so nothing of size
    d^2 x d^2 is formed and a charge that does not close its sector is
    refused here, once. Returns (jumps, terms, layout, weights): the unit
    operators (read-only, shared by every build), the :class:`_Layout`, and
    a sparse (nnz, K) matrix whose product with the coefficients c gives
    the data of sum_k c_k G_k[S, S] in the layout's CSR pattern. Per
    (model, dims), so a build is that product and one matrix.
    """
    jumps, terms, charge = _unit_ops(model, dims)
    for op in jumps + terms:
        for arr in (op.data, op.indices, op.indptr):
            arr.flags.writeable = False
    d = charge.size
    sector = _sector(charge, d)
    part, keys, vals = zip(*(
        (k, *_sector_kron(m1, m2, charge, sector))
        for k, m1, m2 in _kron_factors(jumps, terms, d)
    ))
    union, slot = np.unique(np.concatenate(keys), return_inverse=True)
    part = np.repeat(part, [key.size for key in keys])
    weights = sp.csr_matrix(
        (np.concatenate(vals), (slot, part)), shape=(union.size, len(jumps) + len(terms))
    )
    # a part whose products cancel at an entry leaves no entry there
    weights.eliminate_zeros()
    live = np.diff(weights.indptr) > 0
    return jumps, terms, _layout(charge, d, sector, union[live]), weights[live]


def _assemble(model: str, dims: tuple[int, int], coefs) -> Superoperator:
    """sum_k coefs[k] G_k[S, S], in arrays of its own (the cache stays
    untouched), with its factors: the leading coefs are the jump rates, the
    rest weigh the Hamiltonian terms."""
    jumps, terms, lay, weights = _unit_parts(model, dims)
    data = weights @ np.asarray(coefs, dtype=np.float64)
    n = lay.sector.size
    block = sp.csr_matrix((data, lay.indices.copy(), lay.indptr.copy()), shape=(n, n))
    rates = [float(c) for c in coefs[: len(jumps)]]
    h = sum(c * t for c, t in zip(coefs[len(jumps) :], terms)) if terms else None
    sup = Superoperator(dims, None, lay.charge, h=h, jumps=tuple(zip(jumps, rates)))
    sup._block = (lay, block)
    return sup


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
    return _assemble("reduced", dims, (C, n_th, n_th + 1.0))


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
    return _assemble("rwa", dims, coefs + [g])


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
    return _assemble("prerwa", dims, coefs)


def _krylov_pays(n: int, d: int) -> bool:
    """Whether a sector of ``n`` unknowns at Hilbert dimension ``d`` goes to
    the Krylov solve: where the sector holds most of the d^2 entries, as
    the pre-RWA parity sector does, sparse LU fills it almost densely."""
    return n > d**1.5


def _sector_lu(block: sp.csr_matrix, lay: _Layout, scale: float) -> np.ndarray:
    """Solve L[S, S] x = 0 by sparse LU, the row of rho[0, 0] replaced by the
    trace functional (ones at the sector positions of rho's diagonal) scaled
    to ||L[S, S]||_inf and the right-hand side that scale. The pinned system
    takes its pattern from ``lay`` and its data from ``block``."""
    n = block.shape[0]
    data = np.append(block.data, scale)[lay.take]
    pinned = sp.csc_matrix((data, lay.pinned_indices, lay.pinned_indptr), shape=(n, n))
    rhs = np.zeros(n, dtype=block.dtype)
    rhs[0] = scale
    with warnings.catch_warnings():
        warnings.simplefilter("error", MatrixRankWarning)
        try:
            return spsolve(pinned, rhs)
        except (RuntimeError, MatrixRankWarning) as exc:
            raise SingularSystem(f"sparse solve failed: {exc}") from exc


def _krylov(sup: Superoperator, block: sp.csr_matrix, lay: _Layout) -> tuple[np.ndarray, int]:
    """GMRES on X + S^-1 (J(X) + sigma X) + E tr X = E over the sector S.

    With A = -i h - (1/2) sum_k r_k o_k^dag o_k the generator is
    L(X) = A X + X A^dag + J(X), J(X) = sum_k r_k o_k X o_k^dag, and the
    preconditioner is S(X) = (A - sigma/2) X + X (A - sigma/2)^dag. Since
    L = S + sigma + J, the operator is S^-1 L + E tr, applied as one sparse
    product with ``block`` = L[S, S] and one inversion of S. S is inverted
    elementwise in A's eigenbasis, 1/(lambda_i + conj(lambda_j) - sigma);
    A commutes with the charge, so it is diagonalized per charge block
    (blocks of one size stacked) and S^-1 acts on the sector's blocks
    alone. The shift sigma, the median jump rate, keeps every denominator's
    real part at or below -sigma, also where A has the eigenvalue 0 (the
    vacuum at n_th = 0); a two-mode builder's median rate is positive,
    since two of its three rates, kappa and gamma (n_th + 1), are. E = I/d makes the system nonsingular:
    tr S(E) = (2 Re tr A - sigma)/d is nonzero, so S(E) is not in the range
    of L. ``lay`` gives the sector, its diagonal positions and the positions
    of the charge blocks, which gather A's blocks from its entries on S.
    Returns the sector entries of the solution and the iteration count.
    """
    d, diag = sup.dim, lay.diag
    sigma = float(np.median([rate for _, rate in sup.jumps]))
    a = sum((-0.5 * rate) * (op.conj().T @ op) for op, rate in sup.jumps)
    if sup.h is not None:
        a = a - 1j * sup.h
    cols, rows = np.divmod(lay.sector, d)
    a = np.asarray(a.tocsr()[rows, cols]).ravel()  # on S, which holds its blocks
    parts = []  # per block size: sector positions, eigenvectors, inverses, denominators
    try:
        for pos in lay.block_pos:
            lam, vecs = np.linalg.eig(a[pos])
            inv = np.linalg.inv(vecs)
            denom = lam[:, :, None] + lam.conj()[:, None, :] - sigma
            parts.append((pos, vecs, inv, denom))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"preconditioner eigenbasis failed: {exc}") from exc
    n = lay.sector.size
    rhs = np.zeros(n, dtype=complex)
    rhs[diag] = 1.0 / d

    def matvec(x):
        y = block @ x
        out = np.empty(n, dtype=complex)
        for pos, vecs, inv, denom in parts:
            z = (inv @ y[pos] @ inv.conj().swapaxes(1, 2)) / denom
            out[pos] = vecs @ z @ vecs.conj().swapaxes(1, 2)
        out[diag] += x[diag].sum() / d
        return out

    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    sol, info = gmres(
        LinearOperator((n, n), matvec=matvec, dtype=complex), rhs,
        rtol=_KRYLOV_RTOL, atol=0.0, restart=_KRYLOV_RESTART,
        maxiter=_KRYLOV_CYCLES, callback=count, callback_type="pr_norm",
    )
    if info != 0:
        raise SingularSystem(
            f"GMRES did not reach {_KRYLOV_RTOL:g} in {iterations} iterations"
        )
    return sol, iterations


def _positive_part(values: np.ndarray, block_pos) -> float:
    """Clip the negative eigenvalues of the state's charge blocks to 0, in
    place in its sector entries ``values``, and return its smallest
    eigenvalue before that.

    The state is Hermitian and block-diagonal in the charge, so its spectrum
    is the union of the blocks' spectra. ``values[pos]`` stacks the blocks of
    one size (``block_pos``, see :class:`_Layout`), which go through one
    ``eigvalsh`` (a 1 x 1 block is its own eigenvalue), and only a block
    with a negative eigenvalue is decomposed again and rebuilt. Raises
    :class:`UnphysicalState` below the floor, before any repair.
    """
    spectra = []
    for pos in block_pos:
        sub = values[pos]
        w = sub[:, :, 0].real if pos.shape[1] == 1 else np.linalg.eigvalsh(sub)
        spectra.append((pos, sub, w))
    min_eig = float(min(w.min() for _, _, w in spectra))
    if min_eig < _EIG_FLOOR:
        raise UnphysicalState(
            f"steady state has eigenvalue {min_eig:.3e} below {_EIG_FLOOR:g}; "
            "truncation is too tight for this parameter set"
        )
    for pos, sub, w in spectra:
        bad = w.min(axis=1) < 0.0
        if not bad.any():
            continue
        pos, sub = pos[bad], sub[bad]
        if pos.shape[1] == 1:
            sub = np.zeros_like(sub)
        else:
            w, v = np.linalg.eigh(sub)
            sub = (v * np.clip(w, 0.0, None)[:, None, :]) @ v.conj().swapaxes(1, 2)
        values[pos] = sub
    return min_eig


def steady_state(sup: Superoperator) -> DensityMatrix:
    """Null vector of the generator in its declared sector, pinned by the
    trace constraint.

    Only the block L[S, S] of the sector S (see :class:`Superoperator`) is
    read, built and hand-built generators alike, and it is solved in one of
    two ways chosen by its size n against the Hilbert dimension d:

    * sparse LU of L[S, S] in the generator's own dtype (so a real
      generator takes a real factorization), the row of rho[0, 0]
      replaced by the trace functional scaled to ||L[S, S]||_inf;
    * where :func:`_krylov_pays` and the generator carries its factors,
      GMRES preconditioned by the generator's own non-jump part
      (:func:`_krylov`). Hand-built generators carry no factors and always
      take the LU.

    The solution stays its sector entries, hermitized, normalized and
    checked for positivity per charge block (:func:`_positive_part`), which
    sets ``min_eigenvalue``; the residual is L[S, S] times them. The
    declared charge is checked once, where the block is formed (the
    builders' cache, or the slice of a hand-built ``matrix``): L maps no
    entry of S outside it, so that residual is the whole generator's.
    ||L[S, S]||_inf takes the rows of S only; their sums are the whole
    generator's (L[S, S^c] = 0), so the norm is at most the whole one and
    can only tighten the gate. Raises
    :class:`DomainError` for a charge that does not close its sector,
    :class:`SingularSystem` when the factorization degenerates, GMRES does
    not converge or the residual exceeds ``1e-10 ||L[S, S]||_inf`` (e.g. a
    generator with multiple steady states), and :class:`UnphysicalState`
    when an eigenvalue falls below -1e-8. A second steady state outside
    the sector goes unseen, so only generators whose symmetry is known
    declare a charge.
    """
    d = sup.dim
    lay, block = sup._sector_block()
    n = lay.sector.size
    starts = block.indptr[:-1][np.diff(block.indptr) > 0]  # of the nonempty rows
    scale = float(np.add.reduceat(np.abs(block.data), starts).max(initial=0.0)) or 1.0

    iterations = None
    if sup.jumps and _krylov_pays(n, d):
        sol, iterations = _krylov(sup, block, lay)
    else:
        sol = _sector_lu(block, lay, scale)
    if not np.all(np.isfinite(sol)):
        raise SingularSystem("steady-state solve returned non-finite entries")

    rho = 0.5 * (sol + sol[lay.mirror].conj())
    tr = float(np.real(rho[lay.diag].sum()))
    if abs(tr) < 1e-300:
        raise SingularSystem("solved state has vanishing trace")
    rho /= tr

    min_eig = _positive_part(rho, lay.block_pos)
    if min_eig < 0.0:
        rho /= np.real(rho[lay.diag].sum())

    r = block @ rho
    # summed by numpy, not by a BLAS dot, which may hand a vector this long
    # to threads and wait milliseconds for them on a loaded machine
    residual = math.sqrt(float(np.sum(r.real**2) + np.sum(r.imag**2)))
    if residual > _RESIDUAL_TOL * scale:
        raise SingularSystem(
            f"steady state residual {residual:.3e} exceeds "
            f"{_RESIDUAL_TOL:g} * ||L[S, S]||_inf = {_RESIDUAL_TOL * scale:.3e}; "
            "the generator's kernel is likely degenerate"
        )
    solver = "sector-lu" if iterations is None else "krylov"
    return DensityMatrix(rho, lay, sup.dims, residual / scale, min_eig, solver, iterations)


def observables(state: DensityMatrix, mode: str = "mech") -> SteadyStateReport:
    """Occupation, g2(0), and Fock populations of one mode of the state;
    ``min_eigenvalue`` is the state's, so where the positivity repair fired
    it is the negative eigenvalue checked against the floor, not 0. The
    populations sum rho's diagonal (basis index n_a dim_mech + n_b) over
    the other mode."""
    if mode not in ("mech", "cav"):
        raise DomainError(f"mode must be 'mech' or 'cav', got {mode!r}")
    diag = state.values[state.layout.diag].real.reshape(state.dims)
    pops = np.clip(diag.sum(axis=0 if mode == "mech" else 1), 0.0, None)
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
            "solver": state.solver,
            **({} if state.iterations is None else {"iterations": state.iterations}),
        },
    )


def _grow(trunc: TruncationSpec) -> TruncationSpec:
    # the builders refuse a cavity slot on the reduced model and a two-mode
    # model without one, so dim_cav > 1 says the cavity grows too
    return TruncationSpec(
        dim_mech=trunc.dim_mech * 2,
        dim_cav=trunc.dim_cav + 1 if trunc.dim_cav > 1 else 1,
    )


def converge_truncation(
    build, initial: TruncationSpec
) -> tuple[TruncationSpec, SteadyStateReport]:
    """Grow the truncation until the mechanical observables stop moving.

    ``build`` maps a :class:`TruncationSpec` to a :class:`Superoperator`,
    e.g. ``functools.partial(build_reduced_liouvillian, C, n_th)``. Doubles
    dim_mech each round (and bumps dim_cav for two-mode models); accepts once
    n_ss and g2 change by less than ``_LADDER_REL_TOL`` between rounds (with
    an absolute floor of 1e-12 so vacuum-level observables, which are pure
    solver noise, can still settle) AND the top two mechanical populations
    sum below 1e-9. Raises :class:`BudgetExceeded` carrying the last
    attempted spec and report when the next step would pass ``_DIM_CAP``
    Hilbert-space dimensions.
    """
    trunc = initial
    prev: SteadyStateReport | None = None
    while True:
        report = observables(steady_state(build(trunc)), mode="mech")
        tail_ok = report.diagnostics["top_two_population"] < _POPULATION_TAIL_TOL
        if prev is not None and tail_ok:
            tol = _LADDER_REL_TOL
            dn = math.isclose(report.n_ss, prev.n_ss, rel_tol=tol, abs_tol=1e-12)
            if report.g2 is None or prev.g2 is None:
                dg = report.g2 is None and prev.g2 is None
            else:
                dg = math.isclose(report.g2, prev.g2, rel_tol=tol, abs_tol=1e-12)
            if dn and dg:
                return trunc, report
        nxt = _grow(trunc)
        if nxt.dim > _DIM_CAP:
            raise BudgetExceeded(
                f"next truncation {nxt.dim_cav}x{nxt.dim_mech} exceeds "
                f"dim_cap={_DIM_CAP} before convergence",
                last_spec=trunc,
                last_report=report,
            )
        prev = report
        trunc = nxt

