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
the nonzeros of its Kronecker factors. A bounded cache keeps them in one
read-only record per model and truncation (:class:`_Parts`), with all
else a solve reads there; a build holds that record and its c_k, which
weigh the parts where the block is assembled, and a solved state holds
the record too.

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
  by rho[0, 0] = 1 in place of that entry's own row and normalized after
  (W. J. Stewart, *Introduction to the Numerical Solution of Markov
  Chains*, 1994), so the system keeps the block's sparsity. It runs where
  the sector is small next to d^2: the reduced model (n = d) and the
  two-mode RWA model (n of about 4 d at 4x32). The pinned system's CSC
  pattern is cached with the unit parts, its columns in the order SuperLU
  takes by minimum degree on A^T A, computed once per pattern, so a
  rung's system is one gather from its block's data and its factorization
  orders nothing. A batched rung (below) stacks the systems of its points
  as one block-diagonal system, each block in that order, and factors it
  once, so each point's solution equals its lone solve bit for bit;
  COLAMD, SuperLU's default, moves them by up to 2e-15.
* GMRES preconditioned by the generator's non-jump part, inverted in its
  eigenbasis (Nation, arXiv:1504.06768, reviews such solvers), whose
  entries on the sector are weighed from the cache like the block. It
  runs where the sector holds more than d^1.5 entries: the pre-RWA
  parity sector (n = d^2/2), whose 4-D lattice sparse LU fills almost
  densely. Measured on 2 vCPUs at C = 4,
  n_th = 0.2, GMRES against LU: 6 against 8 ms at 3x8, 10-11 against
  218-246 ms at 4x16, 22 against 551-604 ms at 5x16, and 0.14 s against
  7.3 s (504 MiB peak) at 5x32; 15 to 33 iterations for C in [0.1, 50]
  and n_th in [0, 1], with and without the quadratic fluctuation term.
  On the other models GMRES loses: 15-18 against 4 ms for RWA at 4x32,
  10 against 0.5 ms for the reduced model at 64 levels.

Both end in one tail on the sector entries, which stay the state: no d x d
array is formed. They are hermitized with their transposes and normalized,
positivity is checked per charge block (rho is block-diagonal in the
charge, so its spectrum is the union of the blocks' spectra; the reduced
model's blocks are its diagonal entries) up to a small floor and kept as
``min_eigenvalue``, only blocks with a negative eigenvalue are repaired,
and the residual against the sector block is checked before anything is
reported. That residual equals the whole generator's because the charge
is checked to close its sector (L[S^c, S] = 0) once, where the builders'
cache forms the unit parts (:func:`_unit_parts`).

The ladders of many points climb together (:func:`_climb`, behind a grid
command's oracle points; a fixed truncation is a ladder that accepts its
first rung). At each rung level the points still climbing are
solved as one batch (:func:`_solve_batch`): the blocks of points that share
a model and a truncation are assembled in one product, their coefficient
rows times the cached weights, factored as one block-diagonal system (of
at most ``_BATCH_UNKNOWNS`` unknowns; GMRES rungs one at a time), and
taken through the tail as one (P, n) array, whose sums are taken row by
row. A point leaves the batch when it accepts a rung or raises its own
error. :func:`steady_state` and :func:`converge_truncation` are the batch
of one, so a point's result does not depend on the points beside it. The
default ``validate`` grid (25 points, 65 rungs) factors 5 systems, one per
rung level, where it factored 65.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, MatrixRankWarning, gmres, splu, spsolve

from .errors import (
    BudgetExceeded,
    DomainError,
    PhononStatsError,
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
# the most unknowns one batched factorization holds: past a few thousand
# unknowns per system the factorization, not the per-system overhead, sets
# the time, while the factors of a block-diagonal system take the memory of
# all its blocks at once
_BATCH_UNKNOWNS = 2**15
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
    cavity (1 = no cavity slot). Each is an integer, as ``operator.index``
    takes it (a float, even an integral one, is refused), and kept as an
    ``int``."""

    dim_mech: int
    dim_cav: int = 1

    def __post_init__(self) -> None:
        for name, least in (("dim_mech", 2), ("dim_cav", 1)):
            value = getattr(self, name)
            try:
                value = operator.index(value)
            except TypeError as exc:
                raise DomainError(f"{name} must be an integer, got {value!r}") from exc
            if value < least:
                raise DomainError(f"{name} must be >= {least}, got {value}")
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.dim_mech * self.dim_cav


@dataclass(eq=False)
class Superoperator:
    """Sparse Liouvillian acting on vec(rho), dims = (dim_cav, dim_mech), as
    a builder makes it (:func:`_assemble`).

    ``charge`` declares a weak symmetry: one integer label per basis state
    such that the sector S = {(i, j) : charge_i == charge_j} of vec(rho) is
    closed under L, and so is its complement. S holds the diagonal, so the
    steady state lies in it.

    A build holds its model's cache record at its truncation (``parts``,
    a :class:`_Parts`) and its coefficients ``coefs``. The block L[S, S]
    that the solve reads is assembled from them when first needed (for a
    whole rung of a ladder batch at once, see :func:`_solve_batch`), as is
    the Krylov solve's preconditioner. The read-only views ``charge`` (the
    record's), ``jumps`` (the (o_k, rate_k) pairs), ``h`` (the Hamiltonian
    sum_k c_k t_k, None without terms) and ``matrix`` (the whole d^2 x d^2
    generator, the reference the solve never forms) are formed from them
    when first read; no solve reads them. Their operators are shared with
    the cache and are read-only.
    """

    parts: _Parts = field(repr=False)
    coefs: np.ndarray
    # the solved state, or the error of its solve, until steady_state takes it
    _state: object = field(default=None, init=False, repr=False)

    @property
    def dims(self) -> tuple[int, int]:
        return self.parts.dims

    @property
    def charge(self) -> np.ndarray:
        return self.parts.charge

    @functools.cached_property
    def jumps(self) -> tuple:
        count = len(self.parts.jumps)
        return tuple(zip(self.parts.jumps, (float(c) for c in self.coefs[:count])))

    @functools.cached_property
    def h(self) -> sp.csr_matrix | None:
        parts = self.parts
        terms = zip(self.coefs[len(parts.jumps) :], parts.terms)
        return sum(c * t for c, t in terms) if parts.terms else None

    @functools.cached_property
    def matrix(self) -> sp.csr_matrix:
        return _liouvillian(self.h, self.jumps)

    @property
    def dim(self) -> int:
        return self.dims[0] * self.dims[1]

    def sector(self) -> np.ndarray:
        """Ascending vec(rho) indices (column stacking) of the sector S."""
        return self.parts.sector

    def trace_defect(self) -> float:
        """max_j |sum_i <i| L applied to basis unit |j>| traced, over the
        sector block the solve reads (L maps the complement into itself,
        which holds no diagonal entry) — exactly 0 for any Lindblad
        generator, so this measures assembly error."""
        block = self._sector_block()
        trace_row = np.zeros(block.shape[0])
        trace_row[self.parts.diag] = 1.0
        defect = trace_row @ block
        return float(np.max(np.abs(defect)))

    def _sector_data(self) -> np.ndarray:
        """The data of the block L[S, S] in the record's pattern, assembled
        from the cache (:func:`_weigh`) in an array of its own."""
        return _weigh(self.parts.jump_w, self.parts.term_w, self.coefs[None])[0]

    def _sector_block(self) -> sp.csr_matrix:
        """The block L[S, S], in arrays of its own (the cache stays
        untouched)."""
        parts = self.parts
        arrays = (self._sector_data(), parts.indices.copy(), parts.indptr.copy())
        return sp.csr_matrix(arrays, shape=(parts.sector.size,) * 2)


def _read_only(*values) -> tuple:
    """Make every array in ``values`` refuse writes: ndarrays, the data,
    indices and indptr of sparse matrices, and those in lists and tuples.
    Returns ``values``."""
    for value in values:
        if isinstance(value, (list, tuple)):
            _read_only(*value)
        elif sp.issparse(value):
            _read_only(value.data, value.indices, value.indptr)
        elif isinstance(value, np.ndarray):
            value.flags.writeable = False
    return values


@dataclass(frozen=True, eq=False)
class _Parts:
    """The cache record of one (model, dims): everything a solve there
    reads, shared by every build at those dims and every state solved from
    one. Every array it holds or forms refuses writes.

    ``jumps`` and ``terms`` are the unit-rate jump operators and the
    unit-coupling Hamiltonian terms. ``charge`` is the charge per basis
    state, ``sector`` S's ascending vec(rho) indices, ``diag`` the positions
    in S of rho's diagonal, ``mirror`` the position of each entry's
    transpose, ``block_pos`` those of the charge blocks' entries, one
    (k, m, m) array per block size m (:func:`_blocks`). ``indices`` and
    ``indptr`` are the CSR pattern of L[S, S], ``starts`` the first entry of
    each nonempty row (for ||L[S, S]||_inf). ``jump_w`` and ``term_w`` are
    sparse float64 matrices, (nnz, J) and (nnz, K - J) (None without
    terms): with the coefficients c, jump_w @ c[:J] gives the real part of
    the data of sum_k c_k G_k[S, S] in that pattern and term_w @ c[J:] its
    imaginary part (:func:`_weigh`).
    """

    dims: tuple[int, int]
    jumps: list
    terms: list
    charge: np.ndarray
    sector: np.ndarray
    diag: np.ndarray
    mirror: np.ndarray
    block_pos: list
    indices: np.ndarray
    indptr: np.ndarray
    starts: np.ndarray
    jump_w: sp.csr_matrix
    term_w: sp.csr_matrix | None

    @functools.cached_property
    def pinned(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(indices, indptr, src, order) of the system that
        :func:`_sector_lu` factors, the block with the row of rho[0, 0]
        replaced by e_0^T, with its columns in SuperLU's order: its CSC
        pattern, per entry its position in the block's data (nnz for the
        pin's 1), and ``order``, the block column at each position. So a
        rung's pinned system is one gather from its data.

        The system is formed once with each entry's source as its value and
        converted to CSC, so its pattern and entry order are those of the
        pinned block's own ``tocsc``. ``order`` is the column order SuperLU
        takes for it under ``permc_spec="MMD_ATA"``, minimum degree on A^T A
        followed by its elimination tree's postorder (``splu(...).perm_c``,
        inverted). It depends on the pattern alone, so it is computed once,
        by factoring a stand-in with the pattern and entries drawn from
        [1, 2) with a fixed seed. Such generic entries leave the stand-in
        singular, barring a chance of measure zero, only where every matrix
        of the pattern is, and then :class:`SingularSystem` is raised as
        the solve would; every builder's pinned pattern holds its whole
        diagonal, so no builder's is. Formed on first use, as the Krylov
        solve needs none.
        """
        indices, indptr = self.indices, self.indptr
        n, nnz, cut = indptr.size - 1, indices.size, indptr[1]
        where = sp.csr_matrix(
            (np.insert(np.arange(cut + 1.0, nnz + 1.0), 0, nnz + 1.0),
             np.insert(indices[cut:], 0, 0), np.insert(indptr[1:] - cut + 1, 0, 0)),
            shape=(n, n),
        ).tocsc()
        stand_in = sp.csc_matrix(
            (np.random.default_rng(0).uniform(1.0, 2.0, where.nnz), where.indices, where.indptr),
            shape=(n, n),
        )
        try:
            order = np.argsort(splu(stand_in, permc_spec="MMD_ATA").perm_c).astype(np.intc)
        except RuntimeError as exc:
            raise SingularSystem(f"sparse solve failed: {exc}") from exc
        where = where[:, order]
        return _read_only(where.indices.astype(np.intc), where.indptr.astype(np.intc),
                          where.data.astype(np.intc) - 1, order)

    @functools.cached_property
    def a_weights(self) -> tuple[sp.csr_matrix, sp.csr_matrix | None]:
        """(jump_a, term_a), the split of ``jump_w`` and ``term_w`` for the
        non-jump part A = -i h - (1/2) sum_k r_k o_k^dag o_k of a build's
        generator, on the sector (:func:`_on_sector`): (n, J) with the
        entries of -(1/2) o_k^dag o_k and (n, K - J) with those of -t_k, the
        imaginary parts of -i t_k. The Krylov solve's preconditioner is
        inverted in A's eigenbasis; formed on its first use, as the LU needs
        none."""
        d = self.charge.size
        return _read_only(
            _on_sector([-0.5 * (op.conj().T @ op) for op in self.jumps], self.sector, d),
            _on_sector([-t for t in self.terms], self.sector, d))


def _stacked(indices, indptr, data: np.ndarray, form):
    """The block-diagonal sparse matrix (``form``, csr_matrix or
    csc_matrix) of one block per row of ``data`` (P, nnz), every block of
    the compressed pattern (indices, indptr)."""
    count, (nnz, n) = data.shape[0], (indices.size, indptr.size - 1)
    if count == 1:  # the pattern itself, shared: the sparse solves only read it
        return form((data[0], indices, indptr), shape=(n, n))
    shift = np.arange(count, dtype=np.intc)[:, None]
    stacked_indptr = np.append((indptr[:-1] + nnz * shift).ravel(), np.intc(count * nnz))
    return form(
        (data.ravel(), (indices + n * shift).ravel(), stacked_indptr),
        shape=(count * n, count * n),
    )


@dataclass(eq=False)
class DensityMatrix:
    """Solved steady state: ``values`` holds its sector entries rho_S in the
    order of ``parts.sector``, the cache record of the build it was solved
    from (rho is zero outside S; ``parts`` places its diagonal and charge
    blocks there too), ``residual`` is
    ||L[S, S] rho_S||_2 / ||L[S, S]||_inf (equal to the whole generator's,
    see :func:`steady_state`), ``min_eigenvalue`` the smallest eigenvalue
    before any positivity repair (the value checked against the floor),
    ``solver`` the solve that ran (``"sector-lu"`` or ``"krylov"``) and
    ``iterations`` the Krylov iteration count (None for the LU)."""

    values: np.ndarray
    parts: _Parts = field(repr=False)
    residual: float
    min_eigenvalue: float
    solver: str = "sector-lu"
    iterations: int | None = None

    @property
    def dims(self) -> tuple[int, int]:
        return self.parts.dims


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


def _sector(charge: np.ndarray, d: int) -> np.ndarray:
    """Ascending vec(rho) indices of S = {(i, j) : charge_i == charge_j}."""
    # pairs within each charge block, so nothing of size d^2 is formed
    keys = [(idx[:, None, :] * d + idx[:, :, None]).ravel() for idx in _blocks(charge, d)]
    return np.sort(np.concatenate(keys))


def _blocks(charge: np.ndarray, d: int) -> list[np.ndarray]:
    """Basis indices of the charge blocks, grouped by block size: one (k, m)
    array per size m, one row per block."""
    order = np.argsort(charge, kind="stable")
    _, starts, sizes = np.unique(charge[order], return_index=True, return_counts=True)
    return [order[starts[sizes == m][:, None] + np.arange(m)] for m in np.unique(sizes)]


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
    o, a unit Hamiltonian term t the first two with A = -i t. Every
    operator is real, so a jump's products are real and a term's
    imaginary; a term yields the imaginary parts, I kron (-t) and t kron I."""
    eye = sp.identity(d, format="csr")
    for k, op in enumerate(jumps):
        a = -0.5 * (op.conj().T @ op)
        yield from ((k, eye, a), (k, a.conj(), eye), (k, op.conj(), op))
    for k, t in enumerate(terms, len(jumps)):
        yield from ((k, eye, -t), (k, t, eye))


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


def _on_sector(ops, sector: np.ndarray, d: int) -> sp.csr_matrix | None:
    """The (n, len(ops)) float64 matrix whose column k holds the entries of
    the d x d operator ops[k] at their positions in ``sector`` (rows i,
    columns j with equal charge, the only entries an operator that keeps
    the charge has); None for no operators."""
    if not ops:
        return None
    coos = [op.tocoo() for op in ops]
    keys = np.concatenate([c.col.astype(np.int64) * d + c.row for c in coos])
    col = np.repeat(np.arange(len(ops)), [c.nnz for c in coos])
    vals = np.concatenate([c.data for c in coos])
    return sp.csr_matrix((vals, (np.searchsorted(sector, keys), col)),
                         shape=(sector.size, len(ops)))


@functools.lru_cache(maxsize=16)
def _unit_parts(model: str, dims: tuple[int, int]):
    """The unit generators G_k of ``model`` at ``dims`` restricted to the
    sector, stacked on the union of their sparsity patterns.

    Each G_k is a sum of Kronecker products (see the module docstring), and
    each product enters through :func:`_sector_kron`, so nothing of size
    d^2 x d^2 is formed and a charge that does not close its sector is
    refused here, once. Returns the :class:`_Parts` of ``model`` at
    ``dims``, its arrays read-only. Per (model, dims), so a rung of any
    number of builds is one product with its weights.
    """
    jumps, terms, charge = _unit_ops(model, dims)
    d = charge.size
    sector = _sector(charge, d)
    part, keys, vals = zip(*(
        (k, *_sector_kron(m1, m2, charge, sector))
        for k, m1, m2 in _kron_factors(jumps, terms, d)
    ))
    union, slot = np.unique(np.concatenate(keys), return_inverse=True)
    part = np.repeat(part, [key.size for key in keys])
    vals = np.concatenate(vals)
    weights = []
    for take, first, count in ((part < len(jumps), 0, len(jumps)),
                               (part >= len(jumps), len(jumps), len(terms))):
        w = sp.csr_matrix((vals[take], (slot[take], part[take] - first)),
                          shape=(union.size, count))
        # a part whose products cancel at an entry leaves no entry there
        w.eliminate_zeros()
        weights.append(w)
    live = (np.diff(weights[0].indptr) > 0) | (np.diff(weights[1].indptr) > 0)
    keys, n = union[live], sector.size  # row * n + col, ascending
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    cols, rows = np.divmod(sector, d)  # column stacking
    parts = _Parts(
        dims, jumps, terms, charge, sector,
        diag=np.searchsorted(sector, np.arange(d) * (d + 1)),
        mirror=np.searchsorted(sector, rows * d + cols),
        block_pos=[np.searchsorted(sector, idx[:, :, None] + idx[:, None, :] * d)
                   for idx in _blocks(charge, d)],
        indices=(keys % n).astype(np.intc),
        indptr=indptr.astype(np.intc),
        starts=indptr[:-1][np.diff(indptr) > 0].astype(np.intc),
        jump_w=weights[0][live],
        term_w=weights[1][live] if terms else None,
    )
    _read_only(*vars(parts).values())
    return parts


def _assemble(model: str, dims: tuple[int, int], coefs) -> Superoperator:
    """sum_k coefs[k] G_k[S, S]: the leading coefs are the jump rates, the
    rest weigh the Hamiltonian terms. Only the coefficients are kept; the
    solve assembles the block from them (:func:`_weigh`), and the views of
    :class:`Superoperator` are formed from them when first read."""
    return Superoperator(_unit_parts(model, dims), np.asarray(coefs, dtype=np.float64))


def _weigh(jump_w, term_w, coefs: np.ndarray) -> np.ndarray:
    """jump_w @ c[:J] + 1j term_w @ c[J:] for each row c of ``coefs``
    (P, K), as a C-contiguous (P, rows) array: real without terms, else
    complex with the two products as its real and imaginary parts."""
    count = jump_w.shape[1]
    data = np.ascontiguousarray((jump_w @ coefs[:, :count].T).T)
    if term_w is not None:
        real, data = data, np.empty(data.shape, dtype=complex)
        data.real, data.imag = real, (term_w @ coefs[:, count:].T).T
    return data


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


def _sector_lu(parts: _Parts, data: np.ndarray) -> np.ndarray:
    """Solve L[S, S] x = 0 for each row of ``data`` (P, nnz), the blocks'
    data in the pattern of ``parts``, by sparse LU, the row of rho[0, 0]
    (sector entry 0) replaced by the unit row e_0^T and the right-hand side
    e_0, so x is the steady state scaled to rho[0, 0] = 1 (W. J. Stewart,
    *Introduction to the Numerical Solution of Markov Chains*, 1994). The
    row dropped is implied by the others, as the trace is a left null
    vector of L, and the pinned system keeps the block's sparsity. Returns
    x as (P, n) rows.

    The P pinned systems are gathered by the pattern's plan
    (:attr:`_Parts.pinned`) into one block-diagonal CSC system, each
    block's columns in SuperLU's ``MMD_ATA`` order, cached with the
    pattern, and factored by one ``spsolve`` in that order
    (``permc_spec="NATURAL"``); each block's solution is scattered back to
    the block's own columns. SuperLU gets CSC: handed CSR, it factors the
    transpose, which cost the RWA model's g2 up to 8e-8 relative at
    n_th = 1e-6. Postordering an already postordered elimination tree
    leaves it as it is, so every row of x equals
    ``spsolve(system, e_0, permc_spec="MMD_ATA")`` of its system alone bit
    for bit (COLAMD, SuperLU's default, moves them by up to 2e-15), without
    ordering anything per solve. Raises :class:`SingularSystem` when the
    factorization fails, for any of the P systems.
    """
    count = data.shape[0]
    n = parts.sector.size
    ones = np.ones((count, 1), dtype=data.dtype)
    indices, indptr, src, order = parts.pinned
    system = _stacked(indices, indptr, np.concatenate([data, ones], axis=1)[:, src],
                      sp.csc_matrix)
    rhs = np.zeros((count, n), dtype=data.dtype)
    rhs[:, 0] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", MatrixRankWarning)
        try:
            y = spsolve(system, rhs.ravel(), permc_spec="NATURAL")
        except (RuntimeError, MatrixRankWarning) as exc:
            raise SingularSystem(f"sparse solve failed: {exc}") from exc
    x = np.empty((count, n), dtype=y.dtype)
    x[:, order] = y.reshape(count, n)
    return x


def _krylov(sup: Superoperator, block: sp.csr_matrix) -> tuple[np.ndarray, int]:
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
    since two of its three rates, kappa and gamma (n_th + 1), are. E = I/d
    makes the system nonsingular: tr S(E) = (2 Re tr A - sigma)/d is
    nonzero, so S(E) is not in the range of L.

    ``sup`` is a build: A's entries on S are its coefficients times the
    weights its cache record holds (:attr:`_Parts.a_weights`), one product,
    and the record gives the sector's diagonal positions and those of the
    charge blocks, which gather A's blocks from those entries.
    Returns the sector entries of the solution and the iteration count.
    """
    parts, coefs = sup.parts, sup.coefs
    d, diag = sup.dim, parts.diag
    sigma = float(np.median(coefs[: len(parts.jumps)]))
    a = _weigh(*parts.a_weights, coefs[None])[0]  # on S, which holds its blocks
    blocks = []  # per block size: sector positions, eigenvectors, inverses, denominators
    try:
        for pos in parts.block_pos:
            lam, vecs = np.linalg.eig(a[pos])
            inv = np.linalg.inv(vecs)
            denom = lam[:, :, None] + lam.conj()[:, None, :] - sigma
            blocks.append((pos, vecs, inv, denom))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"preconditioner eigenbasis failed: {exc}") from exc
    n = parts.sector.size
    rhs = np.zeros(n, dtype=complex)
    rhs[diag] = 1.0 / d

    def matvec(x):
        y = block @ x
        out = np.empty(n, dtype=complex)
        for pos, vecs, inv, denom in blocks:
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


def _positive_part(values: np.ndarray, block_pos):
    """Clip the negative eigenvalues of the states' charge blocks to 0, in
    place in their sector entries ``values`` (a C-contiguous (P, n) array,
    one state per row, or one state of n entries), and return each state's
    smallest eigenvalue before that: a (P,) array, or a scalar for one
    state.

    A state is Hermitian and block-diagonal in the charge, so its spectrum
    is the union of the blocks' spectra. The blocks of one size of every
    state (``block_pos``, see :class:`_Parts`) go through one ``eigvalsh``
    (a 1 x 1 block is its own eigenvalue), and only a block with a negative
    eigenvalue is decomposed again and rebuilt.
    """
    states = values.reshape(-1, values.shape[-1])  # a view: repairs land in values
    spectra = []
    for pos in block_pos:
        m = pos.shape[1]
        sub = states[:, pos].reshape(-1, m, m)  # every state's blocks of size m
        w = sub[:, :, 0].real if m == 1 else np.linalg.eigvalsh(sub)
        spectra.append((pos, sub, w))
    count = states.shape[0]
    min_eig = np.min([w.reshape(count, -1).min(axis=1) for _, _, w in spectra], axis=0)
    for pos, sub, w in spectra:
        bad = w.min(axis=1) < 0.0
        if not bad.any():
            continue
        sub = sub[bad]
        if pos.shape[1] == 1:
            sub = np.zeros_like(sub)
        else:
            w, v = np.linalg.eigh(sub)
            sub = (v * np.clip(w, 0.0, None)[:, None, :]) @ v.conj().swapaxes(1, 2)
        state, block = np.divmod(np.flatnonzero(bad), pos.shape[0])
        states[state[:, None, None], pos[block]] = sub
    return min_eig.reshape(values.shape[:-1])


def _reject(out: list, rows: np.ndarray, ok: np.ndarray, error, *arrays) -> tuple:
    """Give each state ``rows[i]`` whose ``ok[i]`` fails the error
    ``error(i)`` in ``out``; return the rows kept and the rows of
    ``arrays`` (one row per state) kept."""
    if ok.all():
        return (rows, *arrays)
    for i in np.flatnonzero(~ok):
        out[rows[i]] = error(i)
    return (rows[ok], *(array[ok] for array in arrays))


def _row_sums(x: np.ndarray) -> np.ndarray:
    """The sum of each row of ``x``, taken row by row: numpy may sum a
    short axis of a 2-D array in another order than the row alone, and a
    state's digits must not depend on the states solved beside it."""
    return np.array([row.sum() for row in x])


def _solve_group(parts: _Parts, group: list) -> list:
    """The steady states of the generators in ``group``, builds that hold
    the cache record ``parts``: per generator its :class:`DensityMatrix` or the package
    error of its own solve (see :func:`steady_state` for the checks). Their
    blocks L[S, S] are assembled in one product, their coefficient rows
    times the cached weights, in arrays of their own (the cache stays
    untouched)."""
    count, n = len(group), parts.sector.size
    data = _weigh(parts.jump_w, parts.term_w, np.array([sup.coefs for sup in group]))
    out: list = [None] * count
    iterations = [None] * count
    if _krylov_pays(n, group[0].dim):
        sol = np.zeros((count, n), dtype=complex)
        for p, sup in enumerate(group):
            block = _stacked(parts.indices, parts.indptr, data[p : p + 1], sp.csr_matrix)
            try:
                sol[p], iterations[p] = _krylov(sup, block)
            except SingularSystem as exc:
                out[p] = exc
    else:
        try:
            sol = _sector_lu(parts, data)
        except SingularSystem as exc:
            sol, out = np.zeros((count, n), dtype=data.dtype), [exc] * count
            if count > 1:  # factored alone, only a failing system keeps its error
                for p in range(count):
                    try:
                        sol[p], out[p] = _sector_lu(parts, data[p : p + 1])[0], None
                    except SingularSystem as alone:
                        out[p] = alone

    rows = np.flatnonzero([error is None for error in out])
    if rows.size < count:
        sol = sol[rows]
    rows, sol = _reject(out, rows, np.isfinite(sol).all(axis=1), lambda i: SingularSystem(
        "steady-state solve returned non-finite entries"), sol)
    rho = 0.5 * (sol + sol[:, parts.mirror].conj())
    tr = np.real(_row_sums(rho[:, parts.diag]))
    rows, rho, tr = _reject(out, rows, np.abs(tr) >= 1e-300, lambda i: SingularSystem(
        "solved state has vanishing trace"), rho, tr)
    if not rows.size:
        return out
    rho /= tr[:, None]

    min_eig = _positive_part(rho, parts.block_pos)
    repaired = min_eig < 0.0
    if repaired.any():
        rho[repaired] /= np.real(_row_sums(rho[repaired][:, parts.diag]))[:, None]
    rows, rho, min_eig = _reject(out, rows, min_eig >= _EIG_FLOOR, lambda i: UnphysicalState(
        f"steady state has eigenvalue {min_eig[i]:.3e} below {_EIG_FLOOR:g}; "
        "truncation is too tight for this parameter set"), rho, min_eig)
    if not rows.size:
        return out

    if rows.size < count:
        data = data[rows]
    block = _stacked(parts.indices, parts.indptr, data, sp.csr_matrix)
    r = (block @ rho.ravel()).reshape(rho.shape)
    # summed by numpy, not by a BLAS dot, which may hand a vector this long
    # to threads and wait milliseconds for them on a loaded machine
    residual = np.sqrt(_row_sums(r.real**2) + _row_sums(r.imag**2))
    scale = np.array([np.add.reduceat(np.abs(row), parts.starts).max(initial=0.0) or 1.0
                      for row in data])
    rows, rho, min_eig, residual, scale = _reject(
        out, rows, ~(residual > _RESIDUAL_TOL * scale), lambda i: SingularSystem(
            f"steady state residual {residual[i]:.3e} exceeds "
            f"{_RESIDUAL_TOL:g} * ||L[S, S]||_inf = {_RESIDUAL_TOL * scale[i]:.3e}; "
            "the generator's kernel is likely degenerate"),
        rho, min_eig, residual, scale)
    for i, p in enumerate(rows):
        out[p] = DensityMatrix(
            rho[i], parts, float(residual[i] / scale[i]), float(min_eig[i]),
            "sector-lu" if iterations[p] is None else "krylov", iterations[p],
        )
    return out


def _solve_batch(sups) -> None:
    """Solve the steady states of ``sups`` together, and leave each
    generator its :class:`DensityMatrix`, or the package error of its own
    solve, for :func:`steady_state` to take.

    Generators of one model and dims share their cache record
    (:class:`_Parts`), and form one group, solved by
    :func:`_solve_group` in parts: its LU systems as block-diagonal systems
    of up to ``_BATCH_UNKNOWNS`` unknowns (:func:`_sector_lu`), factored
    again one by one where that fails, so that only a failing system
    carries its :class:`SingularSystem`; its Krylov systems one at a time.
    A part's blocks are assembled when it is solved and dropped after, so
    a rung level holds the blocks of one part at a time.
    """
    groups: dict[int, list] = {}
    for sup in sups:
        groups.setdefault(id(sup.parts), []).append(sup)
    for group in groups.values():
        parts = group[0].parts
        n = parts.sector.size
        size = 1 if _krylov_pays(n, group[0].dim) else max(1, _BATCH_UNKNOWNS // n)
        for start in range(0, len(group), size):
            part = group[start : start + size]
            for sup, state in zip(part, _solve_group(parts, part)):
                sup._state = state


def steady_state(sup: Superoperator) -> DensityMatrix:
    """Null vector of a builder's generator in its declared sector,
    normalized to unit trace.

    Only the block L[S, S] of the sector S (see :class:`Superoperator`) is
    read, and it is solved in one of two ways chosen by its size n against
    the Hilbert dimension d:

    * sparse LU of L[S, S] in the generator's own dtype (so a real
      generator takes a real factorization), pinned by rho[0, 0] = 1
      (:func:`_sector_lu`);
    * where :func:`_krylov_pays`, GMRES preconditioned by the generator's
      own non-jump part, weighed from the builder's cache (:func:`_krylov`).

    The LU's pin assumes the steady state populates the vacuum, rho[0, 0]
    > 0; where it does not, the pinned system is singular and
    :class:`SingularSystem` is raised. No builder is affected: each carries
    its loss jumps (b, and a on the two-mode models) at positive rates, so
    every state decays toward the vacuum and the steady state keeps it
    populated.

    The solution stays its sector entries, hermitized, normalized and
    checked for positivity per charge block (:func:`_positive_part`), which
    sets ``min_eigenvalue``; the residual is L[S, S] times them. The
    declared charge is checked once, where the builders' cache forms the
    unit parts: L maps no entry of S outside it, so that residual is the
    whole generator's. ||L[S, S]||_inf takes the rows of S only; their
    sums are the whole generator's (L[S, S^c] = 0), so the norm is at most
    the whole one and can only tighten the gate. Raises
    :class:`SingularSystem` when the factorization degenerates, GMRES does
    not converge, the solution is not finite or has vanishing trace, or
    the residual exceeds ``1e-10 ||L[S, S]||_inf`` (e.g. a generator with
    multiple steady states), and :class:`UnphysicalState` when an
    eigenvalue falls below -1e-8. A second steady state outside the sector
    goes unseen, so each builder declares only a charge whose symmetry it
    knows.

    This is the batch of one of :func:`_solve_batch`, which solves a whole
    rung of generators together and leaves each its state: a generator
    solved there hands that state (or its error) over here, once.
    """
    if sup._state is None:
        _solve_batch([sup])
    state, sup._state = sup._state, None
    if isinstance(state, Exception):
        raise state
    return state


def observables(state: DensityMatrix, mode: str = "mech") -> SteadyStateReport:
    """Occupation, g2(0), and Fock populations of one mode of the state;
    ``min_eigenvalue`` is the state's, so where the positivity repair fired
    it is the negative eigenvalue checked against the floor, not 0. The
    populations sum rho's diagonal (basis index n_a dim_mech + n_b) over
    the other mode."""
    if mode not in ("mech", "cav"):
        raise DomainError(f"mode must be 'mech' or 'cav', got {mode!r}")
    diag = state.values[state.parts.diag].real.reshape(state.dims)
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


def _settled(prev: SteadyStateReport | None, report: SteadyStateReport) -> bool:
    """Whether a ladder accepts ``report`` after ``prev`` (see
    :func:`converge_truncation`)."""
    if prev is None or report.diagnostics["top_two_population"] >= _POPULATION_TAIL_TOL:
        return False
    tol = _LADDER_REL_TOL
    dn = math.isclose(report.n_ss, prev.n_ss, rel_tol=tol, abs_tol=1e-12)
    if report.g2 is None or prev.g2 is None:
        return dn and report.g2 is None and prev.g2 is None
    return dn and math.isclose(report.g2, prev.g2, rel_tol=tol, abs_tol=1e-12)


def _climb(jobs) -> list:
    """The truncation ladders of ``jobs``, (build, truncation, climb)
    triples, climbed together; per job the (TruncationSpec,
    SteadyStateReport) it accepts, or the package error that ends its
    ladder (see :func:`converge_truncation`). A job whose ``climb`` is false
    accepts its first rung, so a fixed truncation never meets ``_DIM_CAP``.

    At each rung level the points still climbing are built and go to one
    :func:`_solve_batch`, so points that share a model and a truncation
    share one assembly product and one factorization, and each then takes
    its state through :func:`steady_state`. A point leaves when it accepts
    a rung or raises its own error, and its result equals that of its
    ladder climbed alone, bit for bit.
    """
    out: list = [None] * len(jobs)
    climbing = [(i, trunc, None) for i, (_, trunc, _) in enumerate(jobs)]
    while climbing:
        rung = []
        for i, trunc, prev in climbing:
            try:
                rung.append((i, trunc, prev, jobs[i][0](trunc)))
            except PhononStatsError as exc:
                out[i] = exc
        _solve_batch([sup for *_, sup in rung])
        climbing = []
        for i, trunc, prev, sup in rung:
            try:
                report = observables(steady_state(sup), mode="mech")
                if not jobs[i][2] or _settled(prev, report):
                    out[i] = (trunc, report)
                    continue
                nxt = _grow(trunc)
                if nxt.dim > _DIM_CAP:
                    raise BudgetExceeded(
                        f"next truncation {nxt.dim_cav}x{nxt.dim_mech} exceeds "
                        f"dim_cap={_DIM_CAP} before convergence",
                        last_spec=trunc,
                        last_report=report,
                    )
            except PhononStatsError as exc:
                out[i] = exc
                continue
            climbing.append((i, nxt, report))
    return out


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

    This is the batch of one of :func:`_climb`, which climbs the ladders of
    a grid's points together, one factorization per rung level.
    """
    (result,) = _climb([(build, initial, True)])
    if isinstance(result, Exception):
        raise result
    return result
