import dataclasses
import functools
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from phonon_stats import exact, lindblad
from phonon_stats.errors import BudgetExceeded, DomainError, SingularSystem, UnphysicalState
from phonon_stats.lindblad import (
    TruncationSpec,
    build_prerwa_liouvillian,
    build_reduced_liouvillian,
    build_two_mode_rwa_liouvillian,
    converge_truncation,
    observables,
    steady_state,
)
from phonon_stats.params import ReducedParams
from phonon_stats.report import Regime


def _d19_reduced() -> ReducedParams:
    # deep-sideband working point: C = 3, kappa = 2000, omega' = 1e5,
    # g = sqrt(1500), n_c = 20/3, so g0 = g/sqrt(n_c) = 15 and
    # g0 * n_c / omega' = 1e-3 exactly
    return ReducedParams(
        C=3.0,
        n_th=1.0,
        n_c=20.0 / 3.0,
        g=math.sqrt(1500.0),
        omega_m_eff=1e5,
        Gamma_opt=3.0,
        Delta_c=-2e5,
    )


def test_truncation_spec():
    t = TruncationSpec(dim_mech=16, dim_cav=3)
    assert t.dim == 48
    assert TruncationSpec(dim_mech=8).dim == 8
    with pytest.raises(DomainError):
        TruncationSpec(dim_mech=1)
    with pytest.raises(DomainError):
        TruncationSpec(dim_mech=8, dim_cav=0)
    assert TruncationSpec(np.int64(8), np.int64(2)) == TruncationSpec(8, 2)
    assert type(TruncationSpec(np.int64(8)).dim_mech) is int


@pytest.mark.parametrize("field", ["dim_mech", "dim_cav"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, 8.5, 8.0, "8", None])
def test_truncation_spec_refuses_a_non_integral_dimension(field, bad):
    # what operator.index refuses; nan and inf once reached np.arange
    with pytest.raises(DomainError, match=f"^{field} must be an integer"):
        TruncationSpec(**{"dim_mech": 8, "dim_cav": 2, field: bad})


def _inf_norm(sup):
    return float(np.max(np.abs(sup.matrix).sum(axis=1)))


def _all_generators():
    yield build_reduced_liouvillian(3.0, 1.0, TruncationSpec(dim_mech=16))
    yield build_two_mode_rwa_liouvillian(
        math.sqrt(7.5), 10.0, 1.0, 1.0, TruncationSpec(dim_mech=12, dim_cav=3)
    )
    red = _d19_reduced()
    for flag in (False, True):
        yield build_prerwa_liouvillian(
            red,
            2000.0,
            1.0,
            1.0,
            TruncationSpec(dim_mech=12, dim_cav=3),
            include_quadratic_fluctuation=flag,
        )


def test_trace_preservation_all_builders():
    # the trace functional must annihilate any Lindblad generator exactly;
    # the defect measures assembly error only
    for sup in _all_generators():
        assert sup.trace_defect() <= 1e-12 * _inf_norm(sup)


def test_generator_preserves_hermiticity():
    sup = build_reduced_liouvillian(2.0, 0.7, TruncationSpec(dim_mech=10))
    rng = np.random.default_rng(7)
    m = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    rho = m + m.conj().T
    y = sup.matrix @ rho.reshape(-1, order="F")
    out = y.reshape(10, 10, order="F")
    assert np.max(np.abs(out - out.conj().T)) <= 1e-12 * np.max(np.abs(out))


def _dense_destroy(dim):
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def _dense_generator_apply(h, jumps, rho):
    """-i[h, rho] + sum (rate/2)(2 o rho o^dag - o^dag o rho - rho o^dag o)."""
    out = -1j * (h @ rho - rho @ h)
    for o, rate in jumps:
        od = o.conj().T
        out = out + 0.5 * rate * (2.0 * o @ rho @ od - od @ o @ rho - rho @ od @ o)
    return out


def _textbook_cases():
    """(sparse generator, dense h, dense jump list) at small dimensions."""
    C, n_th = 3.0, 0.7
    b = _dense_destroy(10)
    yield (
        build_reduced_liouvillian(C, n_th, TruncationSpec(dim_mech=10)),
        np.zeros((10, 10)),
        [(b @ b, C), (b.T, n_th), (b, n_th + 1.0)],
    )
    dc, dm = 3, 8
    a = np.kron(_dense_destroy(dc), np.eye(dm))
    b = np.kron(np.eye(dc), _dense_destroy(dm))
    ad, bd = a.T, b.T
    kappa, gamma, n_th = 10.0, 1.0, 0.5
    jumps = [(a, kappa), (bd, gamma * n_th), (b, gamma * (n_th + 1.0))]
    g = math.sqrt(7.5)
    yield (
        build_two_mode_rwa_liouvillian(g, kappa, gamma, n_th, TruncationSpec(dm, dc)),
        g * (ad @ b @ b + bd @ bd @ a),
        jumps,
    )
    red = _d19_reduced()
    kappa = 2000.0
    jumps = [(a, kappa), (bd, gamma * n_th), (b, gamma * (n_th + 1.0))]
    g, n_c = red.g, red.n_c
    x2 = (b + bd) @ (b + bd)
    h = (
        -red.Delta_c * ad @ a
        + red.omega_m_eff * bd @ b
        + g * math.sqrt(n_c) * (b @ b + bd @ bd)
        + g * (a + ad) @ x2
    )
    for flag in (False, True):
        sup = build_prerwa_liouvillian(
            red, kappa, gamma, n_th, TruncationSpec(dm, dc),
            include_quadratic_fluctuation=flag,
        )
        quad = (g / math.sqrt(n_c)) * (ad @ a @ x2) if flag else 0.0
        yield sup, h + quad, jumps


def test_generators_match_textbook_form():
    # each sparse generator, applied to vec(rho), must equal the master
    # equation evaluated with dense operators
    rng = np.random.default_rng(11)
    for sup, h, jumps in _textbook_cases():
        d = sup.dim
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = m + m.conj().T
        got = (sup.matrix @ rho.reshape(-1, order="F")).reshape(d, d, order="F")
        want = _dense_generator_apply(h, jumps, rho)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_thermal_fixed_point():
    # C = 0 leaves a pure thermal contact: n_ss = n_th, g2 = 2
    sup = build_reduced_liouvillian(0.0, 2.0, TruncationSpec(dim_mech=64))
    rep = observables(steady_state(sup))
    assert rep.n_ss == pytest.approx(2.0, abs=1e-8)
    assert rep.g2 == pytest.approx(2.0, abs=1e-8)
    assert rep.regime is Regime.BUNCHED


def test_vacuum_fixed_point():
    sup = build_reduced_liouvillian(1.0, 0.0, TruncationSpec(dim_mech=16))
    rep = observables(steady_state(sup))
    assert rep.populations[0] >= 1.0 - 1e-10
    assert rep.g2 is None
    assert rep.regime is Regime.VACUUM


def test_reduced_matches_analytic():
    sup = build_reduced_liouvillian(10.0, 1.0, TruncationSpec(dim_mech=40))
    rep = observables(steady_state(sup))
    assert rep.n_ss == pytest.approx(0.25322884922445058, rel=1e-9)
    assert rep.g2 == pytest.approx(0.58227906174382116, rel=1e-9)


@pytest.mark.parametrize("C, n_th, d, flux", [
    (0.1, 5.0, 16, 8.062837e-2),
    (0.1, 5.0, 32, 5.835054e-6),
    (0.1, 5.0, 64, None),
    (0.1, 1e2, 128, 1.471496e-4),
    (0.1, 1e2, 256, None),
    (1.0, 1.0, 16, 1.0525e-13),
    (10.0, 0.5, 8, 9.4376e-12),
])
def test_reduced_rungs_break_the_balance_by_their_top_flux(C, n_th, d, flux):
    """At every rung, n_th - n_ss - 2C n_ss^2 g2 = n_th d P_{d-1}: the
    first-moment balance misses exactly the upward flux out of the top
    level. Both sides are roundoff at converged rungs (flux None), so the
    identity is checked in absolute form, to 3e-14 n_th (measured: at most
    1.7e-14 n_th, at (0.1, 1e2), d = 256); elsewhere the flux is pinned
    to its measured value."""
    rep = observables(steady_state(build_reduced_liouvillian(C, n_th, TruncationSpec(d))))
    defect = n_th - rep.n_ss - 2.0 * C * rep.n_ss**2 * rep.g2
    top_flux = n_th * d * rep.populations[d - 1]
    assert abs(defect - top_flux) <= 3e-14 * n_th
    if flux is None:
        assert top_flux <= 1e-17 * n_th
    else:
        assert top_flux == pytest.approx(flux, rel=1e-4)


def test_coherent_point_statistics():
    # C = 2 n_th + 1 = 41: Poissonian steady state, Fano factor 1
    sup = build_reduced_liouvillian(41.0, 20.0, TruncationSpec(dim_mech=80))
    rep = observables(steady_state(sup))
    assert rep.n_ss == pytest.approx(20.0 / 41.0, rel=1e-6)
    assert rep.g2 == pytest.approx(1.0, abs=1e-6)
    n = np.arange(rep.populations.size, dtype=float)
    var = (n - rep.n_ss) ** 2 @ rep.populations
    assert var / rep.n_ss == pytest.approx(1.0, abs=1e-3)


def test_two_mode_factorizes_at_zero_coupling():
    sup = build_two_mode_rwa_liouvillian(
        0.0, 10.0, 1.0, 0.5, TruncationSpec(dim_mech=24, dim_cav=3)
    )
    state = steady_state(sup)
    mech = observables(state, mode="mech")
    cav = observables(state, mode="cav")
    assert mech.n_ss == pytest.approx(0.5, abs=1e-9)
    assert cav.n_ss <= 1e-12


def test_cavity_empties_with_faster_decay():
    # at fixed target C the cavity is a spectator whose occupation shrinks
    # as its linewidth grows
    occ = []
    for kappa in (100.0, 400.0):
        g = math.sqrt(3.0 * 1.0 * kappa / 4.0)
        sup = build_two_mode_rwa_liouvillian(
            g, kappa, 1.0, 1.0, TruncationSpec(dim_mech=24, dim_cav=4)
        )
        occ.append(observables(steady_state(sup), mode="cav").n_ss)
    assert 0.0 < occ[1] < occ[0]


def test_degenerate_kernel_raises():
    # a bare two-phonon drain leaves span{|0>, |1>} dark, inside the
    # declared sector: the stationary state is not unique and the solver
    # must refuse rather than pick one
    with pytest.raises(SingularSystem, match="exactly singular"):
        steady_state(lindblad._assemble("reduced", (1, 6), (1.0, 0.0, 0.0)))


def _sector_cases():
    """Builder outputs at small dimensions, edge cases included."""
    yield from _all_generators()
    yield build_reduced_liouvillian(3.0, 0.0, TruncationSpec(dim_mech=12))
    yield build_reduced_liouvillian(0.0, 0.7, TruncationSpec(dim_mech=12))
    two_mode = TruncationSpec(dim_mech=10, dim_cav=3)
    yield build_two_mode_rwa_liouvillian(0.0, 10.0, 1.0, 0.5, two_mode)
    yield build_two_mode_rwa_liouvillian(math.sqrt(7.5), 10.0, 1.0, 0.0, two_mode)
    for flag in (False, True):
        yield build_prerwa_liouvillian(
            _d19_reduced(), 2000.0, 1.0, 0.0, two_mode,
            include_quadratic_fluctuation=flag,
        )


def test_builders_declare_a_closed_sector():
    # L never couples the steady state's sector S to its complement
    for sup in _sector_cases():
        inside = np.zeros(sup.dim**2, dtype=bool)
        inside[sup.sector()] = True
        L = sup.matrix.tocsr()
        assert L[~inside][:, inside].count_nonzero() == 0
        assert L[inside][:, ~inside].count_nonzero() == 0


def test_sector_assembly_matches_the_full_generator():
    # the cached sector block against the d^2 x d^2 reference assembled
    # from the build's own factors, then sliced
    for sup in _sector_cases():
        sector = sup.sector()
        full = lindblad._liouvillian(sup.h, sup.jumps)[sector][:, sector]
        block = _block(sup)
        assert block.shape == full.shape
        assert abs(block - full).max() <= 1e-15 * abs(full).max()


def test_sector_build_memory_is_linear_in_the_sector():
    # the reduced model at d = 4096 has a sector of 4096 unknowns; the
    # whole generator would be 4096^2 x 4096^2
    lindblad._unit_parts.cache_clear()
    tracemalloc.start()
    try:
        build_reduced_liouvillian(1.0, 1e8, TruncationSpec(4096))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    # a fresh record is built one unit part at a time, never holding every
    # product at once, so its traced peak stays within 2.5x the record it
    # returns (1.4-1.6x measured)
    for model, dims in (("reduced", (1, 4096)), ("rwa", (6, 128)), ("prerwa", (4, 16))):
        lindblad._unit_parts.cache_clear()
        tracemalloc.start()
        try:
            parts = lindblad._unit_parts(model, dims)
            record, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            lindblad._unit_parts.cache_clear()
        assert parts.dims == dims
        assert peak <= 2.5 * record, (model, dims, peak / record)


def _arrays(value):
    """Every ndarray in ``value``: itself, a sparse matrix's data, indices
    and indptr, and those in lists and tuples."""
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays(item)
    elif sp.issparse(value):
        yield from (value.data, value.indices, value.indptr)
    elif isinstance(value, np.ndarray):
        yield value


def _canonical(indices, indptr, width):
    """Whether the compressed pattern (indices, indptr) of rows ``width``
    wide ascends within each row, with no duplicate."""
    rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    keys = rows.astype(np.int64) * width + indices
    return bool(indptr[0] == 0 and np.all(np.diff(indptr) >= 0)
                and np.all((0 <= indices) & (indices < width)) and np.all(np.diff(keys) > 0))


@pytest.mark.parametrize("model, dims", [
    ("reduced", (1, 8)), ("reduced", (1, 100)), ("rwa", (2, 8)), ("rwa", (4, 32)),
    ("prerwa", (3, 8)), ("prerwa", (4, 16)),
])
def test_unit_parts_record_contract(model, dims):
    # the streamed build keeps the record's contract: a canonical int32
    # pattern, weights on it with int32 indices and no stored zeros, every
    # pattern entry weighed by some part, and no array that takes writes
    lindblad._unit_parts.cache_clear()
    parts = lindblad._unit_parts(model, dims)
    n, nnz = parts.sector.size, parts.indices.size
    assert parts.indices.dtype == parts.indptr.dtype == parts.starts.dtype == np.intc
    assert parts.indptr.size == n + 1 and parts.indptr[-1] == nnz
    assert _canonical(parts.indices, parts.indptr, n)
    np.testing.assert_array_equal(parts.starts, parts.indptr[:-1][np.diff(parts.indptr) > 0])
    weighed = np.zeros(nnz, dtype=bool)
    for w, count in ((parts.jump_w, len(parts.jumps)), (parts.term_w, len(parts.terms))):
        if w is None:
            assert count == 0
            continue
        assert w.format == "csr" and w.shape == (nnz, count) and w.dtype == np.float64
        assert w.indices.dtype == w.indptr.dtype == np.intc
        assert _canonical(w.indices, w.indptr, count)
        assert np.all(w.data != 0.0)
        weighed |= np.diff(w.indptr) > 0
    assert weighed.all()
    assert parts.band and parts.a_weights  # formed on first use, kept in the record
    arrays = [a for value in vars(parts).values() for a in _arrays(value)]
    assert len(arrays) >= 20
    for a in arrays:
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        parts.jump_w.data[0] = 1.0


def test_sector_state_memory_is_linear_in_the_sector():
    # the solve and the observables keep the state as its 4096 sector
    # entries; a dense d x d state would take 128 MiB per copy. The band
    # LU's storage is numpy's, so tracemalloc sees it (0.16 MiB here)
    sup = build_reduced_liouvillian(1.0, 1e8, TruncationSpec(4096))
    tracemalloc.start()
    try:
        observables(steady_state(sup))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _captured_gbsv(calls):
    """A stand-in for ``lindblad._gbsv`` that appends each call's (kl, ku,
    n) to ``calls`` and solves as it does."""
    solve = lindblad._gbsv

    def captured(kl, ku, ab, b):
        calls.append((kl, ku, ab.shape[1]))
        return solve(kl, ku, ab, b)

    return captured


def test_sector_lu_keeps_the_reduced_band(monkeypatch):
    # the pinned system keeps the band of the rate matrix (n_b moves by +1,
    # -1 and -2), so its LU stays near a few entries per unknown; a dense
    # pinned row fills it to about n^2 / 2
    sup = build_reduced_liouvillian(1.0, 1e8, TruncationSpec(4096))
    calls = []
    monkeypatch.setattr(lindblad, "_gbsv", _captured_gbsv(calls))
    steady_state(sup)
    (kl, ku, n), = calls
    assert (kl, ku, n) == (1, 2, 4096)
    assert (2 * kl + ku + 1) * n <= 10 * n


@pytest.mark.parametrize("dim_cav, widths", [
    (1, (1, 2)), (4, (16, 37)), (5, (25, 56)), (6, (36, 79)), (7, (49, 106)), (8, (64, 137)),
])
def test_band_widths_do_not_grow_with_the_mechanics(dim_cav, widths):
    """In charge order the pinned system is a band whose widths (kl, ku)
    are set by the cavity alone: the reduced model's (1, 2) at every d, and
    the RWA model's the same at every dim_mech for a fixed dim_cav. So the
    band storage, (2 kl + ku + 1) n entries, grows with the sector, not
    with its square."""
    model = "reduced" if dim_cav == 1 else "rwa"
    for dim_mech in (8, 32, 256) if dim_cav == 1 else (32, 64, 128):
        parts = lindblad._unit_parts(model, (dim_cav, dim_mech))
        order, kl, ku, flat, pin = parts.band
        n = parts.sector.size
        assert (kl, ku) == widths
        assert np.array_equal(np.sort(order), np.arange(n)) and parts.sector[order[pin]] == 0
        assert flat.size == parts.indices.size - parts.indptr[1]
        assert 0 <= flat.min() and flat.max() < (2 * kl + ku + 1) * n
    if dim_cav == 1:
        assert lindblad._unit_parts("reduced", (1, 2**17)).band[1:3] == widths


def test_band_solve_memory_is_linear_in_the_sector():
    # one band solve at d = 2^17: its storage, 5 entries per unknown, the
    # right-hand side and the solution, all numpy's and traced; measured
    # at 6.5 float64 per unknown
    sup = build_reduced_liouvillian(1.0, 1e8, TruncationSpec(2**17))
    data = sup._sector_data()[None]
    assert sup.parts.band[1:3] == (1, 2)
    tracemalloc.start()
    try:
        lindblad._sector_lu(sup.parts, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7.5 * 8 * 2**17


def test_sector_lu_matches_refined_solution():
    # RWA at (C, n_th) = (4, 0.2): the reference is the same sector block,
    # pinned by rho[0, 0] = 1, solved by dense LU and refined with its
    # residual taken in extended precision
    kappa = 400.0
    sup = build_two_mode_rwa_liouvillian(
        math.sqrt(4.0 * kappa / 4.0), kappa, 1.0, 0.2, TruncationSpec(dim_mech=32, dim_cav=4)
    )
    rep = observables(steady_state(sup))
    a = sup._sector_block().toarray()
    a[0] = 0.0
    a[0, 0] = 1.0
    rhs = np.zeros(a.shape[0], dtype=a.dtype)
    rhs[0] = 1.0
    lu = scipy.linalg.lu_factor(a)
    a_ext = a.astype(np.clongdouble)
    x = scipy.linalg.lu_solve(lu, rhs).astype(np.clongdouble)
    for _ in range(3):
        r = rhs - a_ext @ x
        x += scipy.linalg.lu_solve(lu, r.astype(a.dtype))
    pops = x[sup.parts.diag].real.reshape(sup.dims).sum(axis=0)
    pops /= pops.sum()
    n = np.arange(pops.size)
    n_ss = (n * pops).sum()
    g2 = (n * (n - 1) * pops).sum() / n_ss**2
    assert rep.n_ss == pytest.approx(float(n_ss), rel=1e-13, abs=0.0)
    assert rep.g2 == pytest.approx(float(g2), rel=1e-13, abs=0.0)


def test_empty_vacuum_raises():
    # pure pumping drives every state to |3><3|: rho[0, 0] = 0 leaves the
    # LU's pin rho[0, 0] = 1 without a solution
    with pytest.raises(SingularSystem, match="exactly singular"):
        steady_state(lindblad._assemble("reduced", (1, 4), (0.0, 1.0, 0.0)))


def test_charge_that_does_not_close_its_sector_raises():
    # -i[sigma_x, rho] moves populations into coherences: charge [0, 1]
    # declares a sector (the diagonal) that L leaves, and the builders'
    # cache refuses that pair of factors when it pairs them
    sx = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    charge = np.array([0, 1])
    eye = sp.identity(2, format="csr")
    with pytest.raises(DomainError, match="does not close"):
        lindblad._sector_kron(eye, -1j * sx, charge, lindblad._place(charge))


def _full_solve(sup):
    """The steady state of the whole d^2 x d^2 generator ``sup.matrix`` as a
    d x d array: row 0 (the equation of rho[0, 0]) replaced by the pin
    rho[0, 0] = 1, solved by SuperLU, hermitized and normalized. It shares
    no code with the sector solve."""
    d = sup.dim
    pin = sp.csr_matrix(([1.0], ([0], [0])), shape=(1, d * d))
    system = sp.vstack([pin, sup.matrix[1:]], format="csc")
    rhs = np.zeros(d * d, dtype=system.dtype)
    rhs[0] = 1.0
    rho = spsolve(system, rhs).reshape(d, d, order="F")  # column stacking
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _gap(state, full):
    """max |state - full| over every entry of rho, where ``full`` is a
    :func:`_full_solve` and ``state`` is zero outside its sector."""
    return np.abs(_dense(state) - full).max()


def _dense(state):
    """The state as a d x d array, zero outside its sector."""
    d = state.dims[0] * state.dims[1]
    rho = np.zeros(d * d, dtype=state.values.dtype)
    rho[state.parts.sector] = state.values
    return rho.reshape(d, d, order="F")  # column stacking


def test_sector_solve_matches_full_solve():
    # the sector LU against the full-space LU, and the solve each builder's
    # output selects (GMRES on the pre-RWA parity sector) against the same
    krylov = 0
    for sup in _sector_cases():
        n, d = sup.sector().size, sup.dim
        full = _full_solve(sup)
        chosen = steady_state(sup)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lindblad, "_krylov_pays", lambda n, d: False)
            sector = steady_state(sup)
        assert n < d**2
        assert sector.solver == "sector-lu"
        assert chosen.solver == ("krylov" if n > d**1.5 else "sector-lu")
        krylov += chosen.solver == "krylov"
        assert _gap(sector, full) <= 1e-12
        assert _gap(chosen, full) <= 1e-9
    assert krylov == 4  # the pre-RWA cases


def _prerwa(C, n_th, trunc, flag=False):
    # the CLI's pre-RWA point: kappa = 2000, omega' = 50 kappa, g0 n_c = 1e-3 omega'
    kappa, omega = 2000.0, 1e5
    g = math.sqrt(C * kappa / 4.0)
    n_c = (1e-3 * omega / g) ** 2
    red = ReducedParams(C=C, n_th=n_th, n_c=n_c, g=g, omega_m_eff=omega,
                        Gamma_opt=C, Delta_c=-2.0 * omega)
    return build_prerwa_liouvillian(red, kappa, 1.0, n_th, trunc,
                                    include_quadratic_fluctuation=flag)


def test_krylov_solve_matches_full_lu_at_4x16():
    trunc = TruncationSpec(dim_mech=16, dim_cav=4)
    for sup in (_prerwa(4.0, 0.2, trunc), _prerwa(4.0, 0.2, trunc, flag=True),
                _prerwa(0.1, 0.0, trunc)):
        state = steady_state(sup)
        full = _full_solve(sup)
        assert state.solver == "krylov"
        assert 0 < state.iterations <= 40
        assert state.residual <= 1e-14
        assert _gap(state, full) <= 1e-9


def test_krylov_solve_at_zero_temperature(monkeypatch):
    # at n_th = 0 the vacuum is an eigenvector of A with eigenvalue 0 on the
    # RWA model; the shift keeps the preconditioner finite there
    monkeypatch.setattr(lindblad, "_krylov_pays", lambda n, d: True)
    two_mode = TruncationSpec(dim_mech=16, dim_cav=3)
    for sup in (
        build_two_mode_rwa_liouvillian(math.sqrt(7.5), 10.0, 1.0, 0.0, two_mode),
        _prerwa(3.0, 0.0, two_mode),
    ):
        state = steady_state(sup)
        full = _full_solve(sup)
        assert state.solver == "krylov"
        assert _gap(state, full) <= 1e-9


def test_krylov_nonconvergence_raises(monkeypatch):
    monkeypatch.setattr(lindblad, "_KRYLOV_RESTART", 2)
    monkeypatch.setattr(lindblad, "_KRYLOV_CYCLES", 1)
    with pytest.raises(SingularSystem, match="GMRES"):
        steady_state(_prerwa(4.0, 0.2, TruncationSpec(dim_mech=8, dim_cav=3)))


def test_krylov_preconditioner_weights_match_the_sparse_sum():
    # A = sum_k (-1/2) r_k o_k^dag o_k - i h on the sector, from the cached
    # weights, against the sparse sum it replaced, on every pre-RWA case
    prerwa = [sup for sup in _sector_cases() if len(sup.parts.terms) == 5]
    assert len(prerwa) == 4
    for sup in prerwa:
        a = sum((-0.5 * rate) * (op.conj().T @ op) for op, rate in sup.jumps) - 1j * sup.h
        cols, rows = np.divmod(sup.sector(), sup.dim)
        want = np.asarray(a.tocsr()[rows, cols]).ravel()
        got = lindblad._weigh(*sup.parts.a_weights, sup.coefs[None])[0]
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_build_forms_its_hamiltonian_when_first_read():
    for sup, h, _ in _textbook_cases():
        assert "h" not in vars(sup)
        got = np.zeros_like(h) if sup.h is None else sup.h.toarray()
        assert "h" in vars(sup)
        assert np.max(np.abs(got - h)) <= 1e-15 * max(np.max(np.abs(h)), 1.0)


def test_block_min_eigenvalue_matches_dense():
    for sup in _sector_cases():
        state = steady_state(sup)
        parts, rho = state.parts, _dense(state)
        # the state as solved, and shifted so that blocks need repair (the
        # smallest eigenvalue then is -1e-9, above the floor)
        for shift in (0.0, np.linalg.eigvalsh(rho)[0] + 1e-9):
            m = rho - shift * np.eye(sup.dim)
            want = np.linalg.eigvalsh(m)
            values = state.values.copy()
            values[parts.diag] -= shift
            fixed = values.copy()
            got = lindblad._positive_part(fixed, parts.block_pos)
            assert abs(got - want[0]) <= 1e-15
            if got >= 0.0:
                assert np.array_equal(fixed, values)
                continue
            w, v = np.linalg.eigh(m)
            dense = (v * np.clip(w, 0.0, None)) @ v.conj().T
            fixed = _dense(dataclasses.replace(state, values=fixed))
            assert np.max(np.abs(fixed - dense)) <= 1e-14


def test_reduced_sector_is_the_diagonal_and_stays_real():
    sup = build_reduced_liouvillian(3.0, 1.0, TruncationSpec(dim_mech=12))
    assert np.array_equal(sup.sector(), np.arange(12) * 13)
    state = steady_state(sup)
    assert state.values.dtype == np.float64
    assert np.array_equal(state.parts.sector, sup.sector())


def _fresh_assemblies(C, n_th, g, n_c, flag):
    """Builder outputs beside one _liouvillian call on the whole
    Hamiltonian and jump list, at one parameter set."""
    dm, dc = 8, 3
    b1 = lindblad._destroy(dm)
    yield (
        build_reduced_liouvillian(C, n_th, TruncationSpec(dim_mech=dm)),
        lindblad._liouvillian(None, [(b1 @ b1, C), (b1.T, n_th), (b1, n_th + 1.0)]),
    )
    a = sp.kron(lindblad._destroy(dc), sp.identity(dm), format="csr")
    b = sp.kron(sp.identity(dc), b1, format="csr")
    ad, bd = a.T, b.T
    kappa, gamma = 40.0, 1.0
    jumps = [(a, kappa), (bd, gamma * n_th), (b, gamma * (n_th + 1.0))]
    trunc = TruncationSpec(dim_mech=dm, dim_cav=dc)
    yield (
        build_two_mode_rwa_liouvillian(g, kappa, gamma, n_th, trunc),
        lindblad._liouvillian(g * (ad @ b @ b + bd @ bd @ a), jumps),
    )
    omega = 1e3
    red = ReducedParams(C=C, n_th=n_th, n_c=n_c, g=g, omega_m_eff=omega,
                        Gamma_opt=C, Delta_c=-2.0 * omega)
    x2 = (b + bd) @ (b + bd)
    h = (2.0 * omega * (ad @ a) + omega * (bd @ b)
         + g * math.sqrt(n_c) * (b @ b + bd @ bd) + g * ((a + ad) @ x2))
    if flag:
        h = h + (g / math.sqrt(n_c)) * (ad @ a @ x2)
    yield (
        build_prerwa_liouvillian(red, kappa, gamma, n_th, trunc,
                                 include_quadratic_fluctuation=flag),
        lindblad._liouvillian(h, jumps),
    )


def _block(sup):
    """The block L[S, S] that steady_state reads."""
    return sup._sector_block()


def test_cached_builds_match_fresh_assembly():
    lindblad._unit_parts.cache_clear()
    for params in ((3.0, 1.0, 2.0, 4.0, False), (0.5, 0.2, 0.7, 9.0, True)):
        for sup, fresh in _fresh_assemblies(*params):
            sector = sup.sector()
            diff = abs(_block(sup) - fresh[sector][:, sector]).max()
            assert diff <= 1e-13 * abs(fresh).max()
    assert lindblad._unit_parts.cache_info().hits == 3


def test_cached_parts_survive_writes_into_a_build():
    trunc = TruncationSpec(dim_mech=10, dim_cav=3)
    first = build_two_mode_rwa_liouvillian(1.0, 10.0, 1.0, 0.5, trunc)
    want = _block(first).toarray()
    _block(first).data[:] = np.nan
    _block(first).indices[:] = 0
    again = build_two_mode_rwa_liouvillian(1.0, 10.0, 1.0, 0.5, trunc)
    assert np.array_equal(_block(again).toarray(), want)
    # the jump operators are the cache's own, so they refuse writes
    with pytest.raises(ValueError):
        first.jumps[0][0].data[:] = 0.0


def _arrays(value) -> list:
    """Every ndarray in ``value``: itself, those in lists and tuples, and
    the data, indices and indptr of a sparse matrix."""
    if isinstance(value, (list, tuple)):
        return [arr for item in value for arr in _arrays(item)]
    if sp.issparse(value):
        return [value.data, value.indices, value.indptr]
    return [value] if isinstance(value, np.ndarray) else []


def test_cache_records_refuse_writes():
    # a build's charge is the cache's own: a write into it would reach every
    # later build at that truncation, so it refuses, as does every array the
    # record holds or forms (the weights the solves read included)
    trunc = TruncationSpec(dim_mech=8, dim_cav=3)
    builds = (build_reduced_liouvillian(1.0, 1.0, TruncationSpec(8)),
              build_two_mode_rwa_liouvillian(1.0, 10.0, 1.0, 0.5, trunc),
              _prerwa(4.0, 0.2, trunc))
    for sup in builds:
        with pytest.raises(ValueError):
            sup.charge[:] = 7
        parts = sup.parts
        fields = [getattr(parts, f.name) for f in dataclasses.fields(parts)]
        arrays = _arrays(fields + [parts.band, parts.a_weights])
        # charge, sector, diag, mirror, indices, indptr, starts, 2 of band
        assert len(arrays) >= 9 + 3 * (len(parts.jumps) + len(parts.terms))
        assert not [arr for arr in arrays if arr.flags.writeable]
    assert builds[0].charge.tolist() == list(range(8))


def test_converge_truncation_reduced(monkeypatch):
    monkeypatch.setattr(lindblad, "_LADDER_REL_TOL", 1e-8)
    trunc, rep = converge_truncation(
        partial(build_reduced_liouvillian, 10.0, 1.0), TruncationSpec(dim_mech=8)
    )
    assert trunc.dim_mech >= 16
    assert rep.n_ss == pytest.approx(0.25322884922445058, rel=1e-8)
    assert rep.g2 == pytest.approx(0.58227906174382116, rel=1e-8)


def test_converge_truncation_grows_cavity(monkeypatch):
    monkeypatch.setattr(lindblad, "_LADDER_REL_TOL", 1e-4)
    monkeypatch.setattr(lindblad, "_DIM_CAP", 1024)
    # g, kappa, gamma, n_th
    build = partial(build_two_mode_rwa_liouvillian, math.sqrt(7.5), 10.0, 1.0, 1.0)
    trunc, rep = converge_truncation(build, TruncationSpec(dim_mech=16, dim_cav=3))
    assert trunc.dim_cav >= 4  # at least one growth round before acceptance
    assert rep.n_ss > 0.0
    assert rep.g2 is not None


def test_converge_truncation_budget(monkeypatch):
    monkeypatch.setattr(lindblad, "_DIM_CAP", 32)
    with pytest.raises(BudgetExceeded) as exc:
        converge_truncation(
            partial(build_reduced_liouvillian, 0.1, 5.0), TruncationSpec(dim_mech=8)
        )
    assert exc.value.last_spec.dim_mech == 32
    assert exc.value.last_report.n_ss > 0.0


def _ladder_jobs(model):
    """(build, initial) per point of a grid whose ladders stop after two to
    five rungs, at n_th = 0 too, and whose last point runs out of budget
    (at the cap the test sets)."""
    if model == "reduced":
        points = [(50.0, 0.0), (3.0, 0.5), (1.0, 3.0), (0.1, 1.0), (0.1, 5.0), (0.1, 1e3)]
        return [(partial(build_reduced_liouvillian, C, n_th), TruncationSpec(8))
                for C, n_th in points]
    kappa = 400.0
    points = [(4.0, 0.0), (4.0, 0.2), (1.0, 2.0), (4.0, 6.0), (1.0, 30.0)]
    return [
        (partial(build_two_mode_rwa_liouvillian, math.sqrt(C * kappa / 4.0), kappa, 1.0, n_th),
         TruncationSpec(8, 2))
        for C, n_th in points
    ]


@pytest.mark.parametrize("model, cap, bound", [("reduced", 128, 100), ("rwa", 768, 600)])
def test_batched_ladders_match_lone_ladders(monkeypatch, model, cap, bound):
    """Ladders climbed together accept what each accepts climbed alone, bit
    for bit: the truncation, n_ss, g2, populations and diagnostics. The
    point that runs out of budget raises the same error with the same last
    report. The batch bound splits the larger rung levels into several
    assembly products; each system is factored once."""
    monkeypatch.setattr(lindblad, "_DIM_CAP", cap)
    monkeypatch.setattr(lindblad, "_BATCH_UNKNOWNS", bound)
    jobs = _ladder_jobs(model)
    rungs = [0] * len(jobs)

    def counted(i, build):
        def rung(trunc):
            rungs[i] += 1
            return build(trunc)
        return rung

    products, factored = [], []
    weigh = lindblad._weigh

    def captured(jump_w, term_w, coefs):
        products.append(coefs.shape[0])
        return weigh(jump_w, term_w, coefs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lindblad, "_weigh", captured)
        mp.setattr(lindblad, "_gbsv", _captured_gbsv(factored))
        together = lindblad._climb([(counted(i, build), initial, True)
                                    for i, (build, initial) in enumerate(jobs)])
    assert max(rungs) < len(products) < sum(rungs)
    assert len(factored) == sum(products) == sum(rungs)
    assert set(rungs[:-1]) == {2, 3, 4, 5}
    assert [type(got) for got in together].count(BudgetExceeded) == 1
    assert isinstance(together[-1], BudgetExceeded)
    for (build, initial), got in zip(jobs, together):
        try:
            alone = converge_truncation(build, initial)
        except BudgetExceeded as exc:
            assert str(got) == str(exc)
            got, alone = (got.last_spec, got.last_report), (exc.last_spec, exc.last_report)
        (spec, rep), (spec_alone, rep_alone) = got, alone
        assert spec == spec_alone
        assert (rep.n_ss, rep.g2, rep.regime) == (rep_alone.n_ss, rep_alone.g2, rep_alone.regime)
        assert np.array_equal(rep.populations, rep_alone.populations)
        assert rep.diagnostics == rep_alone.diagnostics


def test_failed_batch_factorization_is_refactored_system_by_system():
    # a pure pump (no loss) empties the vacuum, so its pinned system is
    # singular; solved in one batch with a sound system of the same
    # pattern, each system is factored once on its own, and only the pump
    # keeps the error
    pump = lindblad._assemble("reduced", (1, 6), (0.0, 1.0, 0.0))
    sound = lindblad._assemble("reduced", (1, 6), (1.0, 0.5, 1.5))
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lindblad, "_gbsv", _captured_gbsv(calls))
        lindblad._solve_batch([sound, pump])
    assert calls == [(1, 2, 6), (1, 2, 6)]
    with pytest.raises(SingularSystem, match="exactly singular"):
        steady_state(pump)
    alone = steady_state(lindblad._assemble("reduced", (1, 6), (1.0, 0.5, 1.5)))
    assert np.array_equal(steady_state(sound).values, alone.values)


@pytest.mark.parametrize("corrupt, error, match", [
    (lambda x: np.where(np.arange(x.size) == 5, np.nan, x),
     SingularSystem, "non-finite entries"),
    (np.zeros_like, SingularSystem, "vanishing trace"),
    (lambda x: np.where(np.arange(x.size) == 5, -0.1 * x.sum(), x),
     UnphysicalState, r"eigenvalue -1\.\d+e-01 below -1e-08"),
    (lambda x: x * (1.0 + 1e-3 * np.random.default_rng(0).random(x.size)),
     SingularSystem, r"residual .* exceeds 1e-10 \* \|\|L\[S, S\]\|\|_inf"),
], ids=["nan", "zero", "negative", "residual"])
def test_solve_gates_refuse_only_their_own_point(monkeypatch, corrupt, error, match):
    """Each per-point gate of the solve's tail (finite entries, nonvanishing
    trace, the eigenvalue floor, the residual) refuses the middle system of
    a batch of three whose LU solution is corrupted, with its own error;
    the outer two equal their lone solves bit for bit."""
    points = [(1.0, 1.0), (3.0, 0.5), (10.0, 2.0)]
    alone = [steady_state(build_reduced_liouvillian(C, n_th, TruncationSpec(32)))
             for C, n_th in points]
    solve = lindblad._sector_lu

    def corrupted(pattern, data):
        x, errors = solve(pattern, data)
        assert x.shape[0] == 3 and errors == [None] * 3
        x[1] = corrupt(x[1])
        return x, errors

    monkeypatch.setattr(lindblad, "_sector_lu", corrupted)
    sups = [build_reduced_liouvillian(C, n_th, TruncationSpec(32)) for C, n_th in points]
    lindblad._solve_batch(sups)
    with pytest.raises(error, match=match):
        steady_state(sups[1])
    for sup, want in zip(sups[::2], alone[::2]):
        got = steady_state(sup)
        assert np.array_equal(got.values, want.values)
        assert (got.residual, got.min_eigenvalue) == (want.residual, want.min_eigenvalue)


def _dense_pinned_solve(sup):
    """The pinned system of ``sup`` formed from its block (the row of
    rho[0, 0] replaced by e_0^T) as a dense array, and its solution with
    right-hand side e_0 by dense LU."""
    system = _block(sup).toarray()
    system[0] = 0.0
    system[0, 0] = 1.0
    rhs = np.zeros(system.shape[0], dtype=system.dtype)
    rhs[0] = 1.0
    return system, scipy.linalg.solve(system, rhs)


def test_band_solve_matches_a_dense_solve_of_the_pinned_system():
    """The band LU in charge order solves the pinned system, real (reduced)
    and complex (RWA), at n_th = 0 too: its solution agrees with a dense
    LU's to roundoff and leaves a residual at roundoff."""
    cases = [
        build_reduced_liouvillian(1.0, 3.0, TruncationSpec(64)),
        build_reduced_liouvillian(3.0, 0.0, TruncationSpec(16)),
        build_two_mode_rwa_liouvillian(math.sqrt(400.0), 400.0, 1.0, 0.2, TruncationSpec(32, 4)),
        build_two_mode_rwa_liouvillian(math.sqrt(7.5), 10.0, 1.0, 0.0, TruncationSpec(10, 3)),
    ]
    for sup in cases:
        data = sup._sector_data()
        (got,), errors = lindblad._sector_lu(sup.parts, data[None])
        system, want = _dense_pinned_solve(sup)
        assert errors == [None]
        assert got.dtype == want.dtype == data.dtype
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-14 * scale
        residual = np.abs(system @ got - np.eye(got.size)[0]).max()
        assert residual <= 1e-15 * np.abs(system).max() * scale


def test_band_plan_is_formed_once_per_record(monkeypatch):
    """The band plan is formed once per cache record and reused by every
    rung solve there, a batch split by a lowered _BATCH_UNKNOWNS factors
    each system once, and each equals its lone band solve bit for bit."""
    formed, calls, solved = [], [], []
    plan, solve = lindblad._Parts.band.func, lindblad._sector_lu

    def counted(parts):
        formed.append(parts.sector.size)
        return plan(parts)

    def captured(parts, data):
        x, errors = solve(parts, data)
        solved.append(x.copy())
        return x, errors

    band = functools.cached_property(counted)
    band.__set_name__(lindblad._Parts, "band")
    monkeypatch.setattr(lindblad._Parts, "band", band)
    monkeypatch.setattr(lindblad, "_sector_lu", captured)
    monkeypatch.setattr(lindblad, "_gbsv", _captured_gbsv(calls))
    lindblad._unit_parts.cache_clear()
    points = [(4.0, 0.0), (4.0, 0.2), (1.0, 2.0), (2.0, 0.5), (8.0, 1.0)]
    trunc = TruncationSpec(16, 3)
    sups = [build_two_mode_rwa_liouvillian(math.sqrt(C * 100.0), 400.0, 1.0, n_th, trunc)
            for C, n_th in points]
    n = sups[0].sector().size
    monkeypatch.setattr(lindblad, "_BATCH_UNKNOWNS", 2 * n)
    lindblad._solve_batch(sups)
    _, kl, ku, _, _ = sups[0].parts.band
    assert formed == [n] and calls == [(kl, ku, n)] * 5
    assert [x.shape[0] for x in solved] == [2, 2, 1]
    for sup, row in zip(sups, np.concatenate(solved)):
        (lone,), _ = solve(sup.parts, sup._sector_data()[None])
        assert np.array_equal(row, lone)
    assert formed == [n]
    # a ladder forms each rung's plan once; a second ladder over the same
    # rungs forms none
    formed.clear()
    calls.clear()
    build = partial(build_reduced_liouvillian, 10.0, 1.0)
    converge_truncation(build, TruncationSpec(8))
    rungs = len(calls)
    assert rungs >= 2 and formed == [8 * 2**k for k in range(rungs)]
    converge_truncation(build, TruncationSpec(8))
    assert len(calls) == 2 * rungs and len(formed) == rungs


def test_prerwa_validation():
    red = ReducedParams(
        C=3.0,
        n_th=1.0,
        n_c=0.0,
        g=1.0,
        omega_m_eff=1e5,
        Gamma_opt=3.0,
        Delta_c=-2e5,
    )
    with pytest.raises(DomainError):
        build_prerwa_liouvillian(
            red, 2000.0, 1.0, 1.0, TruncationSpec(dim_mech=8, dim_cav=2)
        )
    with pytest.raises(DomainError):
        build_prerwa_liouvillian(
            _d19_reduced(), 2000.0, 1.0, 1.0, TruncationSpec(dim_mech=8)
        )  # needs a cavity slot


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_builders_reject_nonfinite_parameters(bad):
    # nan passes every sign check; either value builds a singular generator
    with pytest.raises(DomainError):
        build_reduced_liouvillian(bad, 1.0, TruncationSpec(dim_mech=8))
    with pytest.raises(DomainError):
        build_reduced_liouvillian(3.0, bad, TruncationSpec(dim_mech=8))
    two_mode = TruncationSpec(dim_mech=8, dim_cav=2)
    for args in ((bad, 10.0, 1.0, 1.0), (1.0, bad, 1.0, 1.0),
                 (1.0, 10.0, bad, 1.0), (1.0, 10.0, 1.0, bad)):
        with pytest.raises(DomainError):
            build_two_mode_rwa_liouvillian(*args, two_mode)
    for args in ((bad, 1.0, 1.0), (2000.0, bad, 1.0), (2000.0, 1.0, bad)):
        with pytest.raises(DomainError):
            build_prerwa_liouvillian(_d19_reduced(), *args, two_mode)


_TWO_MODE = TruncationSpec(dim_mech=8, dim_cav=2)


@pytest.mark.parametrize("build,match", [
    (partial(build_reduced_liouvillian, 3.0, 1.0, _TWO_MODE), "dim_cav must be 1"),
    (partial(build_reduced_liouvillian, -1.0, 1.0, TruncationSpec(dim_mech=8)), "nonnegative"),
    (partial(build_reduced_liouvillian, 3.0, -1.0, TruncationSpec(dim_mech=8)), "nonnegative"),
    (partial(build_two_mode_rwa_liouvillian, 1.0, 0.0, 1.0, 1.0, _TWO_MODE), "positive"),
    (partial(build_two_mode_rwa_liouvillian, 1.0, 10.0, -1.0, 1.0, _TWO_MODE), "positive"),
    (partial(build_two_mode_rwa_liouvillian, 1.0, 10.0, 1.0, -1.0, _TWO_MODE), "n_th must be"),
    (partial(build_prerwa_liouvillian, _d19_reduced(), -2000.0, 1.0, 1.0, _TWO_MODE), "positive"),
    (partial(build_prerwa_liouvillian, _d19_reduced(), 2000.0, 0.0, 1.0, _TWO_MODE), "positive"),
    (partial(build_prerwa_liouvillian, _d19_reduced(), 2000.0, 1.0, -1.0, _TWO_MODE), "n_th must be"),
], ids=["reduced-dim_cav", "reduced-C", "reduced-n_th", "rwa-kappa", "rwa-gamma", "rwa-n_th",
        "prerwa-kappa", "prerwa-gamma", "prerwa-n_th"])
def test_builders_refuse_their_domain(build, match):
    """Each builder's own sign and shape checks: a reduced model given a
    cavity slot or a negative C or n_th, and two-mode models with kappa or
    gamma not positive or a negative n_th, all raise DomainError."""
    with pytest.raises(DomainError, match=match):
        build()


def test_prerwa_quadratic_term_changes_generator():
    red = _d19_reduced()
    trunc = TruncationSpec(dim_mech=10, dim_cav=3)
    off = build_prerwa_liouvillian(red, 2000.0, 1.0, 1.0, trunc)
    on = build_prerwa_liouvillian(
        red, 2000.0, 1.0, 1.0, trunc, include_quadratic_fluctuation=True
    )
    assert (off.matrix - on.matrix).nnz > 0


def test_positivity_check_per_block_size(monkeypatch):
    calls = []
    for name in ("eigvalsh", "eigh"):
        orig = getattr(np.linalg, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            calls.append((_name, np.shape(args[0])))
            return _orig(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    # the reduced sector is the diagonal: its entries are the eigenvalues
    state = steady_state(build_reduced_liouvillian(10.0, 1.0, TruncationSpec(dim_mech=40)))
    rep = observables(state)
    assert rep.diagnostics["min_eigenvalue"] == state.min_eigenvalue
    assert state.min_eigenvalue == state.values.min() >= 0.0
    assert calls == []
    # RWA at 3x10 has 4, 4 and 6 charge blocks of sizes 1, 2 and 3: one
    # stacked check per size above 1, and a decomposition again only of the
    # blocks repaired
    sup = build_two_mode_rwa_liouvillian(1.0, 10.0, 1.0, 0.5, TruncationSpec(10, 3))
    state = steady_state(sup)
    checks = [shape for name, shape in calls if name == "eigvalsh"]
    assert checks == [(4, 2, 2), (6, 3, 3)]
    repaired = [shape for name, shape in calls if name == "eigh"]
    assert (state.min_eigenvalue < 0.0) == bool(repaired)
    blocks = {m: k for k, m, _ in checks}
    assert all(k <= blocks[m] for k, m, _ in repaired)


def test_observables_modes_and_diagnostics():
    sup = build_two_mode_rwa_liouvillian(
        1.0, 10.0, 1.0, 0.5, TruncationSpec(dim_mech=16, dim_cav=3)
    )
    state = steady_state(sup)
    assert state.residual <= 1e-10
    for mode in ("mech", "cav"):
        rep = observables(state, mode=mode)
        assert abs(rep.populations.sum() - 1.0) <= 1e-9
        assert rep.diagnostics["model"] == "lindblad"
        assert rep.diagnostics["solver"] == "sector-lu"
        assert "iterations" not in rep.diagnostics
        assert rep.diagnostics["min_eigenvalue"] >= -1e-8
        assert 0.0 <= rep.diagnostics["top_two_population"] <= 1.0
    # the mechanical window is wide enough that its top levels are empty
    assert observables(state).diagnostics["top_two_population"] < 1e-3
    with pytest.raises(DomainError):
        observables(state, mode="both")
