"""Command-line surface: stats, sweeps, figure datasets, validation reports.

Exit codes: 0 success; 1 configuration/validation problems (bad flags, bad
ranges, a ``DomainError``, a validate run outside tolerance, an empty grid);
2 for every other package error, i.e. a computation that cannot converge
(the analytic routes' term budget, the truncation budget, a singular or
unphysical solve).

Model names: ``exact`` (series), ``hitemp`` (high-temperature closed forms),
``oracle-reduced`` / ``oracle-rwa`` / ``oracle-prerwa`` (truncated Lindblad
solves), and ``auto``, which picks ``hitemp`` when n_th/C > 1e6 and
``exact`` otherwise, per point: a fixed policy, not the series term budget
(at n_th/C = 1e6 the series takes at most 17,032 of its 10^7 terms). The
routes differ there by up to 2.7e-4 in g2, so ``auto`` output jumps across
the ratio (the README gives the measured jump).

Grids: ``sweep``, the curve figures (1, 2, 4 and 5), figure 6's C list and
``validate`` read their (C, n_th) grid through :func:`_grid` (per axis: the
set flag, then the range flag, then the single-point flag, then the
command's default) and evaluate it through :func:`_run_grid`, n_th outer and
C inner. A point that fails to converge drops out of the output; the command
writes the converged rest, prints one ``error: C=… n_th=…: <message>`` line
per failed point and exits 2, whatever its exit code would have been.

What each command computes: ``sweep`` and figures 1, 2, 4 and 5 compute
n_ss, g2 and regime only; ``stats``, ``validate`` and figures 3 and 6 also
compute the Fock populations, and an oracle model always solves for the
full state. A grid slice evaluates the hitemp closed forms point by point
and batches the rest (:func:`_slice_worker`), with the same output as
point by point: one series kernel call sums the series of its exact
points, and its oracle points (``validate``, ``sweep --model oracle-*``)
climb their truncation ladders together, one sparse factorization per rung
level; a fixed ``--trunc`` truncation is a ladder that accepts its first rung.

What each command imports: this module loads only the exact route (numpy and
``math``). The ``hitemp`` and ``lindblad`` modules are reached as attributes
of the package (``_pkg.hitemp``, ``_pkg.lindblad``) in the branches that
evaluate those routes, so the package imports them on first use. ``hitemp``
itself needs only ``math`` and numpy, populations included, so neither
analytic route loads scipy: not ``stats`` or ``sweep`` on them, nor any
figure. The oracles, and so ``validate``, load ``scipy.sparse``.
Every call goes through the module attribute, so a wrapper set on e.g.
``hitemp.observables_hitemp`` sees it.

Sweeps and figure datasets are CSV (headered, RFC-4180 quoting via the csv
module); single reports and validation summaries are JSON. Floats are
rendered with %.17g so outputs round-trip and runs are byte-reproducible.
Undefined g2 is an empty CSV field / JSON null, never 0.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import logging
import math
import os
import sys
from multiprocessing import Pool

import numpy as np

import phonon_stats as _pkg

from . import _kernels, exact
from .errors import BudgetExceeded, DomainError, PhononStatsError
from .params import ReducedParams
from .report import SteadyStateReport

__all__ = ["main"]

_LOG = logging.getLogger("phonon_stats.cli")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOCONV = 2

AUTO_HITEMP_RATIO = 1e6

_ANALYTIC = ("exact", "hitemp", "auto")
_ORACLES = ("oracle-reduced", "oracle-rwa", "oracle-prerwa")
_MODELS = _ANALYTIC + _ORACLES


def _drops_point(exc) -> bool:
    """Whether ``exc`` is a failure to converge, which drops its grid point
    and means exit 2: every package error but a DomainError (exit 1)."""
    return isinstance(exc, PhononStatsError) and not isinstance(exc, DomainError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; that slot is reserved
    for non-convergence here, so usage errors are rethrown and mapped to 1."""

    def error(self, message):
        raise _UsageError(message)


def _parse_range(text: str, flag: str = "range") -> list[float]:
    """The values of a range ``lo:hi:steps:log|lin``, endpoints included;
    ``flag`` names it in errors. More steps than the package's term budget
    are refused before anything is allocated."""
    parts = str(text).split(":")
    if len(parts) != 4:
        raise DomainError(f"range {text!r} is not of the form lo:hi:steps:log|lin")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise DomainError(f"range {text!r}: {exc}") from exc
    spacing = parts[3]
    if spacing not in ("log", "lin"):
        raise DomainError(f"range spacing must be 'log' or 'lin', got {spacing!r}")
    if steps < 1:
        raise DomainError(f"range needs at least one step, got {steps}")
    if steps > _kernels._MAX_TERMS:
        raise DomainError(f"{flag} {text!r}: {steps} steps exceed the "
                          f"{_kernels._MAX_TERMS}-point budget")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"range {text!r} has non-finite endpoints")
    if spacing == "log":
        if lo <= 0.0 or hi <= 0.0:
            raise DomainError("log-spaced range needs positive endpoints")
        values = np.logspace(math.log10(lo), math.log10(hi), steps)
    else:
        values = np.linspace(lo, hi, steps)
    return [float(v) for v in values]


def _parse_set(text: str) -> list[float]:
    try:
        vals = [float(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise DomainError(f"bad value list {text!r}: {exc}") from exc
    return vals


def _fmt(value) -> str:
    """%.17g float rendering; None (undefined g2) becomes an empty field."""
    if value is None:
        return ""
    return "%.17g" % float(value)


# ---------------------------------------------------------------------------
# config resolution


def _merge_config(ns: argparse.Namespace, command: argparse.ArgumentParser) -> argparse.Namespace:
    """Overlay a JSON --config file under the flags (flags win).

    The keys are the flags of ``command`` (the subcommand's parser) other
    than ``--config`` and ``--help``. Each loaded value goes through the
    ``type`` and ``choices`` of its flag, and a flag that takes no value
    (``store_true``) takes a JSON boolean, so a value the flag would refuse
    is a DomainError.
    """
    data = vars(ns).copy()
    path = data.pop("config", None)
    if path:
        with open(path) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise DomainError("--config file must hold a JSON object")
        # argparse exposes a parser's flags only as ``_actions``
        actions = {
            action.dest: action
            for action in command._actions
            if action.option_strings and action.dest not in ("config", "help")
        }
        unknown = set(loaded) - set(actions)
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        for key, val in loaded.items():
            if data.get(key) is not None:
                continue
            action = actions[key]
            if action.nargs == 0 and not isinstance(val, bool):
                raise DomainError(f"config key {key!r}: {val!r} is not true or false")
            if val is not None:
                # a flag's type sees the flag's text, so 2.5 is no --jobs value
                if action.type is not None:
                    try:
                        val = action.type(str(val))
                    except ValueError as exc:
                        raise DomainError(f"config key {key!r}: {exc}") from exc
                if action.choices is not None and val not in action.choices:
                    raise DomainError(
                        f"config key {key!r}: {val!r} is not one of {action.choices}"
                    )
            data[key] = val
    return argparse.Namespace(**data)


def _get(cfg, name, default):
    val = getattr(cfg, name, None)
    return default if val is None else val


def _need(cfg, name, flag):
    val = getattr(cfg, name, None)
    if val is None:
        raise DomainError(f"{flag} is required (flag or config file)")
    return val


# ---------------------------------------------------------------------------
# point evaluation


def _resolve_model(name: str, C: float, n_th: float) -> str:
    if name != "auto":
        return name
    if C > 0.0 and n_th / C > AUTO_HITEMP_RATIO:
        return "hitemp"
    return "exact"


def _oracle_job(name, C, n_th, cfg):
    """The oracle solve of one point, ``(build, truncation, climb)``: the
    Lindblad builder, a callable from a truncation to its generator; the
    ladder's start, or the ``--trunc``/``--trunc-cav`` truncation, from
    which no ladder climbs. The flags the model reads, and C on the two-mode
    models, are checked first: a value outside its domain is a DomainError
    that names it. The builder is looked up on the module here, at call
    time, so a wrapper set on it is seen."""
    reads = {"oracle-reduced": (), "oracle-rwa": ("kappa", "gamma")}
    for dest in reads.get(name, ("kappa", "gamma", "omega_m_eff", "n_c")):
        val = getattr(cfg, dest, None)
        if val is None or math.isfinite(val) and (val > 0.0 or dest == "n_c" and val == 0.0):
            continue
        least = ">= 0" if dest == "n_c" else "> 0"
        raise DomainError(f"{_flag(dest)} must be finite and {least}, got {val!r}")
    lindblad = _pkg.lindblad
    if name == "oracle-reduced":
        build = functools.partial(lindblad.build_reduced_liouvillian, C, n_th)
        initial = lindblad.TruncationSpec(8, 1)
    else:
        if not (math.isfinite(C) and C >= 0.0):  # before sqrt(C ...) below
            raise DomainError(f"C must be finite and >= 0, got {C!r}")
        gamma = float(_get(cfg, "gamma", 1.0))
        kappa = float(_get(cfg, "kappa", 400.0 if name == "oracle-rwa" else 2000.0))
        # Coupling chosen so that eliminating the cavity leaves two-phonon
        # damping with cooperativity C: the second-order elimination of
        # (kappa/2) D[a] against H = g (a^dag b^2 + h.c.) gives Gamma = 4 g^2/kappa.
        g = math.sqrt(C * gamma * kappa / 4.0)
    if name == "oracle-rwa":
        build = functools.partial(
            lindblad.build_two_mode_rwa_liouvillian, g, kappa, gamma, n_th
        )
        initial = lindblad.TruncationSpec(8, 2)
    elif name == "oracle-prerwa":
        omega = float(_get(cfg, "omega_m_eff", 50.0 * kappa))
        # Default drive strength saturates g0*n_c/omega' = 1e-3 (with g0 = g/sqrt(n_c)),
        # the deep-sideband hierarchy under which the pre-RWA terms were ordered.
        n_c_default = (1e-3 * omega / g) ** 2 if g > 0.0 else 1.0
        n_c = float(_get(cfg, "n_c", n_c_default))
        reduced = ReducedParams(
            C=C,
            n_th=n_th,
            n_c=n_c,
            g=g,
            omega_m_eff=omega,
            Gamma_opt=C * gamma,
            Delta_c=-2.0 * omega,
        )
        quad = bool(_get(cfg, "include_quad_fluct", False))
        build = functools.partial(
            lindblad.build_prerwa_liouvillian, reduced, kappa, gamma, n_th,
            include_quadratic_fluctuation=quad,
        )
        initial = lindblad.TruncationSpec(8, 3)
    if getattr(cfg, "trunc", None) is None:
        return build, initial, True
    dim_cav = _get(cfg, "trunc_cav", 4 if initial.dim_cav > 1 else 1)
    return build, lindblad.TruncationSpec(int(cfg.trunc), int(dim_cav)), False


def _reports(name, C, n_th, cfg):
    """Evaluate one (C, n_th) point under the named model: a point
    generator (see :func:`_slice_worker`) that returns ``(name, report)``.
    An oracle point yields its solve, ``(_oracle_solves, job)`` with the
    job of :func:`_oracle_job`; the analytic routes yield nothing."""
    name = _resolve_model(name, C, n_th)
    if name == "exact":
        return name, exact.steady_state_exact(C, n_th)
    if name == "hitemp":
        return name, _pkg.hitemp.steady_state_hitemp(C, n_th)
    report = yield _oracle_solves, _oracle_job(name, C, n_th, cfg)
    return name, report


def _point_report(name, C, n_th, cfg) -> tuple[str, SteadyStateReport]:
    """Evaluate one (C, n_th) point under the named model, its batch alone."""
    gen = _reports(name, C, n_th, cfg)
    try:
        batch, arg = next(gen)
    except StopIteration as stop:
        return stop.value
    return _finish(gen, *batch([arg]))


def _point_observables(name, C, n_th, cfg):
    """n_ss, g2 and regime of one point, without Fock populations: a point
    generator like :func:`_reports`.

    An exact point yields its series, ``(exact._observables_grid, its
    series arguments)``, so that a grid slice sums the series of all its
    exact points in one kernel call; the hitemp route evaluates its one
    continued fraction; an oracle's Lindblad solve yields everything at once, so
    an oracle point goes through :func:`_reports`.
    """
    name = _resolve_model(name, C, n_th)
    if name == "exact":
        n_ss, g2 = yield exact._observables_grid, exact._series_args(C, n_th)
    elif name == "hitemp":
        n_ss, g2 = _pkg.hitemp.observables_hitemp(C, n_th)
    else:
        name, rep = yield from _reports(name, C, n_th, cfg)
        return name, rep.n_ss, rep.g2, rep.regime
    return name, n_ss, g2, exact.classify_regime(C, n_th)


def _oracle_solves(jobs) -> list:
    """Per oracle solve, a job of :func:`_oracle_job`, its report or the
    package error that ends it. The solves climb together
    (``lindblad._climb``), one factorization per rung level, and a fixed
    truncation accepts its first rung."""
    lindblad = _pkg.lindblad
    if len(jobs) == 1 and jobs[0][2]:
        # a lone ladder stays on converge_truncation, which perfbench's ladder
        # span wraps and test_perfbench_spans_trace_the_cli counts (until D17)
        try:
            results = [lindblad.converge_truncation(*jobs[0][:2])]
        except PhononStatsError as exc:
            results = [exc]
    else:
        results = lindblad._climb(jobs)
    return [result if isinstance(result, Exception) else result[1] for result in results]


def _finish(gen, outcome):
    """Resume the point generator ``gen`` from its batch's ``outcome``,
    thrown in if it is an error; returns the point's value."""
    try:
        gen.throw(outcome) if isinstance(outcome, Exception) else gen.send(outcome)
    except StopIteration as stop:
        return stop.value


def _failure(exc):
    """What a failed point leaves: its message (a string) for a failure to
    converge, so the rest of the grid survives it; the exception, which
    aborts the command, for any other."""
    return str(exc) if _drops_point(exc) else exc


def _slice_worker(tasks, point=_point_observables):
    """Evaluate a slice of grid tasks: per task its result, its failure
    message (a string) or the exception that aborts the command. The slice
    stops at the first point that raises such an exception.

    ``point(model, C, n_th, cfg)`` is a generator that yields at most once,
    ``(batch, input)``, and is sent its outcome (thrown it, if it is an
    error): ``batch`` maps a list of inputs to their outcomes. The points
    run in grid order up to their yields, each batch runs once on its
    inputs, and the points resume in grid order, so an error that aborts
    comes before every later point and skipped-row warnings keep grid
    order. An aborting slice drops its series batch (its rows are never
    written and warn of nothing) but solves its oracle points before the
    abort. Module-level so it pickles, and shares nothing.
    """
    results, waiting = [], []
    for C, n_th, model, cfg in tasks:
        gen = point(model, C, n_th, cfg)
        try:
            waiting.append((len(results), gen, *next(gen)))
            result = None
        except StopIteration as stop:
            result = stop.value
        except Exception as exc:
            result = _failure(exc)
        results.append(result)
        if isinstance(result, Exception):  # aborts the command: no later point comes first
            waiting = [w for w in waiting if w[2] is not exact._observables_grid]
            break
    outcomes = {}
    for batch in dict.fromkeys(b for _, _, b, _ in waiting):
        try:
            outcomes[batch] = iter(batch([arg for _, _, b, arg in waiting if b is batch]))
        except Exception as exc:  # no point's own error: it aborts the batch
            outcomes[batch] = itertools.repeat(exc)
    for j, gen, batch, _ in waiting:
        try:
            results[j] = _finish(gen, next(outcomes[batch]))
        except Exception as exc:
            results[j] = _failure(exc)
            if isinstance(results[j], Exception):
                return results[: j + 1]
    return results


# ---------------------------------------------------------------------------
# grids

# per axis, the destinations of its value-list, range and single-point flags
_AXES = (("c_set", "c_range", "C"), ("nth_set", "nth_range", "n_th"))


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _grid(cfg, what, *, c_default=None, nth_default=None) -> tuple[list[float], list[float]]:
    """The (C, n_th) grid of command ``what``, as two lists of floats.

    Each axis takes the first of its flags that is set: the value list
    (``--c-set``), the range (``--c-range``), the single point (``--C``).
    Failing those it takes the default, a value list or a range in the
    flags' syntax. An axis with neither, or with no values, is a DomainError
    that names the flags, and so is a grid of more points than the package's
    term budget.
    """
    axes, used = [], []
    for dests, default in zip(_AXES, (c_default, nth_default)):
        set_dest, range_dest, point_dest = dests
        dest = next((d for d in dests if getattr(cfg, d, None) is not None), None)
        if dest is None and default is None:
            flags = ", ".join(_flag(d) for d in dests if hasattr(cfg, d))
            raise DomainError(f"{what} needs one of {flags}")
        text = default if dest is None else getattr(cfg, dest)
        if dest is None:  # the default, in the syntax of a range or a value list
            dest = range_dest if ":" in text else set_dest
        if dest == point_dest:
            values = [float(text)]
        elif dest == range_dest:
            values = _parse_range(text, _flag(dest))
        else:
            values = _parse_set(text)
        if not values:  # only a value list given by its flag can be empty
            raise DomainError(f"{what} grid is empty: {_flag(set_dest)} gives no values")
        axes.append(values)
        used.append(_flag(dest))
    if len(axes[0]) * len(axes[1]) > _kernels._MAX_TERMS:
        raise DomainError(
            f"{what} grid of {len(axes[0])} x {len(axes[1])} points ({' x '.join(used)}) "
            f"exceeds the {_kernels._MAX_TERMS}-point budget")
    return axes[0], axes[1]


def _run_grid(cfg, model, c_values, nth_values, point=_point_observables):
    """Evaluate ``point`` over the grid, n_th outer and C inner.

    Returns ``(C, n_th, result)`` for each converged point, in grid order,
    and one ``C=… n_th=…: <message>`` entry per point that failed to
    converge. Any other failure aborts the command: the first failing point
    in grid order raises its exception here.

    The grid is evaluated in contiguous slices by :func:`_slice_worker`:
    one slice without ``--jobs``, and with ``--jobs N`` (``sweep`` only)
    four per worker of an N-process pool. On an observables grid the
    exact-route points of a slice share one series kernel call.
    """
    jobs = int(_get(cfg, "jobs", 1))
    if jobs < 1:
        raise DomainError(f"--jobs must be >= 1, got {jobs}")
    tasks = [(C, n_th, model, cfg) for n_th in nth_values for C in c_values]
    workers = min(jobs, len(tasks))
    if workers > 1:
        # four slices per worker, as pool.map cuts a task list by default, so
        # that points of uneven cost still spread over the workers
        size = -(-len(tasks) // (4 * workers))
        slices = [tasks[i : i + size] for i in range(0, len(tasks), size)]
        with Pool(processes=workers) as pool:
            parts = pool.map(functools.partial(_slice_worker, point=point), slices)
    else:
        slices, parts = [tasks], [_slice_worker(tasks, point)]
    points, failed = [], []
    for (C, n_th, _, _), result in itertools.chain.from_iterable(map(zip, slices, parts)):
        if isinstance(result, Exception):
            raise result
        if isinstance(result, str):
            failed.append(f"C={_fmt(C)} n_th={_fmt(n_th)}: {result}")
        else:
            points.append((C, n_th, result))
    return points, failed


def _exit_code(failed, code=EXIT_OK) -> int:
    """Print one error line per failed grid point; 2 if any failed, else ``code``."""
    for msg in failed:
        print(f"error: {msg}", file=sys.stderr)
    return EXIT_NOCONV if failed else code


# ---------------------------------------------------------------------------
# output helpers


def _emit_text(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dumps(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)`` and a newline, byte for byte.

    ``json.dumps`` runs CPython's C encoder only when ``indent`` is None; with
    an indent it runs the pure-Python one, which spent more than half of a
    ``stats`` call on the populations list. So the indentation is done here:
    dicts and lists that hold containers are walked, and each dict or list of
    scalars goes to the C encoder in one call whose item separator carries
    the newline and the indent. Floats keep their ``repr`` either way.
    """
    return _json_text(payload, "\n") + "\n"


def _json_text(obj, newline: str) -> str:
    """JSON of ``obj`` whose closing bracket follows ``newline`` (newline + indent)."""
    is_dict = isinstance(obj, dict)
    if not (is_dict or isinstance(obj, (list, tuple))):
        return json.dumps(obj)
    if not obj:
        return "{}" if is_dict else "[]"
    inner = newline + "  "
    values = obj.values() if is_dict else obj
    if not any(issubclass(t, (dict, list, tuple)) for t in set(map(type, values))):
        text = json.dumps(obj, sort_keys=True, separators=("," + inner, ": "))
    elif is_dict:
        # non-string keys are written as strings, the way json.dumps writes them
        text = "{" + ("," + inner).join(
            json.dumps(k if isinstance(k, str) else json.dumps(k)) + ": " + _json_text(v, inner)
            for k, v in sorted(obj.items())
        ) + "}"
    else:
        text = "[" + ("," + inner).join(_json_text(v, inner) for v in obj) + "]"
    return text[0] + inner + text[1:-1] + newline + text[-1]


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommands


def cmd_stats(cfg) -> int:
    C = float(_need(cfg, "C", "--C"))
    n_th = float(_need(cfg, "n_th", "--n-th"))
    name, report = _point_report(_get(cfg, "model", "auto"), C, n_th, cfg)
    payload = {"params": {"C": C, "n_th": n_th, "model": name}}
    payload.update(report.to_json_dict())
    _emit_text(_json_dumps(payload), cfg.out)
    return EXIT_OK


def cmd_sweep(cfg) -> int:
    points, failed = _run_grid(cfg, _get(cfg, "model", "auto"), *_grid(cfg, "sweep"))
    header = ["C", "n_th", "model", "n_ss", "g2", "regime"]
    if _get(cfg, "format", "csv") == "json":
        rows = [  # floats stay floats; g2 None -> null
            dict(zip(header, (C, n_th, name, n_ss, g2, regime.value)))
            for C, n_th, (name, n_ss, g2, regime) in points
        ]
        text = _json_dumps(rows)
    else:
        text = _csv_text(header, (
            [_fmt(C), _fmt(n_th), name, _fmt(n_ss), _fmt(g2), regime.value]
            for C, n_th, (name, n_ss, g2, regime) in points
        ))
    _emit_text(text, cfg.out)
    return _exit_code(failed)


# figure datasets: captions' parameter sets, hard-coded, flag-overridable

# curve figures: (model, default C grid, default n_th grid), in the flags' syntax
_CURVES = {
    1: ("hitemp", "1e-9:1e3:120:log", "1e3,1e4,1e5,1e6"),
    2: ("hitemp", "1e-9:1e6:120:log", "1e3,1e4,1e5,1e6"),
    4: ("exact", "0.1:1e3:100:log", "1,10,20,40"),
    5: ("exact", "0.1:1e3:40:log", "0.1:40:40:log"),
}


def cmd_figure(cfg) -> int:
    fig_id = int(cfg.fig_id)
    if not 1 <= fig_id <= 6:
        raise DomainError(f"fig_id must be in 1..6, got {fig_id}")
    what = f"figure {fig_id}"
    failed = []
    if fig_id in _CURVES:
        model, c_default, nth_default = _CURVES[fig_id]
        grid = _grid(cfg, what, c_default=c_default, nth_default=nth_default)
        points, failed = _run_grid(cfg, model, *grid)
        header = ["C", "n_th", "n_ss", "g2"]
        rows = (
            [_fmt(C), _fmt(n_th), _fmt(n_ss), _fmt(g2)]
            for C, n_th, (_, n_ss, g2, _) in points
        )
    elif fig_id == 3:
        grid = [_flag(d) for d in ("c_set", "c_range", "nth_set") if getattr(cfg, d) is not None]
        if grid:
            raise DomainError(f"figure 3 takes one point (--C, --n-th), not {', '.join(grid)}")
        C = float(_get(cfg, "C", 1e2))
        n_th = float(_get(cfg, "n_th", 1e4))
        _, rep = _point_report("hitemp", C, n_th, cfg)
        header = ["n", "P"]
        rows = ([_fmt(n), _fmt(p)] for n, p in enumerate(rep.populations))
    else:  # fig_id == 6
        c_values, nth_values = _grid(cfg, what, c_default="1,41,1000", nth_default="20")
        if len(nth_values) != 1:
            raise DomainError(f"figure 6 takes one n_th, got {len(nth_values)}")
        n_th = nth_values[0]
        # each column takes its own window; all are then recomputed at the widest
        m_max = max(exact.phonon_populations_exact(C, n_th).size for C in c_values) - 1
        cols = [exact.phonon_populations_exact(C, n_th, m_max) for C in c_values]
        header = ["n"] + [f"P_C{_fmt(C)}" for C in c_values]
        rows = ([_fmt(n)] + [_fmt(col[n]) for col in cols] for n in range(m_max + 1))

    outdir = cfg.out or "."
    os.makedirs(outdir, exist_ok=True)
    csv_name = f"figure{fig_id}.csv"
    csv_path = os.path.join(outdir, csv_name)
    script_path = os.path.join(outdir, f"figure{fig_id}_plot.py")
    _emit_text(_csv_text(header, rows), csv_path)
    _emit_text(_plot_script(fig_id, csv_name), script_path)
    print(csv_path)
    print(script_path)
    return _exit_code(failed)


_SCRIPT_CURVES = '''"""Plot %(csv)s: %(ycol)s against C, one curve per n_th."""
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

series = defaultdict(list)
with open("%(csv)s", newline="") as fh:
    for row in csv.DictReader(fh):
        if row["%(ycol)s"] != "":
            series[float(row["n_th"])].append((float(row["C"]), float(row["%(ycol)s"])))

fig, ax = plt.subplots(figsize=(5, 3.5))
for n_th in sorted(series):
    pts = sorted(series[n_th])
    ax.plot([p[0] for p in pts], [p[1] for p in pts], label="n_th = %%g" %% n_th)
ax.set_xscale("log")
%(extra)s
ax.set_xlabel("cooperativity C")
ax.set_ylabel("%(ylabel)s")
ax.legend(fontsize=8)
fig.tight_layout()
fig.savefig("%(png)s", dpi=200)
'''

_SCRIPT_DIST = '''"""Plot %(csv)s: Fock distribution(s)."""
import csv

import matplotlib.pyplot as plt

with open("%(csv)s", newline="") as fh:
    reader = csv.DictReader(fh)
    cols = [name for name in reader.fieldnames if name != "n"]
    data = {name: [] for name in cols}
    ns = []
    for row in reader:
        ns.append(float(row["n"]))
        for name in cols:
            data[name].append(float(row[name]))

fig, ax = plt.subplots(figsize=(5, 3.5))
for name in cols:
    ax.step(ns, data[name], where="mid", label=name)
ax.set_yscale("log")
ax.set_xlabel("phonon number n")
ax.set_ylabel("P(n)")
ax.legend(fontsize=8)
fig.tight_layout()
fig.savefig("%(png)s", dpi=200)
'''

_SCRIPT_CONTOUR = '''"""Plot %(csv)s: g2 over the (C, n_th) plane with the g2 = 1 contour."""
import csv

import matplotlib.pyplot as plt
import numpy as np

rows = []
with open("%(csv)s", newline="") as fh:
    for row in csv.DictReader(fh):
        if row["g2"] != "":
            rows.append((float(row["C"]), float(row["n_th"]), float(row["g2"])))

C = np.array(sorted({r[0] for r in rows}))
N = np.array(sorted({r[1] for r in rows}))
G = np.full((len(N), len(C)), np.nan)
ci = {c: i for i, c in enumerate(C)}
ni = {n: i for i, n in enumerate(N)}
for c, n, g in rows:
    G[ni[n], ci[c]] = g

fig, ax = plt.subplots(figsize=(5, 3.8))
mesh = ax.pcolormesh(C, N, G, shading="nearest", cmap="coolwarm", vmin=0.5, vmax=2.0)
ax.contour(C, N, G, levels=[1.0], colors="k", linewidths=1.5)
ax.plot(2.0 * N + 1.0, N, "w--", lw=1.0, label="C = 2 n_th + 1")
ax.set_xscale("log")
ax.set_yscale("log")
ax.set_xlim(C.min(), C.max())
ax.set_xlabel("cooperativity C")
ax.set_ylabel("n_th")
ax.legend(fontsize=8, loc="upper left")
fig.colorbar(mesh, ax=ax, label="g2(0)")
fig.tight_layout()
fig.savefig("%(png)s", dpi=200)
'''


def _plot_script(fig_id: int, csv_name: str) -> str:
    png = f"figure{fig_id}.png"
    if fig_id in (1, 4):
        return _SCRIPT_CURVES % {
            "csv": csv_name,
            "ycol": "n_ss",
            "ylabel": "mean phonon number n_ss",
            "extra": 'ax.set_yscale("log")',
            "png": png,
        }
    if fig_id == 2:
        return _SCRIPT_CURVES % {
            "csv": csv_name,
            "ycol": "g2",
            "ylabel": "g2(0)",
            "extra": "",
            "png": png,
        }
    if fig_id in (3, 6):
        return _SCRIPT_DIST % {"csv": csv_name, "png": png}
    return _SCRIPT_CONTOUR % {"csv": csv_name, "png": png}


# validation


def _rel_dev(a: float, b: float, floor: float = 1e-9) -> float:
    scale = max(abs(a), abs(b))
    if scale < floor:
        return abs(a - b)
    return abs(a - b) / scale


def _pop_l1(pa, pb) -> float:
    n = max(len(pa), len(pb))
    a = np.zeros(n)
    a[: len(pa)] = pa
    b = np.zeros(n)
    b[: len(pb)] = pb
    return float(np.abs(a - b).sum())


def _validate_point(model, C, n_th, cfg):
    """The analytic report against the oracle's at one point, as a dict: a
    generator like :func:`_reports`. An oracle whose truncation ladder runs
    out of budget leaves a skipped row."""
    a_name, a_rep = yield from _reports(model, C, n_th, cfg)
    try:
        _, o_rep = yield from _reports(_get(cfg, "oracle", "oracle-reduced"), C, n_th, cfg)
    except BudgetExceeded as exc:
        _LOG.warning("skipping C=%g n_th=%g: %s", C, n_th, exc)
        return {"model": a_name, "skipped": True, "reason": str(exc)}
    dev_g2 = None
    if a_rep.g2 is not None and o_rep.g2 is not None:
        dev_g2 = _rel_dev(a_rep.g2, o_rep.g2)
    return {
        "model": a_name,
        "skipped": False,
        "dev_n_ss": _rel_dev(a_rep.n_ss, o_rep.n_ss),
        "dev_g2": dev_g2,
        "pop_l1": _pop_l1(a_rep.populations, o_rep.populations),
    }


def cmd_validate(cfg) -> int:
    c_values, nth_values = _grid(
        cfg, "validate", c_default="0.1,1,3,11,50", nth_default="0,0.5,1,3,5"
    )
    model = _get(cfg, "model", "auto")
    tolerances = {}
    for key, dest, default in (("n_ss", "tol_nss", 1e-6), ("g2", "tol_g2", 1e-6),
                               ("pop_l1", "tol_pop", 1e-5)):
        tol = float(_get(cfg, dest, default))
        # a nan or negative one fails every grid, and a nan is no JSON value
        if not (math.isfinite(tol) and tol >= 0.0):
            raise DomainError(f"{_flag(dest)} must be finite and >= 0, got {tol!r}")
        tolerances[key] = tol
    results, failed = _run_grid(cfg, model, c_values, nth_values, point=_validate_point)
    points = [{"C": C, "n_th": n_th, **row} for C, n_th, row in results]
    live = [p for p in points if not p["skipped"]]
    summary = {"n_points": len(points), "n_skipped": len(points) - len(live)}
    passed = True
    for key, tol in zip(("dev_n_ss", "dev_g2", "pop_l1"), tolerances.values()):
        devs = [p[key] for p in live if p[key] is not None]
        worst = max(devs) if devs else None
        summary[f"max_{key}"] = worst
        summary[f"median_{key}"] = float(np.median(devs)) if devs else None
        passed = passed and (worst is None or worst <= tol)
    payload = {
        "grid": {"C": c_values, "n_th": nth_values},
        "model": model,
        "oracle": _get(cfg, "oracle", "oracle-reduced"),
        "tolerances": tolerances,
        "points": points,
        "summary": summary,
        "pass": passed,
    }
    _emit_text(_json_dumps(payload), cfg.out)
    return _exit_code(failed, EXIT_OK if passed else EXIT_CONFIG)


# ---------------------------------------------------------------------------
# parser assembly


@functools.cache
def _build_parser() -> _Parser:
    """The whole parser, built on first use and reused by every later call."""
    parser = _Parser(
        prog="phonon-stats",
        description="Steady-state phonon statistics under two-phonon optical damping.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    parser.commands = sub.choices  # name -> subparser

    def add_common(p, *, point=True, oracle=True):
        p.add_argument("--config", default=None, help="JSON config file; flags override it")
        p.add_argument("--out", default=None, help="output path (figure: output directory)")
        if point:
            p.add_argument("--C", type=float, default=None, help="multiphoton cooperativity")
            p.add_argument("--n-th", type=float, default=None, help="bath occupation")
        if oracle:
            p.add_argument("--trunc", type=int, default=None,
                           help="fixed mechanical truncation (skips the convergence ladder)")
            p.add_argument("--trunc-cav", type=int, default=None,
                           help="fixed cavity truncation for multimode oracles")
            p.add_argument("--kappa", type=float, default=None,
                           help="cavity linewidth for the two-mode oracles")
            p.add_argument("--gamma", type=float, default=None,
                           help="mechanical linewidth (default 1)")
            p.add_argument("--omega-m-eff", type=float, default=None,
                           help="effective mechanical frequency (pre-RWA oracle)")
            p.add_argument("--n-c", type=float, default=None,
                           help="intracavity photon number (pre-RWA oracle)")
            p.add_argument("--include-quad-fluct", action="store_true", default=None,
                           help="keep the quadratic fluctuation term (pre-RWA oracle)")

    p_stats = sub.add_parser("stats", help="one parameter point, JSON report")
    p_stats.add_argument("--model", choices=_MODELS, default=None)
    add_common(p_stats)
    p_stats.set_defaults(func=cmd_stats)

    p_sweep = sub.add_parser("sweep", help="grid of points, CSV (or JSON) rows")
    p_sweep.add_argument("--model", choices=_MODELS, default=None)
    p_sweep.add_argument("--c-range", default=None, help="lo:hi:steps:log|lin")
    p_sweep.add_argument("--nth-range", default=None, help="lo:hi:steps:log|lin")
    p_sweep.add_argument("--c-set", default=None, help="comma-separated C values")
    p_sweep.add_argument("--nth-set", default=None, help="comma-separated n_th values")
    p_sweep.add_argument("--jobs", type=int, default=None, help="worker processes")
    p_sweep.add_argument("--format", choices=("csv", "json"), default=None)
    add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_fig = sub.add_parser("figure", help="figure dataset CSV + plotting script")
    p_fig.add_argument("fig_id", type=int, help="figure number, 1..6")
    p_fig.add_argument("--c-range", default=None, help="override the C grid")
    p_fig.add_argument("--c-set", default=None, help="override the C grid with a value list")
    p_fig.add_argument("--nth-set", default=None, help="override the n_th values")
    add_common(p_fig, oracle=False)
    p_fig.set_defaults(func=cmd_figure)

    p_val = sub.add_parser("validate", help="analytic-vs-oracle deviation report")
    p_val.add_argument("--model", choices=_ANALYTIC, default=None,
                       help="analytic side (default auto)")
    p_val.add_argument("--oracle", choices=_ORACLES, default=None,
                       help="oracle side (default oracle-reduced)")
    p_val.add_argument("--c-range", default=None)
    p_val.add_argument("--nth-range", default=None)
    p_val.add_argument("--c-set", default=None)
    p_val.add_argument("--nth-set", default=None)
    p_val.add_argument("--tol-nss", type=float, default=None)
    p_val.add_argument("--tol-g2", type=float, default=None)
    p_val.add_argument("--tol-pop", type=float, default=None)
    add_common(p_val)
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("PHONON_STATS_LOG", "WARNING").upper()
    if level not in ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"):
        level = "WARNING"
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")

    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = _merge_config(ns, parser.commands[ns.cmd])
        return ns.func(cfg)
    except (DomainError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PhononStatsError as exc:  # not a DomainError, caught above
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOCONV


if __name__ == "__main__":
    sys.exit(main())
