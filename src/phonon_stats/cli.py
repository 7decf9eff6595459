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

Grids: ``sweep``, the curve figures (1, 2, 4 and 5), figure 6's C list,
figure 3's point and ``validate`` read their (C, n_th) grid through
:func:`_grid` (per axis: the set flag, then the range flag, then the
single-point flag, then the command's default); all but figures 3 and 6
evaluate it through :func:`_run_grid`, n_th outer and C inner. A point
that fails to converge drops out of the output; the command writes the
converged rest, prints one ``error: C=… n_th=…: <message>`` line per failed
point and exits 2, whatever its exit code would have been.

What each command computes: ``sweep`` and figures 1, 2, 4 and 5 compute
n_ss and g2 only, and ``sweep`` the regime as well; ``stats``, ``validate``
and figures 3 and 6 also compute the Fock populations, and an oracle model
always solves for the full state. An analytic grid of observables is one
pass per slice (:func:`_observables_slice`): the hitemp closed forms point
by point and the series of all the slice's exact points in one kernel call,
with the same output as point by point. A grid of oracle points
(``validate``, ``sweep --model oracle-*``) is one pass per slice too
(:func:`_oracle_slice`): its truncation ladders climb together, one sparse
factorization per rung level, and a fixed ``--trunc`` truncation is a
ladder that accepts its first rung.

What each command imports: this module loads only the exact route (numpy and
``math``). The ``hitemp`` and ``lindblad`` modules are reached as attributes
of the package (``_pkg.hitemp``, ``_pkg.lindblad``) in the branches that
evaluate those routes, so the package imports them on first use. ``hitemp``
itself needs only ``math`` and numpy, populations included, so neither
analytic route loads scipy: not ``stats`` or ``sweep`` on them, nor any
figure. The oracles, and so ``validate``, load ``scipy.sparse``, and only
``sweep --jobs N`` with N > 1 loads ``multiprocessing``.
Every call goes through the module attribute, so a wrapper set on e.g.
``hitemp.observables_hitemp`` sees it.

Sweeps and figure datasets are CSV: headered, CRLF line ends, and no field
that needs quoting (numbers and ``P_C…`` names), so each row is its fields
joined by commas, the bytes the csv module writes of them. Single reports
and validation summaries are JSON. Floats are rendered with %.17g so outputs
round-trip and runs are byte-reproducible. Undefined g2 is an empty CSV
field / JSON null, never 0.
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import json
import logging
import math
import os
import sys

import numpy as np

import phonon_stats as _pkg

from . import _kernels, exact
from .errors import BudgetExceeded, DomainError, PhononStatsError
from .params import ReducedParams
from .report import Regime, SteadyStateReport

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


def _analytic_report(name, C, n_th) -> tuple[str, SteadyStateReport]:
    """Evaluate one (C, n_th) point on the named analytic route, ``auto``
    resolved: ``(route, report)``."""
    name = _resolve_model(name, C, n_th)
    if name == "exact":
        return name, exact.steady_state_exact(C, n_th)
    return name, _pkg.hitemp.steady_state_hitemp(C, n_th)


def _point_report(name, C, n_th, cfg) -> tuple[str, SteadyStateReport]:
    """Evaluate one (C, n_th) point under the named model; an oracle point
    is a batch of one solve."""
    if name not in _ORACLES:
        return _analytic_report(name, C, n_th)
    report = _oracle_solves([_oracle_job(name, C, n_th, cfg)])[0]
    if isinstance(report, Exception):
        raise report
    return name, report


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


def _failure(exc):
    """What a failed point leaves: its message (a string) for a failure to
    converge, so the rest of the grid survives it; the exception, which
    aborts the command, for any other."""
    return str(exc) if _drops_point(exc) else exc


def _oracle_slice(row, analytic, oracle, cfg, points):
    """Evaluate a slice of grid points, ``(n_th, C)`` pairs in grid order,
    on the named oracle: per point its row, its failure message (a string)
    or the exception that aborts the command. The slice stops at the first
    point that raises such an exception.

    Each point in grid order takes the report of the ``analytic`` model
    (``validate``; None skips it) and then its :func:`_oracle_job`. The
    jobs go to one :func:`_oracle_solves` batch, and each point then makes
    its row, ``row(C, n_th, analytic_report, outcome)``, in grid order from
    the outcome of its solve, a report or a package error. So an error that
    aborts comes before every later point and skipped-row warnings keep
    grid order; an aborting slice still solves the points before the
    abort. Module-level so it pickles, and shares nothing.
    """
    results, jobs, waiting = [], [], []
    for n_th, C in points:
        try:
            report = _analytic_report(analytic, C, n_th) if analytic else None
            jobs.append(_oracle_job(oracle, C, n_th, cfg))
        except Exception as exc:
            results.append(_failure(exc))
            if isinstance(results[-1], Exception):  # aborts: no later point comes first
                break
            continue
        waiting.append((len(results), C, n_th, report))
        results.append(None)
    try:
        outcomes = _oracle_solves(jobs) if jobs else []  # no solve loads no scipy
    except Exception as exc:  # no point's own error: it fails every solve
        outcomes = itertools.repeat(exc)
    for (k, C, n_th, report), outcome in zip(waiting, outcomes):
        try:
            results[k] = row(C, n_th, report, outcome)
        except Exception as exc:
            results[k] = _failure(exc)
            if isinstance(results[k], Exception):
                return results[: k + 1]
    return results


def _sweep_row(model, C, n_th, analytic, outcome):
    """An oracle sweep point's ``(model, n_ss, g2, regime)``, a row of
    :func:`_oracle_slice`."""
    if isinstance(outcome, Exception):
        raise outcome
    return model, outcome.n_ss, outcome.g2, outcome.regime.value


def _observables_slice(model, regimes, points):
    """n_ss and g2 of analytic grid points, ``(n_th, C)`` pairs in grid
    order, in one pass: per point ``(route, n_ss, g2, regime)``, with the
    regime's name only if ``regimes`` is set (else None), or what
    :func:`_failure` leaves of its error. The slice stops at the first
    point that aborts the command; the rest of this pass is not evaluated.

    The pass resolves ``auto`` and runs the route's own checks point by
    point, so a bad point raises the error it raises alone. A hitemp point
    is evaluated at once; an exact point keeps its series arguments, and
    the series of every exact point are summed in one kernel call
    (:func:`exact._observables_grid`) once no point has aborted.
    Module-level so it pickles, and shares nothing.
    """
    results, series, waiting = [], [], []
    for n_th, C in points:
        name = _resolve_model(model, C, n_th)
        try:
            if name == "exact":
                args = exact._series_args(C, n_th)
                regime = exact.classify_regime(C, n_th).value if regimes else None
            else:  # the thermal-diffusion g2 lies in [pi/2, 2]: always bunched
                n_ss, g2 = _pkg.hitemp.observables_hitemp(C, n_th)
                regime = Regime.BUNCHED.value if regimes else None
        except Exception as exc:
            results.append(_failure(exc))
            if isinstance(results[-1], Exception):  # aborts before any series is summed
                return results
            continue
        if name == "exact":  # its series waits for the others
            series.append(args)
            waiting.append((len(results), regime))
            results.append(None)
        else:
            results.append((name, n_ss, g2, regime))
    try:
        outcomes = exact._observables_grid(series)
    except Exception as exc:  # no point's own error: it fails every exact point
        outcomes = itertools.repeat(exc)
    for (k, regime), outcome in zip(waiting, outcomes):
        if isinstance(outcome, Exception):
            results[k] = _failure(outcome)
            if isinstance(results[k], Exception):
                return results[: k + 1]
        else:
            results[k] = ("exact", *outcome, regime)
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


def _run_grid(cfg, c_values, nth_values, work):
    """Evaluate the grid, n_th outer and C inner, by ``work``, which maps a
    slice of it, ``(n_th, C)`` pairs in grid order, to its results as
    :func:`_observables_slice` and :func:`_oracle_slice` do.

    Returns per point in grid order its result, or None where it failed to
    converge, and one ``C=… n_th=…: <message>`` entry per such point. Any
    other failure aborts the command: the first failing point in grid order
    raises its exception here.

    Without ``--jobs`` the grid is one slice; with ``--jobs N`` (``sweep``
    only) it is cut into contiguous slices, four per worker of an N-process
    pool.
    """
    jobs = int(_get(cfg, "jobs", 1))
    if jobs < 1:
        raise DomainError(f"--jobs must be >= 1, got {jobs}")
    grid = itertools.product(nth_values, c_values)
    size = len(nth_values) * len(c_values)
    workers = min(jobs, size)
    if workers > 1:
        from multiprocessing import Pool  # only here: it costs every command's import

        # four slices per worker, as pool.map cuts a task list by default, so
        # that points of uneven cost still spread over the workers
        step = -(-size // (4 * workers))
        slices = [list(itertools.islice(grid, step)) for _ in range(0, size, step)]
        with Pool(processes=workers) as pool:
            results = list(itertools.chain.from_iterable(pool.map(work, slices)))
    else:
        results = work(grid)
    failed = []
    for k, result in enumerate(results):
        if isinstance(result, str):
            n_th, C = nth_values[k // len(c_values)], c_values[k % len(c_values)]
            failed.append(f"C={_fmt(C)} n_th={_fmt(n_th)}: {result}")
            results[k] = None
        elif isinstance(result, Exception):
            raise result
    return results, failed


def _observables_csv(c_values, nth_values, results, regimes) -> str:
    """The CSV of an observables grid that :func:`_run_grid` evaluated:
    per converged point C, n_th, n_ss and g2, and the route and regime
    around them on a ``regimes`` grid (``sweep``). It is what the csv module
    writes of those fields, each row from one %-format with each distinct C
    and n_th formatted once; an undefined g2 is an empty field."""
    buf = io.StringIO()  # holds less than a list of rows and their join
    write = buf.write
    write("C,n_th,model,n_ss,g2,regime\r\n" if regimes else "C,n_th,n_ss,g2\r\n")
    c_text = [_fmt(C) for C in c_values]
    pending = iter(results)
    for n_th in nth_values:
        n = _fmt(n_th)
        for c, result in zip(c_text, pending):
            if result is None:
                continue
            name, n_ss, g2, regime = result
            if regimes:
                if g2 is None:
                    write("%s,%s,%s,%.17g,,%s\r\n" % (c, n, name, n_ss, regime))
                else:
                    write("%s,%s,%s,%.17g,%.17g,%s\r\n" % (c, n, name, n_ss, g2, regime))
            elif g2 is None:
                write("%s,%s,%.17g,\r\n" % (c, n, n_ss))
            else:
                write("%s,%s,%.17g,%.17g\r\n" % (c, n, n_ss, g2))
    return buf.getvalue()


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
    """CSV of rows of text fields that need no quoting, header first."""
    return "".join(",".join(row) + "\r\n" for row in itertools.chain([header], rows))


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
    model = _get(cfg, "model", "auto")
    c_values, nth_values = _grid(cfg, "sweep")
    if model in _ANALYTIC:
        work = functools.partial(_observables_slice, model, True)
    else:
        work = functools.partial(_oracle_slice, functools.partial(_sweep_row, model), None,
                                 model, cfg)
    results, failed = _run_grid(cfg, c_values, nth_values, work)
    if _get(cfg, "format", "csv") == "json":
        header = ("C", "n_th", "model", "n_ss", "g2", "regime")
        grid = itertools.product(nth_values, c_values)
        text = _json_dumps([  # floats stay floats; g2 None -> null
            dict(zip(header, (C, n_th, *result)))
            for (n_th, C), result in zip(grid, results) if result is not None
        ])
    else:
        text = _observables_csv(c_values, nth_values, results, True)
    _emit_text(text, cfg.out)
    return _exit_code(failed)


# figure datasets: captions' parameter sets, hard-coded, flag-overridable

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

_MEAN_CURVES = {"ycol": "n_ss", "ylabel": "mean phonon number n_ss",
                "extra": 'ax.set_yscale("log")'}

# per figure: its route, its default C and n_th grids in the flags' syntax,
# and its plot script's template and fields
_FIGURES = {
    1: ("hitemp", "1e-9:1e3:120:log", "1e3,1e4,1e5,1e6", _SCRIPT_CURVES, _MEAN_CURVES),
    2: ("hitemp", "1e-9:1e6:120:log", "1e3,1e4,1e5,1e6", _SCRIPT_CURVES,
        {"ycol": "g2", "ylabel": "g2(0)", "extra": ""}),
    3: ("hitemp", "1e2", "1e4", _SCRIPT_DIST, {}),
    4: ("exact", "0.1:1e3:100:log", "1,10,20,40", _SCRIPT_CURVES, _MEAN_CURVES),
    5: ("exact", "0.1:1e3:40:log", "0.1:40:40:log", _SCRIPT_CONTOUR, {}),
    6: ("exact", "1,41,1000", "20", _SCRIPT_DIST, {}),
}


def cmd_figure(cfg) -> int:
    """Figures 1, 2, 4 and 5 are curves of n_ss and g2 over their grid,
    figure 3 the populations of one point and figure 6 those of one n_th at
    each C, in columns."""
    fig_id = int(cfg.fig_id)
    if fig_id not in _FIGURES:
        raise DomainError(f"fig_id must be in 1..6, got {fig_id}")
    route, c_default, nth_default, script, fields = _FIGURES[fig_id]
    what = f"figure {fig_id}"
    if fig_id == 3:
        grid = [_flag(d) for d in ("c_set", "c_range", "nth_set") if getattr(cfg, d) is not None]
        if grid:
            raise DomainError(f"figure 3 takes one point (--C, --n-th), not {', '.join(grid)}")
    c_values, nth_values = _grid(cfg, what, c_default=c_default, nth_default=nth_default)
    failed = []
    if fig_id == 3:
        _, rep = _point_report(route, c_values[0], nth_values[0], cfg)
        text = _csv_text(["n", "P"], ([_fmt(n), _fmt(p)] for n, p in enumerate(rep.populations)))
    elif fig_id == 6:
        if len(nth_values) != 1:
            raise DomainError(f"figure 6 takes one n_th, got {len(nth_values)}")
        n_th = nth_values[0]
        # each column takes its own window; all are then recomputed at the widest
        m_max = max(exact.phonon_populations_exact(C, n_th).size for C in c_values) - 1
        cols = [exact.phonon_populations_exact(C, n_th, m_max) for C in c_values]
        header = ["n"] + [f"P_C{_fmt(C)}" for C in c_values]
        text = _csv_text(header, ([_fmt(n)] + [_fmt(col[n]) for col in cols]
                                  for n in range(m_max + 1)))
    else:
        work = functools.partial(_observables_slice, route, False)
        results, failed = _run_grid(cfg, c_values, nth_values, work)
        text = _observables_csv(c_values, nth_values, results, False)

    outdir = cfg.out or "."
    os.makedirs(outdir, exist_ok=True)
    csv_name = f"figure{fig_id}.csv"
    csv_path = os.path.join(outdir, csv_name)
    script_path = os.path.join(outdir, f"figure{fig_id}_plot.py")
    _emit_text(text, csv_path)
    _emit_text(script % {"csv": csv_name, "png": f"figure{fig_id}.png", **fields}, script_path)
    print(csv_path)
    print(script_path)
    return _exit_code(failed)


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


def _validate_row(C, n_th, analytic, outcome):
    """The analytic report against the oracle's at one point, as a dict, a
    row of :func:`_oracle_slice`. An oracle whose truncation ladder ran out
    of budget leaves a skipped row."""
    a_name, a_rep = analytic
    if isinstance(outcome, BudgetExceeded):
        _LOG.warning("skipping C=%g n_th=%g: %s", C, n_th, outcome)
        return {"model": a_name, "skipped": True, "reason": str(outcome)}
    if isinstance(outcome, Exception):
        raise outcome
    dev_g2 = None
    if a_rep.g2 is not None and outcome.g2 is not None:
        dev_g2 = _rel_dev(a_rep.g2, outcome.g2)
    return {
        "model": a_name,
        "skipped": False,
        "dev_n_ss": _rel_dev(a_rep.n_ss, outcome.n_ss),
        "dev_g2": dev_g2,
        "pop_l1": _pop_l1(a_rep.populations, outcome.populations),
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
    oracle = _get(cfg, "oracle", "oracle-reduced")
    work = functools.partial(_oracle_slice, _validate_row, model, oracle, cfg)
    results, failed = _run_grid(cfg, c_values, nth_values, work)
    grid = itertools.product(nth_values, c_values)
    points = [
        {"C": C, "n_th": n_th, **row} for (n_th, C), row in zip(grid, results) if row is not None
    ]
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
        "oracle": oracle,
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

    def add_common(p, *, oracle=True):
        p.add_argument("--config", default=None, help="JSON config file; flags override it")
        p.add_argument("--out", default=None, help="output path (figure: output directory)")
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
