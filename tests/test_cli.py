import csv
import importlib.util
import io
import itertools
import json
import math
import multiprocessing
import os
import py_compile
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phonon_stats
from phonon_stats import _kernels, cli, exact, hitemp
from phonon_stats.cli import main
from phonon_stats.errors import (
    BudgetExceeded,
    DomainError,
    NotConverged,
    PhononStatsError,
    SingularSystem,
    UnphysicalState,
)

SRC = str(Path(phonon_stats.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_range_spec():
    vals = cli._parse_range("0.1:10:5:log")
    assert vals[0] == pytest.approx(0.1) and vals[-1] == pytest.approx(10.0)
    assert len(vals) == 5
    assert all(type(v) is float for v in vals)
    assert cli._parse_range("0:4:5:lin") == [0.0, 1.0, 2.0, 3.0, 4.0]
    for bad in ("1:10:0:log", "abc", "0:10:5:log", "1:10:5", "1:10:5:geom"):
        with pytest.raises(DomainError):
            cli._parse_range(bad)


def test_stats_coherent_point(capsys):
    code, out, _ = run(capsys, "stats", "--C", "3", "--n-th", "1", "--model", "exact")
    assert code == 0
    payload = json.loads(out)
    assert payload["params"] == {"C": 3.0, "n_th": 1.0, "model": "exact"}
    assert payload["n_ss"] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert payload["g2"] == pytest.approx(1.0, rel=1e-12)
    assert payload["regime"] == "Coherent"
    assert abs(sum(payload["populations"]) - 1.0) <= 1e-9


def test_stats_oracle_agrees_with_exact(capsys):
    code, out, _ = run(capsys, "stats", "--C", "10", "--n-th", "1", "--model", "exact")
    assert code == 0
    a = json.loads(out)
    code, out, _ = run(
        capsys, "stats", "--C", "10", "--n-th", "1", "--model", "oracle-reduced"
    )
    assert code == 0
    b = json.loads(out)
    assert b["params"]["model"] == "oracle-reduced"
    assert b["n_ss"] == pytest.approx(a["n_ss"], rel=1e-6)
    assert b["g2"] == pytest.approx(a["g2"], rel=1e-6)


def test_stats_auto_model_selection(capsys):
    code, out, _ = run(capsys, "stats", "--C", "1e-3", "--n-th", "1e4")
    assert code == 0
    assert json.loads(out)["params"]["model"] == "hitemp"
    code, out, _ = run(capsys, "stats", "--C", "1", "--n-th", "1e3")
    assert code == 0
    assert json.loads(out)["params"]["model"] == "exact"


def test_stats_vacuum_g2_is_null(capsys):
    code, out, _ = run(capsys, "stats", "--C", "2", "--n-th", "0", "--model", "exact")
    assert code == 0
    payload = json.loads(out)
    assert payload["g2"] is None
    assert payload["regime"] == "Vacuum"


def test_stats_domain_error_exit_1(capsys):
    code, _, err = run(capsys, "stats", "--C", "-1", "--n-th", "1", "--model", "exact")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("C,n_th,model,message", [
    ("inf", "1", "exact", "C must be finite and positive, got inf"),
    ("1", "nan", "exact", "n_th must be finite and nonnegative, got nan"),
    ("1", "inf", "hitemp", "n_th must be finite and positive, got inf"),
])
def test_stats_nonfinite_input_exit_1(capsys, C, n_th, model, message):
    code, out, err = run(capsys, "stats", "--C", C, "--n-th", n_th, "--model", model)
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize("C,n_th,model", [
    ("inf", "1", "oracle-reduced"),
    ("nan", "1", "oracle-reduced"),
    ("3", "nan", "oracle-rwa"),
])
def test_stats_oracle_nonfinite_input_exit_1(capsys, C, n_th, model):
    code, out, err = run(capsys, "stats", "--C", C, "--n-th", n_th, "--model", model)
    assert code == 1
    assert out == ""
    assert "must be finite" in err


# per two-mode oracle, the flags it reads, each with the values it refuses
_TWO_MODE_FLAGS = [
    pytest.param(model, dest, value, id=f"{model}-{dest}={value}")
    for model, dests in (("oracle-rwa", ("kappa", "gamma")),
                         ("oracle-prerwa", ("kappa", "gamma", "omega_m_eff", "n_c")))
    for dest in dests
    for value in ("0", "-1", "inf", "nan")
    if (dest, value) != ("n_c", "0")
]


@pytest.mark.parametrize("model, dest, value", _TWO_MODE_FLAGS)
def test_two_mode_flags_outside_their_domain_exit_1(capsys, monkeypatch, tmp_path, model, dest,
                                                     value):
    """A two-mode oracle flag outside its domain is refused before any
    solve, on every command and from a config file: exit 1, no output and
    one error line naming the flag, not a traceback."""
    from phonon_stats import lindblad

    def no_solve(*args):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(lindblad, "_solve_batch", no_solve)
    flag = cli._flag(dest)
    least = ">= 0" if dest == "n_c" else "> 0"
    line = f"error: {flag} must be finite and {least}, got {float(value)!r}\n"
    cfg = tmp_path / "flag.json"
    cfg.write_text(json.dumps({dest: float(value)}))
    for argv in (["stats", "--model", model, "--C", "1", "--n-th", "1"],
                 ["sweep", "--model", model, "--c-set", "1,3", "--nth-set", "1"],
                 ["validate", "--oracle", model, "--c-set", "1,3", "--nth-set", "1"]):
        assert run(capsys, *argv, f"{flag}={value}") == (1, "", line)
        assert run(capsys, *argv, "--config", str(cfg)) == (1, "", line)


@pytest.mark.parametrize("model", ["oracle-rwa", "oracle-prerwa"])
@pytest.mark.parametrize("argv", [
    ("stats", "--C", "-1", "--n-th", "1"),
    ("stats", "--C", "nan", "--n-th", "1"),
    ("stats", "--C", "inf", "--n-th", "1"),
    ("sweep", "--c-set", "1,-1", "--nth-set", "1"),
], ids=["stats-C=-1", "stats-C=nan", "stats-C=inf", "sweep-C=1,-1"])
def test_two_mode_c_outside_its_domain_exit_1(capsys, model, argv):
    """A two-mode oracle derives its coupling g = sqrt(C gamma kappa/4)
    from C, so a C that is not finite and >= 0 is refused first, naming C:
    exit 1, no output and one error line, not a traceback or a message
    about g or n_c."""
    C = float(argv[2].split(",")[-1])
    line = f"error: C must be finite and >= 0, got {C!r}\n"
    assert run(capsys, *argv, "--model", model) == (1, "", line)


def test_stats_missing_point_exit_1(capsys):
    code, _, err = run(capsys, "stats")
    assert code == 1
    assert "--C" in err


def test_stats_unknown_flag_exit_1(capsys):
    code, _, err = run(capsys, "stats", "--model", "bogus")
    assert code == 1
    assert "error:" in err


def test_main_calls_in_a_row(capsys):
    """One parser serves every call; no flag value carries over to the next."""
    code, out, _ = run(capsys, "stats", "--C", "3", "--n-th", "1", "--model", "hitemp")
    assert code == 0
    assert json.loads(out)["params"]["model"] == "hitemp"
    code, out, _ = run(capsys, "stats", "--C", "3", "--n-th", "1")
    assert code == 0
    first = json.loads(out)
    assert first["params"] == {"C": 3.0, "n_th": 1.0, "model": "exact"}
    assert first["regime"] == "Coherent"
    code, _, err = run(capsys, "stats", "--C", "3", "--n-th", "1", "--bogus")
    assert code == 1 and "error:" in err
    code, out, _ = run(capsys, "sweep", "--model", "exact", "--c-set", "1,3", "--nth-set", "1")
    assert code == 0
    assert [row["regime"] for row in _read_csv(out)] == ["Bunched", "Coherent"]
    code, out, _ = run(capsys, "stats", "--C", "3", "--n-th", "1")
    assert code == 0 and json.loads(out) == first
    assert cli._build_parser() is cli._build_parser()


def test_stats_nonconvergence_exit_2(capsys):
    # x = 2 n_th/C = 2e14 exceeds the series budget; forcing the exact
    # model must fail loudly, not silently fall back
    code, _, err = run(
        capsys, "stats", "--C", "1e-7", "--n-th", "1e7", "--model", "exact"
    )
    assert code == 2
    assert "error:" in err


# every package error but a DomainError means exit 2 (errors.py); read from
# the hierarchy, and the test pins it, so a type lost or added there fails
_NONDOMAIN = [cls for cls in PhononStatsError.__subclasses__() if cls is not DomainError]


def _failing_at_c3(real, error):
    def route(C, n_th, *args):
        if C == 3.0:
            raise error("injected")
        return real(C, n_th, *args)
    return route


@pytest.mark.parametrize("error", _NONDOMAIN, ids=lambda cls: cls.__name__)
def test_nondomain_package_errors_exit_2(capsys, monkeypatch, error):
    """``stats`` exits 2 with the error's line; ``sweep`` drops the point,
    prints one line naming it and exits 2, and writes every other row."""
    assert set(_NONDOMAIN) == {NotConverged, SingularSystem, UnphysicalState, BudgetExceeded}
    sweep = ("sweep", "--model", "hitemp", "--c-set", "1,3,10", "--nth-set", "1")
    code, clean, _ = run(capsys, *sweep)
    assert code == 0
    monkeypatch.setattr(hitemp, "steady_state_hitemp",
                        _failing_at_c3(hitemp.steady_state_hitemp, error))
    monkeypatch.setattr(hitemp, "observables_hitemp",
                        _failing_at_c3(hitemp.observables_hitemp, error))
    code, out, err = run(capsys, "stats", "--model", "hitemp", "--C", "3", "--n-th", "1")
    assert (code, out, err) == (2, "", "error: injected\n")
    code, out, err = run(capsys, *sweep)
    assert (code, err) == (2, "error: C=3 n_th=1: injected\n")
    header, row_1, _, row_10 = clean.splitlines()
    assert out.splitlines() == [header, row_1, row_10]


def test_stats_hitemp_window_budget_exit_2():
    # auto sends this point to hitemp, whose default window of 2e7 levels
    # cannot fit the term budget: refused before the moment table is built
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "phonon_stats", "stats", "--C", "1e-10", "--n-th", "2e7"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "10000000-term budget" in proc.stderr
    # the message names the user's point, not the moment parameters
    assert "C=1e-10" in proc.stderr and "n_th=2e+07" in proc.stderr


@pytest.mark.parametrize("argv", [
    ("--model", "hitemp", "--C", "5e-324", "--n-th", "1"),  # (a/sqrt(b))^2 overflows
    ("--C", "1e-12", "--n-th", "1e300"),  # auto -> hitemp, n_ss overflows to inf
])
def test_stats_hitemp_overflowing_point_is_typed(capsys, argv):
    # either finite values or one typed error line, never an OverflowError
    code, out, err = run(capsys, "stats", *argv)
    if code == 0:
        payload = json.loads(out)
        values = [payload["n_ss"], payload["g2"], *payload["populations"]]
        assert all(math.isfinite(v) for v in values)
    else:
        assert code in (1, 2)
        assert out == ""
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == [err.strip()]


@pytest.mark.parametrize("C,n_th", [
    ("1e3", "1e-306"),  # b = C/n_th overflows
    ("1e300", "1e-300"),  # b overflows
    ("5e-324", "1e-300"),  # a/sqrt(b) overflows
    ("1", "5e-324"),  # a = 1 + 1/n_th overflows
])
def test_stats_hitemp_unrepresentable_populations_name_the_point(capsys, C, n_th):
    """The sweep gives this point's n_ss and g2; its populations' moment
    weight leaves the floats, and the report says so in the user's terms."""
    code, out, err = run(capsys, "sweep", "--model", "hitemp", "--c-set", C, "--nth-set", n_th)
    assert (code, err) == (0, "")
    code, out, err = run(capsys, "stats", "--model", "hitemp", "--C", C, "--n-th", n_th)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: populations at C={float(C):g}, n_th={float(n_th):g}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("--model", "hitemp", "--c-set", "1e-200", "--nth-set", "1e200"),
    ("--model", "hitemp", "--c-set", "1e-160", "--nth-set", "1e160"),
    ("--c-set", "1e-200,1", "--nth-set", "1e200"),  # auto: both points hitemp
])
def test_sweep_hitemp_at_extreme_ratio(capsys, argv):
    # n_th/C overflows while q = C n_th = 1 stays in range: the first row's
    # n_ss/n_th and g2 are those of (C, n_th) = (1, 1)
    code, out, err = run(capsys, "sweep", *argv)
    assert (code, err) == (0, "")
    rows = _read_csv(out)
    first = rows[0]
    n_th = float(first["n_th"])
    assert float(first["n_ss"]) / n_th == pytest.approx(
        hitemp.mean_phonon_hitemp(1.0, 1.0), rel=1e-13, abs=0
    )
    assert float(first["g2"]) == pytest.approx(hitemp.g2_hitemp(1.0, 1.0), rel=1e-13, abs=0)
    assert all(math.isfinite(float(row["n_ss"])) for row in rows)


def test_stats_hot_exact_point_window_fits(capsys):
    # auto keeps this point on the series; its window ends where the
    # flux-balance tail bound holds, a few thousand levels, well inside
    # the term budget
    code, out, _ = run(capsys, "stats", "--C", "1", "--n-th", "3e5")
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["model"] == "exact"
    assert payload["diagnostics"]["population_tail"] <= 1e-12
    assert len(payload["populations"]) <= 4000


@pytest.mark.parametrize("C, n_th, max_terms", [
    ("1e-300", "1", 1_000),  # term ratio x/nu = 2/3
    ("1e-12", "1e3", 200_000),  # x/nu = 1 - 1/(2 n_th + 1)
])
def test_stats_exact_series_ends_with_its_geometric_decay(capsys, C, n_th, max_terms):
    # where nu > x the terms fall at least as fast as (x/nu)^k, so the
    # series stops long before the term budget (counts, not wall clock)
    code, out, _ = run(capsys, "stats", "--model", "exact", "--C", C, "--n-th", n_th)
    assert code == 0
    assert json.loads(out)["diagnostics"]["series_terms"] <= max_terms


# the input contract (ROADMAP D14): on every analytic route, every (C, n_th)
# of this grid gives finite values or one typed error line
_FUZZ = ["0", "5e-324", "1e-300", "1e-12", "1e-3", "1", "1e3", "1e8", "1e12", "1e300",
         "inf", "nan", "-1"]
# full reports of 1,615,745 (exact) and 571,702 (hitemp) levels: these points
# go through `sweep` and a library report with an explicit window instead
_FUZZ_SLOW = {("exact", "1e-3", "1e8"), ("hitemp", "1", "1e12"), ("auto", "1", "1e12")}
_FUZZ_WINDOW = 1000


def _series_term_bound(n_th):
    """Series terms an exact point may take: its term ratio x/(nu + k) is at
    most x/nu = 2 n_th/(1 + 2 n_th), so its first range ends within
    45 nu/(nu - x) + 61 = 45 (1 + 2 n_th) + 61 terms; one doubling is allowed."""
    return 2.0 * (45.0 * (1.0 + 2.0 * n_th) + 61.0)


def _assert_one_error_line(code, out, err):
    assert code in (1, 2)
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("n_th", _FUZZ)
@pytest.mark.parametrize("C", _FUZZ)
@pytest.mark.parametrize("model", ["exact", "hitemp", "auto"])
def test_stats_input_contract(capsys, model, C, n_th):
    """Exit 0 with finite values, or exit 1 or 2 with one error line; an
    exception escaping ``main`` fails the test. Work is bounded by counts:
    the exact series by :func:`_series_term_bound`, the slow points' windows
    by ``_FUZZ_WINDOW``."""
    if (model, C, n_th) in _FUZZ_SLOW:
        code, out, err = run(capsys, "sweep", "--model", model, "--c-set", C, "--nth-set", n_th)
        assert (code, err) == (0, "")
        (row,) = _read_csv(out)
        if row["model"] == "exact":
            rep = exact.steady_state_exact(float(C), float(n_th), m_max=_FUZZ_WINDOW)
        else:
            rep = hitemp.steady_state_hitemp(float(C), float(n_th), n_max=_FUZZ_WINDOW)
        assert (float(row["n_ss"]), float(row["g2"])) == (rep.n_ss, rep.g2)
        payload = {"params": {"model": row["model"]}, **rep.to_json_dict()}
    else:
        code, out, err = run(capsys, "stats", "--model", model, "--C", C, "--n-th", n_th)
        assert code in (0, 1, 2)
        if code:
            _assert_one_error_line(code, out, err)
            return
        assert err == ""
        payload = json.loads(out)
    populations, diag = payload["populations"], payload["diagnostics"]
    assert math.isfinite(payload["n_ss"])
    assert payload["g2"] is None or math.isfinite(payload["g2"])
    assert all(math.isfinite(p) for p in populations)
    if payload["params"]["model"] == "exact":
        tail = diag["population_tail"]
        assert math.fsum(populations) + tail == pytest.approx(1.0, rel=0, abs=1e-12)
        if float(n_th) > 0.0:
            assert diag["series_terms"] <= _series_term_bound(float(n_th))


@pytest.mark.parametrize("model", ["exact", "hitemp", "auto"])
def test_sweep_input_contract(capsys, model):
    """One sweep over the whole grid: finite rows and one error line per
    dropped point (exit 0 or 2), or one error line and no rows (exit 1)."""
    grid = ",".join(_FUZZ)
    code, out, err = run(capsys, "sweep", "--model", model, "--c-set", grid, "--nth-set", grid)
    assert code in (0, 1, 2)
    if code == 1:
        _assert_one_error_line(code, out, err)
        return
    rows = _read_csv(out)
    assert all(math.isfinite(float(row["n_ss"])) for row in rows)
    assert all(row["g2"] == "" or math.isfinite(float(row["g2"])) for row in rows)
    errors = err.splitlines()
    assert all(line.startswith("error: C=") for line in errors)
    assert len(rows) + len(errors) == len(_FUZZ) ** 2
    assert (code == 2) == bool(errors)


def _cap_address_space():
    # the child's own address space, as ``ulimit -v 2000000`` caps it: an
    # allocation the input contract forbids fails there instead of filling
    # the machine's memory
    limit = 2_000_000 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("argv, config, flag", [
    (["sweep", "--c-range", "1:2:100000000000:lin", "--nth-set", "1"], None, "--c-range"),
    (["figure", "1", "--c-range", "1e-9:1e3:100000000000:log"], None, "--c-range"),
    (["sweep", "--c-range", "1:2:20000:lin", "--nth-range", "1:2:20000:lin"], None,
     "--c-range x --nth-range"),
    (["sweep", "--c-set", "1", "--nth-set", "1", "--jobs", "0"], None, "--jobs"),
    (["sweep", "--c-set", "1", "--nth-set", "1", "--jobs", "-3"], None, "--jobs"),
    (["sweep", "--c-set", "1", "--nth-set", "1"], {"jobs": 0}, "--jobs"),
])
def test_oversized_grids_and_worker_counts_exit_1(tmp_path, argv, config, flag):
    """A range or grid past the term budget, or fewer than one worker, is
    one error line naming its flag (exit 1), refused before anything large
    is allocated or any point runs."""
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "phonon_stats", *argv], env=env, cwd=tmp_path,
        capture_output=True, text=True, timeout=120, preexec_fn=_cap_address_space,
    )
    _assert_one_error_line(proc.returncode, proc.stdout, proc.stderr)
    assert proc.returncode == 1
    assert flag in proc.stderr
    assert list(tmp_path.iterdir()) == ([] if config is None else [tmp_path / "cfg.json"])


def _balance_defect(C, n_th, n_ss, g2):
    """|n_th - n_ss - 2C n_ss^2 g2|/n_th, formed as 1 - s - 2(C n_ss) s g2
    with s = n_ss/n_th, so that n_ss^2 cannot overflow."""
    s = n_ss / n_th
    return abs(1.0 - s - 2.0 * (C * n_ss) * s * g2)


# every finite point of the contract grid (hitemp), and C, n_th in
# {1e-6, ..., 1e4} (exact)
_BALANCE_GRIDS = {
    "hitemp": [v for v in _FUZZ if 0.0 < float(v) < math.inf],
    "exact": [f"1e{k}" for k in range(-6, 5)],
}


@pytest.mark.parametrize("model", ["hitemp", "exact"])
def test_first_moment_balance(capsys, model):
    """The reduced master equation gives d<n>/dt = n_th - <n> - 2C<n(n-1)>,
    so every steady state satisfies n_th - n_ss = 2C n_ss^2 g2, and each
    route's own n_ss and g2 meet it to roundoff (measured: hitemp 4.4e-16
    on its grid, exact 2.6e-15 on its 11 x 11 grid).

    The check sees a relative error d in g2 only as d (n_th - n_ss)/n_th,
    which is about 4 q d at small q = C n_th: it cannot see g2 errors where
    q << 1e-3. An error in n_ss shows at every q."""
    grid = ",".join(_BALANCE_GRIDS[model])
    code, out, err = run(capsys, "sweep", "--model", model, "--c-set", grid, "--nth-set", grid)
    assert (code, err) == (0, "")
    rows = _read_csv(out)
    assert len(rows) == len(_BALANCE_GRIDS[model]) ** 2
    for row in rows:
        C, n_th, n_ss, g2 = (float(row[key]) for key in ("C", "n_th", "n_ss", "g2"))
        assert _balance_defect(C, n_th, n_ss, g2) <= 1e-14, (C, n_th)


@pytest.mark.parametrize("model", ["exact", "auto"])
def test_aborting_sweep_sums_no_series(capsys, monkeypatch, model):
    """The grid's first point (C = 0) aborts the sweep, so the series of its
    other exact points, which would never be written, are not summed."""
    rows = []
    kernel = _kernels.series_logsums

    def counting(nu, x):
        rows.extend(nu)
        return kernel(nu, x)

    monkeypatch.setattr(_kernels, "series_logsums", counting)
    grid = ",".join(_FUZZ)
    code, out, err = run(capsys, "sweep", "--model", model, "--c-set", grid, "--nth-set", grid)
    assert (code, out, err) == (1, "", "error: C must be finite and positive, got 0.0\n")
    assert rows == []


def test_sweep_aborting_after_exact_points_sums_no_series(capsys, monkeypatch):
    """Exact points come before the point that aborts the sweep (C = -1);
    their rows are never written, so their series are not summed."""
    def no_series(nu, x):
        raise AssertionError("a series was summed")

    monkeypatch.setattr(_kernels, "series_logsums", no_series)
    code, out, err = run(capsys, "sweep", "--model", "exact", "--c-set", "1,3,-1", "--nth-set", "1")
    assert (code, out, err) == (1, "", "error: C must be finite and positive, got -1.0\n")


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "point.json"
    cfg.write_text(json.dumps({"C": 3.0, "n_th": 1.0, "model": "exact"}))
    code, out, _ = run(capsys, "stats", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["n_ss"] == pytest.approx(1.0 / 3.0, rel=1e-12)

    # flags override the file
    code, out, _ = run(capsys, "stats", "--config", str(cfg), "--C", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["C"] == 10.0
    assert payload["n_ss"] != pytest.approx(1.0 / 3.0, rel=1e-3)

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"C": 3.0, "n_th": 1.0, "bogus": 1}))
    code, _, err = run(capsys, "stats", "--config", str(bad))
    assert code == 1
    assert "bogus" in err

    # a value its flag would refuse is a config error, not a traceback
    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps({"C": "abc", "n_th": 1}))
    code, _, err = run(capsys, "stats", "--config", str(typo))
    assert code == 1
    assert "error:" in err and "'C'" in err

    jobs = tmp_path / "jobs.json"
    for bad_jobs in ("two", 2.5):
        jobs.write_text(json.dumps({"jobs": bad_jobs, "c_set": "1", "nth_set": "1"}))
        code, _, err = run(capsys, "sweep", "--config", str(jobs))
        assert code == 1
        assert "error:" in err and "'jobs'" in err

    # a flag without a value takes a JSON boolean and nothing else
    quad = tmp_path / "quad.json"
    parser = cli._build_parser()
    for value in (True, False):
        quad.write_text(json.dumps({"include_quad_fluct": value}))
        ns = parser.parse_args(["stats", "--config", str(quad)])
        assert cli._merge_config(ns, parser.commands["stats"]).include_quad_fluct is value
    for value in ("false", 0, None):
        quad.write_text(json.dumps({"C": 3.0, "n_th": 1.0, "model": "exact",
                                    "include_quad_fluct": value}))
        code, out, err = run(capsys, "stats", "--config", str(quad))
        assert code == 1 and out == ""
        assert "error:" in err and "'include_quad_fluct'" in err

    # only the subcommand's flags are keys: not its name, not a positional
    for argv, key in ((["stats"], "cmd"), (["figure", "6", "--out", str(tmp_path)], "fig_id")):
        extra = tmp_path / f"{key}.json"
        extra.write_text(json.dumps({key: 3}))
        code, _, err = run(capsys, *argv, "--config", str(extra))
        assert code == 1
        assert "error:" in err and key in err


def test_config_value_outside_choices(tmp_path, capsys):
    # a config value obeys its flag's choices as the flag itself would:
    # validate takes no oracle as its analytic side
    cfg = tmp_path / "oracle_vs_oracle.json"
    cfg.write_text(json.dumps({
        "model": "oracle-rwa", "c_set": "4", "nth_set": "0.2",
        "tol_nss": 0.05, "tol_g2": 0.05, "tol_pop": 0.05,
    }))
    code, out, err = run(capsys, "validate", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert "error:" in err and "'model'" in err and "oracle-rwa" in err

    fmt = tmp_path / "format.json"
    fmt.write_text(json.dumps({"format": "xml", "c_set": "1", "nth_set": "1"}))
    code, out, err = run(capsys, "sweep", "--config", str(fmt))
    assert code == 1
    assert out == ""
    assert "error:" in err and "'format'" in err and "xml" in err


def _read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_sweep_rows_and_regimes(capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--model", "exact", "--c-set", "1,3,10", "--nth-set", "0,1",
    )
    assert code == 0
    rows = _read_csv(out)
    assert len(rows) == 6
    assert list(rows[0]) == ["C", "n_th", "model", "n_ss", "g2", "regime"]
    for row in rows:
        assert row["model"] == "exact"
        if float(row["n_th"]) == 0.0:
            assert row["g2"] == ""  # undefined -> empty field
            assert row["regime"] == "Vacuum"
            continue
        g2 = float(row["g2"])
        want = {1.0: "Bunched", 3.0: "Coherent", 10.0: "Antibunched"}[float(row["C"])]
        assert row["regime"] == want
        if want == "Bunched":
            assert g2 > 1.0
        elif want == "Antibunched":
            assert g2 < 1.0


def test_sweep_deterministic_and_parallel(tmp_path, capsys):
    # n_th = 1e7 is past the auto hand-off at C = 0.5 and C ~ 2.3 only, so
    # both routes run on both the serial and the pooled path
    args = ["sweep", "--model", "auto", "--c-range", "0.5:50:4:log",
            "--nth-set", "0.5,2,1e7"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    out3 = tmp_path / "c.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert main(args + ["--out", str(out3), "--jobs", "2"]) == 0
    capsys.readouterr()
    assert {row["model"] for row in _read_csv(out1.read_text())} == {"exact", "hitemp"}
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() == out3.read_bytes()


@pytest.mark.parametrize("jobs", [[], ["--jobs", "2"]])
def test_sweep_keeps_converged_rows_past_a_failed_point(capsys, jobs):
    # (C, n_th) = (1e-3, 1e9) needs more than the series' term budget; the
    # three other points keep their rows, in grid order, and the sweep
    # reports the failed one on stderr and exits 2 at the end
    code, out, err = run(
        capsys, "sweep", "--model", "exact", "--c-set", "1,1e-3",
        "--nth-set", "1,1e9", *jobs,
    )
    assert code == 2
    assert out.splitlines()[0] == "C,n_th,model,n_ss,g2,regime"
    rows = _read_csv(out)
    assert [(r["C"], r["n_th"]) for r in rows] == [
        ("1", "1"), ("0.001", "1"), ("1", "1000000000")
    ]
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: C=0.001 n_th=1000000000: series at")
    # the grid's own pass, with no command around it: a message, not an exception
    assert isinstance(cli._observables_slice("exact", False, [(1e9, 1e-3)])[0], str)


# exact, hitemp (n_th/C > 1e6) and vacuum points; at n_th = 100, C = 1e-3
# (x = 2e5) the series needs 5,426 terms, which the lowered budget refuses
_MIXED_C, _MIXED_NTH = "1e-7,1e-3,0.5,3", "0,1,100"


# per case: the command, its grid, --jobs and what evaluating the points
# one by one gives, as (exit code, error lines, rows, warnings)
_SWEEP, _ORACLE_SWEEP = ("sweep", "--model", "auto"), ("sweep", "--model", "oracle-reduced")
_VALIDATE = ("validate", "--model", "exact")
_BATCH_CASES = [
    pytest.param(_SWEEP, _MIXED_C, _MIXED_NTH, "1", (2, 1, 11, 0), id="1"),
    pytest.param(_SWEEP, _MIXED_C, _MIXED_NTH, "2", (2, 1, 11, 0), id="2"),
    # budget points among converged ones, at n_th = 0 too
    pytest.param(_ORACLE_SWEEP, "0.5,3,50", "0,1,30", "1", (2, 2, 7, 0), id="oracle-1"),
    pytest.param(_ORACLE_SWEEP, "0.5,3,50", "0,1,30", "2", (2, 2, 7, 0), id="oracle-2"),
    # two skipped rows, then a point that aborts before a third
    pytest.param(_VALIDATE, "3,0.5,-1,1", "30", None, (1, 1, 0, 2), id="validate"),
    # fixed truncations: beyond the lowered cap, which only a ladder meets
    pytest.param(("sweep", "--model", "oracle-rwa", "--trunc", "16"), "0.5,3", "0,1", "1",
                 (0, 0, 4, 0), id="trunc"),
    # a dropped point (the series budget), then a point that aborts before a third
    pytest.param((*_VALIDATE, "--trunc", "8"), "3,1e-3,-1,1", "100", None, (1, 1, 0, 0),
                 id="validate-trunc"),
    # the builder refuses a two-mode model one cavity level at the first point
    pytest.param(("sweep", "--model", "oracle-rwa", "--trunc", "8", "--trunc-cav", "1"),
                 "0.5,3", "1", "1", (1, 1, 0, 0), id="trunc-cav-1"),
]


@pytest.mark.parametrize("argv, c_set, nth_set, jobs, shape", _BATCH_CASES)
def test_sweep_batch_matches_points_alone(capsys, caplog, monkeypatch, argv, c_set, nth_set,
                                          jobs, shape):
    """A grid command that evaluates its points together (the exact series
    in one kernel call, the oracle ladders one factorization per rung
    level) writes what evaluating each point on its own writes: the same
    rows, warnings, error lines and exit code, in grid order. A point that
    aborts the command ends it as it ends the points run one by one: after
    the warnings of the points before it, with its error line alone."""
    from phonon_stats import lindblad

    monkeypatch.setattr(_kernels, "_MAX_TERMS", 3000)
    monkeypatch.setattr(lindblad, "_DIM_CAP", 32)  # hot ladders run out

    def command(c, n_th):
        code, out, err = run(capsys, *argv, "--c-set", c, "--nth-set", n_th,
                             *([] if jobs is None else ["--jobs", jobs]))
        warned = [record.getMessage() for record in caplog.records]
        caplog.clear()
        if argv[0] == "sweep":
            rows = out.splitlines()[1:]
        else:
            rows = json.loads(out)["points"] if out else []
        return code, err.splitlines(), rows, warned, out == ""

    want = [0, [], [], []]
    for C, n_th in [(C, n_th) for n_th in nth_set.split(",") for C in c_set.split(",")]:
        code, errors, rows, warned, aborted = command(C, n_th)
        want[3] += warned
        if aborted:  # the command ends here, with this point's error line alone
            want[:3] = [code, errors, []]
            break
        want[:3] = [max(want[0], code), want[1] + errors, want[2] + rows]
    assert (want[0], len(want[1]), len(want[2]), len(want[3])) == shape
    if argv is _SWEEP:
        assert {line.split(",")[2] for line in want[2]} == {"exact", "hitemp"}
    assert command(c_set, nth_set)[:4] == tuple(want)


def test_failing_oracle_batch_aborts_the_sweep(capsys, monkeypatch, tmp_path):
    """An error of the oracle batch itself, not of one point's solve, ends
    a multi-point sweep: it leaves main unchanged and nothing is written."""
    from phonon_stats import lindblad

    error = RuntimeError("batch failed")

    def failing(jobs):
        raise error

    monkeypatch.setattr(lindblad, "_climb", failing)
    rows = tmp_path / "rows.csv"
    with pytest.raises(RuntimeError) as raised:
        main(["sweep", "--model", "oracle-reduced", "--c-set", "1,3", "--nth-set", "0,0.5",
              "--out", str(rows)])
    assert raised.value is error
    assert capsys.readouterr() == ("", "")
    assert not rows.exists()


# per oracle: a point off the coherent line C = 2 n_th + 1, and a fixed truncation
_ONE_POINT = [
    pytest.param("oracle-reduced", "2", "1", ("--trunc", "30"), id="reduced"),
    pytest.param("oracle-rwa", "3", "0.5", ("--trunc", "12"), id="rwa"),
    pytest.param("oracle-prerwa", "3", "0.2", ("--trunc", "8", "--trunc-cav", "3"), id="prerwa"),
]


@pytest.mark.parametrize("fixed", [False, True], ids=["ladder", "trunc"])
@pytest.mark.parametrize("model, C, n_th, trunc", _ONE_POINT)
def test_stats_matches_a_one_point_sweep(capsys, model, C, n_th, trunc, fixed):
    """``stats`` solves its point alone and ``sweep`` solves it as a slice
    of one grid point: both give the same model, the same %.17g n_ss and g2
    and the same regime, on a ladder and at a fixed truncation."""
    extra = trunc if fixed else ()
    code, out, err = run(capsys, "stats", "--model", model, "--C", C, "--n-th", n_th, *extra)
    assert (code, err) == (0, "")
    rep = json.loads(out)
    code, out, err = run(capsys, "sweep", "--model", model, "--c-set", C, "--nth-set", n_th,
                         *extra)
    assert (code, err) == (0, "")
    (row,) = _read_csv(out)
    assert rep["regime"] != "Coherent"
    assert (row["model"], row["n_ss"], row["g2"], row["regime"]) == (
        rep["params"]["model"], "%.17g" % rep["n_ss"], "%.17g" % rep["g2"], rep["regime"]
    )


@pytest.mark.parametrize("c_set", ["1,-1", "-1,1"])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_first_aborting_point_chooses_the_error(capsys, c_set, jobs):
    """Points that abort the command (exit 1), one on the batched exact
    route (C = -1) and one evaluated alone on the hitemp route
    (n_th = inf): the first in grid order names the error, as when the
    points run one by one."""
    first = None
    for n_th in ("inf", "1"):
        for C in c_set.split(","):
            code, _, err = run(capsys, "sweep", f"--c-set={C}", "--nth-set", n_th)
            if code and first is None:
                first = err
    code, out, err = run(capsys, "sweep", f"--c-set={c_set}", "--nth-set", "inf,1",
                         "--jobs", jobs)
    assert (code, out, err) == (1, "", first)


def test_figure5_batch_matches_observables_exact(tmp_path, capsys):
    """figure 5 over its default 40 x 40 grid writes observables_exact of
    each point, formatted as %.17g (g2 empty where undefined)."""
    code, _, _ = run(capsys, "figure", "5", "--out", str(tmp_path))
    assert code == 0
    rows = _read_csv((tmp_path / "figure5.csv").read_text())
    assert len(rows) == 1600
    for row in rows:
        n_ss, g2 = exact.observables_exact(float(row["C"]), float(row["n_th"]))
        assert (row["n_ss"], row["g2"]) == ("%.17g" % n_ss, "" if g2 is None else "%.17g" % g2)


def _points_alone(command, c_set, nth_set):
    """What evaluating a grid's points one by one gives, ``command(C,
    n_th)`` being one point's ``(exit code, error lines, rows, aborted)``:
    the worst exit code, the error lines and the rows in grid order, or, at
    the first point that aborts, its exit code and error lines alone."""
    want = (0, [], [])
    for n_th in nth_set.split(","):
        for C in c_set.split(","):
            code, errors, rows, aborted = command(C, n_th)
            if aborted:
                return code, errors, []
            want = (max(want[0], code), want[1] + errors, want[2] + rows)
    return want


# per case: the figure, its grid, the point at which hitemp is made to raise
# NotConverged (None: nowhere) and what the points give one by one, as
# (exit code, error lines, rows); the exact series budget is lowered to
# 3,000 terms, which (1e-3, 100) exceeds
_FIGURE_CASES = [
    pytest.param("4", "1e-3,0.5,3", "100,1", None, (2, 1, 5), id="4-budget"),
    pytest.param("4", "1e-3,0.5,-1,3", "100,1", None, (1, 1, 0), id="4-budget-abort"),
    pytest.param("1", "0.5,3,10", "1e3,1e4", 3.0, (2, 2, 4), id="1-notconverged"),
    pytest.param("1", "0.5,3,10", "1e3,0,1e4", 3.0, (1, 1, 0), id="1-notconverged-abort"),
    pytest.param("2", "3,1e-3", "1e4,1e3", 3.0, (2, 2, 2), id="2-notconverged"),
    pytest.param("2", "3,1e-3,-1", "1e4,1e3", 3.0, (1, 1, 0), id="2-notconverged-abort"),
]


@pytest.mark.parametrize("fig, c_set, nth_set, failing_c, shape", _FIGURE_CASES)
def test_curve_figure_batch_matches_points_alone(tmp_path, capsys, monkeypatch, fig, c_set,
                                                 nth_set, failing_c, shape):
    """A curve figure evaluates its grid in one pass, the exact series in
    one kernel call, and writes what its points write one by one: the same
    CSV rows, error lines and exit code. A point that aborts the command
    (C = -1, or n_th = 0 on the hitemp route) ends it with its own error
    line, after dropped points before it, and no CSV is written."""
    monkeypatch.setattr(_kernels, "_MAX_TERMS", 3000)
    real = hitemp.observables_hitemp

    def observe(C, n_th):
        if C == failing_c:
            raise NotConverged("injected")
        return real(C, n_th)

    monkeypatch.setattr(hitemp, "observables_hitemp", observe)
    calls = itertools.count()  # a fresh output directory per call

    def command(c, n_th):
        out_dir = tmp_path / str(next(calls))
        code, out, err = run(capsys, "figure", fig, "--c-set", c, "--nth-set", n_th,
                             "--out", str(out_dir))
        path = out_dir / f"figure{fig}.csv"
        rows = path.read_text().splitlines()[1:] if path.exists() else []
        return code, err.splitlines(), rows, out == ""

    want = _points_alone(command, c_set, nth_set)
    assert (want[0], len(want[1]), len(want[2])) == shape
    assert command(c_set, nth_set)[:3] == want


def test_sweep_json_jobs_batch_matches_points_alone(capsys, monkeypatch):
    """``sweep --format json --jobs 2`` over exact, hitemp and vacuum points,
    one of them past the lowered series budget, writes the rows and error
    lines of its points run one by one, and exits 2."""
    monkeypatch.setattr(_kernels, "_MAX_TERMS", 3000)

    def command(c, n_th):
        code, out, err = run(capsys, "sweep", "--format", "json", "--jobs", "2",
                             "--c-set", c, "--nth-set", n_th)
        return code, err.splitlines(), json.loads(out) if out else [], out == ""

    want = _points_alone(command, _MIXED_C, _MIXED_NTH)
    assert (want[0], len(want[1]), len(want[2])) == (2, 1, 11)
    assert {row["model"] for row in want[2]} == {"exact", "hitemp"}
    assert "Vacuum" in {row["regime"] for row in want[2]}
    assert command(_MIXED_C, _MIXED_NTH)[:3] == want


@pytest.mark.parametrize("model", ["exact", "auto"])
def test_sweep_regimes_at_the_coherent_boundary(capsys, model):
    """Each row's regime is classify_regime of its point, on a grid through
    C = 2 n_th + 1 exactly, 1e-12 and 1e-11 relative to either side of it,
    and n_th = 0."""
    nth_values = [0.0, 0.5, 1.0, 7.25, 1e3]
    c_values = sorted({
        (2.0 * n_th + 1.0) * (1.0 + rel)
        for n_th in nth_values for rel in (0.0, 1e-12, -1e-12, 1e-11, -1e-11)
    })
    code, out, err = run(capsys, "sweep", "--model", model,
                         "--c-set", ",".join("%.17g" % C for C in c_values),
                         "--nth-set", ",".join("%.17g" % n for n in nth_values))
    assert (code, err) == (0, "")
    rows = _read_csv(out)
    assert [(float(r["C"]), float(r["n_th"])) for r in rows] == [
        (C, n_th) for n_th in nth_values for C in c_values
    ]
    seen = set()
    for row in rows:
        want = exact.classify_regime(float(row["C"]), float(row["n_th"])).value
        assert row["regime"] == want
        seen.add(want)
    assert seen == {"Vacuum", "Coherent", "Bunched", "Antibunched"}
    # exactly on it, n_th = 0 is the vacuum and every other n_th coherent
    boundary = [r["regime"] for r in rows if float(r["C"]) == 2.0 * float(r["n_th"]) + 1.0]
    assert boundary == ["Vacuum"] + ["Coherent"] * 4


@pytest.mark.parametrize("C,n_th", [("1e-300", "1e10"), ("5e-324", "1")])
def test_exact_overflowing_series_names_the_point(capsys, C, n_th):
    """nu = (1 + 2 n_th)/C overflows: ``stats`` and an exact sweep that
    reaches the point exit 1 with one error line that names C and n_th
    ahead of the series' own message."""
    want = (f"error: series at C={float(C):g}, n_th={float(n_th):g}: "
            "recip_gamma_series requires nu > 0, got inf\n")
    assert run(capsys, "stats", "--model", "exact", "--C", C, "--n-th", n_th) == (1, "", want)
    sweep = ("sweep", "--model", "exact", "--c-set", C, "--nth-set", "0," + n_th)
    assert run(capsys, *sweep) == (1, "", want)


@pytest.mark.parametrize("C,n_th", [("1e308", "1"), ("1e307", "1e307"), ("3", "5e-324")])
@pytest.mark.parametrize("model", ["exact", "auto"])
def test_stats_at_float_extremes_warns_nothing(capsys, model, C, n_th):
    """At the first two points 1 + C m leaves the floats in the window's tail
    bound, whose limit there is 0; at the third y = n_th/C underflows to 0,
    and so do the population ratios. Each exits 0 with finite output and no
    numpy warning (which tier-1 turns into an error)."""
    code, out, err = run(capsys, "stats", "--model", model, "--C", C, "--n-th", n_th)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["params"]["model"] == "exact"
    assert math.isfinite(payload["n_ss"])
    assert payload["g2"] is None or math.isfinite(payload["g2"])
    assert all(math.isfinite(p) for p in payload["populations"])


def test_exact_populations_where_n_th_over_c_underflows():
    # y = n_th/C = 1e-600 is 0 in floats: every backward ratio is 0, its log -inf
    assert exact.phonon_populations_exact(1e300, 1e-300, 5).tolist() == [1, 0, 0, 0, 0, 0]


def test_hitemp_reports_and_rows_are_bunched(capsys):
    """The thermal-diffusion g2 lies in [pi/2, 2], so every hitemp report and
    row is ``Bunched``, also at points that lie above the exact route's
    boundary C = 2 n_th + 1 (C = 100 at n_th = 1, and n_th = 1e-13)."""
    code, out, err = run(capsys, "stats", "--model", "hitemp", "--C", "100", "--n-th", "1")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["regime"] == "Bunched" and math.pi / 2 <= payload["g2"] <= 2.0
    code, out, err = run(capsys, "sweep", "--model", "hitemp", "--c-set", "1,100",
                         "--nth-set", "1e-13,1")
    assert (code, err) == (0, "")
    rows = _read_csv(out)
    assert len(rows) == 4
    assert all(r["regime"] == "Bunched" and math.pi / 2 <= float(r["g2"]) <= 2.0 for r in rows)


@pytest.mark.parametrize("argv", [
    ("sweep", "--model=exact", "--c-set=0", "--nth-set=1"),
    ("sweep", "--model=exact", "--c-set=inf", "--nth-set=1"),
    ("sweep", "--model=exact", "--c-set=-inf", "--nth-set=1"),
    ("sweep", "--model=exact", "--c-set=nan", "--nth-set=1"),
    ("sweep", "--model=exact", "--c-set=1", "--nth-set=nan"),
    ("sweep", "--model=auto", "--c-set=1", "--nth-set=inf"),
    ("sweep", "--model=auto", "--c-set=0", "--nth-set=1"),
    ("sweep", "--model=hitemp", "--c-set=1", "--nth-set=0"),
    ("sweep", "--model=hitemp", "--c-set=nan", "--nth-set=1"),
    ("sweep", "--model=hitemp", "--c-set=1", "--nth-set=-1"),
    ("figure", "1", "--c-set=1", "--nth-set=0"),
    ("figure", "2", "--c-set=inf", "--nth-set=1e3"),
    ("figure", "4", "--c-set=0", "--nth-set=1"),
    ("figure", "5", "--c-set=1", "--nth-set=-inf"),
], ids=" ".join)
def test_invalid_grid_points_raise_their_typed_error(tmp_path, capsys, argv):
    """A point outside its route's domain ends a grid command with exit 1
    and the error line of ``stats`` at that point on that route, never a
    numpy warning (which tier-1 turns into an error)."""
    flags = dict(arg.split("=") for arg in argv if "=" in arg)
    if argv[0] == "figure":
        flags["--model"] = cli._FIGURES[int(argv[1])][0]
        argv = (*argv, "--out", str(tmp_path))
    alone = run(capsys, "stats", "--model=" + flags["--model"], "--C=" + flags["--c-set"],
                "--n-th=" + flags["--nth-set"])
    assert alone[:2] == (1, "") and "must be finite" in alone[2]
    assert run(capsys, *argv) == alone


def test_sweep_jobs_capped_by_grid(monkeypatch, capsys):
    started = []

    class RecordingPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    # the pool is imported where a grid starts one, so it is patched at its source
    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    code, out, _ = run(
        capsys, "sweep", "--model", "exact", "--c-set", "1,3", "--nth-set", "1",
        "--jobs", "8",
    )
    assert code == 0
    assert started == [2]
    assert len(_read_csv(out)) == 2


def test_sweep_and_curves_compute_no_populations(tmp_path, monkeypatch, capsys):
    c_values, nth_values = ["1e-3", "1"], ["0", "1", "1e5"]
    want = {}
    for n_th in nth_values:
        for C in c_values:
            code, out, _ = run(capsys, "stats", "--C", C, "--n-th", n_th)
            assert code == 0
            rep = json.loads(out)
            want[(float(C), float(n_th))] = (
                rep["params"]["model"],
                "%.17g" % rep["n_ss"],
                "" if rep["g2"] is None else "%.17g" % rep["g2"],
                rep["regime"],
            )

    def refuse(*args, **kwargs):
        raise AssertionError("Fock populations computed")

    monkeypatch.setattr(_kernels, "population_logsums", refuse)
    monkeypatch.setattr(hitemp, "_fock_projection", refuse)
    code, out, _ = run(
        capsys, "sweep", "--model", "auto", "--c-set", ",".join(c_values),
        "--nth-set", ",".join(nth_values),
    )
    assert code == 0
    rows = _read_csv(out)
    assert {row["model"] for row in rows} == {"exact", "hitemp"}
    assert len(rows) == len(want)
    for row in rows:
        got = (row["model"], row["n_ss"], row["g2"], row["regime"])
        assert got == want[(float(row["C"]), float(row["n_th"]))]
    code, _, _ = run(capsys, "figure", "4", "--out", str(tmp_path))
    assert code == 0


def test_sweep_json_format(capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--model", "exact", "--c-set", "1", "--nth-set", "0",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert rows[0]["g2"] is None
    assert rows[0]["regime"] == "Vacuum"


def _indented_json(payload) -> str:
    """The reference bytes of every JSON output: the pure-Python indenting encoder."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emitted_json(monkeypatch, capsys, argv):
    """stdout of ``main(argv)`` and the one payload it gave ``cli._json_dumps``."""
    payloads = []
    encode = cli._json_dumps
    monkeypatch.setattr(cli, "_json_dumps", lambda p: payloads.append(p) or encode(p))
    main(argv)
    (payload,) = payloads
    return capsys.readouterr().out, payload


@pytest.mark.parametrize("argv", [
    ["stats", "--C", "0.1", "--n-th", "40", "--model", "exact"],
    ["stats", "--C", "1e2", "--n-th", "1e4", "--model", "hitemp"],
    ["stats", "--C", "10", "--n-th", "1"],  # auto: exact
    ["stats", "--C", "1e-3", "--n-th", "1e4"],  # auto: hitemp
    ["stats", "--C", "10", "--n-th", "1", "--model", "oracle-reduced"],
    ["stats", "--C", "3", "--n-th", "0", "--model", "exact"],  # g2 null
    ["sweep", "--format", "json", "--c-range", "1e-3:1e4:15:log",
     "--nth-set", "0,0.1,1,100,1e5"],
])
def test_json_output_is_indented_json_dumps(monkeypatch, capsys, argv):
    out, payload = _emitted_json(monkeypatch, capsys, argv)
    assert out == _indented_json(payload)


def test_validate_json_with_a_skipped_row_is_indented_json_dumps(monkeypatch, capsys):
    from phonon_stats import lindblad

    monkeypatch.setattr(lindblad, "_DIM_CAP", 32)  # the hot point's ladder runs out
    out, payload = _emitted_json(
        monkeypatch, capsys,
        ["validate", "--model", "exact", "--c-set", "3", "--nth-set", "0,30"],
    )
    skipped = [p for p in payload["points"] if p["skipped"]]
    assert len(skipped) == 1 and "dim_cap=32" in skipped[0]["reason"]
    assert out == _indented_json(payload)


def test_json_dumps_edge_cases():
    payload = {
        "floats": [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1],
        "np": np.float64(1.0 / 3.0),
        "lone": np.float64(2.5),
        "ints": [0, -7, 10**30],
        "flags": [True, False, None],
        "text": ['quote " backslash \\ newline \n tab \t \x01', "ñ € 𝄞"],
        "empty": {"list": [], "dict": {}, "nested": [[], {}, [[]], [{}]]},
        "mixed": [1.5, [2.0, {"b": None, "a": "x"}], {}, "s", (3, 4.0)],
        "": {"z": {"y": [{"x": [1, [2, [3]]]}]}},
    }
    assert cli._json_dumps(payload) == _indented_json(payload)
    for other in ({1: "int key", 2: [1.0]}, {2.5: 0, True: 1}, [], {}, 1.0, "s", None, [[]]):
        assert cli._json_dumps(other) == _indented_json(other)


def test_sweep_bad_range_exit_1(capsys):
    for bad in ("1:10:0:log", "abc", "0:10:5:log"):
        code, _, err = run(
            capsys, "sweep", "--model", "exact", "--c-range", bad, "--nth-set", "1"
        )
        assert code == 1
        assert "error:" in err


def test_figure_refuses_oracle_flags(tmp_path, capsys):
    # figures run only the analytic routes, so oracle settings are errors
    code, _, err = run(capsys, "figure", "4", "--trunc", "8", "--out", str(tmp_path))
    assert code == 1
    assert "--trunc" in err
    cfg = tmp_path / "fig.json"
    cfg.write_text(json.dumps({"kappa": 5.0}))
    code, _, err = run(capsys, "figure", "4", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 1
    assert "kappa" in err
    assert not (tmp_path / "figure4.csv").exists()


def test_figure6_dataset(tmp_path, capsys):
    code, out, _ = run(capsys, "figure", "6", "--out", str(tmp_path))
    assert code == 0
    csv_path = tmp_path / "figure6.csv"
    script_path = tmp_path / "figure6_plot.py"
    assert str(csv_path) in out and str(script_path) in out
    assert csv_path.exists() and script_path.exists()
    py_compile.compile(str(script_path), doraise=True)

    rows = _read_csv(csv_path.read_text())
    assert list(rows[0]) == ["n", "P_C1", "P_C41", "P_C1000"]
    # C = 41 = 2*20 + 1 is the coherent point: Poisson column, Fano = 1
    n = [float(r["n"]) for r in rows]
    p = [float(r["P_C41"]) for r in rows]
    mean = sum(ni * pi for ni, pi in zip(n, p))
    var = sum((ni - mean) ** 2 * pi for ni, pi in zip(n, p))
    assert abs(sum(p) - 1.0) <= 1e-9
    assert var / mean == pytest.approx(1.0, abs=1e-3)


def test_figure6_empty_c_set_exit_1(tmp_path, capsys):
    code, out, err = run(capsys, "figure", "6", "--c-set", ",", "--out", str(tmp_path))
    assert code == 1
    assert out == ""
    assert "--c-set" in err
    assert not (tmp_path / "figure6.csv").exists()


def test_figure_keeps_converged_rows_past_a_failed_point(tmp_path, capsys):
    # only (C, n_th) = (1e-3, 1e9) needs more than the series' term budget;
    # the five other rows, in grid order, and the script are still written
    code, out, err = run(
        capsys, "figure", "4", "--nth-set", "1,1e9", "--c-range", "1e-3:1:3:log",
        "--out", str(tmp_path),
    )
    assert code == 2
    assert out.splitlines() == [str(tmp_path / "figure4.csv"), str(tmp_path / "figure4_plot.py")]
    rows = _read_csv((tmp_path / "figure4.csv").read_text())
    assert [(float(r["C"]), float(r["n_th"])) for r in rows] == [
        (1e-3, 1.0), (pytest.approx(10 ** -1.5), 1.0), (1.0, 1.0),
        (pytest.approx(10 ** -1.5), 1e9), (1.0, 1e9),
    ]
    py_compile.compile(str(tmp_path / "figure4_plot.py"), doraise=True)
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: C=0.001 n_th=1000000000: series at")


@pytest.mark.parametrize("fig,flags,n_rows", [
    ("4", ["--c-set", "1,2", "--nth-set", "1"], 2),
    ("1", ["--C", "5", "--n-th", "3"], 1),
])
def test_curve_figures_honour_grid_flags(tmp_path, capsys, fig, flags, n_rows):
    code, _, err = run(capsys, "figure", fig, *flags, "--out", str(tmp_path))
    assert code == 0 and err == ""
    assert len(_read_csv((tmp_path / f"figure{fig}.csv").read_text())) == n_rows


def test_figure6_grid_flags(tmp_path, capsys):
    code, _, _ = run(capsys, "figure", "6", "--c-range", "1:100:4:log", "--out", str(tmp_path))
    assert code == 0
    header = (tmp_path / "figure6.csv").read_text().splitlines()[0].split(",")
    assert header[0] == "n" and len(header) == 5
    assert all(name.startswith("P_C") for name in header[1:])

    code, out, err = run(capsys, "figure", "6", "--nth-set", "1,2", "--out", str(tmp_path / "two"))
    assert code == 1 and out == ""
    assert "one n_th" in err
    assert not (tmp_path / "two").exists()

    # the ground state: every column is [1.0]
    code, _, _ = run(capsys, "figure", "6", "--n-th", "0", "--out", str(tmp_path / "cold"))
    assert code == 0
    rows = _read_csv((tmp_path / "cold" / "figure6.csv").read_text())
    assert rows == [{"n": "0", "P_C1": "1", "P_C41": "1", "P_C1000": "1"}]


def test_figure6_columns_named_in_full_precision(tmp_path, capsys):
    code, _, _ = run(capsys, "figure", "6", "--c-set", "1.0000001,1.0000002",
                     "--out", str(tmp_path))
    assert code == 0
    # %.17g, as every other float the CLI writes, so the names stay apart
    header = (tmp_path / "figure6.csv").read_text().splitlines()[0]
    assert header == "n,P_C1.0000001000000001,P_C1.0000001999999999"


def test_figure3_dataset(tmp_path, capsys):
    """The default figure 3 writes the populations of the hitemp report at
    (C, n_th) = (1e2, 1e4), row n as ``n,P`` in %.17g, and a plot script."""
    code, out, err = run(capsys, "figure", "3", "--out", str(tmp_path))
    assert (code, err) == (0, "")
    csv_path, script_path = tmp_path / "figure3.csv", tmp_path / "figure3_plot.py"
    assert out.splitlines() == [str(csv_path), str(script_path)]
    py_compile.compile(str(script_path), doraise=True)
    rows = _read_csv(csv_path.read_text())
    populations = hitemp.steady_state_hitemp(1e2, 1e4).populations
    assert [(r["n"], r["P"]) for r in rows] == [
        ("%.17g" % n, "%.17g" % p) for n, p in enumerate(populations)
    ]


def test_curve_figure_row_with_undefined_g2(tmp_path, capsys):
    # at n_th = 0 the exact state is the ground state: n_ss = 0, no g2
    code, _, err = run(capsys, "figure", "4", "--c-set", "1", "--nth-set", "0,1",
                       "--out", str(tmp_path))
    assert (code, err) == (0, "")
    lines = (tmp_path / "figure4.csv").read_text().splitlines()
    assert lines[:2] == ["C,n_th,n_ss,g2", "1,0,0,"]
    assert len(lines) == 3


@pytest.mark.parametrize("flags", [
    ["--c-set", "1,2", "--nth-set", "5"], ["--c-range", "1:10:3:log"], ["--nth-set", "5"],
])
def test_figure3_refuses_grid_flags(tmp_path, capsys, flags):
    code, out, err = run(capsys, "figure", "3", *flags, "--out", str(tmp_path))
    assert code == 1 and out == ""
    assert "figure 3 takes one point" in err and flags[0] in err
    assert not (tmp_path / "figure3.csv").exists()


def test_stats_prerwa_names_its_solver(capsys):
    code, out, _ = run(capsys, "stats", "--C", "4", "--n-th", "0.2", "--model", "oracle-prerwa",
                       "--trunc", "16")
    assert code == 0
    diag = json.loads(out)["diagnostics"]
    assert diag["solver"] == "krylov"
    assert 0 < diag["iterations"] <= 40
    code, out, _ = run(capsys, "stats", "--C", "4", "--n-th", "0.2", "--model", "oracle-rwa",
                       "--trunc", "16")
    assert code == 0
    diag = json.loads(out)["diagnostics"]
    assert diag["solver"] == "sector-lu" and "iterations" not in diag


def test_stats_rwa_ladder_settles_near_the_vacuum(capsys, monkeypatch):
    # at n_th = 1e-6 the small populations decide g2; a solve that loses
    # their digits sends the ladder up to 7x256 (seconds, over 600 MiB)
    from phonon_stats import lindblad

    dims = []
    solve = lindblad.steady_state

    def recorded(sup):
        dims.append(sup.dims)
        return solve(sup)

    monkeypatch.setattr(lindblad, "steady_state", recorded)
    code, out, _ = run(capsys, "stats", "--model", "oracle-rwa", "--C", "1", "--n-th", "1e-6")
    assert code == 0
    assert json.loads(out)["g2"] is not None
    assert dims and all(c <= 4 and m <= 32 for c, m in dims)


def test_validate_keeps_converged_points_past_a_failed_point(capsys):
    # the analytic side fails at (1e-3, 1e9); the point at C = 1 is still
    # reported, and exit 2 wins over the exit 1 of its tolerance failure
    code, out, err = run(
        capsys, "validate", "--model", "exact", "--c-set", "1,1e-3", "--nth-set", "1e9",
        "--trunc", "8",
    )
    assert code == 2
    payload = json.loads(out)
    assert [(p["C"], p["n_th"]) for p in payload["points"]] == [(1.0, 1e9)]
    assert payload["summary"]["n_points"] == 1
    assert payload["pass"] is False
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: C=0.001 n_th=1000000000:")


def test_validate_drops_a_failed_oracle_solve(capsys):
    """The oracle solve at C = 1e308 fails and drops its point, through the
    re-raise in ``_validate_row``: the C = 1 row is still written and
    passes, and exit 2 comes with that point's error line alone."""
    code, out, err = run(capsys, "validate", "--c-set", "1,1e308", "--nth-set", "1")
    assert code == 2
    payload = json.loads(out)
    assert [(p["C"], p["n_th"], p["skipped"]) for p in payload["points"]] == [(1.0, 1.0, False)]
    assert payload["pass"] is True
    (line,) = err.splitlines()
    assert line.startswith("error: C=1e+308 n_th=1: ")


def test_default_validate_factors_once_per_rung_level(capsys):
    """The default validate climbs its 25 ladders together: one sparse
    factorization per rung level (8, 16, 32, 64 and 128 levels), each of
    the points still climbing, not one per point and rung."""
    from phonon_stats import lindblad

    sizes = []
    solve = lindblad.spsolve

    def captured(a, b, **kwargs):
        sizes.append(a.shape[0])
        return solve(a, b, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lindblad, "spsolve", captured)
        code, out, _ = run(capsys, "validate")
    assert code == 0 and len(json.loads(out)["points"]) == 25
    assert len(sizes) == 5
    assert sizes[:2] == [25 * 8, 25 * 16]


def test_validate_small_grid(capsys):
    code, out, _ = run(
        capsys,
        "validate", "--model", "exact", "--oracle", "oracle-reduced",
        "--c-set", "3,10", "--nth-set", "0,1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["oracle"] == "oracle-reduced"
    assert len(payload["points"]) == 4
    s = payload["summary"]
    assert s["n_points"] == 4 and s["n_skipped"] == 0
    assert s["max_dev_n_ss"] <= 1e-6
    assert s["max_dev_g2"] <= 1e-6
    assert s["max_pop_l1"] <= 1e-5
    # vacuum rows have no defined g2 on either side
    vac = [p for p in payload["points"] if p["n_th"] == 0.0]
    assert vac and all(p["dev_g2"] is None for p in vac)


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_validate_refuses_tolerances_outside_0_inf(capsys, monkeypatch, tmp_path, value):
    """A tolerance that is not finite and >= 0 is refused before any point
    runs, as a flag and from a config file: exit 1, one error line naming
    the flag and no output."""
    def no_point(*args):
        raise AssertionError("a point ran")
    monkeypatch.setattr(cli, "_analytic_report", no_point)
    monkeypatch.setattr(cli, "_oracle_job", no_point)
    for dest in ("tol_nss", "tol_g2", "tol_pop"):
        flag = cli._flag(dest)
        line = f"error: {flag} must be finite and >= 0, got {float(value)!r}\n"
        grid = ("validate", "--c-set", "3", "--nth-set", "0.5")
        assert run(capsys, *grid, f"{flag}={value}") == (1, "", line)
        cfg = tmp_path / f"{dest}.json"
        cfg.write_text(json.dumps({dest: float(value)}))
        assert run(capsys, *grid, "--config", str(cfg)) == (1, "", line)


def test_validate_empty_grid_exit_1(capsys):
    code, _, err = run(capsys, "validate", "--c-set", "", "--nth-set", "1")
    assert code == 1
    assert "empty" in err


def test_perfbench_spans_trace_the_cli(capsys, tmp_path):
    """perfbench's tracer wraps its span targets and reads fields of their
    results and arguments; a renamed target or field fails here, not only
    under ``perfbench/run.py --self-check``. The grid commands, whose exact
    points bypass the wrapped series front end, write the same output traced
    as untraced."""
    path = Path(SRC).parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    originals = {
        (mod, attr): getattr(getattr(phonon_stats, mod), attr) for mod, attr, _ in spans.TARGETS
    }
    sweep = ["sweep", "--c-set", "1e-7,0.5,3", "--nth-set", "0,1,20"]

    def figure4(out):
        return ["figure", "4", "--c-range", "0.1:1e3:12:log", "--out", str(tmp_path / out)]

    assert main(sweep) == 0 and main(figure4("plain")) == 0
    plain = capsys.readouterr().out.splitlines()[:-2]  # less the figure's paths
    tracer = spans.Tracer()
    tracer.install(phonon_stats)
    try:
        traced_main = tracer.wrap("cli.main", main)
        assert traced_main(["stats", "--C", "100", "--n-th", "1e4", "--model", "hitemp"]) == 0
        assert traced_main(["validate", "--c-set", "3", "--nth-set", "0.5"]) == 0
        capsys.readouterr()
        assert traced_main(sweep) == 0 and traced_main(figure4("traced")) == 0
        traced = capsys.readouterr().out.splitlines()[:-2]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert traced == plain and len(plain) == 10
    csvs = [(tmp_path / out / "figure4.csv").read_bytes() for out in ("plain", "traced")]
    assert csvs[0] == csvs[1] and csvs[0].count(b"\n") == 49
    for (mod, attr), fn in originals.items():
        assert getattr(getattr(phonon_stats, mod), attr) is fn, (mod, attr)
    counts, times = spans.layer_metrics(tracer, levels_used=0)
    spans.derived(counts, times)
    for key in ("cli.main.calls", "exact.report.calls", "kernels.series.terms",
                "kernels.population.terms", "hitemp.moments.orders",
                "lindblad.build.calls", "lindblad.build.nnz", "lindblad.solve.dim_max",
                "lindblad.ladder.converged"):
        assert counts[key] > 0, key
    assert counts["lindblad.ladder.rungs"] >= 2
    assert 0.0 < tracer.tail_max < 1.0
    assert phonon_stats.HAS_NUMBA is False  # the lane perfbench stamps
