"""What each command imports: the analytic routes run without scipy.

The checks run in fresh interpreters, because this test session has long
since imported every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phonon_stats

SRC = str(Path(phonon_stats.__file__).resolve().parents[1])


def _python(code: str, cwd) -> str:
    """Run ``code`` in a fresh interpreter that finds this package; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_LOADED_SCIPY = "import sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def test_bare_import_loads_no_scipy(tmp_path):
    assert _python("import phonon_stats\n" + _LOADED_SCIPY, tmp_path).strip() == "[]"


def test_exact_route_commands_load_no_scipy(tmp_path):
    code = f"""
import contextlib, io
from phonon_stats.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["stats", "--C", "3", "--n-th", "1", "--model", "exact"]) == 0
    # n_th/C stays below the 1e6 hand-off, so auto picks exact at every point
    assert main(["sweep", "--model", "auto", "--c-set", "0.1,1,10", "--nth-set", "0,1,1e3"]) == 0
    assert main(["figure", "4", "--out", {str(tmp_path)!r}]) == 0
    # the exact route refuses the first point before any oracle job is made
    assert main(["validate", "--c-set=-1,1", "--nth-set", "1"]) == 1
{_LOADED_SCIPY}
"""
    assert _python(code, tmp_path).strip().splitlines()[-1] == "[]"


def test_commands_without_jobs_load_no_multiprocessing(tmp_path):
    """Only a pool needs ``multiprocessing``, so neither the import nor
    ``stats``, ``sweep`` without ``--jobs`` or ``figure 4`` pays for it."""
    code = f"""
import contextlib, io, sys
from phonon_stats.cli import main
loaded = ["multiprocessing" in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["stats", "--C", "3", "--n-th", "1"]) == 0
    assert main(["sweep", "--c-set", "1e-7,0.5,3", "--nth-set", "0,1,20"]) == 0
    assert main(["figure", "4", "--out", {str(tmp_path)!r}]) == 0
loaded.append("multiprocessing" in sys.modules)
print(loaded)
"""
    assert _python(code, tmp_path).strip().splitlines()[-1] == "[False, False]"


def test_hitemp_observables_load_no_scipy(tmp_path):
    """The hitemp closed forms need only ``math``: the curve figures on
    the hitemp route and sweeps past the hand-off import no scipy."""
    code = f"""
import contextlib, io
from phonon_stats.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["figure", "1", "--out", {str(tmp_path)!r}]) == 0
    assert main(["figure", "2", "--out", {str(tmp_path)!r}]) == 0
    assert main(["sweep", "--model", "hitemp", "--c-set", "1e-3,1,1e3", "--nth-set", "1e-3,1,1e4"]) == 0
    # n_th/C > 1e6 at every point, so auto picks hitemp
    assert main(["sweep", "--model", "auto", "--c-set", "1e-9,1e-7", "--nth-set", "1e3,1e5"]) == 0
{_LOADED_SCIPY}
"""
    assert _python(code, tmp_path).strip().splitlines()[-1] == "[]"


def test_hitemp_populations_load_no_scipy(tmp_path):
    """The hitemp populations are cumulative moment ratios, with no log n!:
    ``stats --model hitemp`` and figure 3 import no scipy."""
    code = f"""
import contextlib, io
from phonon_stats.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["stats", "--C", "1", "--n-th", "1e4", "--model", "hitemp"]) == 0
    assert main(["figure", "3", "--out", {str(tmp_path)!r}]) == 0
{_LOADED_SCIPY}
"""
    assert _python(code, tmp_path).strip().splitlines()[-1] == "[]"


def test_hitemp_and_oracle_stats_load_their_modules(tmp_path):
    code = """
import contextlib, io, json, sys
from phonon_stats.cli import main
out = {}
for model in ("hitemp", "oracle-reduced"):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["stats", "--C", "10", "--n-th", "1", "--model", model])
    out[model] = {"rc": rc, "report": json.loads(buf.getvalue()),
                  "loaded": sorted(m for m in ("scipy.special", "scipy.sparse.linalg")
                                   if m in sys.modules)}
print(json.dumps(out))
"""
    out = json.loads(_python(code, tmp_path))
    hot, oracle = out["hitemp"], out["oracle-reduced"]
    assert hot["rc"] == 0 and oracle["rc"] == 0
    assert hot["report"]["params"]["model"] == "hitemp"
    assert oracle["report"]["params"]["model"] == "oracle-reduced"
    assert hot["loaded"] == []
    assert oracle["loaded"] == ["scipy.sparse.linalg"]
    assert 0.0 < hot["report"]["n_ss"] and 0.0 < oracle["report"]["n_ss"]


def test_public_names_resolve():
    listed = dir(phonon_stats)
    for name in phonon_stats.__all__:
        assert getattr(phonon_stats, name) is not None
        assert name in listed
    namespace = {}
    exec("from phonon_stats import *", namespace)
    assert set(phonon_stats.__all__) <= set(namespace)
    assert namespace["steady_state"] is phonon_stats.lindblad.steady_state
    assert namespace["erfcx"] is phonon_stats.hitemp.erfcx


def test_all_is_the_exports_plus_errors_and_stamps():
    errors = {
        name for name, obj in vars(phonon_stats.errors).items()
        if isinstance(obj, type) and issubclass(obj, phonon_stats.PhononStatsError)
    }
    exports = {name for names in phonon_stats._EXPORTS.values() for name in names}
    assert len(phonon_stats.__all__) == len(set(phonon_stats.__all__))
    assert set(phonon_stats.__all__) == exports | errors | {"__version__", "HAS_NUMBA"}


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        phonon_stats.no_such_name
