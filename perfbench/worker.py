"""One fresh client process of the benchmark.

    python3 worker.py setup SPEC   import the CLI, run the warm-up call, then
                                   calibrate; prints the seconds of both
    python3 worker.py run SPEC OUT the same set-up, then whole passes in a
                                   closed loop until SPEC["seconds"] have
                                   elapsed; writes OUT

SPEC is a JSON file written by run.py: ``src`` (the package's source root),
``workload`` (see workloads.build), ``seconds`` and ``trace``. The client
calls ``phonon_stats.cli.main(argv)`` in-process, one call at a time, with
the generated argv and nothing else.

The speed of the machine this was written on flips between two states
(a fixed kernel takes 3.3 or 5.5 ms) many times a second, and the share of
time in the slow state drifts over minutes with other tenants' load, which
moved wall-clock metrics by +-25 % between runs. The client therefore times
``calibrate()`` in bursts of CAL_BURST between calls, every CAL_EVERY_S, and
after set-up; run.py scales times by the mean of those samples. Calibration
time is not part of any call.

In a traced run the passes alternate: one untraced, one traced, until the
time is up and at least two traced passes were made.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import sys
import time

CAL_EVERY_S = 0.25
CAL_BURST = 3
CAL_AFTER_SETUP = 20


def calibrate() -> float:
    """Seconds taken by a fixed mix of the work the package does: an
    interpreter loop over math.lgamma, scipy.special and numpy ufuncs and
    sorts on small arrays, and adaptive quadrature of a Python function.
    No package code runs in it."""
    import numpy as np
    from scipy.integrate import quad
    from scipy.special import gammaln

    t0 = time.perf_counter()
    s = 0.0
    for i in range(1, 6001):
        s += math.lgamma(i + 0.5)
    x = np.arange(1.0, 2049.0)
    for _ in range(40):
        s += float(np.sort(np.exp(gammaln(x) - gammaln(x + 0.5))).sum())
    for k in range(1, 9):
        s += quad(lambda t: math.exp(k * math.log(t) - t * t) if t > 0 else 0.0, 0.0, 8.0,
                  epsrel=1e-12)[0]
    if not math.isfinite(s):
        raise RuntimeError("calibration kernel produced a non-finite sum")
    return time.perf_counter() - t0


def _setup(spec):
    """Import the CLI and finish the warm-up call, then calibrate.

    Returns (cli module, set-up seconds, calibration samples).
    """
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    import phonon_stats.cli as cli

    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(list(spec["workload"]["warmup"]))
    dt = time.perf_counter() - t0
    if rc != 0:
        raise SystemExit(f"warm-up call exited {rc}")
    return cli, dt, [calibrate() for _ in range(CAL_AFTER_SETUP)]


def _call(main, call):
    """Run one command; returns (seconds, exit code or None, error, output)."""
    buf = io.StringIO()
    err = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(list(call["argv"]))
    except Exception as exc:  # a raise is a failed call, not a harness error
        rc, err = None, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    out = {"stdout": buf.getvalue()}
    if call["kind"] == "figure" and rc == 0:
        with open(call["csv"]) as fh:
            out["csv"] = fh.read()
    return dt, rc, err, out


def _levels_used(call, out, levels_computed):
    """Population levels the command wrote out or compared."""
    if call["kind"] == "stats":
        return len(json.loads(out["stdout"])["populations"])
    if call["kind"] == "validate":  # every analytic level enters pop_l1
        return levels_computed
    return 0


def _env():
    import importlib.metadata as md

    import numpy
    import scipy

    import phonon_stats

    try:
        numba = md.version("numba")
    except md.PackageNotFoundError:
        numba = None
    return {
        "lane": "numba" if phonon_stats.HAS_NUMBA else "numpy",
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": numba,
        "python": sys.version.split()[0],
    }


def run(spec, out_path):
    cli, setup_s, setup_cal_s = _setup(spec)
    calls = spec["workload"]["calls"]
    seconds = float(spec["seconds"])
    trace = bool(spec["trace"])
    if trace:
        import phonon_stats

        from spans import Tracer, layer_metrics

    first = {}  # call index -> output of its first occurrence
    samples = []  # [call index, seconds, exit code, error, same as first, pass]
    passes = []  # {"traced": bool}, plus "counts" and "times" if traced
    cals = []  # calibration seconds, CAL_BURST at a time
    last_cal = time.perf_counter()

    def checkpoint():
        nonlocal last_cal
        cals.extend(calibrate() for _ in range(CAL_BURST))
        last_cal = time.perf_counter()

    def one_pass(traced):
        info = {"traced": traced}
        levels_used = 0
        if traced:
            tracer = Tracer()
            tracer.install(phonon_stats)
            main = tracer.wrap("cli.main", cli.main)
        else:
            main = cli.main
        try:
            for i, call in enumerate(calls):
                before = tracer.counts["levels_computed"] if traced else 0
                dt, rc, err, out = _call(main, call)
                same = first.setdefault(i, out) == out
                samples.append([i, dt, rc, err, same, len(passes)])
                if traced and rc == 0:
                    computed = tracer.counts["levels_computed"] - before
                    levels_used += _levels_used(call, out, computed)
                if time.perf_counter() - last_cal >= CAL_EVERY_S:
                    checkpoint()
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            info["counts"], info["times"] = layer_metrics(tracer, levels_used)
        passes.append(info)

    checkpoint()
    start = time.perf_counter()
    if trace:
        n_traced = 0
        while n_traced < 2 or time.perf_counter() - start < seconds:
            one_pass(False)
            one_pass(True)
            n_traced += 1
    else:
        while time.perf_counter() - start < seconds:
            one_pass(False)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "setup_s": setup_s,
        "setup_cal_s": setup_cal_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "samples": samples,
        "cal_s": cals,
        "outputs": {str(i): out for i, out in first.items()},
        "passes": passes,
        "env": _env(),
    }
    with open(out_path, "w") as fh:
        json.dump(result, fh)


def main(argv):
    mode, spec_path = argv[0], argv[1]
    with open(spec_path) as fh:
        spec = json.load(fh)
    if mode == "setup":
        _, dt, cal = _setup(spec)
        print(json.dumps({"setup_s": dt, "cal_s": cal}))
    elif mode == "run":
        run(spec, argv[2])
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
