"""Layered benchmark of the phonon-stats CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check [--workload NAME]

Run from the repository root. Each run builds the workload's argv lists from
the seed (workloads.py) and starts one fresh client process (worker.py) that
calls ``phonon_stats.cli.main(argv)`` in a closed loop for S seconds; three
more fresh processes then measure set-up again. After that, every output is
checked against mpmath references (checks.py).

Workloads (why each exists is in BENCHMARK.json):

* ``sweep``    one ``sweep --model auto`` over a 4 x 12 grid per call;
* ``reports``  one ``stats`` per point, 2/3 exact route, 1/3 ``--model hitemp``;
* ``curves``   ``figure 1, 2, 4, 4, 5`` with seeded ranges (observables only);
* ``validate`` the default ``validate`` plus RWA and pre-RWA oracle points.

``--trace 0`` prints the end-to-end metrics (setup_s, points_per_s,
peak_rss_mb, call_p50_ms); ``--trace 1`` alternates untraced and traced
passes and prints the per-layer metrics (spans.py). Times are scaled by a
calibration kernel timed in the same process (see worker.py). README.md
defines each metric. The lines before the last one give the metrics by name with their
units, the failure ratio, the tail latency with the percentile it was taken
at, and an environment stamp (lane, package versions, nproc, seed, git
commit). The last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 4
DEADLINE_S = 170.0
IMPORTTIME_SAMPLES = 3
# Fast-state time of worker.calibrate() on the 2-vCPU Xeon (2.1 GHz) sandbox
# the benchmark was written on. Times are reported in seconds of that state:
# measured seconds times CAL_NOMINAL_S over the mean calibration time taken
# in the same process during the measurement.
CAL_NOMINAL_S = 0.0034


class BenchError(Exception):
    """The benchmark could not produce a result (not a program failure)."""


def _python(args, timeout, env=None):
    try:
        proc = subprocess.run([sys.executable] + args, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT, env=env)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{args[:2]} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{args[:2]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def _git_commit() -> str:
    """HEAD of the checkout when it is a git repository, else 'unknown'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail_latency(samples: list[float]) -> tuple[float, int] | None:
    """(value, p) at the highest integer percentile p with >= 10 samples above.

    Nearest-rank: the value is the ceil(p N / 100)-th smallest sample.
    """
    n = len(samples)
    ordered = sorted(samples)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return ordered[rank - 1], p
    return None


def _judge(workload: dict, result: dict) -> dict:
    """Fold the client's samples and the checks into counts per run."""
    calls = workload["calls"]
    verdicts = {}
    for key, out in result["outputs"].items():
        call = calls[int(key)]
        verdicts[int(key)] = checks.check_call(call, out)
    attempted = failed = k2 = 0
    per_call = []
    notes = []
    for idx, _dt, rc, err, same, _pass in result["samples"]:
        pts = calls[idx]["points"]
        attempted += pts
        if rc != 0 or not same:
            bad = pts
            notes.append(f"call {idx}: exit {rc} {err or ''}"
                         + ("" if same else " output differs from its first run"))
        else:
            bad, why, k = verdicts[idx]
            k2 += k
            notes.extend(f"call {idx}: {w}" for w in why)
        failed += bad
        per_call.append(bad)
    return {"attempted": attempted, "failed": failed, "k2_points": k2, "notes": notes,
            "failed_per_call": per_call}


def _scale(cal_s: list[float]) -> float:
    """Factor from measured seconds to nominal seconds (see CAL_NOMINAL_S)."""
    return CAL_NOMINAL_S / statistics.fmean(cal_s)


def _setup_samples(spec_path, first: dict, n: int, deadline: float) -> list[dict]:
    """Set-up seconds and calibration samples of n fresh processes."""
    out = [first]
    for _ in range(n - 1):
        proc = _python([os.path.join(HERE, "worker.py"), "setup", spec_path],
                       deadline - time.monotonic())
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def _import_split(deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    runs = []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = _python(["-X", "importtime", "-c", "import phonon_stats.cli"],
                       deadline - time.monotonic(), env=env)
        runs.append(spans.parse_importtime(proc.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def _per_layer(result: dict, busy: list[float], scale: float,
               deadline: float) -> tuple[dict, bool]:
    """Per-layer metrics of a traced run; ``busy`` is each pass's time in main()."""
    passes = result["passes"]
    traced = [i for i, p in enumerate(passes) if p["traced"]]
    plain = [i for i, p in enumerate(passes) if not p["traced"]]
    counts = passes[traced[0]]["counts"]
    same = all(passes[i]["counts"] == counts for i in traced)
    times = {k: scale * statistics.fmean(passes[i]["times"][k] for i in traced)
             for k in passes[traced[0]]["times"]}
    overhead = (statistics.fmean(busy[i] for i in traced)
                / statistics.fmean(busy[i] for i in plain) - 1.0)
    imp = _import_split(deadline)
    m = {
        "cli.import_s": imp["total_s"],
        "cli.import.scipy_special_s": imp["scipy_special_s"],
        "cli.import.scipy_integrate_s": imp["scipy_integrate_s"],
        "cli.import.scipy_sparse_linalg_s": imp["scipy_sparse_linalg_s"],
        "cli.import.self_s": imp["self_s"],
        "trace.overhead_share": overhead,
    }
    m.update(counts)
    m.update(times)
    m.update(spans.derived(counts, times))
    return m, same


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """One benchmark run; returns (result line, details, workload, client output)."""
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "phonon_stats", "cli.py")):
        raise BenchError(f"no package source under {SRC}")
    bench = _benchmark_spec()
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    wanted = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]

    work = os.path.join(HERE, ".work", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        workload = workloads.build(name, seed, work, tiny=tiny)
        spec_path = os.path.join(work, "spec.json")
        out_path = os.path.join(work, "out.json")
        with open(spec_path, "w") as fh:
            json.dump({"src": SRC, "workload": workload, "seconds": seconds,
                       "trace": trace}, fh)
        _python([os.path.join(HERE, "worker.py"), "run", spec_path, out_path],
                deadline - time.monotonic())
        with open(out_path) as fh:
            result = json.load(fh)
        n_setup = 2 if tiny else SETUP_SAMPLES
        first = {"setup_s": result["setup_s"], "cal_s": result["setup_cal_s"]}
        setups = [] if trace else _setup_samples(spec_path, first, n_setup, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    judged = _judge(workload, result)
    samples = result["samples"]
    lat = [s[1] for s in samples]
    busy = [0.0] * len(result["passes"])
    good = [0] * len(result["passes"])
    for (idx, dt, _, _, _, n_pass), bad in zip(samples, judged["failed_per_call"]):
        busy[n_pass] += dt
        good[n_pass] += workload["calls"][idx]["points"] - bad
    tail = tail_latency(lat)
    details = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "points_attempted": judged["attempted"],
        "fail_ratio": judged["failed"] / judged["attempted"],
        "k2_points": judged["k2_points"],
        "calls": len(lat),
        "call_tail_ms": tail[0] * 1e3 * _scale(result["cal_s"]) if tail else None,
        "tail_percentile": tail[1] if tail else None,
        "notes": judged["notes"][:20],
        "env": dict(result["env"], nproc=len(os.sched_getaffinity(0)), seed=seed,
                    commit=_git_commit()),
    }
    correct = judged["failed"] == 0
    scale = _scale(result["cal_s"])
    details["scale"] = scale
    if trace:
        metrics, counts_repeat = _per_layer(result, busy, scale, deadline)
        details["counts_repeat"] = counts_repeat
        correct = correct and counts_repeat
    else:
        pass_rate = statistics.median(g / b for g, b in zip(good, busy))
        metrics = {
            "setup_s": statistics.median(s["setup_s"] * _scale(s["cal_s"]) for s in setups),
            "points_per_s": pass_rate / scale,
            "peak_rss_mb": result["peak_rss_mb"],
            "call_p50_ms": statistics.median(lat) * scale * 1e3,
        }
        details["measured"] = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "points_per_s": pass_rate,
            "call_p50_ms": statistics.median(lat) * 1e3,
        }
        details["passes"] = len(busy)
    line = {
        "correct": correct,
        "attempted": judged["attempted"],
        "failed": judged["failed"],
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in wanted},
    }
    return line, details, workload, result


def _print(line: dict, details: dict) -> None:
    d = details
    print(f"perfbench {d['workload']} seed={d['seed']} trace={d['trace']}")
    for k, v in line["metrics"].items():
        print(f"  {k:36s} {v['value']:.6g} {v['unit']}")
    print(f"  {'fail_ratio':36s} {d['fail_ratio']:.6g} ratio "
          f"({line['failed']} of {d['points_attempted']} points failed)")
    print(f"  {'k2_points':36s} {d['k2_points']} count (hitemp tail > {checks.K2_TAIL:g})")
    point = "point" if d["workload"] == "reports" else "call"
    if point == "point" and not d["trace"]:
        print(f"  {'point_p50_ms':36s} {line['metrics']['call_p50_ms']['value']:.6g} ms")
    if d["call_tail_ms"] is not None:
        print(f"  {point + '_tail_ms':36s} {d['call_tail_ms']:.6g} ms "
              f"(p{d['tail_percentile']} of {d['calls']} calls)")
    if "measured" in d:
        raw = ", ".join(f"{k} {v:.6g}" for k, v in d["measured"].items())
        print(f"  as measured: {raw}; {d['passes']} passes; scale {d['scale']:.4g}")
    for note in d["notes"]:
        print(f"  ! {note}")
    print("env " + json.dumps(d["env"], sort_keys=True))


def _record(line: dict, details: dict) -> None:
    """Keep every result with its stamp under perfbench/results/."""
    path = os.path.join(HERE, "results")
    os.makedirs(path, exist_ok=True)
    name = f"{details['workload']}-seed{details['seed']}-trace{details['trace']}.json"
    with open(os.path.join(path, name), "w") as fh:
        json.dump({"result": line, "details": details}, fh, indent=1, sort_keys=True)


def _corrupt(call: dict, out: dict) -> dict:
    """A copy of ``out`` with one checked value off by a relative 1e-6."""
    out = dict(out)
    if call["kind"] == "stats":
        d = json.loads(out["stdout"])
        d["n_ss"] *= 1.0 + 1e-6
        out["stdout"] = json.dumps(d)
    elif call["kind"] == "validate":
        d = json.loads(out["stdout"])
        d["points"][-1]["dev_n_ss"] = 2.0 * workloads.ORACLE_TOL[call["oracle"]]["n_ss"]
        out["stdout"] = json.dumps(d)
    else:
        key = "csv" if call["kind"] == "figure" else "stdout"
        lines = out[key].splitlines(keepends=True)
        row = lines[1].rstrip("\r\n")
        fields = row.split(",")
        col = 2 if call["kind"] == "figure" else 3
        fields[col] = repr(float(fields[col]) * (1.0 + 1e-6))
        lines[1] = ",".join(fields) + lines[1][len(row):]
        out[key] = "".join(lines)
    return out


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise BenchError(f"self-check: {what}")


def self_check(names) -> None:
    """Tiny runs of each workload: every metric printed with its unit, the
    counts of two traced runs identical, and a wrong value fed to the checks
    counted as a failure."""
    bench = _benchmark_spec()
    counted = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    for name in names:
        traced_counts = []
        for trace in (False, True, True):
            line, details, workload, result = run_workload(name, 1, 1.0, trace, tiny=True)
            _print(line, details)
            if trace:
                traced_counts.append([line["metrics"][k]["value"] for k in counted])
            want = bench["per_layer" if trace else "end_to_end"]
            for m in want:
                got = line["metrics"].get(m["name"])
                _expect(got is not None and got["unit"] == m["unit"]
                        and math.isfinite(got["value"]), f"{name}: metric {m['name']}")
            _expect(set(line["metrics"]) == {m["name"] for m in want}, f"{name}: extra metrics")
            _expect(line["correct"] and line["failed"] == 0, f"{name}: tiny run not correct")
        _expect(traced_counts[0] == traced_counts[1], f"{name}: counts differ between runs")
        call = workload["calls"][0]
        bad = _corrupt(call, result["outputs"]["0"])
        failed = checks.check_call(call, bad)[0]
        _expect(failed >= 1, f"{name}: a wrong value passed the checks")
        print(f"self-check {name}: ok (wrong value -> {failed} failed point)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Layered benchmark of the phonon-stats CLI.")
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="tiny run of each workload that tests the harness itself")
    args = ap.parse_args(argv)
    try:
        if args.self_check:
            self_check([args.workload] if args.workload else workloads.WORKLOADS)
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        line, details, _, _ = run_workload(args.workload, args.seed, args.seconds,
                                           bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    _print(line, details)
    _record(line, details)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
