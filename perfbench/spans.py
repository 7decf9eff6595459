"""Spans around the public functions of each package module (the layers).

The wrappers live here, not in the package: ``Tracer.install`` swaps module
attributes for timed wrappers and ``Tracer.uninstall`` puts the originals back,
so untraced passes run the package unmodified. Spans nest (one thread), so a
span's self time is its duration minus its direct children's durations.

Counts recorded at the same boundaries repeat exactly for a given argv list:
series and population terms, population levels, moment orders and methods,
Liouvillian dimensions and nnz, ladder rungs.
"""

from __future__ import annotations

import time
from collections import Counter

# (module, attribute, span name) for every wrapped public function
TARGETS = (
    ("exact", "steady_state_exact", "exact.report"),
    ("exact", "phonon_populations_exact", "exact.populations"),
    ("exact", "mean_phonon_exact", "exact.observables"),
    ("exact", "g2_exact", "exact.observables"),
    ("exact", "recip_gamma_series", "kernels.series"),
    ("specfun", "recip_gamma_series", "kernels.series"),
    ("_kernels", "population_logsums", "kernels.population"),
    ("hitemp", "steady_state_hitemp", "hitemp.report"),
    ("hitemp", "mean_phonon_hitemp", "hitemp.observables"),
    ("hitemp", "g2_hitemp", "hitemp.observables"),
    ("hitemp", "gaussian_quartic_moments", "hitemp.moments"),
    ("lindblad", "build_reduced_liouvillian", "lindblad.build"),
    ("lindblad", "build_two_mode_rwa_liouvillian", "lindblad.build"),
    ("lindblad", "build_prerwa_liouvillian", "lindblad.build"),
    ("lindblad", "steady_state", "lindblad.solve"),
    ("lindblad", "observables", "lindblad.observables"),
    ("lindblad", "converge_truncation", "lindblad.ladder"),
)


def _record(tr: "Tracer", name: str, idx: int, args, result) -> None:
    """Counts taken from one finished span's arguments and result."""
    c = tr.counts
    if name == "exact.populations":
        c["exact.populations.levels"] += len(result)
        c["levels_computed"] += len(result)
    elif name == "kernels.series":
        c["kernels.series.terms"] += result.terms_used
    elif name == "kernels.population":
        c["kernels.population.terms"] += int(result[1])
    elif name == "hitemp.report":
        c["levels_computed"] += len(result.populations)
        tail = float(result.diagnostics["population_tail"])
        tr.tail_max = max(tr.tail_max, tail)
    elif name == "hitemp.moments":
        c["hitemp.moments.orders"] += result.n_max + 1
        c["hitemp.moments.quadrature"] += result.method == "quadrature"
    elif name == "lindblad.build":
        c["lindblad.build.nnz"] += result.matrix.nnz
    elif name == "lindblad.solve":
        c["lindblad.solve.dim_max"] = max(c["lindblad.solve.dim_max"], args[0].dim ** 2)
    elif name == "lindblad.ladder":
        c["lindblad.ladder.rungs"] += sum(
            1 for s in tr.spans[idx + 1:] if s[0] == "lindblad.solve"
        )
        c["lindblad.ladder.converged"] += 1


class Tracer:
    """In-memory spans ``[name, parent, start, end]`` plus exact counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.tail_max = 0.0
        self._saved: list[tuple] = []

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, self.stack[-1] if self.stack else -1,
                               time.perf_counter(), None])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][3] = time.perf_counter()
                self.stack.pop()
            _record(self, name, idx, args, result)
            return result

        return traced

    def install(self, package) -> None:
        import importlib

        for mod_name, attr, span in TARGETS:
            mod = importlib.import_module(f"{package.__name__}.{mod_name}")
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(span, orig))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: calls, inclusive seconds, self seconds."""
        calls, incl, child = Counter(), Counter(), Counter()
        for name, parent, t0, t1 in self.spans:
            calls[name] += 1
            incl[name] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        own = Counter()
        for i, (name, _, t0, t1) in enumerate(self.spans):
            own[name] += (t1 - t0) - child[i]
        return calls, incl, own


def _ratio(num: float, den: float, empty: float) -> float:
    return num / den if den else empty


def layer_metrics(tr: Tracer, levels_used: int) -> tuple[dict, dict]:
    """Per-layer (counts, times) of one traced pass.

    ``levels_used`` is the number of population levels the commands wrote
    out or compared; it is known only to the caller, which sees the output.
    """
    calls, incl, own = tr.totals()
    c = tr.counts
    levels = c["levels_computed"]
    counts = {
        "cli.main.calls": calls["cli.main"],
        "cli.population_levels_unused": levels - levels_used,
        "exact.report.calls": calls["exact.report"],
        "exact.populations.calls": calls["exact.populations"],
        "exact.populations.levels": c["exact.populations.levels"],
        "exact.observables.calls": calls["exact.observables"],
        "kernels.series.calls": calls["kernels.series"],
        "kernels.series.terms": c["kernels.series.terms"],
        "kernels.population.calls": calls["kernels.population"],
        "kernels.population.terms": c["kernels.population.terms"],
        "hitemp.observables.calls": calls["hitemp.observables"],
        "hitemp.moments.calls": calls["hitemp.moments"],
        "hitemp.moments.orders": c["hitemp.moments.orders"],
        "hitemp.moments.quadrature": c["hitemp.moments.quadrature"],
        "hitemp.populations.tail_max": tr.tail_max,
        "lindblad.build.calls": calls["lindblad.build"],
        "lindblad.build.nnz": c["lindblad.build.nnz"],
        "lindblad.solve.calls": calls["lindblad.solve"],
        "lindblad.solve.dim_max": c["lindblad.solve.dim_max"],
        "lindblad.ladder.calls": calls["lindblad.ladder"],
        "lindblad.ladder.rungs": c["lindblad.ladder.rungs"],
        "lindblad.ladder.converged": c["lindblad.ladder.converged"],
        "levels_computed": levels,
        "levels_used": levels_used,
    }
    times = {
        "cli.main.self_s": own["cli.main"],
        "exact.report.self_s": own["exact.report"],
        "exact.populations.time_s": incl["exact.populations"],
        "exact.observables.time_s": incl["exact.observables"],
        "kernels.series.time_s": incl["kernels.series"],
        "kernels.population.time_s": incl["kernels.population"],
        "hitemp.observables.time_s": incl["hitemp.observables"],
        "hitemp.moments.time_s": incl["hitemp.moments"],
        "lindblad.build.time_s": incl["lindblad.build"],
        "lindblad.solve.time_s": incl["lindblad.solve"],
        "lindblad.observables.time_s": incl["lindblad.observables"],
    }
    return counts, times


def derived(counts: dict, times: dict) -> dict:
    """Ratios built from one pass's counts and (averaged) times."""
    return {
        "cli.population_use_share": _ratio(counts["levels_used"], counts["levels_computed"], 1.0),
        "kernels.series.terms_per_s": _ratio(counts["kernels.series.terms"],
                                             times["kernels.series.time_s"], 0.0),
        "kernels.population.terms_per_s": _ratio(counts["kernels.population.terms"],
                                                 times["kernels.population.time_s"], 0.0),
        "hitemp.moments.quadrature_share": _ratio(counts["hitemp.moments.quadrature"],
                                                  counts["hitemp.moments.calls"], 0.0),
        "lindblad.ladder.useful_share": _ratio(counts["lindblad.ladder.converged"],
                                               counts["lindblad.ladder.rungs"], 0.0),
    }


def parse_importtime(stderr: str, root: str = "phonon_stats.cli") -> dict:
    """Split ``python -X importtime -c 'import <root>'`` into the layer's parts.

    Returns seconds for the whole import and for the first import of
    scipy.special, scipy.integrate and scipy.sparse.linalg, each less any of
    the others nested inside it; ``self`` is what remains.
    """
    targets = {"scipy.special": "scipy_special_s", "scipy.integrate": "scipy_integrate_s",
               "scipy.sparse.linalg": "scipy_sparse_linalg_s"}
    stack = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line.split("|", 2)
        try:
            cum_us = int(cum)
        except ValueError:  # the header line
            continue
        label = name[1:]
        level = (len(label) - len(label.lstrip(" "))) // 2
        node = {"name": label.strip(), "cum": cum_us * 1e-6, "kids": []}
        while stack and stack[-1][0] > level:
            node["kids"].append(stack.pop()[1])
        stack.append((level, node))
    top = [node for level, node in stack if level == 0 and node["name"] == root]
    if not top:
        raise ValueError(f"no top-level import of {root} in -X importtime output")

    out = {v: 0.0 for v in targets.values()}

    def walk(node, owner):
        key = targets.get(node["name"])
        if key is not None:
            out[key] += node["cum"]
            if owner is not None:
                out[owner] -= node["cum"]
            owner = key
        for kid in node["kids"]:
            walk(kid, owner)

    walk(top[0], None)
    total = top[0]["cum"]
    out["self_s"] = total - sum(out[v] for v in targets.values())
    out["total_s"] = total
    return out
