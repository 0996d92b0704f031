"""Spans and exact counts around calls into shelab's public functions.

The benchmark records spans from outside the program: while a
:class:`Tracer` is installed, every name listed in :data:`TARGETS` is
replaced, in each shelab module whose globals hold it (and on the owning
class for methods), by a wrapper that records a span and the call's work
counts.  Uninstalling restores the original objects, so untraced ops run
the unmodified program.

A span is ``[name_id, parent, start, end]``; the benchmark opens one root
span named ``op`` per op.  A span's self time is its duration minus the
time its child spans cover.  The program is driven single-threaded, so a
stack gives each span its parent.
"""
from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
from collections import defaultdict

import numpy as np

from shelab.solver import BlowupError


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_normals(c, args, kwargs, out):
    c["noise.normals"] += int(np.size(args[0]))


def _count_streams(c, args, kwargs, out):
    c["noise.streams"] += 1


def _count_coarsen(c, args, kwargs, out):
    c["noise.coarsen_cells"] += int(np.size(args[0]))


def _count_apply(c, args, kwargs, out):
    op, u, xi = args[0], args[1], args[2]
    c["solver.apply_calls"] += 1
    c["solver.cell_steps"] += int(np.size(u))
    # Computed, not measured: the arrays the call reads and returns plus
    # the operator's own arrays (mode factors or any matrices it holds).
    operator_bytes = sum(v.nbytes for v in vars(op).values() if isinstance(v, np.ndarray))
    c["solver.bytes_computed"] += int(np.asarray(u).nbytes + np.asarray(xi).nbytes
                                      + out.nbytes + operator_bytes)


def _count_recursion(c, args, kwargs, out):
    steps = int(_arg(args, kwargs, 3, "steps"))
    c["moments.recursion_steps"] += steps
    c["moments.recursion_cell_steps"] += steps * int(_arg(args, kwargs, 0, "grid").n)


def _counter(key):
    def count(c, args, kwargs, out):
        c[key] += 1
    return count


def _count_discrete_root(c, args, kwargs, out):
    c["renewal.roots"] += 1
    c["renewal.discrete_roots"] += 1


def _count_checks(c, args, kwargs, out):
    c["checks.results"] += len(out)


def _count_output(c, args, kwargs, out):
    c["output.files"] += 1
    c["output.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


# (module, attribute, class or None, count function).  A function is
# wrapped wherever a shelab module's globals hold it; a method on its class.
TARGETS = [
    ("shelab.noise", "bit_generator", "NoiseSeed", _count_streams),
    ("shelab.noise", "sample_block", None, None),
    ("shelab.noise", "normals_from_raw", None, _count_normals),
    ("shelab.noise", "coarsen_array", None, _count_coarsen),
    ("shelab.solver", "apply", "StepOperator", _count_apply),
    ("shelab.moments", "mc_moment", None, None),
    ("shelab.moments", "exact_second_moment_recursion", None, _count_recursion),
    ("shelab.moments", "second_moment_series", None, None),
    ("shelab.moments", "fit_growth", None, _counter("moments.fit_calls")),
    ("shelab.moments", "lambda_scaling_sweep", None, None),
    ("shelab.moments", "intermittency_report", None, None),
    ("shelab.renewal", "continuous_mu", None, _counter("renewal.roots")),
    ("shelab.renewal", "discrete_mu", None, _count_discrete_root),
    ("shelab.renewal", "sqrt_exp_series", None, _counter("renewal.series_evals")),
    ("shelab.convergence", "green_error_full", None, _counter("convergence.kernel_integrals")),
    ("shelab.convergence", "green_error_semi", None, _counter("convergence.kernel_integrals")),
    ("shelab.convergence", "strong_error_study", None, None),
    ("shelab.kernels", "spectral_basis", None, _counter("kernels.calls")),
    ("shelab.kernels", "heat_kernel", None, _counter("kernels.calls")),
    ("shelab.kernels", "heat_kernel_square_integral", None, _counter("kernels.calls")),
    ("shelab.kernels", "semi_green", None, _counter("kernels.calls")),
    ("shelab.kernels", "semi_green_square_integral", None, _counter("kernels.calls")),
    ("shelab.kernels", "semi_green_grid", None, _counter("kernels.calls")),
    ("shelab.kernels", "full_green", None, _counter("kernels.calls")),
    ("shelab.kernels", "full_green_square_integral", None, _counter("kernels.calls")),
    ("shelab.kernels", "full_green_grid", None, _counter("kernels.calls")),
    ("shelab.stability", "positivity_time_full", None, _counter("stability.positivity_calls")),
    ("shelab.stability", "positivity_time_semi", None, _counter("stability.positivity_calls")),
    ("shelab.checks", "lemma_suite", None, _count_checks),
    ("shelab.model", "validate_run_config", None, _counter("model.validate_calls")),
    ("shelab.cli", "main", None, None),
    ("shelab.output", "write_csv", None, _count_output),
    ("shelab.output", "svg_plot", None, _count_output),
]

MODULES = ("shelab", "shelab.model", "shelab.kernels", "shelab.stability", "shelab.noise",
           "shelab.solver", "shelab.moments", "shelab.renewal", "shelab.convergence",
           "shelab.checks", "shelab.output", "shelab.cli")


def span_name(module: str, attr: str, cls: str | None) -> str:
    layer = module.split(".")[-1]
    return f"{layer}.{cls}.{attr}" if cls else f"{layer}.{attr}"


# Per-layer self times: metric -> span names whose self time it sums.
SELF_TIMES = {
    "noise.normals_s": ["noise.normals_from_raw"],
    "noise.stream_setup_s": ["noise.NoiseSeed.bit_generator"],
    "noise.coarsen_s": ["noise.coarsen_array"],
    "solver.apply_s": ["solver.StepOperator.apply"],
    "moments.mc_self_s": ["moments.mc_moment"],
    "moments.recursion_s": ["moments.exact_second_moment_recursion"],
    "moments.fit_s": ["moments.fit_growth"],
    "renewal.root_s": ["renewal.continuous_mu", "renewal.discrete_mu"],
    "renewal.series_s": ["renewal.sqrt_exp_series"],
    "convergence.kernel_integral_s": ["convergence.green_error_full",
                                      "convergence.green_error_semi"],
    "convergence.strong_self_s": ["convergence.strong_error_study"],
    "kernels.s": [span_name(m, a, c) for m, a, c, _ in TARGETS if m == "shelab.kernels"],
    "stability.positivity_s": ["stability.positivity_time_full",
                               "stability.positivity_time_semi"],
    "checks.suite_s": ["checks.lemma_suite"],
    "model.validate_s": ["model.validate_run_config"],
    "cli.self_s": ["cli.main"],
    "output.write_s": ["output.write_csv", "output.svg_plot"],
}

COUNTS = ["noise.normals", "noise.streams", "noise.coarsen_cells", "solver.apply_calls",
          "solver.cell_steps", "solver.bytes_computed", "solver.blowups",
          "moments.recursion_steps", "moments.fit_calls", "renewal.roots",
          "renewal.series_evals", "convergence.kernel_integrals", "kernels.calls",
          "stability.positivity_calls", "checks.results", "model.validate_calls",
          "output.files", "output.bytes_written"]

# rate metric -> (count, self-time metric)
RATES = {
    "noise.normals_per_s": ("noise.normals", "noise.normals_s"),
    "noise.coarsen_cells_per_s": ("noise.coarsen_cells", "noise.coarsen_s"),
    "solver.cell_steps_per_s": ("solver.cell_steps", "solver.apply_s"),
}

PER_LAYER_UNITS = {**{k: "s" for k in SELF_TIMES}, **{k: "count" for k in COUNTS},
                   **{k: "1/s" for k in RATES}, "solver.bytes_computed": "B",
                   "output.bytes_written": "B",
                   "renewal.series_evals_per_root": "count"}


class Tracer:
    """In-memory span and count recorder for one benchmark process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: defaultdict = defaultdict(int)
        self._patched: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> list:
        rec = [name_id, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list):
        rec[3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        name_id = self._id(name)
        counts = self.counts
        # a blow-up is counted where it is raised, not at every span it leaves
        blowup_key = "solver.blowups" if name == "solver.StepOperator.apply" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name_id)
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    count(counts, args, kwargs, out)
                return out
            except BlowupError:
                if blowup_key:
                    counts[blowup_key] += 1
                raise
            finally:
                self._close(rec)

        return traced

    def install(self):
        """Replace every target where shelab looks it up."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(m) for m in MODULES]
        for module, attr, cls, count in TARGETS:
            owner = importlib.import_module(module)
            name = span_name(module, attr, cls)
            if cls:
                klass = getattr(owner, cls)
                original = klass.__dict__[attr]
                self._patched.append((klass, attr, original))
                setattr(klass, attr, self.wrap(name, original, count))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, count)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def run_op(self, fn):
        """Run one op under a root span; return (result, OpProfile)."""
        first = len(self.spans)
        self.counts.clear()
        self.install()
        try:
            rec = self._open(self._id("op"))
            try:
                result = fn()
            finally:
                self._close(rec)
        finally:
            self.uninstall()
        return result, OpProfile(self, first, dict(self.counts))

    def dump(self) -> dict:
        return {"names": self.names, "columns": ["name_id", "parent", "start_s", "end_s"],
                "spans": self.spans}


class OpProfile:
    """Self time per span name and the counts of one traced op."""

    def __init__(self, tracer: Tracer, first: int, counts: dict):
        spans = tracer.spans[first:]
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[1] >= first:
                child[rec[1] - first] += rec[3] - rec[2]
        self.self_s: defaultdict = defaultdict(float)
        self.calls: defaultdict = defaultdict(int)
        for rec, inner in zip(spans, child):
            name = tracer.names[rec[0]]
            self.self_s[name] += rec[3] - rec[2] - inner
            self.calls[name] += 1
        root = spans[0]
        self.op_s = root[3] - root[2]
        self.counts = {k: int(counts.get(k, 0)) for k in COUNTS}
        self.extra_counts = {k: int(v) for k, v in counts.items() if k not in COUNTS}


def layer_metrics(profiles: list[OpProfile]) -> dict:
    """Per-layer metrics over the traced ops: counts per op (the run checks
    they are identical on every op), median self time per op, and rates."""
    counts = profiles[0].counts
    out = dict(counts)
    for metric, names in SELF_TIMES.items():
        out[metric] = statistics.median(sum(p.self_s.get(n, 0.0) for n in names)
                                        for p in profiles)
    for metric, (count, seconds) in RATES.items():
        out[metric] = counts[count] / out[seconds] if out[seconds] > 0 else 0.0
    # only discrete roots evaluate the series
    roots = profiles[0].extra_counts.get("renewal.discrete_roots", 0)
    out["renewal.series_evals_per_root"] = counts["renewal.series_evals"] / roots if roots else 0.0
    return out


def function_breakdown(profiles: list[OpProfile]) -> dict:
    """Median self time and calls per op for every span name seen."""
    names = sorted({n for p in profiles for n in p.self_s})
    return {n: {"self_s": statistics.median(p.self_s.get(n, 0.0) for p in profiles),
                "calls": statistics.median(p.calls.get(n, 0) for p in profiles)}
            for n in names}
