"""Spans around the calls into each precis-lab layer, and the per-layer metrics.

``install`` replaces functions at the names their callers look up
(``bench.calibrate_lambda``, ``estimators.solve_lp``, ``matops.cholesky``,
``diagnostics.cholesky`` ...) with wrappers that record a span: its name,
process, start, end and a few counts. Nothing inside ``src/precis_lab``
changes. A sweep task runs under a wrapper that hands the spans recorded
in its process back with its records, so spans from pool workers reach the
parent through the pool's own result channel; this needs the ``fork``
start method that ``bench._run_pool`` gets on Linux.

A span's self time is its duration minus the durations of its direct
children in the same process; a layer's self time sums that over the
layer's spans. The root span of a round covers the sweep calls and the
writers; its self time is the untraced remainder.
"""
from __future__ import annotations

import os
import time
from contextlib import contextmanager

from precis_lab import bench, diagnostics, estimators, matops, models

ROOT = "round"
LAYERS = ("bench", "models", "estimators", "simplex", "matops", "diagnostics")
TRACED_METHODS = ("glasso", "scio", "clime")

# Every per-layer metric, in output order, with its unit.
METRICS = (
    ("bench.task_s", "s"),
    ("bench.write_s", "s"),
    ("bench.outside_task_s", "s"),
    ("bench.pool_idle_s", "s"),
    ("models.model_s", "s"),
    ("models.gene_rejects", "count"),
    ("models.sample_s", "s"),
    ("models.load_expression_s", "s"),
    *((f"estimators.calibrate_s.{m}", "s") for m in estimators.METHODS),
    *((f"estimators.evals.{m}", "count") for m in TRACED_METHODS),
    *((f"estimators.s_per_eval.{m}", "s") for m in TRACED_METHODS),
    ("estimators.exact_ratio", "ratio"),
    ("estimators.scio_solves", "count"),
    ("estimators.scio_passes", "count"),
    ("estimators.scio_converged_ratio", "ratio"),
    ("simplex.solve_lp_s", "s"),
    ("simplex.lp_calls", "count"),
    ("simplex.pivots", "count"),
    ("simplex.s_per_pivot", "s"),
    ("matops.cholesky_s", "s"),
    ("matops.cholesky_calls", "count"),
    ("matops.cholesky_gflop", "GFLOP"),
    ("matops.invert_s", "s"),
    ("matops.kron_subblock_s", "s"),
    ("matops.kron_mb", "MB"),
    ("diagnostics.gamma_s", "s"),
    ("diagnostics.gamma_calls", "count"),
    ("diagnostics.support_dim_max", "count"),
    *((f"self_s.{layer}", "s") for layer in LAYERS),
    ("trace.sweep_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_s", "s"),
)

SPANS_ATTR = "_perfbench_spans"


class Tracer:
    """Spans recorded in this process, as (name, pid, start, end, info)."""

    def __init__(self):
        self.spans = []

    def record(self, name, start, end, info=None):
        self.spans.append((name, os.getpid(), start, end, info))

    @contextmanager
    def span(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, start, time.perf_counter())


_active: Tracer | None = None
_originals: dict = {}


def _wrapper(fn, name, info):
    def traced(*args, **kwargs):
        start = time.perf_counter()
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            end = time.perf_counter()
            _active.record(name, start, end, None if info is None or out is None
                           else info(args, out))
    return traced


def _run_task(fn, args):
    """Run a sweep task and attach the spans it recorded to its first record."""
    mark = len(_active.spans)
    start = time.perf_counter()
    try:
        records = fn(*args)
    finally:
        _active.record("bench.task", start, time.perf_counter())
    spans = _active.spans[mark:]
    del _active.spans[mark:]
    setattr(records[0], SPANS_ATTR, spans)
    return records


# Task wrappers live at module level so the pool can pickle them by name.
def traced_latent_task(*args):
    return _run_task(_originals[(bench, "_latent_task")], args)


def traced_gene_assumption_task(*args):
    return _run_task(_originals[(bench, "_gene_assumption_task")], args)


def _calibration(args, out):
    return {"method": args[0], "evals": out.evaluations, "exact": out.exact}


def _cholesky(args, out):
    return {"n": out.shape[0]}


_TARGETS = (
    (bench, "random_a", "models.model", None),
    (bench, "latent_precision", "models.model", None),
    (bench, "_gene_subset_model", "models.model", lambda a, out: {"rejects": out[1]}),
    (bench, "sample_mvn", "models.sample", None),
    (bench, "standardize", "models.sample", None),
    (bench, "sample_covariance", "models.sample", None),
    (bench, "calibrate_lambda", "estimators.calibrate", _calibration),
    (estimators, "scio_columns", "estimators.scio_columns",
     lambda a, out: {"passes": out[1], "converged": out[2]}),
    (estimators, "solve_lp", "simplex.solve_lp", lambda a, out: {"pivots": out.iterations}),
    (matops, "cholesky", "matops.cholesky", _cholesky),
    (models, "cholesky", "matops.cholesky", _cholesky),
    (diagnostics, "cholesky", "matops.cholesky", _cholesky),
    (estimators, "invert", "matops.invert", None),
    (models, "invert", "matops.invert", None),
    (diagnostics, "invert", "matops.invert", None),
    (matops, "kron_subblock", "matops.kron_subblock", lambda a, out: {"bytes": out.nbytes}),
    (bench, "assumption1_gamma", "diagnostics.gamma",
     lambda a, out: {"support_dim": a[1].dim + 2 * len(a[1])}),
)

_TASKS = (
    (bench, "_latent_task", traced_latent_task),
    (bench, "_gene_assumption_task", traced_gene_assumption_task),
)


def install(tracer: Tracer) -> None:
    """Put the wrappers in place; spans go to ``tracer`` until ``uninstall``."""
    global _active
    if _active is not None:
        raise RuntimeError("a tracer is already installed")
    _active = tracer
    for module, attr, name, info in _TARGETS:
        fn = getattr(module, attr)
        _originals[(module, attr)] = fn
        setattr(module, attr, _wrapper(fn, name, info))
    for module, attr, traced in _TASKS:
        _originals[(module, attr)] = getattr(module, attr)
        setattr(module, attr, traced)


def uninstall() -> None:
    global _active
    for (module, attr), fn in _originals.items():
        setattr(module, attr, fn)
    _originals.clear()
    _active = None


def collect(tracer: Tracer, results: dict) -> list:
    """All spans of a round: this process's, and those the tasks brought back."""
    spans = list(tracer.spans)
    tracer.spans.clear()
    for records in results.values():
        for record in records:
            spans.extend(record.__dict__.pop(SPANS_ATTR, ()))
    return spans


def _self_times(spans: list) -> list:
    """Self time of each span, in the order given."""
    child = [0.0] * len(spans)
    by_pid: dict = {}
    for k, span in enumerate(spans):
        by_pid.setdefault(span[1], []).append(k)
    for ks in by_pid.values():
        ks.sort(key=lambda k: (spans[k][2], -spans[k][3]))
        stack = []
        for k in ks:
            while stack and spans[stack[-1]][3] <= spans[k][2]:
                stack.pop()
            if stack:
                child[stack[-1]] += spans[k][3] - spans[k][2]
            stack.append(k)
    return [s[3] - s[2] - c for s, c in zip(spans, child)]


def _covered(intervals: list, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def round_metrics(spans: list, *, workers: int, untraced_sweep_s: float,
                  load_expression_s: float) -> dict:
    """Per-layer metrics of one traced round, by name."""
    self_s = _self_times(spans)
    dur: dict = {}
    own: dict = {}
    calls: dict = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    root = None
    for span, s in zip(spans, self_s):
        name = span[0]
        if name == ROOT:
            root = span
            untraced = s
            continue
        dur[name] = dur.get(name, 0.0) + span[3] - span[2]
        own[name] = own.get(name, 0.0) + s
        calls[name] = calls.get(name, 0) + 1
        layer_self[name.split(".")[0]] += s

    def infos(name):
        return [span[4] for span in spans if span[0] == name and span[4] is not None]

    def ratio(num, den):
        return num / den if den else 0.0

    calib = infos("estimators.calibrate")
    scio = infos("estimators.scio_columns")
    lps = infos("simplex.solve_lp")
    chol = infos("matops.cholesky")
    gamma = infos("diagnostics.gamma")
    tasks = [(span[2], span[3]) for span in spans if span[0] == "bench.task"]
    sweep_s = root[3] - root[2]
    m = {
        "bench.task_s": dur.get("bench.task", 0.0),
        "bench.write_s": dur.get("bench.write", 0.0),
        "bench.outside_task_s": sweep_s - _covered(tasks, root[2], root[3]),
        "bench.pool_idle_s": workers * untraced_sweep_s - dur.get("bench.task", 0.0),
        "models.model_s": dur.get("models.model", 0.0),
        "models.gene_rejects": sum(i["rejects"] for i in infos("models.model")),
        "models.sample_s": dur.get("models.sample", 0.0),
        "models.load_expression_s": load_expression_s,
    }
    for method in estimators.METHODS:
        m[f"estimators.calibrate_s.{method}"] = sum(
            span[3] - span[2] for span in spans
            if span[0] == "estimators.calibrate" and span[4] and span[4]["method"] == method)
    for method in TRACED_METHODS:
        m[f"estimators.evals.{method}"] = sum(i["evals"] for i in calib if i["method"] == method)
    for method in TRACED_METHODS:
        m[f"estimators.s_per_eval.{method}"] = ratio(
            m[f"estimators.calibrate_s.{method}"], m[f"estimators.evals.{method}"])
    m.update({
        "estimators.exact_ratio": ratio(sum(i["exact"] for i in calib), len(calib)),
        "estimators.scio_solves": calls.get("estimators.scio_columns", 0),
        "estimators.scio_passes": sum(i["passes"] for i in scio),
        "estimators.scio_converged_ratio": ratio(sum(i["converged"] for i in scio),
                                                 calls.get("estimators.scio_columns", 0)),
        "simplex.solve_lp_s": dur.get("simplex.solve_lp", 0.0),
        "simplex.lp_calls": calls.get("simplex.solve_lp", 0),
        "simplex.pivots": sum(i["pivots"] for i in lps),
        "matops.cholesky_s": dur.get("matops.cholesky", 0.0),
        "matops.cholesky_calls": calls.get("matops.cholesky", 0),
        "matops.cholesky_gflop": sum(i["n"] ** 3 / 3.0 for i in chol) / 1e9,
        "matops.invert_s": dur.get("matops.invert", 0.0),
        "matops.kron_subblock_s": dur.get("matops.kron_subblock", 0.0),
        "matops.kron_mb": sum(i["bytes"] for i in infos("matops.kron_subblock")) / 2**20,
        "diagnostics.gamma_s": own.get("diagnostics.gamma", 0.0),
        "diagnostics.gamma_calls": calls.get("diagnostics.gamma", 0),
        "diagnostics.support_dim_max": max((i["support_dim"] for i in gamma), default=0),
    })
    m["simplex.s_per_pivot"] = ratio(m["simplex.solve_lp_s"], m["simplex.pivots"])
    for layer in LAYERS:
        m[f"self_s.{layer}"] = layer_self[layer]
    m["trace.sweep_s"] = sweep_s
    m["trace.untraced_s"] = untraced
    m["trace.overhead_s"] = sweep_s - untraced_sweep_s
    return m
