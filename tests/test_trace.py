"""The benchmark's trace wrappers see the calls of the layers they stand for.

perfbench/spans.py replaces functions at the names their callers look up.
A caller that imports such a function by name under another module's
binding goes around its wrapper, and the layer's metrics silently read 0.
"""
import importlib
from pathlib import Path

import pytest

TRACED = ("diagnostics.gamma", "matops.kron_subblock", "matops.cholesky",
          "estimators.calibrate", "simplex.solve_lp")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    return (importlib.import_module("perfbench.spans"),
            importlib.import_module("perfbench.workloads"))


def test_smoke_rounds_record_a_span_in_every_layer(perfbench, tmp_path):
    spans, workloads = perfbench
    workloads.prepare(tmp_path)
    tracer = spans.Tracer()
    names = set()
    spans.install(tracer)
    try:
        for workload in ("gene-assumption", "latent-lownoise"):
            inputs = workloads.setup(workload, 1, "smoke", tmp_path)
            out_dir = tmp_path / workload
            out_dir.mkdir()
            results = workloads.run_round(inputs, out_dir, span=tracer.span)
            names.update(span[0] for span in spans.collect(tracer, results))
    finally:
        spans.uninstall()
    assert set(TRACED) <= names, sorted(set(TRACED) - names)
