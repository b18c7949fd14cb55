import importlib
import os
import subprocess
import sys
from pathlib import Path

import precis_lab
from precis_lab import bench, models
from precis_lab.diagnostics import assumption1_gamma, assumption2_gamma

IMPORT_ALL = """
import importlib, pkgutil, sys
import precis_lab
for module in pkgutil.iter_modules(precis_lab.__path__):
    importlib.import_module("precis_lab." + module.name)
print("scipy.optimize" in sys.modules)
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""

# A latent sweep with every method, then the two gamma diagnostics, whose
# factor and solves import scipy on first use.
SWEEP_THEN_GAMMA = """
import sys
from precis_lab import bench, models
from precis_lab.diagnostics import assumption1_gamma, assumption2_gamma
cfg = bench.SweepConfig("noise", grid=(0.1,), n=200, d1=2, d2=6, replicates=1)
records = bench.run_sweep(cfg)
print(sorted(r.method for r in records))
print(sorted(m for m in sys.modules if m.startswith("scipy")))
spec = models.LatentModelSpec(2, 6, 1.0, 0.01, models.random_a(2, 6, 1.0, 0.0, models.rng_for(1)))
model = models.latent_precision(spec)
print(repr(assumption1_gamma(model.precision, model.support)))
print(repr(assumption2_gamma(model.covariance, model.support)))
print("scipy.linalg" in sys.modules)
"""


def run_fresh(code: str) -> list[str]:
    """Output lines of ``code`` run in a fresh interpreter that imports this package."""
    src = str(Path(precis_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()


def test_package_does_not_import_scipy_optimize():
    # scipy.optimize adds about 21 MB of peak RSS to every worker process,
    # which is why CLIME has its own simplex; scipy.linalg adds 28 MB and
    # about 0.3 s to every start, which is why a SymMatrix is factored by
    # numpy
    optimize, loaded = run_fresh(IMPORT_ALL)
    assert optimize == "False"
    assert loaded == "[]"


def test_bench_and_cli_load_no_process_pool():
    # concurrent.futures pulls in multiprocessing, about 20 ms of every
    # start; only a sweep on more than one worker imports it
    loaded = run_fresh("import sys, precis_lab.bench, precis_lab.cli\n"
                       "print(sorted(m for m in sys.modules\n"
                       "             if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    assert loaded == ["[]"]


def test_latent_sweep_loads_no_scipy_and_gamma_loads_it_on_use():
    methods, loaded, gamma1, gamma2, linalg = run_fresh(SWEEP_THEN_GAMMA)
    assert methods == repr(sorted(bench.DEFAULT_METHODS))
    assert loaded == "[]"
    assert linalg == "True"
    # the same bits as in this process, where scipy was loaded up front
    spec = models.LatentModelSpec(2, 6, 1.0, 0.01, models.random_a(2, 6, 1.0, 0.0, models.rng_for(1)))
    model = models.latent_precision(spec)
    assert gamma1 == repr(assumption1_gamma(model.precision, model.support))
    assert gamma2 == repr(assumption2_gamma(model.covariance, model.support))


def test_benchmark_imports_and_traces_the_package(monkeypatch):
    # perfbench/ imports names from the package and replaces others with
    # traced wrappers; a rename that breaks either fails here
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    importlib.import_module("perfbench.checks")
    spans = importlib.import_module("perfbench.spans")
    spans.install(spans.Tracer())
    spans.uninstall()
