import importlib
import os
import subprocess
import sys
from pathlib import Path

import precis_lab

IMPORT_ALL = """
import importlib, pkgutil, sys
import precis_lab
for module in pkgutil.iter_modules(precis_lab.__path__):
    importlib.import_module("precis_lab." + module.name)
print("scipy.optimize" in sys.modules)
"""


def test_package_does_not_import_scipy_optimize():
    # scipy.optimize adds about 21 MB of peak RSS to every worker process,
    # which is why CLIME has its own simplex
    src = str(Path(precis_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", IMPORT_ALL], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False"]


def test_benchmark_imports_and_traces_the_package(monkeypatch):
    # perfbench/ imports names from the package and replaces others with
    # traced wrappers; a rename that breaks either fails here
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    importlib.import_module("perfbench.checks")
    spans = importlib.import_module("perfbench.spans")
    spans.install(spans.Tracer())
    spans.uninstall()
