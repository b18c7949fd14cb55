"""Sparse precision-matrix structure learning lab.

Estimators (glasso, CLIME, SCIO, thresholded inverse), ground-truth model
generators, consistency-condition diagnostics, recovery metrics and a
reproducible benchmark harness with a CSV-emitting CLI.
"""

__version__ = "0.1.0"
