"""Command-line front door.

Subcommands: generate, estimate, diagnose, bench-noise, bench-dim,
bench-gamma, bench-objective, gene-assumption, gene-precision. Benchmark
commands require an explicit --seed (no wall-clock seeding) and accept a
flat key=value config file whose entries are overridden by flags; a key
the command does not read, or one given twice, is an error. Usage errors
exit with status 2, data errors with 1.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from . import bench
from .diagnostics import REPORT_COLUMNS, consistency_report
from .errors import PrecisLabError
from .estimators import (
    METHODS,
    SUPPORT_EPSILON,
    EstimatorConfig,
    calibrate_lambda,
    clime,
    glasso,
    scio,
)
from .matops import SupportSet, read_matrix, read_sym_matrix, write_matrix
from .models import (
    LatentModelSpec,
    latent_precision,
    load_expression,
    random_a,
    rng_for,
    sample_covariance,
    sample_mvn,
    standardize,
    synthetic_expression,
    write_expression,
)


def _parse_floats(text: str) -> tuple:
    return tuple(float(t) for t in text.split(",") if t != "")

def _parse_ints(text: str) -> tuple:
    return tuple(int(t) for t in text.split(",") if t != "")

def _parse_methods(text: str) -> tuple:
    return tuple(t.strip() for t in text.split(",") if t.strip())

def _parse_bool(text: str) -> bool:
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def read_config_file(path, keys) -> dict:
    """Flat key = value text; '#' starts a comment, keys are dash/underscore
    insensitive. A key outside ``keys``, or one given twice, raises
    ValueError naming the file and line."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip().lower().replace("-", "_")
            if key not in keys:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}; "
                                 f"this command reads {', '.join(sorted(keys))}")
            if key in values:
                raise ValueError(f"{path}:{lineno}: key {key!r} given twice")
            values[key] = val.strip()
    return values


def _given(args, **parsers) -> dict:
    """The settings named in ``parsers`` that a flag or the --config file
    gives, a flag beating the file; the file's text goes through the
    setting's parser. A setting given by neither is left out, so the
    callee's own default applies."""
    file_values = getattr(args, "file_values", {})
    given = {}
    for name, parse in parsers.items():
        flag = getattr(args, name, None)
        if flag is not None:
            given[name] = flag
        elif name in file_values:
            given[name] = parse(file_values[name])
    return given


# The settings each bench command takes from a flag or the --config file,
# with the parser of their text. Each is a flag named after it, --k for
# replicates; a config file may set no other key.
# The SweepConfig fields of a latent bench command; each leaves out any it sets itself:
_SWEEP_SETTINGS = dict(
    grid=_parse_floats, n=int, d1=int, d2=int, sigma_x2=float, sigma_eps2=float,
    replicates=int, methods=_parse_methods, scale=float, sparsity=float,
    penalize_diagonal=_parse_bool, workers=int,
)
_NOISE_SETTINGS = {k: v for k, v in _SWEEP_SETTINGS.items() if k != "sigma_eps2"}
_OBJECTIVE_SETTINGS = {k: v for k, v in _NOISE_SETTINGS.items() if k != "methods"}
_GAMMA_SETTINGS = {k: v for k, v in _SWEEP_SETTINGS.items()
                   if k not in ("scale", "n", "methods")}
# The synthetic expression matrix, which generate also takes:
_SYNTHETIC_SETTINGS = dict(samples=int, genes=int, rank=int, noise_sd=float,
                           loading_sparsity=float)
# generate's settings for each --kind, the latent ones parsed by the type of
# their default, the model's defaults being the sweeps'; a flag of the other
# kind is an error:
_LATENT_DEFAULTS = {
    **{f.name: f.default for f in fields(bench.SweepConfig)
       if f.name in ("d1", "d2", "sigma_x2", "sigma_eps2", "scale", "sparsity")},
    "n": 0, "out_prefix": "model",
}
_GENERATE_SETTINGS = dict(
    latent={name: type(default) for name, default in _LATENT_DEFAULTS.items()},
    expression={**_SYNTHETIC_SETTINGS, "out": str},
)
_GENE_ASSUMPTION_SETTINGS = dict(dims=_parse_ints, subsets=int, delta=float,
                                 workers=int, cutoffs=_parse_floats)
_GENE_PRECISION_SETTINGS = dict(dims=_parse_ints, n_grid=_parse_ints, replicates=int,
                                delta=float, penalize_diagonal=_parse_bool, workers=int)

_FLAG_HELP = dict(
    grid="comma-separated swept values", replicates="replicates per grid point",
    n="sample size", scale="coupling matrix entry scale",
    sparsity="fraction of coupling entries zeroed", workers="process pool size",
    out_prefix="prefix of the latent model files", out="expression matrix path",
    penalize_diagonal="penalise the diagonal in glasso rows (other methods ignore it)",
)


def _add_setting_flags(p: argparse.ArgumentParser, settings: dict) -> None:
    for name, parse in settings.items():
        flag = "--k" if name == "replicates" else "--" + name.replace("_", "-")
        kind = dict(action="store_const", const=True) if parse is _parse_bool else dict(type=parse)
        p.add_argument(flag, dest=name, help=_FLAG_HELP.get(name), **kind)


def _write_sweep_outputs(records, experiment: str, out: str) -> None:
    bench.write_records(out, experiment, records)
    bench.write_summary(bench.summary_path(out), experiment, records)
    print(f"wrote {len(records)} rows to {out}")


def _synthetic(args, rng):
    """The synthetic expression matrix of the given settings; 600 samples
    of 150 genes unless --samples or --genes say otherwise."""
    kwargs = _given(args, **_SYNTHETIC_SETTINGS)
    return synthetic_expression(kwargs.pop("samples", 600), kwargs.pop("genes", 150),
                                rng=rng, **kwargs)


def _load_expression_arg(args):
    if getattr(args, "expression", None):
        data, _ = load_expression(args.expression, genes_in=args.genes_in)
        return data
    if not getattr(args, "synthetic", False):
        raise ValueError("provide --expression FILE or --synthetic")
    return _synthetic(args, rng_for(args.seed, 9000))


def _cmd_generate(args) -> int:
    other = "expression" if args.kind == "latent" else "latent"
    stray = [f"--{name.replace('_', '-')}" for name in _GENERATE_SETTINGS[other]
             if getattr(args, name) is not None]
    if stray:
        raise ValueError(f"--kind {args.kind} does not read {', '.join(stray)}")
    rng = rng_for(args.seed, 0)
    if args.kind == "latent":
        g = {**_LATENT_DEFAULTS, **_given(args, **_GENERATE_SETTINGS["latent"])}
        a = random_a(g["d1"], g["d2"], g["scale"], g["sparsity"], rng)
        model = latent_precision(
            LatentModelSpec(g["d1"], g["d2"], g["sigma_x2"], g["sigma_eps2"], a)
        )
        prefix = Path(g["out_prefix"])
        write_matrix(prefix.with_name(prefix.name + "_cov.txt"), model.covariance)
        write_matrix(prefix.with_name(prefix.name + "_prec.txt"), model.precision)
        with open(prefix.with_name(prefix.name + "_support.txt"), "w", newline="") as fh:
            for i, j in model.support.sorted_pairs():
                fh.write(f"{i} {j}\n")
        if g["n"]:
            data = sample_mvn(model.covariance, g["n"], rng)
            write_matrix(prefix.with_name(prefix.name + "_data.txt"), data)
        print(f"latent model p={model.covariance.dim} edges={len(model.support)}")
    else:
        data = _synthetic(args, rng)
        out = args.out or "expression.tsv"
        write_expression(out, data)
        print(f"expression matrix {data.shape[0]}x{data.shape[1]} -> {out}")
    return 0


def _cmd_estimate(args) -> int:
    if args.cov:
        s = read_sym_matrix(args.cov)
    else:
        s = sample_covariance(standardize(read_matrix(args.data)))
    if args.target_edges is not None:
        result = calibrate_lambda(args.method, s, args.target_edges,
                                  penalize_diagonal=args.penalize_diagonal).result
    elif args.method == "naive":
        raise ValueError("the naive method needs --target-edges")
    elif args.lam is None:
        raise ValueError("provide --lam or --target-edges")
    else:
        solver = {"glasso": glasso, "clime": clime, "scio": scio}[args.method]
        config = EstimatorConfig(lam=args.lam, penalize_diagonal=args.penalize_diagonal)
        result = solver(s, config)
    if args.out:
        write_matrix(args.out, result.omega)
    print(
        f"method={args.method} lambda={result.lambda_used:.6g} "
        f"edges={len(result.support)} iterations={result.iterations} "
        f"converged={result.converged}"
    )
    return 0


def _cmd_diagnose(args) -> int:
    precision = read_sym_matrix(args.precision)
    support = SupportSet.from_matrix(precision, eps=args.support_eps)
    cov = read_sym_matrix(args.covariance) if args.covariance else None
    report = consistency_report(precision, support, cov,
                                use_row_sums=args.row_sums)
    text = ",".join(REPORT_COLUMNS) + "\n" + report.csv_row() + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_bench(args) -> int:
    """A latent sweep: the given settings over the defaults of its row of
    ``bench.EXPERIMENTS`` (its grid, and glasso alone where it fits only that)."""
    swept, grid, glasso_only = bench.EXPERIMENTS[args.experiment]
    if swept in ("d1", "d2") and _given(args, **{swept: int}):
        raise ValueError(f"--axis {args.experiment} sweeps {swept}: give its values with --grid")
    defaults = dict(grid=grid, methods=("glasso",)) if glasso_only else dict(grid=grid)
    cfg = bench.SweepConfig(experiment=args.experiment, master_seed=args.seed,
                            **{**defaults, **_given(args, **_SWEEP_SETTINGS)})
    _write_sweep_outputs(bench.run_sweep(cfg), args.experiment, args.out)
    return 0


def _cmd_gene_assumption(args) -> int:
    kwargs = _given(args, **_GENE_ASSUMPTION_SETTINGS)
    written = {"cutoffs": kwargs.pop("cutoffs")} if "cutoffs" in kwargs else {}
    if written:
        bench.fraction_columns(written["cutoffs"])  # a bad cutoff fails before any subset
    expression = _load_expression_arg(args)
    if "subsets" in kwargs:
        kwargs["subsets_per_dim"] = kwargs.pop("subsets")
    records = bench.run_gene_assumption(expression, master_seed=args.seed, **kwargs)
    bench.write_gene_assumption(args.out, records, **written)
    print(f"wrote {len(records)} rows to {args.out}")
    return 0


def _cmd_gene_precision(args) -> int:
    expression = _load_expression_arg(args)
    records = bench.run_gene_precision(expression, master_seed=args.seed,
                                       **_given(args, **_GENE_PRECISION_SETTINGS))
    _write_sweep_outputs(records, "gene-precision", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="precis-lab",
        description="Sparse precision-matrix structure learning lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a ground-truth model or expression matrix")
    p.add_argument("--kind", choices=("latent", "expression"), default="latent")
    p.add_argument("--seed", type=int, required=True)
    for settings in _GENERATE_SETTINGS.values():
        _add_setting_flags(p, settings)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("estimate", help="run one estimator on a covariance or data file")
    p.add_argument("--method", choices=METHODS, required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--cov", help="covariance matrix file")
    src.add_argument("--data", help="raw data file (standardized internally)")
    penalty = p.add_mutually_exclusive_group()
    penalty.add_argument("--lam", type=float, help="regularisation parameter")
    penalty.add_argument("--target-edges", type=int, dest="target_edges",
                         help="calibrate lambda to this edge count")
    p.add_argument("--penalize-diagonal", action="store_true",
                   help="penalise the diagonal too (glasso only)")
    p.add_argument("--out", help="write the estimated precision matrix here")
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("diagnose", help="consistency-condition report for a precision matrix")
    p.add_argument("--precision", required=True)
    p.add_argument("--covariance", help="optional; inverse of precision when omitted")
    p.add_argument("--support-eps", type=float, default=SUPPORT_EPSILON,
                   dest="support_eps")
    p.add_argument("--row-sums", action="store_true", dest="row_sums")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_diagnose)

    for name, fn, settings in (
        ("bench-noise", _cmd_bench, _NOISE_SETTINGS),
        ("bench-dim", _cmd_bench, _SWEEP_SETTINGS),
        ("bench-gamma", _cmd_bench, _GAMMA_SETTINGS),
        ("bench-objective", _cmd_bench, _OBJECTIVE_SETTINGS),
        ("gene-assumption", _cmd_gene_assumption,
         {**_GENE_ASSUMPTION_SETTINGS, **_SYNTHETIC_SETTINGS}),
        ("gene-precision", _cmd_gene_precision,
         {**_GENE_PRECISION_SETTINGS, **_SYNTHETIC_SETTINGS}),
    ):
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--seed", type=int, required=True, help="master seed (required)")
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument("--config", help="flat key=value config file")
        _add_setting_flags(p, settings)
        if name == "bench-dim":
            p.add_argument("--axis", dest="experiment", choices=("outdim", "indim"),
                           default="outdim")
        elif name.startswith("bench-"):
            p.set_defaults(experiment=name.removeprefix("bench-"))
        elif name.startswith("gene-"):
            p.add_argument("--expression", help="expression matrix file")
            p.add_argument("--genes-in", choices=("columns", "rows"),
                           default="columns", dest="genes_in")
            p.add_argument("--synthetic", action="store_true",
                           help="use the bundled synthetic expression generator")
        p.set_defaults(fn=fn, file_keys=frozenset(settings))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "estimate" and args.penalize_diagonal and args.method != "glasso":
        parser.error("--penalize-diagonal applies to --method glasso only")
    try:
        if getattr(args, "config", None):
            args.file_values = read_config_file(args.config, args.file_keys)
        return args.fn(args)
    except (PrecisLabError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
