import math
from dataclasses import fields, replace

import numpy as np
import pytest

from precis_lab import bench, cli, matops
from precis_lab.errors import NotPositiveDefinite, ResampleExhausted, SingularGamma
from precis_lab.matops import SymMatrix, write_matrix
from precis_lab.models import rng_for, seed_fingerprint, synthetic_expression


def tiny_cfg(**overrides):
    base = dict(
        experiment="noise",
        grid=(0.1, 1.0),
        n=120,
        d1=2,
        d2=5,
        replicates=2,
        master_seed=7,
        methods=("glasso", "scio", "naive"),
    )
    base.update(overrides)
    return bench.SweepConfig(**base)


EXPRESSION = synthetic_expression(120, 30, rank=4, rng=rng_for(5))

# A small config of each latent experiment.
LATENT_CFGS = {
    "noise": dict(),
    "outdim": dict(experiment="outdim", grid=(4.0, 6.0)),
    "indim": dict(experiment="indim", grid=(1.0, 2.0)),
    "gamma": dict(experiment="gamma", grid=(0.05, 0.5), methods=("glasso",)),
    "objective": dict(experiment="objective", methods=("glasso",)),
}


def _tag(kind, records):
    for r in records:
        r.tag = kind
    return records


# Stand-ins for the task functions that mark their records, as a tracer's
# wrappers do; module level, so that a process pool can pickle them.
_TASKS = {"latent": bench._latent_task, "gamma": bench._gamma_task}


def tagged_latent_task(*args):
    return _tag("latent", _TASKS["latent"](*args))


def tagged_gamma_task(*args):
    return _tag("gamma", _TASKS["gamma"](*args))


# Every sweep runner, as a function of the worker count.
RUNNERS = {
    **{name: (lambda workers, kw=kw: bench.run_sweep(tiny_cfg(workers=workers, **kw)))
       for name, kw in LATENT_CFGS.items()},
    "gene-precision": lambda workers: bench.run_gene_precision(
        EXPRESSION, dims=(4, 6), n_grid=(100,), replicates=2, master_seed=7,
        workers=workers),
}


class TestSweepMachinery:
    def test_row_count_and_sorting(self):
        cfg = tiny_cfg()
        records = bench.run_sweep(cfg)
        assert len(records) == len(cfg.grid) * cfg.replicates * len(cfg.methods)
        keys = [(r.value, r.n, r.method, r.replicate) for r in records]
        assert keys == sorted(keys)

    @staticmethod
    def _rows(records):
        return [
            ",".join(bench._fmt(getattr(r, col)) for col in bench.RECORD_COLUMNS)
            for r in records
        ]

    def test_deterministic_rerun(self):
        r1 = bench.run_sweep(tiny_cfg())
        r2 = bench.run_sweep(tiny_cfg())
        assert self._rows(r1) == self._rows(r2)

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_parallel_matches_serial(self, runner):
        serial = RUNNERS[runner](1)
        parallel = RUNNERS[runner](2)
        assert self._rows(serial) == self._rows(parallel)

    @pytest.mark.parametrize("runner", [*RUNNERS, "gene-assumption"])
    def test_fewer_than_one_worker_rejected(self, runner):
        run = RUNNERS.get(runner, lambda workers: bench.run_gene_assumption(
            EXPRESSION, dims=(4,), subsets_per_dim=1, workers=workers))
        for workers in (0, -3):
            with pytest.raises(ValueError, match=f"workers must be >= 1, not {workers}"):
                run(workers)

    def test_naive_calibration_always_exact(self):
        for r in bench.run_sweep(tiny_cfg()):
            if r.method == "naive":
                assert r.estimated_edges == r.true_edges

    def test_noise_failure_ordering_example(self):
        # moderate noise, plenty of data: the oracle-thresholded inverse
        # beats the l1 path
        cfg = tiny_cfg(
            grid=(0.1,), n=1000, d2=10, replicates=3, methods=("glasso", "naive")
        )
        records = bench.run_sweep(cfg)
        mean = lambda m: np.mean([r.precision for r in records if r.method == m])
        assert mean("naive") > mean("glasso")

    @staticmethod
    def _glasso_unconverged(monkeypatch):
        real = bench.calibrate_lambda

        def calibrate(method, s, target, **kwargs):
            out = real(method, s, target, **kwargs)
            if method == "glasso":
                out = replace(out, result=replace(out.result, converged=False))
            return out

        monkeypatch.setattr(bench, "calibrate_lambda", calibrate)

    def test_unconverged_fit_is_flagged(self, monkeypatch):
        self._glasso_unconverged(monkeypatch)
        records = bench.run_sweep(tiny_cfg(grid=(0.1,), replicates=1))
        assert {r.method: r.status for r in records} == {
            "glasso": "ok(unconverged)", "scio": "ok", "naive": "ok",
        }
        assert all(row.replicates_ok == 1 for row in bench.summarize(records))

    def test_unconverged_fit_after_retry_is_flagged(self, monkeypatch):
        self._glasso_unconverged(monkeypatch)
        real = bench.latent_precision
        calls = []

        def first_draw_fails(spec):
            calls.append(spec)
            if len(calls) == 1:
                raise NotPositiveDefinite("forced")
            return real(spec)

        monkeypatch.setattr(bench, "latent_precision", first_draw_fails)
        records = bench.run_sweep(tiny_cfg(grid=(0.1,), replicates=1))
        assert {r.method: r.status for r in records} == {
            "glasso": "ok(retry=1,unconverged)", "scio": "ok(retry=1)",
            "naive": "ok(retry=1)",
        }

    def test_penalize_diagonal_reaches_glasso_calibrations_only(self, monkeypatch):
        real = bench.calibrate_lambda
        flags = {}

        def recording(method, s, target, *, penalize_diagonal=False):
            flags[method] = penalize_diagonal
            return real(method, s, target, penalize_diagonal=penalize_diagonal)

        monkeypatch.setattr(bench, "calibrate_lambda", recording)
        records = bench.run_sweep(tiny_cfg(
            grid=(1.0,), replicates=1, methods=("glasso", "clime", "scio", "naive"),
            penalize_diagonal=True))
        assert flags == {"glasso": True, "clime": False, "scio": False, "naive": False}
        assert all(r.status == "ok" for r in records)

    def test_dim_sweep_axes(self):
        cfg = tiny_cfg(experiment="outdim", grid=(4.0, 6.0), methods=("naive",))
        out = bench.run_sweep(cfg)
        assert {r.value for r in out} == {4.0, 6.0}
        assert {r.swept for r in out} == {"d2"}
        ind = bench.run_sweep(
            tiny_cfg(experiment="indim", grid=(1.0,), methods=("naive",)))
        assert len(ind) == 2  # one grid point, two replicates
        assert {r.swept for r in ind} == {"d1"}

    def test_dim_sweep_rejects_bad_axis(self):
        # an experiment outside the table is refused when the config is built
        for experiment in ("dim", "sideways"):
            with pytest.raises(ValueError, match=f"unknown experiment {experiment!r}; "
                               "expected one of noise, outdim, indim, gamma, objective"):
                tiny_cfg(experiment=experiment)

    def test_outdim_sweep_naive_dominates_l1(self):
        cfg = tiny_cfg(
            experiment="outdim", grid=(5.0, 8.0), n=600, replicates=2,
            methods=("glasso", "clime", "scio", "naive"),
        )
        records = bench.run_sweep(cfg)
        for value in (5.0, 8.0):
            by = {
                m: np.mean(
                    [r.precision for r in records if r.method == m and r.value == value]
                )
                for m in cfg.methods
            }
            assert by["naive"] >= by["glasso"]
            assert by["naive"] >= by["clime"]
            assert by["naive"] >= by["scio"]

    def test_objective_decoupled_control_is_flat(self):
        # zero coupling scale: the population covariance is diagonal at
        # every noise level, so the decomposition cannot depend on the
        # grid beyond sampling noise
        cfg = tiny_cfg(
            experiment="objective", grid=(0.1, 10.0), n=400, replicates=2,
            scale=0.0, d2=4, methods=("glasso",),
        )
        records = bench.run_sweep(cfg)
        by_value = {}
        for r in records:
            by_value.setdefault(r.value, []).append(r)
        totals = [np.mean([r.obj_total for r in v]) for v in by_value.values()]
        penalties = [np.mean([r.obj_penalty for r in v]) for v in by_value.values()]
        assert abs(totals[0] - totals[1]) < 0.2
        assert max(abs(p) for p in penalties) < 1e-12

    def test_objective_records_truth_terms(self):
        cfg = tiny_cfg(experiment="objective", grid=(0.5,), replicates=1,
                       methods=("glasso",))
        records = bench.run_sweep(cfg)
        assert len(records) == 1
        r = records[0]
        assert r.method == "glasso"
        assert math.isfinite(r.obj_total) and math.isfinite(r.truth_total)
        assert math.isfinite(r.truth_penalty_bound)
        assert r.obj_total >= r.truth_total - 1e-4

    def test_objective_row_of_estimate_that_does_not_factor(self, monkeypatch):
        # the sweep of test_objective_records_truth_terms, with every
        # factorisation of an estimate failing; sampling factors the model's
        # covariance through its own import and still runs
        def singular(m):
            raise NotPositiveDefinite("forced")

        monkeypatch.setattr(matops, "cholesky", singular)
        cfg = tiny_cfg(experiment="objective", grid=(0.5,), replicates=1,
                       methods=("glasso",))
        (r,) = bench.run_sweep(cfg)
        assert r.status == "ok(unconverged)"
        assert math.isfinite(r.precision)
        cells = [c for c in bench.RECORD_COLUMNS if c.startswith(("obj_", "truth_"))]
        assert len(cells) == 9
        assert all(bench._fmt(getattr(r, c)) == "" for c in cells)

    def test_gamma_sweep_small_scale_recovers(self):
        cfg = tiny_cfg(experiment="gamma", grid=(0.01,), replicates=2, d2=5,
                       methods=("glasso",))
        records = bench.run_sweep(cfg)
        for r in records:
            assert r.gamma < 1.0
            assert r.precision == 1.0
            assert r.n == 0

    @pytest.mark.parametrize("experiment", ["gamma", "objective"])
    def test_glasso_only_sweeps_reject_other_methods(self, experiment):
        with pytest.raises(ValueError, match=f"the {experiment} sweep fits glasso only, "
                           "not glasso,scio,naive"):
            tiny_cfg(experiment=experiment, grid=(0.5,), replicates=1)

    @pytest.mark.parametrize("experiment, value", [
        ("noise", -0.5), ("noise", 0.0), ("noise", math.nan), ("objective", math.inf),
        ("outdim", 4.5), ("outdim", 0.0), ("indim", math.inf), ("indim", -1.0),
        ("gamma", -0.1), ("gamma", math.nan),
    ])
    def test_grid_value_out_of_range_rejected(self, experiment, value):
        swept = bench.EXPERIMENTS[experiment].swept
        rule = {"d1": "an integer >= 1", "d2": "an integer >= 1",
                "a_scale": "finite and >= 0"}.get(swept, "finite and > 0")
        with pytest.raises(ValueError, match=f"the {experiment} grid sets {swept}, "
                           f"which must be {rule}, not {value!r}"):
            tiny_cfg(**{**LATENT_CFGS[experiment], "grid": (1.0, value)})

    def test_grid_value_at_its_bound_accepted(self):
        # a coupling scale of 0 (decoupled) and one output are valid points
        assert tiny_cfg(**{**LATENT_CFGS["gamma"], "grid": (0.0,)}).grid == (0.0,)
        assert tiny_cfg(experiment="outdim", grid=(1, 2.0)).grid == (1, 2.0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_runs_the_tasks_bench_holds(self, monkeypatch, workers):
        # a tracer replaces the task functions in bench; every experiment must
        # run the replacement, at any worker count
        monkeypatch.setattr(bench, "_latent_task", tagged_latent_task)
        monkeypatch.setattr(bench, "_gamma_task", tagged_gamma_task)
        for name, kw in LATENT_CFGS.items():
            records = bench.run_sweep(tiny_cfg(**kw, replicates=1, workers=workers))
            assert records and {r.tag for r in records} == {
                "gamma" if name == "gamma" else "latent"}, name


# (name looked up in bench, error it raises, run of one replicate, methods,
# task key of that replicate); the master seed is 7 throughout.
RETRY_CASES = {
    "latent": ("latent_precision", NotPositiveDefinite,
               lambda: bench.run_sweep(tiny_cfg(grid=(0.1,), replicates=1)),
               ("glasso", "naive", "scio"), (0, 0)),
    "gamma": ("latent_gamma_instance", SingularGamma,
              lambda: bench.run_sweep(
                  tiny_cfg(experiment="gamma", grid=(0.05,), replicates=1,
                           methods=("glasso",))),
              ("glasso",), (0, 0)),
    "gene-precision": ("_gene_subset_model", ResampleExhausted,
                       lambda: bench.run_gene_precision(
                           EXPRESSION, dims=(4,), n_grid=(100,), replicates=1,
                           master_seed=7),
                       ("glasso",), (0, 0, 0)),
}


class TestRetry:
    @pytest.mark.parametrize("case", RETRY_CASES)
    def test_gives_up_after_five_attempts(self, monkeypatch, case):
        name, error, run, methods, key = RETRY_CASES[case]

        def always_fails(*args, **kwargs):
            raise error("forced")

        monkeypatch.setattr(bench, name, always_fails)
        records = run()
        assert [r.method for r in records] == list(methods)
        for r in records:
            assert r.status == f"failed({error.__name__})"
            assert r.attempts == 5
            assert r.seed == seed_fingerprint(7, *key, 4)
            assert math.isnan(r.lambda_used) and r.estimated_edges == 0

    @pytest.mark.parametrize("case", RETRY_CASES)
    def test_retries_on_a_fresh_stream(self, monkeypatch, case):
        name, error, run, methods, key = RETRY_CASES[case]
        real = getattr(bench, name)
        calls = []

        def first_call_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise error("forced")
            return real(*args, **kwargs)

        monkeypatch.setattr(bench, name, first_call_fails)
        records = run()
        assert [r.method for r in records] == list(methods)
        for r in records:
            assert r.status == "ok(retry=1)"
            assert r.attempts == 2
            assert r.seed == seed_fingerprint(7, *key, 1)
            assert r.estimated_edges > 0


class TestCsvOutput:
    def test_records_file_schema(self, tmp_path):
        records = bench.run_sweep(tiny_cfg(replicates=1, grid=(0.5,)))
        out = tmp_path / "noise.csv"
        bench.write_records(out, "noise", records)
        lines = out.read_text().splitlines()
        assert lines[0] == "# precis-lab v1 noise"
        assert lines[1] == ",".join(bench.RECORD_COLUMNS)
        assert len(lines) == 2 + len(records)
        # timings are never serialised
        assert "wall_time" not in lines[1]

    def test_summary_file(self, tmp_path):
        records = bench.run_sweep(tiny_cfg())
        out = tmp_path / "noise.csv"
        bench.write_summary(bench.summary_path(out), "noise", records)
        lines = (tmp_path / "noise.summary.csv").read_text().splitlines()
        assert lines[1] == ",".join(bench.SUMMARY_COLUMNS)
        # one summary row per (grid value, method)
        assert len(lines) == 2 + 2 * 3

    def test_gene_assumption_files(self, tmp_path):
        expr = synthetic_expression(120, 30, rank=4, rng=rng_for(5))
        records = bench.run_gene_assumption(
            expr, dims=(3, 5), subsets_per_dim=3, master_seed=2
        )
        assert len(records) == 6
        out = tmp_path / "ga.csv"
        bench.write_gene_assumption(out, records, cutoffs=(1.0, 5.0))
        lines = out.read_text().splitlines()
        assert lines[0] == "# precis-lab v1 gene-assumption"
        assert len(lines) == 2 + 6
        summary = (tmp_path / "ga.summary.csv").read_text().splitlines()
        assert summary[1].endswith("frac_lt_1.0,frac_lt_5.0")


class TestGenePipeline:
    def test_identity_like_expression_gives_zero_gamma(self):
        rng = rng_for(8)
        expr = rng.standard_normal((4000, 12))  # independent genes
        records = bench.run_gene_assumption(expr, dims=(4,), subsets_per_dim=5, master_seed=3)
        assert all(r.status == "ok" for r in records)
        assert all(r.gamma < 1.0 for r in records)
        fracs = bench.gene_assumption_fractions(records, cutoffs=(1.0,))
        assert fracs[0]["frac_lt_1.0"] == 1.0

    def test_large_cutoff_empties_support_and_gamma(self):
        from precis_lab.diagnostics import assumption1_gamma
        from precis_lab.matops import SymMatrix
        from precis_lab.models import gene_model_from_correlation

        c0 = SymMatrix(np.array([[1.0, 0.4, 0.1], [0.4, 1.0, 0.2], [0.1, 0.2, 1.0]]))
        model = gene_model_from_correlation(c0, delta=50.0)
        assert len(model.support) == 0
        assert assumption1_gamma(model.precision, model.support) == 0.0

    def test_consistency_regime_recovers_at_large_n(self):
        # a gene model whose consistency norm is under one is recovered
        # exactly once the sample is large enough
        from precis_lab.diagnostics import assumption1_gamma
        from precis_lab.estimators import calibrate_lambda
        from precis_lab.metrics import score
        from precis_lab.models import sample_covariance, sample_mvn, standardize

        expr = synthetic_expression(400, 40, rank=6, rng=rng_for(21))
        rng = rng_for(22)
        model = None
        for _ in range(60):
            candidate, _ = bench._gene_subset_model(expr, 5, 0.1, rng)
            if len(candidate.support) >= 2 and assumption1_gamma(
                candidate.precision, candidate.support
            ) < 1.0:
                model = candidate
                break
        assert model is not None
        data = sample_mvn(model.covariance, 30_000, rng_for(23))
        s = sample_covariance(standardize(data))
        out = calibrate_lambda("glasso", s, len(model.support))
        assert score(model.support, out.result.support).precision == 1.0

    def test_gene_precision_records(self):
        expr = synthetic_expression(300, 40, rank=5, rng=rng_for(9))
        records = bench.run_gene_precision(
            expr, dims=(5,), n_grid=(200,), replicates=2, master_seed=4
        )
        assert len(records) == 2
        for r in records:
            assert r.status.startswith("ok")
            assert 0.0 <= r.precision <= 1.0
            assert r.rand_precision == pytest.approx(r.true_edges / 10)

    def test_resample_exhaustion_is_recorded(self, monkeypatch):
        from precis_lab import bench as bench_mod
        from precis_lab.errors import NotPositiveDefinite

        def always_reject(c0, delta=0.1):
            raise NotPositiveDefinite("forced")

        monkeypatch.setattr(bench_mod, "gene_model_from_correlation", always_reject)
        expr = synthetic_expression(100, 20, rank=3, rng=rng_for(10))
        records = bench_mod.run_gene_assumption(
            expr, dims=(4,), subsets_per_dim=1, master_seed=5
        )
        assert records[0].status == "failed(ResampleExhausted)"


# Per sweep setting: config-file text, its value, a flag and the flag's value.
SWEEP_SETTING_CASES = {
    "grid": ("0.2,0.3", (0.2, 0.3), ["--grid", "0.4"], (0.4,)),
    "n": ("60", 60, ["--n", "70"], 70),
    "d1": ("3", 3, ["--d1", "4"], 4),
    "d2": ("5", 5, ["--d2", "6"], 6),
    "sigma_x2": ("2", 2.0, ["--sigma-x2", "3"], 3.0),
    "sigma_eps2": ("0.04", 0.04, ["--sigma-eps2", "0.09"], 0.09),
    "replicates": ("3", 3, ["--k", "4"], 4),
    "methods": ("naive", ("naive",), ["--methods", "scio,clime"], ("scio", "clime")),
    "scale": ("0.5", 0.5, ["--scale", "0.25"], 0.25),
    "sparsity": ("0.1", 0.1, ["--sparsity", "0.2"], 0.2),
    "penalize_diagonal": ("yes", True, ["--penalize-diagonal"], True),
    "workers": ("3", 3, ["--workers", "2"], 2),
}
# --penalize-diagonal can only set True, so it is shown beating a false file value.
FLAG_BEATS = {"penalize_diagonal": "no"}
# The settings a bench command sets itself, so offers neither as a flag nor
# as a config key.
SET_BY_COMMAND = [
    ("bench-noise", "sigma_eps2"), ("bench-objective", "sigma_eps2"),
    ("bench-objective", "methods"), ("bench-gamma", "scale"), ("bench-gamma", "n"),
    ("bench-gamma", "methods"),
]


class TestCli:
    def test_estimate_scio_on_identity(self, tmp_path, capsys):
        cov = tmp_path / "cov.txt"
        write_matrix(cov, SymMatrix(np.eye(3)))
        out = tmp_path / "omega.txt"
        code = cli.main(
            ["estimate", "--method", "scio", "--cov", str(cov), "--lam", "0.1",
             "--out", str(out)]
        )
        assert code == 0
        got = np.loadtxt(out)
        np.testing.assert_allclose(got, 0.9 * np.eye(3), atol=1e-12)
        assert "edges=0" in capsys.readouterr().out

    def test_bench_gamma_does_not_read_the_overall_scale(self, tmp_path):
        # sigma_x2 scales the whole latent covariance, and the gamma sweep
        # fits its correlation; a power of two scales every entry exactly,
        # so the files keep their bytes (other scales move the last bits)
        written = []
        for sigma_x2 in ("1", "4"):
            out = tmp_path / f"gamma-{sigma_x2}.csv"
            assert cli.main(["bench-gamma", "--seed", "7", "--grid", "0.05,0.5,3",
                             "--k", "2", "--d2", "5", "--sigma-x2", sigma_x2,
                             "--out", str(out)]) == 0
            written.append((out.read_bytes(), bench.summary_path(out).read_bytes()))
        assert written[0] == written[1]

    def test_diagnose_diagonal(self, tmp_path, capsys):
        prec = tmp_path / "prec.txt"
        write_matrix(prec, SymMatrix(np.diag([1.0, 2.0, 0.5])))
        code = cli.main(["diagnose", "--precision", str(prec)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("p,support_size,gamma1")
        fields = lines[1].split(",")
        assert fields[0] == "3" and float(fields[2]) == 0.0

    def test_generate_latent_files(self, tmp_path, capsys):
        prefix = tmp_path / "m"
        code = cli.main(
            ["generate", "--kind", "latent", "--seed", "3", "--d1", "1", "--d2", "3",
             "--n", "10", "--out-prefix", str(prefix)]
        )
        assert code == 0
        for suffix in ("_cov.txt", "_prec.txt", "_support.txt", "_data.txt"):
            assert (tmp_path / ("m" + suffix)).exists()
        data = np.loadtxt(tmp_path / "m_data.txt")
        assert data.shape == (10, 4)

    def test_generate_latent_defaults_are_the_sweeps(self, tmp_path):
        # generate without model flags writes the files of the flags set to
        # SweepConfig's defaults
        config = bench.SweepConfig(experiment="noise", grid=(0.1,))
        flags = []
        for name in ("d1", "d2", "sigma_x2", "sigma_eps2", "scale", "sparsity"):
            flags += ["--" + name.replace("_", "-"), repr(getattr(config, name))]
        args = ["generate", "--kind", "latent", "--seed", "3", "--n", "5", "--out-prefix"]
        assert cli.main(args + [str(tmp_path / "default")]) == 0
        assert cli.main(args + [str(tmp_path / "given")] + flags) == 0
        for suffix in ("_cov.txt", "_prec.txt", "_support.txt", "_data.txt"):
            assert ((tmp_path / ("default" + suffix)).read_bytes()
                    == (tmp_path / ("given" + suffix)).read_bytes())

    def test_generate_expression_and_gene_assumption(self, tmp_path):
        expr_path = tmp_path / "expr.tsv"
        assert cli.main(
            ["generate", "--kind", "expression", "--seed", "4", "--genes", "30",
             "--samples", "80", "--out", str(expr_path)]
        ) == 0
        out = tmp_path / "ga.csv"
        code = cli.main(
            ["gene-assumption", "--seed", "5", "--expression", str(expr_path),
             "--dims", "3,4", "--subsets", "2", "--out", str(out)]
        )
        assert code == 0
        assert out.exists() and bench.summary_path(out).exists()

    def test_bench_noise_byte_identical_reruns(self, tmp_path):
        args = ["bench-noise", "--seed", "7", "--k", "2", "--grid", "0.1,1",
                "--n", "80", "--d2", "4", "--methods", "scio,naive"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_file_flag_precedence(self, tmp_path):
        config = tmp_path / "cfg.txt"
        config.write_text("# comment\nreplicates = 3\nn = 60\nmethods = naive\n")
        out = tmp_path / "c.csv"
        code = cli.main(
            ["bench-noise", "--seed", "1", "--grid", "0.5", "--config", str(config),
             "--k", "2", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        # flag --k 2 beats config replicates = 3; config methods/n apply
        assert len(lines) == 2 + 2
        assert all(",naive," in line for line in lines[2:])

    @pytest.mark.parametrize("key", cli._SWEEP_SETTINGS)
    def test_sweep_setting_precedence(self, tmp_path, monkeypatch, key):
        file_text, file_value, flag, flag_value = SWEEP_SETTING_CASES[key]
        # bench-noise sets sigma_eps2 from its grid; bench-dim reads it
        command = "bench-dim" if key == "sigma_eps2" else "bench-noise"
        configs = []
        monkeypatch.setattr(bench, "run_sweep", lambda cfg: configs.append(cfg) or [])

        def run(config_text, *flags):
            config = tmp_path / "cfg.txt"
            config.write_text(config_text)
            assert cli.main([command, "--seed", "1", "--config", str(config),
                             *flags, "--out", str(tmp_path / "x.csv")]) == 0
            return getattr(configs[-1], key)

        default = {f.name: f.default for f in fields(bench.SweepConfig)}
        default["grid"] = bench.EXPERIMENTS["noise"].grid
        assert file_value != default[key] and flag_value != default[key]
        assert run(f"{key} = {file_text}\n") == file_value
        beaten = FLAG_BEATS.get(key, file_text)
        assert run(f"{key} = {beaten}\n", *flag) == flag_value
        assert run("") == default[key]

    @pytest.mark.parametrize("command, key", SET_BY_COMMAND)
    def test_command_offers_no_setting_it_sets(self, tmp_path, capsys, command, key):
        file_text, _, flag, _ = SWEEP_SETTING_CASES[key]
        out = tmp_path / "x.csv"
        args = [command, "--seed", "1", "--grid", "0.5", "--k", "1", "--d2", "3",
                "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            cli.main(args + flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
        config = tmp_path / "cfg.txt"
        config.write_text(f"{key} = {file_text}\n")
        assert cli.main(args + ["--config", str(config)]) == 1
        assert f"{config}:1: unknown key {key!r}" in capsys.readouterr().err
        assert not out.exists() and not bench.summary_path(out).exists()

    @pytest.mark.parametrize("axis, key", [("outdim", "d2"), ("indim", "d1")])
    def test_bench_dim_refuses_the_swept_dimension(self, tmp_path, capsys, axis, key):
        out = tmp_path / "x.csv"
        config = tmp_path / "cfg.txt"
        config.write_text(f"{key} = 3\n")
        for given in ([f"--{key}", "3"], ["--config", str(config)]):
            code = cli.main(["bench-dim", "--seed", "1", "--axis", axis, "--grid", "2",
                             "--k", "1", *given, "--out", str(out)])
            assert code == 1
            err = capsys.readouterr().err
            assert f"--axis {axis} sweeps {key}: give its values with --grid" in err
            assert not out.exists()

    @pytest.mark.parametrize("command, grid, message", [
        (["bench-dim", "--axis", "outdim"], "4.5,4", "d2, which must be an integer >= 1, not 4.5"),
        (["bench-dim", "--axis", "indim"], "0,2", "d1, which must be an integer >= 1, not 0.0"),
        (["bench-noise"], "-0.5,0.5", "sigma_eps, which must be finite and > 0, not -0.5"),
        (["bench-objective"], "0.5,nan", "sigma_eps, which must be finite and > 0, not nan"),
        (["bench-gamma"], "inf", "a_scale, which must be finite and >= 0, not inf"),
    ], ids=["outdim-4.5", "indim-0", "noise--0.5", "objective-nan", "gamma-inf"])
    def test_grid_value_out_of_range_rejected(self, tmp_path, capsys, recwarn,
                                              command, grid, message):
        out = tmp_path / "x.csv"
        code = cli.main([*command, "--seed", "1", f"--grid={grid}", "--k", "1",
                         "--out", str(out)])
        assert code == 1 and not out.exists() and not bench.summary_path(out).exists()
        assert message in capsys.readouterr().err
        assert not recwarn.list

    def test_config_file_key_given_twice_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(bench, "run_sweep", lambda cfg: pytest.fail("sweep ran"))
        config = tmp_path / "cfg.txt"
        config.write_text("n = 100\n# again\nn = 200\n")
        out = tmp_path / "x.csv"
        code = cli.main(["bench-noise", "--seed", "1", "--config", str(config),
                         "--out", str(out)])
        assert code == 1 and not out.exists()
        assert f"{config}:3: key 'n' given twice" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["bench-noise", "--grid", "0.5", "--workers", "-3"],
        ["gene-assumption", "--synthetic", "--dims", "4", "--workers", "0"],
    ], ids=lambda v: v[0])
    def test_fewer_than_one_worker_rejected(self, tmp_path, monkeypatch, capsys, command):
        for task in ("_latent_task", "_gene_assumption_task"):
            monkeypatch.setattr(bench, task, lambda *a: pytest.fail("task ran"))
        out = tmp_path / "x.csv"
        code = cli.main([command[0], "--seed", "1", *command[1:], "--out", str(out)])
        assert code == 1 and not out.exists()
        assert f"workers must be >= 1, not {command[-1]}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, bad_key", [
        (["bench-noise"], "k"),
        (["bench-dim", "--axis", "indim"], "dims"),
        (["bench-gamma"], "seed"),
        (["bench-objective"], "n_grid"),
        (["gene-assumption", "--synthetic"], "replicates"),
        (["gene-precision", "--synthetic"], "cutoffs"),
    ], ids=lambda v: v[0] if isinstance(v, list) else v)
    def test_config_file_unknown_key_rejected(self, tmp_path, monkeypatch, capsys,
                                              command, bad_key):
        for runner in ("run_sweep", "run_gene_assumption", "run_gene_precision"):
            monkeypatch.setattr(bench, runner, lambda *a, **k: pytest.fail("sweep ran"))
        config = tmp_path / "cfg.txt"
        config.write_text(f"# a sweep\nworkers = 1\n{bad_key} = 1\n")
        out = tmp_path / "x.csv"
        code = cli.main([command[0], "--seed", "1", *command[1:], "--config", str(config),
                         "--out", str(out)])
        assert code == 1 and not out.exists()
        err = capsys.readouterr().err
        assert f"{config}:3: unknown key {bad_key!r}" in err

    @pytest.mark.parametrize("command, flag", [
        ("gene-assumption", ["--k", "5"]),
        ("gene-assumption", ["--n-grid", "100"]),
        ("gene-precision", ["--subsets", "2"]),
        ("gene-precision", ["--cutoffs", "0.5"]),
    ])
    def test_gene_commands_reject_flags_they_ignore(self, command, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--seed", "1", "--synthetic", *flag, "--out", "x.csv"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("delta", ["nan", "inf", "-0.1"])
    @pytest.mark.parametrize("command", ["gene-assumption", "gene-precision"])
    def test_gene_commands_reject_a_bad_delta(self, tmp_path, capsys, command, delta):
        out = tmp_path / "x.csv"
        code = cli.main([command, "--seed", "1", "--synthetic", "--dims", "5,10",
                         "--delta", delta, "--out", str(out)])
        assert code == 1 and not out.exists() and not bench.summary_path(out).exists()
        assert "delta must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("cutoffs", ["1,1,2", "0.5,nan", "1,1.0"])
    def test_gene_assumption_rejects_a_repeated_or_nan_cutoff(self, tmp_path, monkeypatch,
                                                              capsys, cutoffs):
        monkeypatch.setattr(bench, "_gene_subset_model", lambda *a: pytest.fail("subset drawn"))
        out = tmp_path / "x.csv"
        code = cli.main(["gene-assumption", "--seed", "1", "--synthetic", "--dims", "4",
                         "--cutoffs", cutoffs, "--out", str(out)])
        assert code == 1 and not out.exists() and not bench.summary_path(out).exists()
        assert "cutoffs must be distinct numbers" in capsys.readouterr().err

    def test_gene_assumption_summary_rows_fill_the_header(self, tmp_path):
        out = tmp_path / "x.csv"
        assert cli.main(["gene-assumption", "--seed", "1", "--synthetic", "--dims", "4,6",
                         "--subsets", "2", "--cutoffs", "3,0.5,1e9", "--out", str(out)]) == 0
        header, *rows = bench.summary_path(out).read_text().splitlines()[1:]
        assert header.split(",")[3:] == ["frac_lt_3.0", "frac_lt_0.5", "frac_lt_1000000000.0"]
        assert len(rows) == 2
        assert all(len(row.split(",")) == len(header.split(",")) for row in rows)

    @pytest.mark.parametrize("kind, flag", [
        ("expression", ["--d1", "5"]),
        ("expression", ["--sigma-eps2", "3"]),
        ("expression", ["--out-prefix", "m"]),
        ("latent", ["--genes", "9"]),
        ("latent", ["--out", "e.tsv"]),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_generate_refuses_the_other_kinds_flags(self, tmp_path, monkeypatch, capsys,
                                                    kind, flag):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["generate", "--kind", kind, "--seed", "1", *flag]) == 1
        assert f"--kind {kind} does not read {flag[0]}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_gene_precision_penalize_diagonal(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(bench, "run_gene_precision",
                            lambda expression, **kwargs: calls.append(kwargs) or [])
        args = ["gene-precision", "--seed", "1", "--synthetic", "--genes", "20",
                "--samples", "40", "--out", str(tmp_path / "gp.csv")]
        config = tmp_path / "cfg.txt"
        config.write_text("penalize_diagonal = yes\n")
        assert cli.main(args + ["--penalize-diagonal"]) == 0
        assert cli.main(args + ["--config", str(config)]) == 0
        assert cli.main(args) == 0
        assert [c.get("penalize_diagonal") for c in calls] == [True, True, None]

    def test_remaining_bench_subcommands_smoke(self, tmp_path):
        out = tmp_path / "g.csv"
        assert cli.main(
            ["bench-gamma", "--seed", "2", "--grid", "0.05", "--k", "1",
             "--d2", "4", "--out", str(out)]
        ) == 0
        header = out.read_text().splitlines()[0]
        assert header == "# precis-lab v1 gamma"

        out2 = tmp_path / "o.csv"
        assert cli.main(
            ["bench-objective", "--seed", "2", "--grid", "0.5", "--k", "1",
             "--n", "100", "--d2", "4", "--penalize-diagonal", "--out", str(out2)]
        ) == 0
        assert "objective" in out2.read_text().splitlines()[0]

        out3 = tmp_path / "d.csv"
        assert cli.main(
            ["bench-dim", "--seed", "2", "--axis", "indim", "--grid", "1,2",
             "--k", "1", "--n", "100", "--d2", "4", "--methods", "naive",
             "--out", str(out3)]
        ) == 0
        assert len(out3.read_text().splitlines()) == 4

        out4 = tmp_path / "gp.csv"
        assert cli.main(
            ["gene-precision", "--seed", "3", "--synthetic", "--genes", "30",
             "--samples", "120", "--dims", "4", "--n-grid", "150", "--k", "1",
             "--out", str(out4)]
        ) == 0
        assert bench.summary_path(out4).exists()

    @pytest.mark.parametrize("command", ["bench-gamma", "bench-objective"])
    def test_glasso_only_commands_reject_other_methods(self, tmp_path, capsys, command):
        # these fit glasso alone, so they take no --methods flag or methods key
        out = tmp_path / "g.csv"
        args = [command, "--seed", "1", "--grid", "0.1", "--k", "1", "--d2", "4",
                "--out", str(out)]
        for methods in ("scio,clime", "glasso"):
            with pytest.raises(SystemExit) as exc:
                cli.main(args + ["--methods", methods])
            assert exc.value.code == 2
            assert "unrecognized arguments: --methods" in capsys.readouterr().err
        assert not out.exists() and not bench.summary_path(out).exists()

        config = tmp_path / "cfg.txt"
        config.write_text("methods = glasso,naive\n")
        assert cli.main(args + ["--config", str(config)]) == 1
        assert f"{config}:1: unknown key 'methods'" in capsys.readouterr().err
        assert not out.exists()

        assert cli.main(args) == 0
        assert out.exists()

    def test_seed_required_for_bench(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench-noise", "--out", "x.csv"])
        assert exc.value.code == 2

    def test_data_error_exit_code(self, tmp_path):
        missing = tmp_path / "nope.txt"
        code = cli.main(["diagnose", "--precision", str(missing)])
        assert code == 1

    @pytest.mark.parametrize("eps", ["-1", "nan"])
    def test_diagnose_rejects_bad_support_eps(self, tmp_path, capsys, eps):
        prec = tmp_path / "prec.txt"
        write_matrix(prec, SymMatrix(np.diag([1.0, 2.0, 0.5])))
        code = cli.main(["diagnose", "--precision", str(prec), "--support-eps", eps])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "support eps" in captured.err

    def test_estimate_rejects_non_finite_cov_file(self, tmp_path, capsys):
        cov = tmp_path / "cov.txt"
        cov.write_text("1 inf\ninf 1\n")
        code = cli.main(["estimate", "--method", "scio", "--cov", str(cov), "--lam", "0.1"])
        assert code == 1
        assert "cov.txt: matrix entries must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("method, flags, message", [
        ("scio", ["--lam", "nan"], "lam must be finite and >= 0"),
        ("clime", ["--lam", "inf"], "lam must be finite and >= 0"),
        ("glasso", ["--target-edges", "-3"], "target_edges must be >= 0"),
        ("naive", ["--target-edges", "-3"], "target_edges must be >= 0"),
    ])
    def test_estimate_rejects_out_of_range_lam_or_target(self, tmp_path, capsys, recwarn,
                                                         method, flags, message):
        cov = tmp_path / "cov.txt"
        cov.write_text("2 0.5\n0.5 1\n")
        code = cli.main(["estimate", "--method", method, "--cov", str(cov), *flags])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
        assert not recwarn.list

    def test_estimate_rejects_lam_with_target_edges(self, tmp_path, capsys):
        cov = tmp_path / "cov.txt"
        write_matrix(cov, SymMatrix(np.eye(3)))
        with pytest.raises(SystemExit) as exc:
            cli.main(["estimate", "--method", "glasso", "--cov", str(cov),
                      "--lam", "0.3", "--target-edges", "1"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("method, penalty", [
        ("clime", ["--lam", "0.1"]), ("scio", ["--lam", "0.1"]),
        ("naive", ["--target-edges", "1"]),
    ])
    def test_estimate_penalize_diagonal_is_glasso_only(self, tmp_path, capsys,
                                                       method, penalty):
        cov = tmp_path / "cov.txt"
        write_matrix(cov, SymMatrix(np.eye(3)))
        with pytest.raises(SystemExit) as exc:
            cli.main(["estimate", "--method", method, "--cov", str(cov), *penalty,
                      "--penalize-diagonal"])
        assert exc.value.code == 2
        assert "glasso only" in capsys.readouterr().err

    def test_penalize_diagonal_help_names_glasso(self, capsys):
        for command in ("bench-noise", "bench-dim", "bench-gamma", "bench-objective",
                        "gene-precision"):
            with pytest.raises(SystemExit) as exc:
                cli.main([command, "--help"])
            assert exc.value.code == 0
            help_text = " ".join(capsys.readouterr().out.split())
            assert "--penalize-diagonal penalise the diagonal in glasso rows" in help_text

    def test_estimate_naive_requires_target(self, tmp_path):
        cov = tmp_path / "cov.txt"
        write_matrix(cov, SymMatrix(np.eye(2)))
        code = cli.main(["estimate", "--method", "naive", "--cov", str(cov)])
        assert code == 1
