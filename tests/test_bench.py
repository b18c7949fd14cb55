import math
from dataclasses import replace

import numpy as np
import pytest

from precis_lab import bench, cli
from precis_lab.errors import NotPositiveDefinite
from precis_lab.matops import SymMatrix, write_matrix
from precis_lab.models import rng_for, synthetic_expression


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


class TestSweepMachinery:
    def test_row_count_and_sorting(self):
        cfg = tiny_cfg()
        records = bench.run_noise_sweep(cfg)
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
        r1 = bench.run_noise_sweep(tiny_cfg())
        r2 = bench.run_noise_sweep(tiny_cfg())
        assert self._rows(r1) == self._rows(r2)

    def test_parallel_matches_serial(self):
        serial = bench.run_noise_sweep(tiny_cfg())
        parallel = bench.run_noise_sweep(tiny_cfg(workers=2))
        assert self._rows(serial) == self._rows(parallel)

    def test_naive_calibration_always_exact(self):
        for r in bench.run_noise_sweep(tiny_cfg()):
            if r.method == "naive":
                assert r.estimated_edges == r.true_edges

    def test_noise_failure_ordering_example(self):
        # moderate noise, plenty of data: the oracle-thresholded inverse
        # beats the l1 path
        cfg = tiny_cfg(
            grid=(0.1,), n=1000, d2=10, replicates=3, methods=("glasso", "naive")
        )
        records = bench.run_noise_sweep(cfg)
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
        records = bench.run_noise_sweep(tiny_cfg(grid=(0.1,), replicates=1))
        assert {r.method: r.status for r in records} == {
            "glasso": "ok(unconverged)", "scio": "ok", "naive": "ok",
        }
        assert all(row["replicates_ok"] == 1 for row in bench.summarize(records))

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
        records = bench.run_noise_sweep(tiny_cfg(grid=(0.1,), replicates=1))
        assert {r.method: r.status for r in records} == {
            "glasso": "ok(retry=1,unconverged)", "scio": "ok(retry=1)",
            "naive": "ok(retry=1)",
        }

    def test_dim_sweep_axes(self):
        cfg = tiny_cfg(experiment="outdim", grid=(4.0, 6.0), methods=("naive",))
        out = bench.run_dim_sweep(cfg, axis="outdim")
        assert {r.value for r in out} == {4.0, 6.0}
        ind = bench.run_dim_sweep(
            tiny_cfg(experiment="indim", grid=(1.0,), methods=("naive",)), axis="indim"
        )
        assert len(ind) == 2  # one grid point, two replicates

    def test_dim_sweep_rejects_bad_axis(self):
        with pytest.raises(ValueError):
            bench.run_dim_sweep(tiny_cfg(), axis="sideways")

    def test_outdim_sweep_naive_dominates_l1(self):
        cfg = tiny_cfg(
            experiment="outdim", grid=(5.0, 8.0), n=600, replicates=2,
            methods=("glasso", "clime", "scio", "naive"),
        )
        records = bench.run_dim_sweep(cfg, axis="outdim")
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
            scale=0.0, d2=4,
        )
        records = bench.run_objective_decomposition(cfg)
        by_value = {}
        for r in records:
            by_value.setdefault(r.value, []).append(r)
        totals = [np.mean([r.obj_total for r in v]) for v in by_value.values()]
        penalties = [np.mean([r.obj_penalty for r in v]) for v in by_value.values()]
        assert abs(totals[0] - totals[1]) < 0.2
        assert max(abs(p) for p in penalties) < 1e-12

    def test_objective_records_truth_terms(self):
        cfg = tiny_cfg(experiment="objective", grid=(0.5,), replicates=1)
        records = bench.run_objective_decomposition(cfg)
        assert len(records) == 1
        r = records[0]
        assert r.method == "glasso"
        assert math.isfinite(r.obj_total) and math.isfinite(r.truth_total)
        assert math.isfinite(r.truth_penalty_bound)
        assert r.obj_total >= r.truth_total - 1e-4

    def test_gamma_sweep_small_scale_recovers(self):
        cfg = tiny_cfg(experiment="gamma", grid=(0.01,), replicates=2, d2=5)
        records = bench.run_gamma_sweep(cfg)
        for r in records:
            assert r.gamma < 1.0
            assert r.precision == 1.0
            assert r.n == 0


class TestGammaHelpers:
    def test_rescale_lands_in_band(self):
        from precis_lab.models import random_a

        a = random_a(2, 6, rng=rng_for(3))
        scale, gamma = bench.rescale_to_gamma(a, 1.0, 0.01, 0.4, 0.8)
        assert 0.4 < gamma < 0.8
        check, _, _ = bench.latent_gamma_instance(a, 1.0, 0.01, scale)
        assert check == pytest.approx(gamma)


class TestCsvOutput:
    def test_records_file_schema(self, tmp_path):
        records = bench.run_noise_sweep(tiny_cfg(replicates=1, grid=(0.5,)))
        out = tmp_path / "noise.csv"
        bench.write_records(out, "noise", records)
        lines = out.read_text().splitlines()
        assert lines[0] == "# precis-lab v1 noise"
        assert lines[1] == ",".join(bench.RECORD_COLUMNS)
        assert len(lines) == 2 + len(records)
        # wall-clock timing is telemetry only, never serialised
        assert "wall_time" not in lines[1]

    def test_summary_file(self, tmp_path):
        records = bench.run_noise_sweep(tiny_cfg())
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


class TestCli:
    def test_estimate_scio_on_identity(self, tmp_path, capsys):
        cov = tmp_path / "cov.txt"
        write_matrix(cov, SymMatrix.identity(3))
        out = tmp_path / "omega.txt"
        code = cli.main(
            ["estimate", "--method", "scio", "--cov", str(cov), "--lam", "0.1",
             "--out", str(out)]
        )
        assert code == 0
        got = np.loadtxt(out)
        np.testing.assert_allclose(got, 0.9 * np.eye(3), atol=1e-12)
        assert "edges=0" in capsys.readouterr().out

    def test_diagnose_diagonal(self, tmp_path, capsys):
        prec = tmp_path / "prec.txt"
        write_matrix(prec, SymMatrix.diagonal([1.0, 2.0, 0.5]))
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
        config.write_text("# comment\nk = 3\nn = 60\nmethods = naive\n")
        out = tmp_path / "c.csv"
        code = cli.main(
            ["bench-noise", "--seed", "1", "--grid", "0.5", "--config", str(config),
             "--k", "2", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        # flag --k 2 beats config k=3; config methods/n apply
        assert len(lines) == 2 + 2
        assert all(",naive," in line for line in lines[2:])

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

    def test_seed_required_for_bench(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench-noise", "--out", "x.csv"])
        assert exc.value.code == 2

    def test_data_error_exit_code(self, tmp_path):
        missing = tmp_path / "nope.txt"
        code = cli.main(["diagnose", "--precision", str(missing)])
        assert code == 1

    def test_estimate_naive_requires_target(self, tmp_path):
        cov = tmp_path / "cov.txt"
        write_matrix(cov, SymMatrix.identity(2))
        code = cli.main(["estimate", "--method", "naive", "--cov", str(cov)])
        assert code == 1
