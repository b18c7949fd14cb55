import numpy as np
import pytest

from precis_lab.errors import (
    ConstantColumn,
    ExpressionFormatError,
    NotPositiveDefinite,
)
from precis_lab.matops import SymMatrix, cholesky, invert, read_matrix, to_correlation
from precis_lab.models import (
    LatentModelSpec,
    gene_model_from_correlation,
    latent_covariance,
    latent_precision,
    load_expression,
    random_a,
    rng_for,
    sample_covariance,
    sample_mvn,
    seed_fingerprint,
    standardize,
    synthetic_expression,
    write_expression,
)


def random_spec(seed, d1=None, d2=None):
    rng = np.random.default_rng(seed)
    d1 = d1 if d1 is not None else int(rng.integers(1, 4))
    d2 = d2 if d2 is not None else int(rng.integers(1, 8))
    sx2 = float(10 ** rng.uniform(-1, 1))
    se2 = float(10 ** rng.uniform(-2, 1))
    return LatentModelSpec(d1, d2, sx2, se2, rng.standard_normal((d2, d1)))


class TestLatentCovariance:
    def test_worked_1x1(self):
        spec = LatentModelSpec(1, 1, 1.0, 1.0, np.array([[2.0]]))
        np.testing.assert_allclose(
            latent_covariance(spec).values, [[1.0, 2.0], [2.0, 5.0]]
        )

    def test_zero_coupling_decouples(self):
        spec = LatentModelSpec(2, 3, 2.0, 0.5, np.zeros((3, 2)))
        cov = latent_covariance(spec).values
        np.testing.assert_allclose(cov, 2.0 * np.diag([1, 1, 0.5, 0.5, 0.5]))

    @pytest.mark.parametrize("seed", range(5))
    def test_always_positive_definite(self, seed):
        cov = latent_covariance(random_spec(seed))
        cholesky(cov)  # must not raise


class TestLatentPrecision:
    def test_worked_1x1(self):
        spec = LatentModelSpec(1, 1, 1.0, 1.0, np.array([[2.0]]))
        model = latent_precision(spec)
        np.testing.assert_allclose(model.precision.values, [[5.0, -2.0], [-2.0, 1.0]])

    @pytest.mark.parametrize("seed", range(10))
    def test_exact_inverse_pair(self, seed):
        model = latent_precision(random_spec(seed))
        prod = model.precision.values @ model.covariance.values
        assert np.abs(prod - np.eye(model.covariance.dim)).max() < 1e-8

    def test_dense_support_count(self):
        rng = np.random.default_rng(1)
        spec = LatentModelSpec(2, 10, 1.0, 0.01, rng.standard_normal((10, 2)))
        model = latent_precision(spec)
        # d2*d1 cross edges plus d1*(d1-1)/2 input-block edges
        assert len(model.support) == 21

    @pytest.mark.parametrize("seed", range(5))
    def test_no_output_block_edges(self, seed):
        spec = random_spec(seed)
        model = latent_precision(spec)
        for i, j in model.support.pairs:
            assert not (i >= spec.d1 and j >= spec.d1)

    def test_sparse_coupling_respected(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0], [2.0, 3.0]])
        model = latent_precision(LatentModelSpec(2, 3, 1.0, 1.0, a))
        pairs = model.support.pairs
        assert (0, 2) in pairs and (0, 4) in pairs and (1, 4) in pairs
        assert (0, 3) not in pairs and (1, 2) not in pairs and (1, 3) not in pairs
        # (a'a)_01 = 6 couples the two inputs
        assert (0, 1) in pairs

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LatentModelSpec(0, 1, 1.0, 1.0, np.zeros((1, 0)))
        with pytest.raises(ValueError):
            LatentModelSpec(1, 1, 0.0, 1.0, np.zeros((1, 1)))
        with pytest.raises(ValueError):
            LatentModelSpec(1, 2, 1.0, 1.0, np.zeros((1, 2)))


class TestRandomA:
    def test_zero_scale(self):
        a = random_a(3, 4, 0.0, 0.0, rng_for(0))
        np.testing.assert_array_equal(a, np.zeros((4, 3)))

    def test_deterministic_given_stream(self):
        a1 = random_a(2, 5, 1.0, 0.0, rng_for(7, 1))
        a2 = random_a(2, 5, 1.0, 0.0, rng_for(7, 1))
        np.testing.assert_array_equal(a1, a2)

    def test_entry_variance_in_chi2_band(self):
        # 20 entries, sample second moment within the central band
        a = random_a(2, 10, 1.0, 0.0, rng_for(0))
        assert 0.5 <= (a**2).mean() <= 1.5

    def test_sparsity_zeroes_entries(self):
        a = random_a(10, 40, 1.0, 0.5, rng_for(3))
        frac = (a == 0.0).mean()
        assert 0.3 < frac < 0.7

    def test_rejects_bad_sparsity(self):
        with pytest.raises(ValueError):
            random_a(2, 2, 1.0, 1.0, rng_for(0))


class TestSampling:
    def test_identity_large_sample(self):
        data = sample_mvn(SymMatrix(np.eye(3)), 100_000, rng_for(5))
        s = sample_covariance(data)
        assert np.abs(s.values - np.eye(3)).max() < 0.05

    def test_empty_sample(self):
        data = sample_mvn(SymMatrix(np.eye(4)), 0, rng_for(0))
        assert data.shape == (0, 4)

    def test_seed_determinism(self):
        cov = latent_covariance(random_spec(3))
        d1 = sample_mvn(cov, 50, rng_for(11, 2))
        d2 = sample_mvn(cov, 50, rng_for(11, 2))
        np.testing.assert_array_equal(d1, d2)

    def test_rejects_non_pd(self):
        with pytest.raises(NotPositiveDefinite):
            sample_mvn(SymMatrix(np.array([[1.0, 2.0], [2.0, 1.0]])), 5, rng_for(0))


class TestStandardize:
    def test_two_point_hand_case(self):
        # population standard deviation convention
        d = standardize(np.array([[0.0, 0.0], [2.0, 2.0]]))
        np.testing.assert_allclose(d, [[-1.0, -1.0], [1.0, 1.0]])

    def test_moments(self):
        d = standardize(np.random.default_rng(0).normal(3.0, 2.0, (200, 4)))
        assert np.abs(d.mean(axis=0)).max() < 1e-10
        assert np.abs(d.std(axis=0) - 1.0).max() < 1e-8

    def test_idempotent(self):
        d = standardize(np.random.default_rng(1).normal(size=(50, 3)))
        again = standardize(d)
        assert np.abs(again - d).max() < 1e-10

    def test_constant_column_rejected(self):
        with pytest.raises(ConstantColumn):
            standardize(np.array([[1.0, 5.0], [2.0, 5.0]]))

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            standardize(np.ones((1, 2)))

    @pytest.mark.parametrize("fn", [standardize, sample_covariance])
    @pytest.mark.parametrize("rows", [np.ones((1, 2)), np.arange(4.0)],
                             ids=["one-row", "1-d"])
    def test_needs_a_2d_array_of_two_rows(self, fn, rows):
        with pytest.raises(ValueError, match="2-d array of at least two rows"):
            fn(rows)

    @pytest.mark.parametrize("fn", [standardize, sample_covariance])
    def test_column_subset_gives_the_bits_of_its_c_ordered_copy(self, fn):
        # x[:, idx] is F-ordered; numpy's column means of an F-ordered array
        # round differently, so the subset must be centred in C order
        expression = synthetic_expression(600, 150, rng=rng_for(3))
        idx = np.sort(rng_for(4).choice(150, size=40, replace=False))
        subset = expression[:, idx]
        assert subset.flags.f_contiguous and not subset.flags.c_contiguous
        got, want = fn(subset), fn(np.ascontiguousarray(subset))
        if fn is sample_covariance:
            got, want = got.values, want.values
        assert np.array_equal(got, want)


class TestSampleCovariance:
    def test_unit_diagonal_after_standardize(self):
        d = standardize(np.random.default_rng(2).normal(size=(64, 5)))
        s = sample_covariance(d)
        assert np.abs(s.values.diagonal() - 1.0).max() < 1e-8

    def test_mle_divisor(self):
        rows = np.array([[0.0], [2.0]])
        s = sample_covariance(rows)
        # centered values -1, 1; divisor n=2
        assert s.values[0, 0] == pytest.approx(1.0)

    def test_converges_to_population_correlation(self):
        spec = LatentModelSpec(1, 3, 1.0, 0.5, np.random.default_rng(8).standard_normal((3, 1)))
        model = latent_precision(spec)
        target = to_correlation(model.covariance).values
        n = 2000
        worst = 0.0
        for seed in range(20):
            data = standardize(sample_mvn(model.covariance, n, rng_for(77, seed)))
            s = sample_covariance(data)
            worst = max(worst, float(np.abs(s.values - target).max()))
        assert worst < 5.0 / np.sqrt(n)


class TestGeneModel:
    def test_identity_correlation(self):
        model = gene_model_from_correlation(SymMatrix(np.eye(4)), 0.1)
        np.testing.assert_array_equal(model.precision.values, np.eye(4))
        assert len(model.support) == 0

    def test_below_cutoff_edge_removed(self):
        r = 0.05
        c0 = SymMatrix(np.array([[1.0, r], [r, 1.0]]))
        # inverse off-diagonal is -r/(1-r^2), magnitude about 0.05 < 0.1
        model = gene_model_from_correlation(c0, 0.1)
        assert len(model.support) == 0
        assert model.precision.values[0, 1] == 0.0

    def test_kept_edges_and_inverse_consistency(self):
        c0 = SymMatrix(np.array([[1.0, 0.6, 0.0], [0.6, 1.0, 0.3], [0.0, 0.3, 1.0]]))
        model = gene_model_from_correlation(c0, 0.1)
        prod = model.precision.values @ model.covariance.values
        assert np.abs(prod - np.eye(3)).max() < 1e-8
        assert len(model.support) >= 2

    def test_rejection_raises(self):
        # removing the smallest off-diagonal of this inverse breaks
        # positive definiteness
        c0 = SymMatrix(
            [
                [1.0, 0.21, -0.373],
                [0.21, 1.0, 0.647],
                [-0.373, 0.647, 1.0],
            ]
        )
        gene_model_from_correlation(c0, 0.1)  # low cutoff keeps everything
        with pytest.raises(NotPositiveDefinite):
            gene_model_from_correlation(c0, 1.6)

    def test_requires_correlation_input(self):
        with pytest.raises(ValueError, match="correlation"):
            gene_model_from_correlation(SymMatrix(np.diag([2.0, 1.0])), 0.1)


class TestRngPlumbing:
    def test_streams_independent(self):
        a = rng_for(5, 0).standard_normal(4)
        b = rng_for(5, 1).standard_normal(4)
        assert not np.allclose(a, b)

    def test_fingerprint_stable(self):
        assert seed_fingerprint(5, 1, 2) == seed_fingerprint(5, 1, 2)
        assert seed_fingerprint(5, 1, 2) != seed_fingerprint(5, 2, 1)


def expression_text(data, delimiter, genes_in, labelled, header):
    """``data`` (samples x genes) as the text of an expression file. Rows
    are samples or genes as ``genes_in`` says, led by their label when
    ``labelled``. ``header`` is "named corner", "empty corner", "no corner"
    (a header of column labels only) or "no header"."""
    n, p = data.shape
    genes, samples = [f"gene{j}" for j in range(p)], [f"s{i}" for i in range(n)]
    heads, labels, block = ((genes, samples, data) if genes_in == "columns"
                            else (samples, genes, data.T))
    corner = {"named corner": ["id"], "empty corner": [""]}.get(header, [])
    lines = [] if header == "no header" else [delimiter.join(corner + heads)]
    for label, row in zip(labels, block):
        cells = [repr(float(v)) for v in row]
        lines.append(delimiter.join(([label] if labelled else []) + cells))
    return "\n".join(lines) + "\n"


ROUND_TRIPS = [
    (name, genes_in, labelled, header)
    for name in ("tab", "comma", "whitespace")
    for genes_in in ("columns", "rows")
    for labelled in (True, False)
    # only genes in rows may come without a header
    for header in ("named corner", "empty corner", "no corner", "no header")
    if genes_in == "rows" or header != "no header"
]


class TestExpressionIO:
    def test_written_text(self, tmp_path):
        # the benchmark's gene-assumption input is written this way
        path = tmp_path / "expr.tsv"
        write_expression(path, np.array([[1.0, -0.25], [0.1, 3e-20]]))
        assert path.read_bytes() == (
            b"sample\tg0000\tg0001\n"
            b"s00000\t1.0\t-0.25\n"
            b"s00001\t0.1\t3e-20\n"
        )

    @pytest.mark.parametrize("name, genes_in, labelled, header", ROUND_TRIPS)
    def test_round_trip_every_layout(self, tmp_path, name, genes_in, labelled, header):
        data = synthetic_expression(7, 4, rank=2, rng=rng_for(3))
        data[:, 1] *= 1e-100
        data[:, 2] *= 1e100
        path = tmp_path / "expr.txt"
        delimiter = {"tab": "\t", "comma": ",", "whitespace": "  "}[name]
        path.write_text(expression_text(data, delimiter, genes_in, labelled, header))
        loaded, names = load_expression(path, genes_in=genes_in)
        assert loaded.shape == data.shape and loaded.tobytes() == data.tobytes()
        if genes_in == "columns" or labelled:
            assert names == ["gene0", "gene1", "gene2", "gene3"]
        else:
            assert names == ["g0", "g1", "g2", "g3"]

    @pytest.mark.parametrize("text", [
        # an empty field: g1's values used to load as g2's, and g1 was lost
        "g1,g2,g3\n1.0,,2.0\n3.0,4.0,5.0\n4.0,1.0,2.0\n",
        # a trailing comma ends a line with an empty field: it used to be
        # dropped, and is now an error like any other empty field
        "g1,g2\n1.0,2.0,\n3.0,4.0,\n5.0,1.0,\n",
    ], ids=["empty field", "trailing comma"])
    def test_empty_field_rejected_naming_the_line(self, tmp_path, text):
        path = tmp_path / "e.csv"
        path.write_text(text)
        with pytest.raises(ExpressionFormatError, match=r"e\.csv:2: empty field"):
            load_expression(path)

    @pytest.mark.parametrize("delimiter", [" ", ","])
    def test_comment_rule_shared_with_read_matrix(self, tmp_path, delimiter):
        # '#' starts a comment anywhere on a line, and blank lines are
        # dropped, in both readers
        body = "# three samples\n1.0{d}2.0 # a note\n\n3.0{d}4.5\n  # indented\n5.0{d}0.5\n"
        body = body.format(d=delimiter)
        matrix, expression = tmp_path / "m.txt", tmp_path / "e.txt"
        matrix.write_text(body)
        expression.write_text(f"g1{delimiter}g2 # genes\n" + body)
        data, names = load_expression(expression)
        assert names == ["g1", "g2"]
        np.testing.assert_array_equal(data, read_matrix(matrix))
        np.testing.assert_array_equal(data, [[1.0, 2.0], [3.0, 4.5], [5.0, 0.5]])

    def test_constant_gene_dropped(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("g1,g2,g3\n1.0,7.0,0.5\n2.0,7.0,0.25\n3.0,7.0,0.75\n")
        data, names = load_expression(path)
        assert names == ["g1", "g3"]
        assert data.shape == (3, 2)

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("g1,g2\n1.0,2.0\n3.0\n")
        with pytest.raises(ExpressionFormatError):
            load_expression(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("g1,g2\ns1,1.0,x\ns2,2.0,3.0\n")
        with pytest.raises(ExpressionFormatError):
            load_expression(path)

    @pytest.mark.parametrize("genes_in", ["columns", "rows"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_gene_rejected(self, tmp_path, cell, genes_in):
        # g2 is constant apart from the bad cell: it must not be dropped
        # as a constant gene
        path = tmp_path / "e.tsv"
        if genes_in == "columns":
            path.write_text(f"g1\tg2\tg3\n1.0\t{cell}\t0.5\n"
                            "2.0\t7.0\t0.25\n3.0\t7.0\t0.75\n")
        else:
            path.write_text(f"g1\t1.0\t2.0\t3.0\ng2\t{cell}\t7.0\t7.0\n"
                            "g3\t0.5\t0.25\t0.75\n")
        with pytest.raises(ExpressionFormatError, match=r"e\.tsv: non-finite .*'g2'"):
            load_expression(path, genes_in=genes_in)


def _symmetric_spd(p, seed):
    """Exactly symmetric by elementwise addition, with a positive diagonal
    of varied scale; no matrix product involved."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.standard_normal((p, p)), 1)
    return SymMatrix(upper + upper.T + np.diag(p + rng.uniform(1.0, 9.0, p)))


def _data(n, p, seed):
    return np.random.default_rng(seed).standard_normal((n, p))


# Producers whose products SymMatrix takes without averaging. All but
# to_correlation rely on BLAS computing X'X or XX' (syrk) to exact symmetry;
# to_correlation scales by an outer product, whose (i, j) and (j, i)
# entries are the same product.
SYMMETRIC_PRODUCERS = {
    "sample_covariance n<p": lambda: sample_covariance(_data(6, 40, 1)),
    "sample_covariance p=1": lambda: sample_covariance(_data(10, 1, 2)),
    "sample_covariance p=150": lambda: sample_covariance(_data(400, 150, 3)),
    "invert": lambda: invert(_symmetric_spd(150, 4)),
    "latent_covariance": lambda: latent_covariance(random_spec(5, d1=7, d2=33)),
    "latent_precision": lambda: latent_precision(random_spec(6, d1=7, d2=33)).precision,
    "to_correlation": lambda: to_correlation(_symmetric_spd(150, 7)),
}


@pytest.mark.parametrize("name", list(SYMMETRIC_PRODUCERS))
def test_producer_exactly_symmetric_without_averaging(name):
    try:
        v = SYMMETRIC_PRODUCERS[name]().values
    except ValueError as err:
        pytest.fail(f"{name}: {err}")
    assert np.array_equal(v, v.T), f"{name} is not exactly symmetric"


class TestSyntheticExpression:
    def test_shape_and_determinism(self):
        e1 = synthetic_expression(30, 10, rank=3, rng=rng_for(4))
        e2 = synthetic_expression(30, 10, rank=3, rng=rng_for(4))
        assert e1.shape == (30, 10)
        np.testing.assert_array_equal(e1, e2)
