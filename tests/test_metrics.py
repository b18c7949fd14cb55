import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precis_lab.errors import DimensionMismatch
from precis_lab.matops import SupportSet
from precis_lab.metrics import random_guess_expectation, score


def support(dim, *pairs):
    return SupportSet(dim, frozenset(pairs))


class TestScore:
    def test_perfect_recovery(self):
        truth = support(5, (0, 1), (2, 3))
        sc = score(truth, truth)
        assert sc.hamming == 0 and sc.precision == 1.0

    def test_worked_example(self):
        truth = support(4, (1, 2), (1, 3))
        est = support(4, (1, 2), (2, 3))
        sc = score(truth, est)
        assert sc.hamming == 2
        assert sc.precision == 0.5
        # with matched counts: hamming = 2 * (1 - precision) * true edges
        assert sc.hamming == 2 * (1 - sc.precision) * len(truth)

    def test_empty_estimate_has_zero_precision(self):
        truth = support(4, (0, 1), (2, 3), (0, 3))
        sc = score(truth, support(4))
        assert sc.hamming == 3
        assert sc.precision == 0.0

    def test_symmetric_hamming(self):
        a = support(5, (0, 1), (1, 2))
        b = support(5, (0, 1), (3, 4), (2, 4))
        assert score(a, b).hamming == score(b, a).hamming

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            score(support(3), support(4))

    @given(st.integers(0, 5000))
    @settings(max_examples=60, deadline=None)
    def test_matched_count_identity(self, seed):
        rng = np.random.default_rng(seed)
        p = 8
        all_pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
        k = int(rng.integers(1, len(all_pairs)))
        truth_idx = rng.choice(len(all_pairs), size=k, replace=False)
        est_idx = rng.choice(len(all_pairs), size=k, replace=False)
        truth = support(p, *(all_pairs[i] for i in truth_idx))
        est = support(p, *(all_pairs[i] for i in est_idx))
        sc = score(truth, est)
        true_positives = len(truth.pairs & est.pairs)
        assert sc.hamming == len(truth.pairs ^ est.pairs)
        assert sc.hamming == 2 * (k - true_positives)
        assert sc.precision == true_positives / k
        assert 0.0 <= sc.precision <= 1.0
        assert sc.hamming <= p * (p - 1) // 2 * 2


class TestRandomGuess:
    def test_guess_everything(self):
        p, true = 6, 4
        total = p * (p - 1) // 2
        eh, ep = random_guess_expectation(p, true, total)
        assert ep == pytest.approx(true / total)
        assert eh == pytest.approx(total - true)

    def test_hypergeometric_worked_example(self):
        eh, ep = random_guess_expectation(12, 21, 21)
        assert ep == pytest.approx(21 / 66)
        expected_tp = 21 * 21 / 66
        assert eh == pytest.approx(21 + 21 - 2 * expected_tp)

    def test_zero_guesses(self):
        eh, ep = random_guess_expectation(5, 3, 0)
        assert eh == 3.0 and ep == 0.0

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(99)
        p, true_edges, guessed = 8, 6, 9
        total = p * (p - 1) // 2
        all_pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
        truth = set(tuple(all_pairs[i]) for i in rng.choice(total, true_edges, replace=False))
        n_draws = 100_000
        hs, tps = [], []
        for _ in range(n_draws):
            guess = {tuple(all_pairs[i]) for i in rng.choice(total, guessed, replace=False)}
            tp = len(truth & guess)
            tps.append(tp)
            hs.append(len(guess - truth) + len(truth - guess))
        eh, ep = random_guess_expectation(p, true_edges, guessed)
        # hypergeometric variance for the 3-sigma band
        var_tp = (
            guessed * (true_edges / total) * (1 - true_edges / total)
            * (total - guessed) / (total - 1)
        )
        se_h = 2 * np.sqrt(var_tp / n_draws)
        assert np.mean(hs) == pytest.approx(eh, abs=3 * se_h)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            random_guess_expectation(4, 7, 1)
