"""Structure-recovery scoring: Hamming distance, precision and random baselines."""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch
from .matops import SupportSet


@dataclass(frozen=True)
class RecoveryScore:
    """Edge recovery of one estimate against the ground truth.

    ``hamming`` is false positives plus false negatives over unordered
    off-diagonal pairs. ``precision`` is true positives over estimated
    edges, reported as 0.0 when there are none.
    """

    hamming: int
    precision: float


def score(truth: SupportSet, est: SupportSet) -> RecoveryScore:
    """Count edge agreements between the true and estimated supports."""
    if truth.dim != est.dim:
        raise DimensionMismatch(
            f"support dimensions disagree: {truth.dim} vs {est.dim}"
        )
    hits = len(truth.pairs & est.pairs)
    return RecoveryScore(
        hamming=len(truth.pairs ^ est.pairs),
        precision=hits / len(est.pairs) if est.pairs else 0.0,
    )


def random_guess_expectation(p: int, true_edges: int,
                             guessed_edges: int) -> tuple[float, float]:
    """Expected (hamming, precision) of guessing edges uniformly at random.

    Guessing ``guessed_edges`` of the p(p-1)/2 pairs without replacement
    makes the true-positive count hypergeometric with mean
    guessed * true / total, from which both expectations follow.
    """
    total = p * (p - 1) // 2
    if not (0 <= true_edges <= total and 0 <= guessed_edges <= total):
        raise ValueError(f"edge counts must lie in [0, {total}]")
    if total == 0:
        return (0.0, 0.0)
    expected_tp = guessed_edges * true_edges / total
    expected_precision = true_edges / total if guessed_edges > 0 else 0.0
    expected_hamming = true_edges + guessed_edges - 2.0 * expected_tp
    return (expected_hamming, expected_precision)
