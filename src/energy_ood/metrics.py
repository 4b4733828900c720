"""Detection metrics: AUROC, FPR at 95% TPR, and the ID threshold.

Every rate is ``TPR`` (0.95): the FPR is taken where ``TPR`` of the OOD scores are
detected, and the ID threshold keeps ``TPR`` of the ID scores. Scores are
oriented higher-is-more-OOD and OOD is the positive class. Ties count one
half in AUROC; thresholds use inclusive >= semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TPR = 0.95  # the true positive rate of every reported FPR and ID threshold


def _checked(scores, name: str) -> np.ndarray:
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} scores: expected shape (n,), got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} scores are empty")
    if np.isnan(arr).any():
        raise ValueError(f"{name} scores contain NaN")
    return arr


def _min_count(fraction: float, n: int) -> int:
    """Smallest k with k / n >= fraction, for fraction in (0, 1]: at ``TPR``, the
    scores a threshold must keep."""
    k = math.ceil(fraction * n)
    if (k - 1) / n >= fraction:  # float slop in the product
        k -= 1
    if k / n < fraction:
        k += 1
    return k


def auroc(id_scores, ood_scores) -> float:
    """Probability a random OOD score exceeds a random ID score, ties counted 1/2."""
    id_s = np.sort(_checked(id_scores, "id"))
    ood_s = np.sort(_checked(ood_scores, "ood"))
    # per OOD score, left + right = 2 * (ID scores below) + (ID scores equal)
    twice_pairs = (np.searchsorted(id_s, ood_s, "left").sum()
                   + np.searchsorted(id_s, ood_s, "right").sum())
    return float(twice_pairs / (2 * id_s.size * ood_s.size))


def fpr_at_tpr(id_scores, ood_scores) -> tuple[float, float]:
    """FPR at the largest threshold gamma detecting at least ``TPR`` of the OOD set.

    Returns (fpr, gamma) where gamma is a score value; a sample is flagged
    OOD when its score is >= gamma. Gamma is the k-th largest OOD score for
    the smallest k reaching ``TPR``: any larger score detects at most k - 1.
    """
    id_s = _checked(id_scores, "id")
    ood_s = _checked(ood_scores, "ood")
    i = ood_s.size - _min_count(TPR, ood_s.size)
    gamma = float(np.partition(ood_s, i)[i])
    return float(np.count_nonzero(id_s >= gamma) / id_s.size), gamma


def threshold_gamma_id(id_scores) -> float:
    """Smallest gamma keeping at least ``TPR`` of the ID scores strictly below it.

    Candidates are the distinct score values plus one ulp above the maximum,
    so a usable threshold exists even when fewer than 20 scores make ``TPR``
    keep them all, or all scores tie.
    """
    id_s = np.sort(_checked(id_scores, "id"))
    i = np.searchsorted(id_s, id_s[_min_count(TPR, id_s.size) - 1], "right")
    return float(id_s[i]) if i < id_s.size else float(np.nextafter(id_s[-1], np.inf))


@dataclass
class EvalReport:
    """Detection summary for one ID/OOD score pair."""

    auroc: float
    fpr95: float
    threshold: float
    n_id: int
    n_ood: int
    detector: str = ""


def evaluate(id_scores, ood_scores, detector: str = "") -> EvalReport:
    id_s = _checked(id_scores, "id")
    ood_s = _checked(ood_scores, "ood")
    fpr, gamma = fpr_at_tpr(id_s, ood_s)
    return EvalReport(
        auroc=auroc(id_s, ood_s),
        fpr95=fpr,
        threshold=gamma,
        n_id=int(id_s.size),
        n_ood=int(ood_s.size),
        detector=detector,
    )
