"""Detection metrics: AUROC, FPR at fixed TPR, and threshold selection.

Scores are oriented higher-is-more-OOD and OOD is the positive class. Ties
count one half in AUROC; thresholds use inclusive >= semantics.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np


def _checked(scores, name: str) -> np.ndarray:
    arr = np.asarray(scores, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError(f"{name} scores are empty")
    if np.isnan(arr).any():
        raise ValueError(f"{name} scores contain NaN")
    return arr


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean rank of their group."""
    uniq, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts
    avg = (starts + 1 + ends) / 2.0
    return avg[inverse]


def auroc(id_scores, ood_scores) -> float:
    """Probability a random OOD score exceeds a random ID score, ties counted 1/2."""
    id_s = _checked(id_scores, "id")
    ood_s = _checked(ood_scores, "ood")
    ranks = _average_ranks(np.concatenate([id_s, ood_s]))
    n_o = ood_s.size
    rank_sum = ranks[id_s.size :].sum()
    return float((rank_sum - n_o * (n_o + 1) / 2.0) / (id_s.size * n_o))


def fpr_at_tpr(id_scores, ood_scores, tpr: float = 0.95) -> tuple[float, float]:
    """FPR at the largest threshold gamma detecting at least ``tpr`` of the OOD set.

    Returns (fpr, gamma) where gamma is a score value; a sample is flagged
    OOD when its score is >= gamma.
    """
    if not 0 < tpr <= 1:
        raise ValueError("tpr must be in (0, 1]")
    id_s = _checked(id_scores, "id")
    ood_s = _checked(ood_scores, "ood")
    ood_sorted = np.sort(ood_s)
    candidates = np.unique(ood_s)
    detected = ood_s.size - np.searchsorted(ood_sorted, candidates, side="left")
    feasible = candidates[detected / ood_s.size >= tpr]
    gamma = float(feasible.max())  # nonempty: the minimum detects everything
    fpr = float(np.mean(id_s >= gamma))
    return fpr, gamma


def threshold_gamma_id(id_scores, keep: float = 0.95) -> float:
    """Smallest gamma keeping at least ``keep`` of the ID scores strictly below it.

    Candidates are the distinct score values plus one ulp above the maximum,
    so a usable threshold exists even when keep = 1 or all scores tie.
    """
    if not 0 < keep <= 1:
        raise ValueError("keep must be in (0, 1]")
    id_s = np.sort(_checked(id_scores, "id"))
    n = id_s.size
    k = int(np.ceil(keep * n))
    if k > 0 and (k - 1) / n >= keep:  # float slop in the ceil
        k -= 1
    if k / n < keep:
        k += 1
    cutoff = id_s[k - 1]
    above = id_s[id_s > cutoff]
    return float(above[0]) if above.size else float(np.nextafter(id_s[-1], np.inf))


@dataclass
class EvalReport:
    """Detection summary for one ID/OOD score pair."""

    auroc: float
    fpr95: float
    threshold: float
    n_id: int
    n_ood: int
    detector: str = ""
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate(id_scores, ood_scores, tpr: float = 0.95, detector: str = "",
             params: dict | None = None) -> EvalReport:
    id_s = _checked(id_scores, "id")
    ood_s = _checked(ood_scores, "ood")
    fpr, gamma = fpr_at_tpr(id_s, ood_s, tpr)
    return EvalReport(
        auroc=auroc(id_s, ood_s),
        fpr95=fpr,
        threshold=gamma,
        n_id=int(id_s.size),
        n_ood=int(ood_s.size),
        detector=detector,
        params=dict(params or {}),
    )
