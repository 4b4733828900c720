"""Uniform scoring interface over all detectors.

Every scorer returns higher-is-more-OOD, whatever the native sign of the
underlying quantity, so one evaluation harness serves them all. Scorers
accept a single vector or a batch of rows.
"""

from __future__ import annotations

import numpy as np

from .energy_net import mlp_energy
from .featurestore import as_batch
from .mog import gaussian_energy
from .trainer import CorrectionModel

# distance-matrix chunking bound for the brute-force KNN scan
_KNN_CELLS = 1 << 24


def score_correction(model: CorrectionModel, z) -> float | np.ndarray:
    """Network energy plus mixture energy, each with its temperature applied;
    the network energy alone for a model without a mixture."""
    e = mlp_energy(model.net, z) / model.net_temperature
    if model.gm is None:
        return e
    return e + gaussian_energy(model.gm, z)


def score_knn(train: np.ndarray, z, k: int) -> float | np.ndarray:
    """Exact k-th nearest Euclidean distance to the training set, by full scan."""
    train = np.asarray(train, dtype=np.float64)
    if train.ndim != 2:
        raise ValueError("train must be an (n, d) matrix")
    n = train.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    queries, single = as_batch(z, train.shape[1])
    # in place throughout: the only (rows, n) array is d2, and no (n, d) copy
    # of the training set is made, so a scan allocates the same few blocks
    # each call instead of faulting in fresh pages for several temporaries
    train_sq = np.einsum("ij,ij->i", train, train)
    out = np.empty(queries.shape[0])
    chunk = max(1, _KNN_CELLS // n)
    for start in range(0, queries.shape[0], chunk):
        rows = queries[start : start + chunk]
        d2 = rows @ train.T
        d2 *= -2.0
        d2 += (rows ** 2).sum(axis=1)[:, None]
        d2 += train_sq
        np.maximum(d2, 0.0, out=d2)
        d2.partition(k - 1, axis=1)
        out[start : start + chunk] = np.sqrt(d2[:, k - 1])
    return float(out[0]) if single else out


def score_msp(logits) -> float | np.ndarray:
    """Negated maximum softmax probability."""
    batch, single = as_batch(logits)
    shifted = batch - batch.max(axis=1, keepdims=True)
    score = -1.0 / np.exp(shifted).sum(axis=1)
    return float(score[0]) if single else score


def score_odin_temperature(logits, temperature: float) -> float | np.ndarray:
    """Negated maximum softmax probability at temperature T (no input preprocessing)."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    batch, single = as_batch(logits)
    score = score_msp(batch / temperature)
    return float(score[0]) if single else score


def score_energy_logits(logits, temperature: float = 1.0) -> float | np.ndarray:
    """-T * logsumexp(logits / T), computed with the max-shift trick."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    batch, single = as_batch(logits)
    scaled = batch / temperature
    m = scaled.max(axis=1)
    score = -temperature * (m + np.log(np.exp(scaled - m[:, None]).sum(axis=1)))
    return float(score[0]) if single else score
