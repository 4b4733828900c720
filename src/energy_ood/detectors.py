"""Uniform scoring interface over all detectors.

Every scorer returns higher-is-more-OOD, whatever the native sign of the
underlying quantity, so one evaluation harness serves them all. Scorers
take an (n, d) matrix of rows (``featurestore.as_rows``) and return one
score per row.
"""

from __future__ import annotations

import operator

import numpy as np

from .energy_net import mlp_energy
from .featurestore import as_rows, logsumexp_rows
from .mog import gaussian_energy
from .trainer import CorrectionModel

# cell bounds of one block of the brute-force KNN scan: every block has at
# most _KNN_CELLS cells, and at most _KNN_CELLS_PER_DIM cells per feature
_KNN_CELLS = 1 << 24
_KNN_CELLS_PER_DIM = 1 << 17


def _knn_block_rows(n: int, d: int) -> int:
    """Query rows per block of the scan over n training rows of width d.

    Narrow rows get a block of a few MiB, so its passes and its partition run
    in cache. Wide rows get one of up to 2^24 cells, so the GEMM amortises
    packing the training set: 58 rows for 4500 rows of width 2, and 335 for
    50000 rows of width 512.
    """
    return max(1, min(_KNN_CELLS, _KNN_CELLS_PER_DIM * d) // n)


def score_correction(model: CorrectionModel, z) -> np.ndarray:
    """Network energy plus mixture energy, each with its temperature applied;
    the network energy alone for a model without a mixture."""
    e = mlp_energy(model.net, z) / model.net_temperature
    if model.gm is None:
        return e
    return e + gaussian_energy(model.gm, z)


def score_knn(train: np.ndarray, z, k: int) -> np.ndarray:
    """Each row's exact k-th nearest Euclidean distance to the training rows,
    by full scan.

    The squared distances are |q|^2 + |x|^2 - 2 q.x, so the error in one is
    about eps * (|q|^2 + |x|^2), which is large against a small distance
    between rows far from the origin: features with a large common offset
    should be normalised first (``--normalize``).
    The scan holds one block of at most 2^24 squared distances (128 MiB),
    sized by ``_knn_block_rows``, and reuses it for every block of queries.
    A query's distance may differ in the last bits with the block it falls
    in, since BLAS rounds a product differently for different row counts.
    """
    if isinstance(k, bool):  # operator.index takes True as 1; NumPy's bool it refuses
        raise ValueError(f"k must be an integer, got {k!r}")
    try:
        k = operator.index(k)
    except TypeError:
        raise ValueError(f"k must be an integer, got {k!r}") from None
    train = as_rows(train)
    n, d = train.shape
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    queries = as_rows(z, d)
    # a row's order is kept by adding its |q|^2 and by the clip at 0, so a
    # block holds only |x|^2 - 2 q.x, and only the k-th values get the rest
    train_sq = np.einsum("ij,ij->i", train, train)
    rows = _knn_block_rows(n, d)
    block = np.empty((min(rows, len(queries)), n))
    kth = np.empty(len(queries))
    for start in range(0, len(queries), rows):
        part = queries[start : start + rows]
        d2 = np.matmul(part * -2.0, train.T, out=block[: len(part)])
        d2 += train_sq
        d2.partition(k - 1, axis=1)
        kth[start : start + rows] = d2[:, k - 1]
    kth += np.einsum("ij,ij->i", queries, queries)
    return np.sqrt(np.maximum(kth, 0.0, out=kth), out=kth)


def score_msp(logits, temperature: float = 1.0) -> np.ndarray:
    """Negated maximum softmax probability at temperature T; T != 1 is ODIN's
    temperature scaling, without its input preprocessing.

    At a T small enough to overflow the scaled logits the score is not
    finite, with no warning; the caller's finiteness check reports it.
    """
    if not 0 < temperature < np.inf:  # NaN fails too
        raise ValueError("temperature must be finite and positive")
    logits = as_rows(logits)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = logits / temperature
        shifted = scaled - scaled.max(axis=1, keepdims=True)
        return -1.0 / np.exp(shifted).sum(axis=1)


def score_energy_logits(logits, temperature: float = 1.0) -> np.ndarray:
    """-T * logsumexp(logits / T), computed with the max-shift trick; as in
    ``score_msp``, a T that overflows gives a non-finite score and no warning."""
    if not 0 < temperature < np.inf:  # NaN fails too
        raise ValueError("temperature must be finite and positive")
    logits = as_rows(logits)
    with np.errstate(over="ignore", invalid="ignore"):
        return -temperature * logsumexp_rows(logits / temperature)
