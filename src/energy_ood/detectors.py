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
from .featurestore import as_rows, logsumexp_rows, row_blocks
from .mog import gaussian_energy
from .trainer import CorrectionModel

# most training rows per chunk of the KNN scan; a multiple of 256
_KNN_CHUNK = 8192


def _knn_block(n: int, k: int, d: int) -> tuple[int, int, list[int]]:
    """Query rows per block, buffer columns and chunk bounds of the KNN scan
    over n training rows of width d.

    The chunks are ``featurestore.row_blocks`` of at most ``_KNN_CHUNK``
    rows, with every bound but n on a multiple of 64 rows, so none is narrow
    and each ends on a BLAS column tile. A bank of at most ``_KNN_CHUNK``
    rows is one chunk and n columns; a larger one takes k + ``_KNN_CHUNK``
    columns, the k best kept so far and the next chunk. A block holds at
    most 2^17 d and at most 2^24 cells: narrow rows get a buffer of a few
    MiB, so its passes and its partition run in cache, and wide rows one of
    up to 128 MiB, so the GEMM amortises packing a chunk. That is 58 rows
    for 4500 rows of width 2, and 2035 for any bank of more than 8192 rows
    of width 512 at k = 50.
    """
    bounds = [chunk.start for chunk in row_blocks(n, _KNN_CHUNK)] + [n]
    cols = min(n, k + _KNN_CHUNK)
    return max(1, min(1 << 24, d << 17) // cols), cols, bounds


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
    Each block of queries streams the training rows once, a chunk at a
    time: a chunk's |x|^2 - 2 q.x go into one reused buffer right after the
    k best kept so far, and a partition keeps the k best again. The buffer,
    sized by ``_knn_block``, has k + ``_KNN_CHUNK`` columns (n for a bank of
    one chunk) and at most 2^24 cells (128 MiB) whatever the bank's size,
    so the queries per block do not shrink as the bank grows.
    ``featurestore.row_blocks``, the cut of every batched scan, also cuts
    the queries, so a call of several queries has no one-query block unless
    k is so large that a block holds 1 or 2. A distance is one entry of one
    product, the same with chunks as without. A one-query call is still a
    GEMV, which BLAS rounds differently from a GEMM and OpenBLAS splits
    between threads at a column set by its width, so it may change with the
    chunking; and moving a block edge can move a query's last bit.
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
    # a row's order is kept by adding its |q|^2 and by the clip at 0, so the
    # buffer holds only |x|^2 - 2 q.x, and only the k-th values get the rest
    train_sq = np.einsum("ij,ij->i", train, train)
    rows, cols, bounds = _knn_block(n, k, d)
    buf = np.empty((min(rows, len(queries)), cols))
    kth = np.empty(len(queries))
    for block in row_blocks(len(queries), rows):
        part = queries[block] * -2.0
        kept = 0
        for lo, hi in zip(bounds, bounds[1:]):
            d2 = buf[: len(part), : kept + hi - lo]
            np.matmul(part, train[lo:hi].T, out=d2[:, kept:])
            d2[:, kept:] += train_sq[lo:hi]
            kept = min(k, d2.shape[1])
            if kept == k:
                d2.partition(k - 1, axis=1)
        kth[block] = d2[:, k - 1]
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
