"""Input tensor files, ID feature sets, normalization, row log-sum-exp, batching.

``FILE_KINDS`` is the one table of what each kind of input tensor file
holds, and ``read_input`` the one reader that checks a file against it.
Floats are promoted to float64 for computation. ``ComputationError`` is the
package's one error for a computation that failed on valid input; bad input
raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensorio import load_tensor, write_tensor


def as_rows(z, dim: int | None = None, dtype=np.float64) -> np.ndarray:
    """View an (n, d) matrix as rows of ``dtype``: the package's one input form.

    Every scorer, energy and gradient takes rows and returns one value (or one
    gradient row) per row. ``dim``, when given, is the required row width;
    anything but a matrix of that width raises ValueError naming the expected
    shape. Rows already of ``dtype`` are not copied; a value beyond a narrower
    ``dtype``'s range becomes inf, with no warning.
    """
    with np.errstate(over="ignore"):
        z = np.asarray(z, dtype=dtype)
    if z.ndim != 2 or (dim is not None and z.shape[1] != dim):
        raise ValueError(f"expected shape (n, {'d' if dim is None else dim}), got shape {z.shape}")
    return z


@dataclass(frozen=True)
class FeatureSet:
    """N feature vectors with integer class labels in [0, num_classes).

    The arrays are promoted (float64 / int64) and made read-only, so a set can
    be shared across threads; one already C-contiguous in its dtype is kept,
    not copied, so a write to the caller's array raises.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        feats = np.ascontiguousarray(as_rows(self.features))
        labels = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        if labels.ndim != 1:
            raise ValueError(f"labels must be a 1-D vector, got shape {labels.shape}")
        if feats.shape[0] != labels.shape[0]:
            raise ValueError(f"{feats.shape[0]} feature rows but {labels.shape[0]} labels")
        if self.num_classes < 1:
            raise ValueError("num_classes must be at least 1")
        if not np.isfinite(feats).all():
            bad = int(np.argwhere(~np.isfinite(feats).all(axis=1))[0, 0])
            raise ValueError(f"non-finite feature entry at row {bad}")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            bad = int(np.argwhere((labels < 0) | (labels >= self.num_classes))[0, 0])
            raise ValueError(
                f"label {labels[bad]} at row {bad} outside [0, {self.num_classes})"
            )
        feats.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


# rank and dtype of each kind of input tensor file
FILE_KINDS = {"features": (2, "f32"), "logits": (2, "f32"), "labels": (1, "u32"),
              "scores": (1, "f32")}
_DTYPES = {"f32": np.float32, "u32": np.uint32}


def read_input(path, kind: str) -> np.ndarray:
    """The tensor in a ``kind`` file, checked for its format, rank, dtype and finite
    entries, naming the path (and a non-finite entry's row); floats come as f64."""
    rank, dtype = FILE_KINDS[kind]
    try:
        arr = load_tensor(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if arr.ndim != rank or arr.dtype != _DTYPES[dtype]:
        raise ValueError(f"{path}: {kind} file must be a rank-{rank} {dtype} tensor")
    finite = np.isfinite(arr.reshape(len(arr), -1)).all(axis=1)
    if not finite.all():
        raise ValueError(f"{path}: row {int(np.argmin(finite))} of the {kind} file is not finite")
    return arr.astype(np.float64) if dtype == "f32" else arr


class ComputationError(RuntimeError):
    """A computation that failed on valid input: a covariance that is not
    positive definite, diverged Langevin chains or training, or a score the
    program cannot write. The CLI exits 1 for it, and 2 for a ValueError."""


def save_scores(path, scores) -> None:
    """Write ``scores``, of any shape, as a float32 tensor file; a non-finite
    score or one beyond the float32 range raises ComputationError before the
    file is opened.

    The error names the first bad value's row in row-major order, which for a
    2-D energy grid is its row in the grid CSV.
    """
    scores = np.asarray(scores, dtype=np.float64)
    bad = ~(np.abs(scores) <= np.finfo(np.float32).max)
    if bad.any():
        row = int(np.argmax(bad))
        raise ComputationError(f"score {float(scores.flat[row])!r} of row {row} does not fit a "
                               f"float32 score file")
    write_tensor(path, scores.astype(np.float32))


def load_feature_set(features_path, labels_path, num_classes: int | None = None) -> FeatureSet:
    """Load a feature matrix and its labels from tensor files.

    ``num_classes`` defaults to ``max(labels) + 1``.
    """
    feats = read_input(features_path, "features")
    labels = read_input(labels_path, "labels")
    if len(feats) != len(labels):
        raise ValueError(f"features {features_path} has {len(feats)} rows but "
                         f"labels {labels_path} has {len(labels)}")
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    return FeatureSet(feats, labels, num_classes)


def save_feature_set(fs: FeatureSet, features_path, labels_path) -> None:
    write_tensor(features_path, fs.features.astype(np.float32))
    write_tensor(labels_path, fs.labels.astype(np.uint32))


def logsumexp_rows(x: np.ndarray) -> np.ndarray:
    """log sum_j exp(x[i, j]) of each row, shifted by its maximum: no term overflows, one is 1."""
    m = x.max(axis=1)
    shifted = x - m[:, None]
    return m + np.log(np.exp(shifted, out=shifted).sum(axis=1))


def normalize_rows(x) -> np.ndarray:
    """Scale every row to unit Euclidean norm; no epsilon smoothing.

    A row with norm below 1e-12 raises ValueError naming it instead of being
    clamped.
    """
    x = as_rows(x)
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    small = norms[:, 0] < 1e-12
    if small.any():
        row = int(np.argmax(small))
        raise ValueError(f"feature row {row} has near-zero norm {norms[row, 0]:.3e}; "
                         "cannot normalize")
    return x / norms


def normalize_features(fs: FeatureSet) -> FeatureSet:
    return FeatureSet(normalize_rows(fs.features), fs.labels, fs.num_classes)


def row_blocks(n: int, most: int) -> list[slice]:
    """The fewest near-equal blocks of at most ``most`` rows covering n rows, the
    cut of every batched scan. From ``most`` = 3 a split batch has no one-row
    block (a GEMV); for a multiple of 256, every bound but n is on a multiple
    of 64 rows, where BLAS's row and column tiles end (README.md says why)."""
    count = -(-n // most)
    step = 64 if most % 256 == 0 else 1
    bounds = [-(-i * n // (step * count)) * step for i in range(count)] + [n]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def block_rows(width: int) -> int:
    """Rows per block of the mixture's whitening (``width`` = d) and the network's
    energy pass (its widest layer), the one rule of both: 2^16 cells, so a narrow
    pass runs in cache (32768 rows at d = 2, 512 at width 128), but at least 4
    rows per unit, so a wide block is 4 times a width x width matrix and its GEMMs
    stay large (2048 rows at width 512, 4096 at 1024; README.md has timings)."""
    return max((1 << 16) // width, 4 * width)


def minibatch_indices(n: int, batch_size: int, rng: np.random.Generator):
    """Yield shuffled index batches covering all n samples once per epoch."""
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start : start + batch_size]
