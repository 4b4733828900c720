"""Input tensor files, in-distribution feature sets, normalization, batching.

``FILE_KINDS`` is the one table of what each kind of input tensor file
holds, and ``read_input`` the one reader that checks a file against it.
Floats are promoted to float64 for computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensorio import load_tensor, write_tensor


class DegenerateFeatureError(ValueError):
    def __init__(self, row: int, norm: float):
        super().__init__(f"feature row {row} has near-zero norm {norm:.3e}; cannot normalize")
        self.row = row


@dataclass(frozen=True)
class FeatureSet:
    """N feature vectors with integer class labels in [0, num_classes).

    Arrays are copied, promoted (float64 / int64) and frozen read-only, so a
    fitted set can be shared across threads.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labels = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        if feats.ndim != 2:
            raise ValueError(f"features must be a 2-D matrix, got shape {feats.shape}")
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
    """The tensor in a ``kind`` file, checked for its rank, its dtype and finite
    entries, naming the path and the first non-finite row; floats come as f64."""
    rank, dtype = FILE_KINDS[kind]
    arr = load_tensor(path)
    if arr.ndim != rank or arr.dtype != _DTYPES[dtype]:
        raise ValueError(f"{path}: {kind} file must be a rank-{rank} {dtype} tensor")
    finite = np.isfinite(arr.reshape(len(arr), -1)).all(axis=1)
    if not finite.all():
        raise ValueError(f"{path}: row {int(np.argmin(finite))} of the {kind} file is not finite")
    return arr.astype(np.float64) if dtype == "f32" else arr


class ScoreRangeError(RuntimeError):
    """A score the program cannot write: non-finite, or beyond float32 for a score file."""


def as_f32_scores(scores) -> np.ndarray:
    """``scores`` as float32, refusing a non-finite one or one beyond the float32 range.

    The error names the first bad value's row in row-major order, which for a
    2-D energy grid is its row in the grid CSV.
    """
    scores = np.asarray(scores, dtype=np.float64)
    bad = ~(np.abs(scores) <= np.finfo(np.float32).max)
    if bad.any():
        row = int(np.argmax(bad))
        raise ScoreRangeError(f"score {scores.flat[row]!r} of row {row} does not fit a "
                              f"float32 score file")
    return scores.astype(np.float32)


def load_feature_set(features_path, labels_path, num_classes: int | None = None) -> FeatureSet:
    """Load a feature matrix and its labels from tensor files.

    ``num_classes`` defaults to ``max(labels) + 1``.
    """
    feats = read_input(features_path, "features")
    labels = read_input(labels_path, "labels")
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    return FeatureSet(feats, labels, num_classes)


def save_feature_set(fs: FeatureSet, features_path, labels_path) -> None:
    write_tensor(features_path, fs.features.astype(np.float32))
    write_tensor(labels_path, fs.labels.astype(np.uint32))


def as_batch(z, dim: int | None = None, dtype=np.float64) -> tuple[np.ndarray, bool]:
    """View a vector or a matrix of rows as rows of ``dtype``, flagging the vector case.

    This is the package's one single-vs-batch convention: every scorer,
    energy and gradient accepts either form, computes on rows, and returns
    the first row's result when ``single`` is set. ``dim``, when given, is the
    required row width. Rows already of ``dtype`` are not copied; a value
    beyond a narrower ``dtype``'s range becomes inf, with no warning.
    """
    with np.errstate(over="ignore"):
        z = np.asarray(z, dtype=dtype)
    single = z.ndim == 1
    batch = z[None, :] if single else z
    if batch.ndim != 2 or (dim is not None and batch.shape[1] != dim):
        want = "a vector or an (n, d) matrix" if dim is None else f"shape (n, {dim}) or ({dim},)"
        raise ValueError(f"expected {want}, got shape {z.shape}")
    return batch, single


def normalize_rows(x: np.ndarray) -> np.ndarray:
    """Scale every row to unit Euclidean norm; no epsilon smoothing.

    Rows with norm below 1e-12 raise DegenerateFeatureError instead of being
    clamped.
    """
    batch, single = as_batch(x)
    norms = np.linalg.norm(batch, axis=-1, keepdims=True)
    small = norms[:, 0] < 1e-12
    if small.any():
        row = int(np.argmax(small))
        raise DegenerateFeatureError(row, float(norms[row, 0]))
    out = batch / norms
    return out[0] if single else out


def normalize_features(fs: FeatureSet) -> FeatureSet:
    return FeatureSet(normalize_rows(fs.features), fs.labels, fs.num_classes)


def minibatch_indices(n: int, batch_size: int, rng: np.random.Generator):
    """Yield shuffled index batches covering all n samples once per epoch."""
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start : start + batch_size]
