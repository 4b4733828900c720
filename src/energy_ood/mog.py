"""Mixture of class-conditional Gaussians with one tied covariance matrix.

Parameters come from closed-form empirical estimates: mixing weights are
class frequencies, means are class means, and the tied covariance is the
pooled within-class scatter divided by N, plus a diagonal shrinkage term.

Two energy views coexist on purpose. ``gaussian_energy`` is the raw
log-sum-exp over negated quadratic forms, with no mixing weights, no 1/2
factor and no normalizer, divided by the mixture temperature; it is the
reference energy the correction network is added to. ``log_density`` and
``sample_mog`` use the fully normalized mixture density. The two are not
rescalings of each other. Training draws its chains' start points with
``sample_mog``; nothing in the CLI calls ``log_density``, which stays because
acceptance criterion 3 integrates it to check the normalization.

All four batch functions (``gaussian_energy``, ``gaussian_energy_grad``,
``mahalanobis_ood_score``, ``log_density``) share ``_quad_forms``, which
works in whitened space. With L L^T = Sigma and W = L^-1,
(z - mu_c)^T Sigma^-1 (z - mu_c) = |W z - W mu_c|^2: each row is whitened
once as ``z @ W.T`` and all n x C quadratic forms come from one matrix
product against the whitened means, at O(n d^2 + n C d) instead of a
triangular solve per difference vector. ``featurestore.row_blocks``, the cut
of every batched scan, takes the rows in near-equal blocks of at most 2^21
whitened entries, so memory does not grow with the batch beyond its n x C
forms; a one-row call is still a GEMV, and moving a block edge can move a
row's last bit. Every per-call product with W or L goes through
``_times_lower_t``, which multiplies by the triangle's nonzero blocks only:
3/4 of the dense product's multiply-adds, and the same bits at the shapes its
docstring lists. Only a row whose nearest form cancels (q_min below 1/4 of
|W z|^2 + |W mu|^2, as at a mean) is whitened a second time, in difference
form; ``_quad_forms`` derives the bound from the cross term's rounding
error. L is inverted once per mixture: ``_from_factor``, which builds the
mixtures of ``from_moments`` and of the archive loader, keeps the W it inverts
for the precision, and a mixture built directly derives it on first use. The
whitened means are derived on first use too; both are cached.

A mixture holds one float dtype, like a network: float64, or float32 when
every array it is given is float32. ``float32_mixture`` makes the float32
copy that training's Langevin chains take the mixture gradient from; the
batch functions compute in the mixture's dtype, and only float64 mixtures
are stored.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .featurestore import ComputationError, FeatureSet, as_rows, logsumexp_rows, row_blocks
from .tensorio import archive_scalar, write_archive


_ARRAYS = ("means", "covariance", "chol_lower", "precision", "mixing")


@dataclass(frozen=True)
class GaussianMixture:
    means: np.ndarray        # (C, D) component means
    covariance: np.ndarray   # (D, D) tied covariance, shrinkage included
    chol_lower: np.ndarray   # lower-triangular L with L L^T = covariance
    precision: np.ndarray    # inverse of covariance
    mixing: np.ndarray       # (C,) simplex weights
    temperature: float = 1.0
    shrinkage: float = 0.0

    def __post_init__(self):
        arrays = {name: np.asarray(getattr(self, name)) for name in _ARRAYS}
        dtype = np.float32 if all(a.dtype == np.float32 for a in arrays.values()) \
            else np.float64
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr, dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        # written so that NaN fails each check
        if not 0 < self.temperature < np.inf:
            raise ValueError("temperature must be finite and positive")
        if not 0 <= self.shrinkage < np.inf:
            raise ValueError("shrinkage must be finite and nonnegative")

    @cached_property
    def whitener(self) -> np.ndarray:
        """W = L^-1, so that W Sigma W^T = I; lower-triangular, computed on first use
        unless ``_from_factor`` already set it."""
        w = _inverse_lower(self.chol_lower)
        w.setflags(write=False)
        return w

    @cached_property
    def white_means(self) -> np.ndarray:
        """(C, D) whitened component means, W mu_c as rows."""
        wm = self.means @ self.whitener.T
        wm.setflags(write=False)
        return wm

    @property
    def dtype(self) -> np.dtype:
        return self.means.dtype

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @classmethod
    def from_moments(cls, means, covariance, mixing=None, temperature: float = 1.0,
                     shrinkage: float = 0.0) -> "GaussianMixture":
        """Build a mixture from explicit means and covariance.

        The covariance is symmetrized and factorized here; ``mixing`` defaults
        to uniform weights. ``means`` and ``mixing`` already C-contiguous float64
        are kept, not copied, and made read-only, as every array a mixture is
        given: a write to them raises rather than change it under its whitener.
        """
        means = np.atleast_2d(np.asarray(means, dtype=np.float64))
        cov = np.asarray(covariance, dtype=np.float64)
        cov = 0.5 * (cov + cov.T)
        if mixing is None:
            mixing = np.full(means.shape[0], 1.0 / means.shape[0])
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise ComputationError(
                f"tied covariance is not positive definite with shrinkage {shrinkage:.3e}; "
                "pass a larger shrinkage"
            ) from exc
        return _from_factor(means, cov, chol, mixing, temperature, shrinkage)


def _from_factor(means, cov, chol, mixing, temperature, shrinkage) -> GaussianMixture:
    """The mixture whose covariance ``cov`` has Cholesky factor ``chol``: W = L^-1
    gives the symmetrized precision W^T W and fills the ``whitener`` cache."""
    w = _inverse_lower(chol)
    precision = w.T @ w
    gm = GaussianMixture(means, cov, chol, 0.5 * (precision + precision.T), mixing,
                         temperature, shrinkage)
    w.setflags(write=False)
    gm.__dict__["whitener"] = w
    return gm


def float32_mixture(gm: GaussianMixture) -> GaussianMixture:
    """``gm`` with every array in float32. The whitener and whitened means are
    cast from ``gm``'s float64 ones, not derived again in float32; an entry
    beyond the float32 range becomes inf."""
    with np.errstate(over="ignore"):
        arrays = [getattr(gm, name).astype(np.float32) for name in _ARRAYS]
        cached = {name: getattr(gm, name).astype(np.float32)
                  for name in ("whitener", "white_means")}
    copy = GaussianMixture(*arrays, gm.temperature, gm.shrinkage)
    for name, arr in cached.items():
        arr.setflags(write=False)
        copy.__dict__[name] = arr
    return copy


def _inverse_lower(chol: np.ndarray) -> np.ndarray:
    """L^-1 of a lower-triangular L; LAPACK's general inverse leaves round-off
    above the diagonal, which is zeroed so the result is exactly lower-triangular."""
    return np.tril(np.linalg.inv(chol))


def check_parameters(means, chol_lower, mixing, temperature, shrinkage) -> None:
    """Check the parameters a mixture archive stores; raises ValueError on violation.

    The signs of temperature and shrinkage are checked by GaussianMixture itself.
    """
    if not all(np.isfinite(a).all() for a in (means, chol_lower, mixing, temperature, shrinkage)):
        raise ValueError("mixture has non-finite parameters")
    if means.ndim != 2 or chol_lower.shape != (means.shape[1],) * 2 \
            or mixing.shape != means.shape[:1]:
        raise ValueError(f"mixture entries disagree in shape: means {means.shape}, "
                         f"chol_lower {chol_lower.shape}, mixing {mixing.shape}")
    if np.any(np.diag(chol_lower) <= 0):
        raise ValueError("Cholesky factor has non-positive diagonal")
    if np.any(np.triu(chol_lower, 1) != 0):
        raise ValueError("Cholesky factor is not lower-triangular")
    if abs(mixing.sum() - 1.0) > 1e-12 or np.any(mixing < 0):
        raise ValueError("mixing weights are not a simplex vector")


def fit_mog(fs: FeatureSet, shrinkage: float | None = None,
            temperature: float = 1.0) -> GaussianMixture:
    """Fit the class-conditional mixture by empirical estimates.

    mixing_c = N_c / N, mean_c = class mean, and the tied covariance is the
    within-class scatter summed over classes and divided by N, then shrunk by
    ``shrinkage * I`` (default 1e-6 * trace / D) before factorization.
    """
    if shrinkage is not None and not 0 <= shrinkage < np.inf:
        raise ValueError(f"shrinkage must be finite and nonnegative, got {shrinkage}")
    feats, labels = fs.features, fs.labels
    n, d = feats.shape
    # n samples cannot give classes 0..n//2 two each, so the first short class, if
    # any, is below ``head``: nothing is sized by a huge num_classes before it is found
    head = min(fs.num_classes, n // 2 + 1)
    counts = np.bincount(labels[labels < head], minlength=head)
    if counts.min() < 2:
        bad = int(np.argmax(counts < 2))
        raise ValueError(
            f"class {bad} has {counts[bad]} samples; need at least 2 per class"
        )
    if n <= d:
        warnings.warn(
            f"only {n} samples for {d} dimensions; covariance may be ill-conditioned",
            RuntimeWarning,
        )

    mixing = counts / n
    means = np.zeros((fs.num_classes, d))
    scatter = np.zeros((d, d))
    for c in range(fs.num_classes):
        x = feats[labels == c]
        means[c] = x.mean(axis=0)
        centered = x - means[c]
        scatter += centered.T @ centered
    cov = scatter / n

    if shrinkage is None:
        shrinkage = 1e-6 * np.trace(cov) / d
    cov = cov + shrinkage * np.eye(d)
    return GaussianMixture.from_moments(means, cov, mixing, temperature, shrinkage)


# kappa of ``_quad_forms``: a row's nearest form is recomputed in difference
# form when it is below kappa times the squared norms it is the cross term of
_RECOMPUTE_BELOW = 0.25

# ``_times_lower_t`` multiplies an x of fewer entries densely (8 rows at d=512)
_SPLIT_ENTRIES = 4096

# ``_quad_forms`` whitens at most this many entries at a time (16 MiB of
# float64): 4096 rows of width 512
_WHITEN_CELLS = 1 << 21


def _times_lower_t(x: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """x @ lower.T for a lower-triangular ``lower``, without its zero upper-right block.

    Output column i needs only the first i + 1 columns of x. So the first h
    output columns are x[:, :h] @ lower[:h, :h].T and the rest are
    x @ lower[h:].T, 3/4 of the dense product's multiply-adds at h = d/2.

    h is d/2 rounded down to a multiple of 16. The product stays dense below
    d = 32, which keeps the 2-D toy's whitening one BLAS call (per-call cost
    dominates there) and gives the second product at least 16 output
    columns, never one, which BLAS would take as a matrix-vector product.
    It also stays dense for an x of fewer than ``_SPLIT_ENTRIES`` entries:
    OpenBLAS picks its kernels and thread count from a product's size, and
    the halves of a product of a few rows round differently from the whole
    (3 and 4 rows at d=512 did).

    With OpenBLAS 0.3.31 (2 threads, AVX-512 Xeon) the result equals
    ``x @ lower.T`` bit for bit, in float64 and float32, at every width that
    is a multiple of 32 from 32 to 768 and every row count tried (1 to 79,
    and up to 4096). Some other widths, and widths above 768, where OpenBLAS
    sums the halves' inner dimension in other chunks than the whole's,
    differ in the last bits at some row counts.
    """
    d = lower.shape[0]
    h = d // 32 * 16
    if not h or x.size < _SPLIT_ENTRIES:
        return x @ lower.T
    out = np.empty((x.shape[0], d), dtype=np.result_type(x, lower))
    np.matmul(x[:, :h], lower[:h, :h].T, out=out[:, :h])
    np.matmul(x, lower[h:].T, out=out[:, h:])
    return out


def _quad_forms(gm: GaussianMixture, z: np.ndarray) -> np.ndarray:
    """(n, C) matrix of (z - mu_c)^T Sigma^-1 (z - mu_c) = |W z - W mu_c|^2.

    Each row is whitened once, as a = W z (``_times_lower_t``), and every
    form comes from one product against the whitened means b = W mu_c, in
    cross-term form |a|^2 + |b|^2 - 2 a.b. Rounded in dimension d, that sum
    errs by at most about 2 (d + 2) eps (|a|^2 + |b|^2): the two norms and
    the cross term (|2 a.b| <= |a|^2 + |b|^2) each lose d eps of their size,
    and the two additions about 2 eps. Relative to the form this is large
    only where the terms cancel, near a mean. So a row's nearest form q_min
    is recomputed in difference form, |W (z - mu_n)|^2, as exact as a
    triangular solve and 0 at a mean, only when q_min < kappa (|a|^2 +
    |b_n|^2), with kappa = ``_RECOMPUTE_BELOW`` = 1/4. A kept q_min is then
    within 8 (d + 2) eps of the solve: 9e-13 at d=512 in float64, under the
    relative tolerance of 1e-11 of the oracle tests in ``tests/test_mog.py``.
    The test looks at one row, so whether a row is recomputed does not
    depend on the rest of its batch. The other forms stay in cross-term
    form, clipped at 0.

    ``featurestore.row_blocks`` takes the batch in near-equal blocks of at
    most ``_WHITEN_CELLS`` whitened entries, so a 50000 x 512 batch holds
    16 MiB of whitened rows rather than 205 MB; each block's whitening,
    cross term, norms and recomputed rows are done before the next. A batch
    of up to 4096 rows at d=512 is one block; a split batch has no one-row
    block, but a one-row call is still a GEMV. With OpenBLAS on 2 threads,
    blocks of 683 rows and more matched the whole batch bit for bit (at
    d=512 a block has at least 2048); blocks of 100 rows or fewer, run on
    one thread, differed in the last bits of some cross terms, so moving a
    block edge can move a row's last bit.

    On the 512-d benchmark features q_min / (|a|^2 + |b_n|^2) lies between
    0.84 and 1.01 for scored rows and Langevin chains alike, so no row is
    recomputed. With the whitening on the factor's nonzero blocks, 4000
    float64 rows at C=10 take 31-32 ms against 34-35 ms with the dense
    product, and 256 float32 chain rows at C=100 1.3-1.4 ms against 1.5-1.6
    ms (medians of 30 calls; 2-core AVX-512 Xeon, OpenBLAS 0.3.31, 2
    threads). On the 2-D toy grid about 90% of rows are recomputed.

    ``z`` holds rows in the mixture's dtype, and the forms are computed in
    it; a form beyond its range gives inf or NaN and no warning. A NaN q_min
    fails the test and is recomputed.
    """
    wm = gm.white_means
    q = np.empty((z.shape[0], gm.n_components), dtype=np.result_type(z, wm))
    with np.errstate(over="ignore", invalid="ignore"):
        # -2 is a power of two, so folding it into the means is exact
        cross = (-2.0 * wm).T
        means_sq = np.einsum("ij,ij->i", wm, wm)
        for rows in row_blocks(z.shape[0], max(4, _WHITEN_CELLS // gm.dim)):
            part, qb = z[rows], q[rows]
            white = _times_lower_t(part, gm.whitener)
            np.matmul(white, cross, out=qb)
            white_sq = np.einsum("ij,ij->i", white, white)
            qb += white_sq[:, None]
            qb += means_sq
            nearest = qb.argmin(axis=1)
            kept = qb[np.arange(part.shape[0]), nearest] >= \
                _RECOMPUTE_BELOW * (white_sq + means_sq[nearest])
            # a NaN form fails >= and is recomputed. At d=2 the per-call overhead
            # counts: nonzero() in place of np.flatnonzero, and take() in place of
            # part[redo], which is several times slower on two-column rows
            (redo,) = (~kept).nonzero()
            if redo.size:
                near = nearest[redo]
                exact = _times_lower_t(part.take(redo, axis=0) - gm.means.take(near, axis=0),
                                       gm.whitener)
                qb[redo, near] = np.einsum("ij,ij->i", exact, exact)
        return np.maximum(q, 0.0, out=q)


def _weights(q: np.ndarray) -> np.ndarray:
    """Softmax of -q over each row, shifted by the row minimum.

    A term whose exponent q_min - q_c is below log(tiny) + log(C), for the
    dtype's smallest normal number tiny, is set to exactly 0: every other
    term and weight is then a normal number. Subnormal weights make the
    product with the means several times slower in float32, where the cut
    is about -83; in float64 it is about -704, where a weight is below 1e-305
    and is lost to rounding anyway.
    """
    shifted = q.min(axis=1)[:, None] - q
    cut = np.log(np.finfo(q.dtype).tiny) + np.log(q.shape[1])
    small = shifted < cut
    np.exp(shifted, out=shifted)
    shifted[small] = 0.0
    return np.divide(shifted, shifted.sum(axis=1, keepdims=True), out=shifted)


def gaussian_energy(gm: GaussianMixture, z) -> np.ndarray:
    """Reference energy -log sum_c exp(-quad_c(z)), divided by the temperature;
    ``logsumexp_rows`` shifts it so far-away points do not underflow to -inf."""
    q = _quad_forms(gm, as_rows(z, gm.dim, gm.dtype))
    # q is this call's own array, so it is negated in place; 0.0 - x, not -x,
    # keeps an energy of exactly 0, as at a lone mean, at +0.0
    return (0.0 - logsumexp_rows(np.negative(q, out=q))) / gm.temperature


def gaussian_energy_grad(gm: GaussianMixture, z) -> np.ndarray:
    """Exact gradient of gaussian_energy.

    With w_c the softmax of the negated quadratic forms, the gradient is
    (2 / T) sum_c w_c Sigma^-1 (z - mu_c); since the weights sum to one this
    collapses to (2 / T) (z - w @ means) Sigma^-1. It is computed in the
    mixture's dtype; a row beyond its range gets a non-finite gradient and no
    warning, which the Langevin sampler's finiteness check reports.
    """
    z = as_rows(z, gm.dim, gm.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        w = _weights(_quad_forms(gm, z))
        return (2.0 / gm.temperature) * (z - w @ gm.means) @ gm.precision


def mahalanobis_ood_score(gm: GaussianMixture, z) -> np.ndarray:
    """Squared Mahalanobis distance to the nearest component mean (higher = OOD)."""
    return _quad_forms(gm, as_rows(z, gm.dim, gm.dtype)).min(axis=1)


def sample_mog(gm: GaussianMixture, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n samples: pick components from the mixing weights, then means + L u.

    L u is formed as ``_times_lower_t(u, L)``, on the factor's nonzero blocks,
    and equals u @ L.T as ``_times_lower_t`` says.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    comp = rng.choice(gm.n_components, size=n, p=gm.mixing)
    u = rng.standard_normal((n, gm.dim))
    return gm.means[comp] + _times_lower_t(u, gm.chol_lower)


def log_density(gm: GaussianMixture, z) -> np.ndarray:
    """Log of the normalized mixture density (mixing weights and 1/2 included)."""
    q = _quad_forms(gm, as_rows(z, gm.dim, gm.dtype))
    log_det = 2.0 * np.log(np.diag(gm.chol_lower)).sum()
    log_norm = -0.5 * (gm.dim * math.log(2.0 * math.pi) + log_det)
    return logsumexp_rows(np.log(gm.mixing)[None, :] - 0.5 * q + log_norm)


def mixture_entries(gm: GaussianMixture, prefix: str = "") -> dict[str, np.ndarray]:
    """Archive entries of a float64 mixture; a float32 one is refused with ValueError."""
    if gm.dtype != np.float64:
        raise ValueError(f"only float64 mixtures are stored, this one is {gm.dtype}")
    return {
        prefix + "means": gm.means,
        prefix + "chol_lower": gm.chol_lower,
        prefix + "mixing": gm.mixing,
        prefix + "temperature": np.array([gm.temperature]),
        prefix + "shrinkage": np.array([gm.shrinkage]),
    }


def mixture_from_entries(entries: dict[str, np.ndarray], prefix: str = "") -> GaussianMixture:
    """Rebuild a mixture from archive entries, rejecting malformed ones with ValueError.

    The stored parameters are checked, and so is what overflow could make of
    them: the covariance and precision derived from ``chol_lower`` here (a
    factor with entries of 1e200, or a 1e-200 diagonal, overflows them, and
    one whose inverse meets a pivot that underflows to 0 has none), and
    the quadratic forms between the means (means of 1e300 overflow their
    whitened squares). Checking that the precision inverts the covariance
    could not catch a corrupt file, only reject a badly conditioned mixture.
    """
    missing = [k for k in ("means", "chol_lower", "mixing", "temperature", "shrinkage")
               if prefix + k not in entries]
    if missing:
        raise ValueError(f"not a mixture archive: missing entries {missing}")
    means, chol, mixing = (entries[prefix + k] for k in ("means", "chol_lower", "mixing"))
    temperature = archive_scalar(entries, prefix + "temperature")
    shrinkage = archive_scalar(entries, prefix + "shrinkage")
    check_parameters(means, chol, mixing, temperature, shrinkage)
    # the factor GaussianMixture stores, so W is the whitener it would derive
    chol = np.ascontiguousarray(chol, dtype=np.float64)
    overflow = ValueError("mixture overflows float64: its covariance, precision or "
                          "Mahalanobis distances between its means are not finite")
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            gm = _from_factor(means, chol @ chol.T, chol, mixing, temperature, shrinkage)
        except np.linalg.LinAlgError as exc:  # a pivot of L^-1 underflowed to 0
            raise overflow from exc
        spread = _quad_forms(gm, gm.means)
    if not all(np.isfinite(a).all() for a in (gm.covariance, gm.precision, spread)):
        raise overflow
    return gm


def save_mixture(path, gm: GaussianMixture) -> None:
    write_archive(path, mixture_entries(gm))
