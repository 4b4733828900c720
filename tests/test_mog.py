import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_solve, solve_triangular

from energy_ood import mog
from energy_ood.featurestore import ComputationError, FeatureSet, row_blocks
from energy_ood.mog import (
    GaussianMixture,
    fit_mog,
    gaussian_energy,
    gaussian_energy_grad,
    log_density,
    mahalanobis_ood_score,
    sample_mog,
)
from energy_ood.sgld import SgldSchedule, sgld_sample
from energy_ood.trainer import load_model, save_model


def validate_mixture(gm):
    """Recheck a mixture's invariants: its stored parameters, and the derived
    covariance and precision, whose round-off grows with the condition number."""
    mog.check_parameters(gm.means, gm.chol_lower, gm.mixing, gm.temperature, gm.shrinkage)
    assert np.allclose(gm.covariance, gm.covariance.T, atol=1e-10, rtol=0)
    assert np.allclose(gm.precision @ gm.covariance, np.eye(gm.dim), atol=1e-8)


def random_mixture(seed=0, c=3, d=2, temperature=1.0):
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((c, d)) * 2
    a = rng.standard_normal((d, d))
    cov = a @ a.T + 0.5 * np.eye(d)
    pi = rng.dirichlet(np.ones(c))
    return GaussianMixture.from_moments(means, cov, pi, temperature)


def quad_oracle(gm, z):
    # independent per-class loop using an explicit inverse
    inv = np.linalg.inv(gm.covariance)
    return np.array([(z - mu) @ inv @ (z - mu) for mu in gm.means])


# ---------------------------------------------------------------- fitting

def test_fit_two_points_one_class():
    fs = FeatureSet([[0.0, 0.0], [2.0, 0.0]], [0, 0], 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        gm = fit_mog(fs, shrinkage=0.01)
    np.testing.assert_allclose(gm.means, [[1.0, 0.0]])
    np.testing.assert_allclose(gm.mixing, [1.0])
    np.testing.assert_allclose(gm.covariance, [[1.01, 0.0], [0.0, 0.01]], atol=1e-15)


def test_fit_mixing_from_counts():
    rng = np.random.default_rng(1)
    feats = rng.standard_normal((20, 2))
    labels = np.array([0] * 10 + [1] * 10)
    gm = fit_mog(FeatureSet(feats, labels, 2))
    np.testing.assert_allclose(gm.mixing, [0.5, 0.5])


def test_fit_matches_bruteforce_accumulation():
    rng = np.random.default_rng(2)
    feats = rng.standard_normal((300, 2)) * 1.5
    labels = rng.integers(0, 3, 300)
    gm = fit_mog(FeatureSet(feats, labels, 3), shrinkage=0.0)

    # oracle: double-loop accumulation of the pooled within-class scatter
    n = len(labels)
    means = np.zeros((3, 2))
    for c in range(3):
        members = [feats[i] for i in range(n) if labels[i] == c]
        means[c] = np.mean(members, axis=0)
    sigma = np.zeros((2, 2))
    for i in range(n):
        diff = feats[i] - means[labels[i]]
        sigma += np.outer(diff, diff)
    sigma /= n

    np.testing.assert_allclose(gm.means, means, atol=1e-10)
    np.testing.assert_allclose(gm.covariance, sigma, atol=1e-10)
    np.testing.assert_allclose(gm.mixing, np.bincount(labels) / n, atol=1e-15)
    validate_mixture(gm)


def test_fit_rejects_tiny_class():
    fs = FeatureSet([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]], [0, 0, 1], 2)
    with pytest.raises(ValueError, match="class 1 has 1 samples; need at least 2"):
        fit_mog(fs)


def test_fit_rejects_tiny_class_at_the_largest_u32_label():
    # 2**32 classes: counting every one of them would allocate 32 GiB; the first
    # short class is one with no sample at all
    fs = FeatureSet(np.arange(8.0).reshape(4, 2), [0, 0, 2**32 - 1, 2**32 - 1], 2**32)
    with pytest.raises(ValueError, match="class 1 has 0 samples; need at least 2"):
        fit_mog(fs)


def test_fit_warns_when_underdetermined():
    fs = FeatureSet(np.random.default_rng(0).standard_normal((3, 5)), [0, 0, 0], 1)
    with pytest.warns(RuntimeWarning, match="ill-conditioned"):
        fit_mog(fs, shrinkage=1.0)


def test_default_shrinkage_rescues_rank_deficiency():
    # two collinear classes: raw covariance is singular along one axis
    feats = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    fs = FeatureSet(feats, [0, 0, 1, 1], 2)
    with pytest.raises(ComputationError, match="shrinkage"):
        fit_mog(fs, shrinkage=0.0)
    gm = fit_mog(fs)  # default trace-scaled shrinkage
    assert gm.shrinkage > 0
    validate_mixture(gm)


# ---------------------------------------------------------------- energy

def test_energy_single_component_is_squared_norm():
    gm = GaussianMixture.from_moments([[0.0, 0.0]], np.eye(2))
    assert gaussian_energy(gm, [[1.0, 1.0]])[0] == pytest.approx(2.0, abs=1e-12)


def test_energy_two_symmetric_components():
    gm = GaussianMixture.from_moments([[-1.0], [1.0]], [[1.0]])
    assert gaussian_energy(gm, [[0.0]])[0] == pytest.approx(1.0 - np.log(2.0), abs=1e-12)


def test_energy_matches_naive_sum():
    gm = random_mixture(seed=3)
    rng = np.random.default_rng(4)
    for z in rng.standard_normal((20, 2)) * 2:
        naive = -np.log(np.exp(-quad_oracle(gm, z)).sum())
        assert gaussian_energy(gm, z[None])[0] == pytest.approx(naive, abs=1e-9)


def test_energy_temperature_divides():
    gm = random_mixture(seed=5, temperature=1e3)
    base = GaussianMixture.from_moments(gm.means, gm.covariance, gm.mixing, 1.0)
    z = np.array([[0.3, -0.7]])
    assert gaussian_energy(gm, z)[0] == pytest.approx(gaussian_energy(base, z)[0] / 1e3,
                                                      rel=1e-12)


def test_energy_logsumexp_sandwich():
    gm = random_mixture(seed=6, c=4)
    rng = np.random.default_rng(7)
    z = rng.standard_normal((10_000, 2)) * 5
    e = gaussian_energy(gm, z)
    qmin = np.array([quad_oracle(gm, row).min() for row in z[:100]])
    np.testing.assert_array_less(e[:100], qmin + 1e-9)
    np.testing.assert_array_less(qmin - np.log(4) - 1e-9, e[:100])
    # full batch: bounds via the implementation's own quadratic forms
    q = np.stack([quad_oracle(gm, row) for row in z])
    assert (e <= q.min(axis=1) + 1e-9).all()
    assert (e >= q.min(axis=1) - np.log(4) - 1e-9).all()


def test_energy_component_order_invariant():
    gm = random_mixture(seed=8, c=5)
    perm = np.random.default_rng(9).permutation(5)
    shuffled = GaussianMixture.from_moments(
        gm.means[perm], gm.covariance, gm.mixing[perm], gm.temperature
    )
    z = np.random.default_rng(10).standard_normal((50, 2))
    np.testing.assert_allclose(gaussian_energy(gm, z), gaussian_energy(shuffled, z),
                               rtol=1e-12)
    np.testing.assert_allclose(mahalanobis_ood_score(gm, z),
                               mahalanobis_ood_score(shuffled, z), rtol=1e-12)


def test_energy_far_point_no_overflow():
    gm = random_mixture(seed=11)
    val = gaussian_energy(gm, np.array([[1e3, -1e3]]))[0]
    assert np.isfinite(val)


def test_energy_dimension_mismatch():
    gm = random_mixture(seed=12)
    with pytest.raises(ValueError):
        gaussian_energy(gm, [1.0, 2.0, 3.0])


# ---------------------------------------------------------------- gradient

def test_grad_single_component():
    gm = GaussianMixture.from_moments([[0.0, 0.0]], np.eye(2))
    np.testing.assert_allclose(gaussian_energy_grad(gm, [[1.0, 1.0]])[0], [2.0, 2.0],
                               atol=1e-12)


def test_grad_symmetric_zero():
    gm = GaussianMixture.from_moments([[-1.0], [1.0]], [[1.0]])
    assert gaussian_energy_grad(gm, [[0.0]])[0, 0] == pytest.approx(0.0, abs=1e-14)


def test_grad_matches_finite_differences():
    gm = random_mixture(seed=13, c=4, temperature=7.0)
    rng = np.random.default_rng(14)
    h = 1e-5
    for z in rng.standard_normal((10, 2)) * 2:
        grad = gaussian_energy_grad(gm, z[None])[0]
        for k in range(2):
            step = np.zeros(2)
            step[k] = h
            fd = (gaussian_energy(gm, (z + step)[None])[0]
                  - gaussian_energy(gm, (z - step)[None])[0]) / (2 * h)
            assert abs(grad[k] - fd) / max(abs(fd), 1e-8) < 1e-5


# ---------------------------------------------------------------- mahalanobis

def test_mahalanobis_nearest_center():
    gm = GaussianMixture.from_moments([[0.0, 0.0], [4.0, 0.0]], np.eye(2))
    assert mahalanobis_ood_score(gm, [[1.0, 0.0]])[0] == pytest.approx(1.0, abs=1e-12)


def test_mahalanobis_zero_at_centers():
    gm = random_mixture(seed=15)
    for mu in gm.means:
        assert mahalanobis_ood_score(gm, mu[None])[0] == pytest.approx(0.0, abs=1e-18)


def test_mahalanobis_matches_per_class_loop():
    gm = random_mixture(seed=16, c=6)
    rng = np.random.default_rng(17)
    for z in rng.standard_normal((25, 2)) * 3:
        oracle = -max(-q for q in quad_oracle(gm, z))
        assert mahalanobis_ood_score(gm, z[None])[0] == pytest.approx(oracle, rel=1e-10)


def test_single_component_energy_equals_mahalanobis():
    gm = random_mixture(seed=18, c=1)
    z = np.random.default_rng(19).standard_normal((100, 2))
    np.testing.assert_array_equal(gaussian_energy(gm, z), mahalanobis_ood_score(gm, z))


# ---------------------------------------------------------------- sampling

def test_sample_mean_converges():
    gm = GaussianMixture.from_moments([[0.5, -0.25]], np.eye(2))
    rng = np.random.default_rng(20)
    draws = sample_mog(gm, 100_000, rng)
    np.testing.assert_allclose(draws.mean(axis=0), gm.means[0], atol=0.02)


def test_sample_degenerate_covariance():
    gm = GaussianMixture.from_moments([[1.0, 2.0]], 1e-12 * np.eye(2))
    draws = sample_mog(gm, 1000, np.random.default_rng(21))
    assert np.abs(draws - gm.means[0]).max() < 1e-5


def test_sample_deterministic():
    gm = random_mixture(seed=22)
    a = sample_mog(gm, 50, np.random.default_rng(5))
    b = sample_mog(gm, 50, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)


def test_sample_respects_mixing():
    gm = GaussianMixture.from_moments([[-10.0], [10.0]], [[0.01]], [0.25, 0.75])
    draws = sample_mog(gm, 20_000, np.random.default_rng(23))
    frac_right = np.mean(draws[:, 0] > 0)
    assert abs(frac_right - 0.75) < 0.02


# ---------------------------------------------------------------- density

def test_density_integrates_to_one():
    gm = random_mixture(seed=24, c=2)
    sigma = np.sqrt(np.linalg.eigvalsh(gm.covariance).max())
    lo = gm.means.min() - 8 * sigma
    hi = gm.means.max() + 8 * sigma
    xs = np.linspace(lo, hi, 600)
    step = xs[1] - xs[0]
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    mass = np.exp(log_density(gm, pts)).sum() * step * step
    assert mass == pytest.approx(1.0, abs=0.01)


# ---------------------------------------------------------------- archive

def test_mixture_archive_round_trip(tmp_path, cross_mog):
    path = tmp_path / "mog.ftar"
    save_model(path, cross_mog)
    kind, loaded = load_model(path)
    assert kind == "mog"
    z = np.random.default_rng(25).standard_normal((200, 2)) * 3
    np.testing.assert_allclose(gaussian_energy(loaded, z),
                               gaussian_energy(cross_mog, z), atol=1e-12)
    np.testing.assert_allclose(gaussian_energy_grad(loaded, z),
                               gaussian_energy_grad(cross_mog, z), atol=1e-12)
    assert loaded.temperature == cross_mog.temperature
    validate_mixture(loaded)


# ---------------------------------------------------------------- whitened path

ORACLE_RTOL = 1e-11


def conditioned_mixture(seed, c, d, cond):
    """Random means and a covariance with condition number ``cond``."""
    rng = np.random.default_rng(seed)
    rotation, _ = np.linalg.qr(rng.standard_normal((d, d)))
    cov = (rotation * np.geomspace(1.0 / cond, 1.0, d)) @ rotation.T
    means = rng.standard_normal((c, d))
    return GaussianMixture.from_moments(means, cov, rng.dirichlet(np.ones(c)), 3.0)


def solve_oracle(gm, z):
    """Energy, Mahalanobis, log density and gradient from one triangular solve per class."""
    diffs = [z - mu for mu in gm.means]
    white = [solve_triangular(gm.chol_lower, diff.T, lower=True) for diff in diffs]
    q = np.stack([(x ** 2).sum(axis=0) for x in white], axis=1)
    m = q.min(axis=1)
    shifted = np.exp(m[:, None] - q)
    energy = (m - np.log(shifted.sum(axis=1))) / gm.temperature
    w = shifted / shifted.sum(axis=1, keepdims=True)
    pulls = [solve_triangular(gm.chol_lower.T, x, lower=False).T for x in white]
    grad = (2.0 / gm.temperature) * sum(w[:, [c]] * p for c, p in enumerate(pulls))
    log_norm = -0.5 * (gm.dim * np.log(2 * np.pi) + 2 * np.log(np.diag(gm.chol_lower)).sum())
    terms = np.log(gm.mixing) - 0.5 * q + log_norm
    top = terms.max(axis=1)
    density = top + np.log(np.exp(terms - top[:, None]).sum(axis=1))
    return energy, m, density, grad


def oracle_rows(gm, rows):
    """40 rows drawn near the means, the same rows 1e3 times farther out, the
    means themselves, or (``mixed``) some of each in one batch; also the mask
    of the rows that are means."""
    rng = np.random.default_rng(27)
    c, d = gm.means.shape
    near = gm.means[rng.integers(0, c, 40)] + rng.standard_normal((40, d)) @ gm.chol_lower.T
    if rows == "mixed":
        z = np.concatenate([near[:14], 1e3 * near[14:27], gm.means[:13]])
        order = rng.permutation(len(z))
        return z[order], order >= 27
    z = {"near": near, "far": 1e3 * near, "means": gm.means}[rows]
    return z, np.full(len(z), rows == "means")


def assert_matches_solve_oracle(gm, z):
    energy, maha, density, grad = solve_oracle(gm, z)
    np.testing.assert_allclose(gaussian_energy(gm, z), energy, rtol=ORACLE_RTOL)
    np.testing.assert_allclose(mahalanobis_ood_score(gm, z), maha, rtol=ORACLE_RTOL)
    np.testing.assert_allclose(log_density(gm, z), density, rtol=ORACLE_RTOL)
    # gradient entries cancel, so the tolerance is relative to each row's largest entry
    scale = np.abs(grad).max(axis=1, keepdims=True)
    assert (np.abs(gaussian_energy_grad(gm, z) - grad) <= ORACLE_RTOL * scale).all()


@pytest.mark.parametrize("c, d", [(18, 2), (100, 512)])
@pytest.mark.parametrize("cond", [10.0, 1e8])
@pytest.mark.parametrize("rows", ["near", "far", "means", "mixed"])
def test_whitened_path_matches_solve_oracle(c, d, cond, rows):
    gm = conditioned_mixture(26, c, d, cond)
    z, at_mean = oracle_rows(gm, rows)
    assert_matches_solve_oracle(gm, z)
    np.testing.assert_array_equal(mahalanobis_ood_score(gm, z)[at_mean], 0.0)


@pytest.mark.parametrize("c, d", [(18, 2), (100, 512), (5, 1)])
@pytest.mark.parametrize("cond", [10.0, 1e8])
def test_row_alone_matches_its_mixed_batch(c, d, cond):
    # whether a row's nearest form is recomputed depends on that row alone; at
    # d=1 every product in the forms is a single rounding, so the scores agree
    # bit for bit (the gradient's sum over components need not)
    gm = conditioned_mixture(26, c, d, cond)
    z, _ = oracle_rows(gm, "mixed")
    for score in (mahalanobis_ood_score, gaussian_energy):
        alone = np.array([score(gm, row[None])[0] for row in z])
        if d == 1:
            np.testing.assert_array_equal(alone, score(gm, z))
        else:
            np.testing.assert_allclose(alone, score(gm, z), rtol=ORACLE_RTOL)
    grad = gaussian_energy_grad(gm, z)
    alone = np.array([gaussian_energy_grad(gm, row[None])[0] for row in z])
    scale = np.abs(grad).max(axis=1, keepdims=True)
    assert (np.abs(alone - grad) <= ORACLE_RTOL * scale).all()


def count_whitener_products(gm):
    """Swap ``gm``'s whitener for one that records, per matrix product it
    takes part in, the number of rows multiplied; returns that record. A
    whitening pass is one product, or two where ``mog._times_lower_t``
    splits the factor's columns (d >= 32 and at least 4096 entries)."""
    products = []

    class Counted(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                products.append(len(inputs[0]))
            return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)

    gm.white_means  # derived from the whitener before the swap, so not counted
    gm.__dict__["whitener"] = gm.whitener.view(Counted)
    return products


@pytest.mark.parametrize("c, d", [(18, 2), (100, 512)])
def test_far_batch_whitens_once_and_mean_batch_recomputes_every_row(c, d):
    per_pass = {2: 1, 512: 2}[d]  # products per whitening pass
    gm = conditioned_mixture(26, c, d, 10.0)
    far, _ = oracle_rows(gm, "far")
    expected = mahalanobis_ood_score(gm, far), mahalanobis_ood_score(gm, gm.means)
    products = count_whitener_products(gm)
    np.testing.assert_array_equal(mahalanobis_ood_score(gm, far), expected[0])
    assert products == [len(far)] * per_pass
    products.clear()
    np.testing.assert_array_equal(mahalanobis_ood_score(gm, gm.means), expected[1])
    assert products == [c] * per_pass + [c] * per_pass


@pytest.mark.parametrize("d", [2, 512])
@pytest.mark.parametrize("cond", [10.0, 1e8])
def test_rows_either_side_of_the_recompute_bound_match_solve_oracle(d, cond):
    # whitened rows a = b + t u with u orthogonal to b = W mu_0 and
    # t^2 = 2 r |b|^2 / (1 - r), so q_0 / (|a|^2 + |b|^2) = r; mu_1 = -mu_0 is
    # farther, so component 0 is nearest
    kappa = mog._RECOMPUTE_BELOW
    base = conditioned_mixture(46, 1, d, cond)
    chol = base.chol_lower
    rng = np.random.default_rng(47)
    b = rng.standard_normal(d)
    gm = GaussianMixture.from_moments([chol @ b, -(chol @ b)], base.covariance,
                                      temperature=3.0)
    ratios = kappa * np.array([1 - 1e-2, 1 - 1e-4, 1 + 1e-4, 1 + 1e-2])
    u = rng.standard_normal((len(ratios), d))
    u -= (u @ b)[:, None] * b / (b @ b)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    t = np.sqrt(2 * ratios * (b @ b) / (1 - ratios))
    z = (b + t[:, None] * u) @ chol.T
    white = solve_triangular(chol, z.T, lower=True).T
    q0 = ((white - b) ** 2).sum(axis=1)
    np.testing.assert_allclose(q0 / ((white ** 2).sum(axis=1) + b @ b), ratios, rtol=1e-6)
    products = count_whitener_products(gm)
    assert_matches_solve_oracle(gm, z)
    # four calls, each recomputing only the two rows below the bound
    assert products == [len(z), 2] * 4


def random_lower(rng, d, dtype):
    lower = np.tril(rng.standard_normal((d, d)))
    np.fill_diagonal(lower, 1.0 + rng.random(d))
    return lower.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("d", [1, 2, 3, 7, 512])
@pytest.mark.parametrize("n", [1, 2, 8, 300])
def test_lower_product_equals_dense_product(dtype, d, n):
    rng = np.random.default_rng(50)
    lower = random_lower(rng, d, dtype)
    x = rng.standard_normal((n, d)).astype(dtype)
    out = mog._times_lower_t(x, lower)
    assert out.dtype == dtype
    assert np.array_equal(out, x @ lower.T)


def test_sample_is_means_plus_factor_product():
    gm = conditioned_mixture(51, 10, 512, 1e4)
    draws = sample_mog(gm, 300, np.random.default_rng(52))
    rng = np.random.default_rng(52)
    comp = rng.choice(gm.n_components, size=300, p=gm.mixing)
    u = rng.standard_normal((300, gm.dim))
    assert np.array_equal(draws, gm.means[comp] + u @ gm.chol_lower.T)


@pytest.mark.parametrize("c, d, most, per_pass", [(18, 2, 100, 1), (100, 512, 1024, 2)])
def test_blocked_quad_forms_equal_one_block(monkeypatch, c, d, most, per_pass):
    # 2B + 1 rows for a bound of B rows, near, far and at-mean rows mixed so
    # that each of the three blocks recomputes some. The blocks at d=512 have
    # 704, 704 and 641 rows, as a real bound gives at least 1024 there:
    # OpenBLAS rounds a product of a few dozen rows differently (it runs it
    # on one thread)
    gm = conditioned_mixture(53, c, d, 1e4)
    mixed = oracle_rows(gm, "mixed")[0]
    z = np.resize(mixed, (2 * most + 1, d))
    whole = mog._quad_forms(gm, z)
    monkeypatch.setattr(mog, "block_rows", lambda width: most)
    products = count_whitener_products(gm)
    blocked = mog._quad_forms(gm, z)
    assert np.array_equal(blocked, whole)
    sizes = [b.stop - b.start for b in row_blocks(len(z), most)]
    assert len(sizes) == 3
    # per block, its whitening and then the whitening of its recomputed rows
    assert len(products) == 3 * 2 * per_pass
    assert products[:: 2 * per_pass] == sizes


def test_inverse_is_exactly_lower_triangular():
    # np.linalg.inv of this factor leaves 2015 of its 2016 upper entries nonzero
    gm = conditioned_mixture(28, 3, 64, 1e10)
    assert not np.triu(mog._inverse_lower(gm.chol_lower), 1).any()


def test_precision_matches_cholesky_solve():
    gm = conditioned_mixture(29, 2, 512, 1e8)
    reference = cho_solve((gm.chol_lower, True), np.eye(512))
    reference = 0.5 * (reference + reference.T)
    scale = np.abs(reference).max()
    assert np.abs(gm.precision - reference).max() <= 1e-13 * scale


SCIPY_FREE_PIPELINE = """
import sys
sys.modules["scipy"] = None  # any import of SciPy now raises ImportError
from energy_ood.cli import main
d = sys.argv[1]
feats, labels, mog, model = (f"{d}/{n}" for n in ("z.f32", "y.u32", "mog.ftar", "m.ftar"))
steps = [
    ["toy", "--kind", "cross", "--samples-per-class", "100", "--seed", "1",
     "--out-features", feats, "--out-labels", labels],
    ["fit-mog", "--features", feats, "--labels", labels, "--out", mog],
    ["train", "--features", feats, "--labels", labels, "--mog", mog, "--out", model,
     "--preset", "toy", "--epochs", "1", "--batch-size", "64", "--hidden-dim", "8",
     "--num-hidden", "1", "--sgld-steps", "3"],
    ["score", "--detector", "correction", "--model", model, "--features", feats,
     "--out", f"{d}/s.scores"],
    ["grid", "--model", model, "--bounds", "-3", "3", "-3", "3", "--resolution", "5",
     "--out-csv", f"{d}/g.csv"],
]
for argv in steps:
    code = main(argv)
    if code != 0:
        sys.exit(f"{argv[0]} exited {code}")
"""


def test_hot_path_makes_no_scipy_call(tmp_path):
    src = Path(mog.__file__).parents[1]
    done = subprocess.run([sys.executable, "-c", SCIPY_FREE_PIPELINE, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "g.csv").exists()


def test_whitener_is_lazy(monkeypatch):
    # perfbench builds up to 150 one-component 512-d mixtures this way per set-up
    gm = random_mixture(seed=30)

    def refuse(*args, **kwargs):
        raise AssertionError("whitener computed without being used")

    monkeypatch.setattr(mog, "_inverse_lower", refuse)
    fresh = GaussianMixture(gm.means, gm.covariance, gm.chol_lower, gm.precision, gm.mixing)
    assert sample_mog(fresh, 10, np.random.default_rng(31)).shape == (10, 2)


def test_cholesky_factor_is_inverted_once_per_mixture(monkeypatch):
    calls = []
    inverse = mog._inverse_lower

    def counted(chol):
        calls.append(chol.shape)
        return inverse(chol)

    monkeypatch.setattr(mog, "_inverse_lower", counted)
    rng = np.random.default_rng(32)
    fs = FeatureSet(rng.standard_normal((60, 4)), np.repeat(np.arange(3), 20), 3)
    z = rng.standard_normal((5, 4))
    gm = fit_mog(fs)
    energies = gaussian_energy(gm, z)
    assert len(calls) == 1
    assert not gm.whitener.flags.writeable

    calls.clear()
    loaded = mog.mixture_from_entries(mog.mixture_entries(gm))
    np.testing.assert_array_equal(gaussian_energy(loaded, z), energies)
    assert len(calls) == 1
    # the kept W is the one a mixture built from the same factor derives lazily
    fresh = GaussianMixture(gm.means, gm.covariance, gm.chol_lower, gm.precision, gm.mixing)
    for built in (gm, loaded):
        np.testing.assert_array_equal(built.whitener, fresh.whitener)


def test_from_moments_takes_ownership_of_means_and_mixing():
    # a later write to the caller's means would change the mixture under its
    # cached whitener; it raises instead
    means, mixing = np.zeros((2, 3)), np.array([0.25, 0.75])
    gm = GaussianMixture.from_moments(means, np.eye(3), mixing)
    assert np.shares_memory(gm.means, means) and np.shares_memory(gm.mixing, mixing)
    with pytest.raises(ValueError, match="read-only"):
        means[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        mixing[0] = 0.5


# ---------------------------------------------------------------- float32 copy

def test_mixture_dtype_is_float32_only_when_every_array_is():
    gm = random_mixture(seed=40, c=4, d=3)
    assert gm.dtype == np.float64
    low = mog.float32_mixture(gm)
    assert low.dtype == np.float32
    assert all(getattr(low, name).dtype == np.float32
               for name in ("means", "covariance", "chol_lower", "precision", "mixing"))
    # cast from the float64 whitener, not inverted again in float32
    np.testing.assert_array_equal(low.whitener, gm.whitener.astype(np.float32))
    np.testing.assert_array_equal(low.white_means, gm.white_means.astype(np.float32))
    assert (low.temperature, low.shrinkage) == (gm.temperature, gm.shrinkage)
    mixed = GaussianMixture(gm.means.astype(np.float32), gm.covariance, gm.chol_lower,
                            gm.precision, gm.mixing)
    assert mixed.dtype == np.float64 and mixed.means.dtype == np.float64


def test_float32_mixture_is_never_stored(tmp_path):
    low = mog.float32_mixture(random_mixture(seed=41))
    with pytest.raises(ValueError, match="float64"):
        mog.mixture_entries(low)
    with pytest.raises(ValueError, match="float64"):
        save_model(tmp_path / "m.ftar", low)
    assert not (tmp_path / "m.ftar").exists()


def wide_mixture(cond):
    """conditioned_mixture at training's temperature of 1e3, with 256 rows drawn from it."""
    gm = replace(conditioned_mixture(42, 10, 32, cond), temperature=1e3)
    return gm, sample_mog(gm, 256, np.random.default_rng(43))


@pytest.mark.parametrize("cond", [10.0, 1e4, 1e8])
def test_float32_mixture_gradient_tracks_float64(cond):
    # W has condition number sqrt(cond), so float32 whitening loses about
    # eps32 * sqrt(cond); the bound is 10x that. Measured: 4.7e-7, 4.9e-6, 3.9e-4
    gm, z = wide_mixture(cond)
    exact = gaussian_energy_grad(gm, z)
    approx = gaussian_energy_grad(mog.float32_mixture(gm), z)
    assert approx.dtype == np.float32
    bound = 10 * np.finfo(np.float32).eps * np.sqrt(cond)
    assert np.abs(approx - exact).max() <= bound * np.abs(exact).max()


@pytest.mark.parametrize("cond", [10.0, 1e4])
def test_float32_chain_gradient_at_512_dims_tracks_float64(cond):
    # the shape of training's chains at CIFAR-100 scale; the means are drawn
    # in whitened space, close enough that no row's nearest form is recomputed
    base = conditioned_mixture(48, 1, 512, cond)
    rng = np.random.default_rng(49)
    means = 0.3 * rng.standard_normal((100, 512)) @ base.chol_lower.T
    gm = GaussianMixture.from_moments(means, base.covariance, temperature=1e3)
    z = sample_mog(gm, 256, rng)
    exact = gaussian_energy_grad(gm, z)
    low = mog.float32_mixture(gm)
    products = count_whitener_products(low)
    approx = gaussian_energy_grad(low, z)
    assert products == [256, 256]
    bound = 10 * np.finfo(np.float32).eps * np.sqrt(cond)
    assert np.abs(approx - exact).max() <= bound * np.abs(exact).max()


@pytest.mark.parametrize("cond", [10.0, 1e4])
def test_sgld_end_states_with_float32_mixture_gradient_track_float64(cond):
    # 20 steps at the plain-EBM step sizes from the same init with the same
    # noise; the end states may differ by 1e-6 of the distance the chains
    # moved. Measured: 1.6e-10 and 4.0e-8
    gm, init = wide_mixture(cond)
    schedule = SgldSchedule(20, (1e-2, 1e-3), (1e-2, 1e-3))
    ends = [sgld_sample(init, lambda z, m=m: gaussian_energy_grad(m, z), schedule, seed=(6,))
            for m in (gm, mog.float32_mixture(gm))]
    moved = np.abs(ends[0] - init).max()
    assert moved > 0.5
    assert np.abs(ends[1] - ends[0]).max() <= 1e-6 * moved


def test_no_float32_weight_is_subnormal():
    # exponents q_min - q_c from -103 to -87 give subnormal exp() in float32,
    # which slow the product with the means; they are flushed to exactly 0
    exponents = np.linspace(-103.0, -87.0, 99)
    q = np.concatenate([np.zeros((4, 1)), np.tile(-exponents, (4, 1))], axis=1)
    q += 5.0 * np.arange(4)[:, None]  # the cut is relative to each row's minimum
    w = mog._weights(q.astype(np.float32))
    assert w.dtype == np.float32
    tiny = np.finfo(np.float32).tiny
    assert not ((w != 0) & (np.abs(w) < tiny)).any()
    np.testing.assert_array_equal(w[:, 0], 1.0)
    assert np.array_equal(w[:, 1:], np.zeros_like(w[:, 1:]))


def test_float64_gradient_is_unchanged_by_the_flush():
    # components at exponents -706 to -740, beyond float64's cut of about
    # -704: the flushed gradient equals the unflushed one bit for bit
    means = [[0.0, 0.0], [np.sqrt(706.0), 0.0], [0.0, np.sqrt(720.0)], [-np.sqrt(740.0), 0.0]]
    gm = GaussianMixture.from_moments(means, np.eye(2), temperature=2.0)
    z = 0.01 * np.random.default_rng(43).standard_normal((64, 2))
    q = mog._quad_forms(gm, z)
    assert ((q[:, 1:] > 704.0) & (q[:, 1:] < 745.0)).all()
    shifted = np.exp(q.min(axis=1)[:, None] - q)
    w = shifted / shifted.sum(axis=1, keepdims=True)
    assert (w[:, 1:] > 0).any()
    want = (2.0 / gm.temperature) * (z - w @ gm.means) @ gm.precision
    np.testing.assert_array_equal(gaussian_energy_grad(gm, z), want)
