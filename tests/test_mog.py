import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_solve, solve_triangular

from energy_ood import mog
from energy_ood.featurestore import FeatureSet
from energy_ood.mog import (
    GaussianMixture,
    MixtureFitError,
    NotPositiveDefiniteError,
    fit_mog,
    gaussian_energy,
    gaussian_energy_grad,
    load_mixture,
    log_density,
    mahalanobis_ood_score,
    sample_mog,
    save_mixture,
)


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
    gm.validate()


def test_fit_rejects_tiny_class():
    fs = FeatureSet([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]], [0, 0, 1], 2)
    with pytest.raises(MixtureFitError, match="class 1"):
        fit_mog(fs)


def test_fit_rejects_tiny_class_at_the_largest_u32_label():
    # 2**32 classes: counting every one of them would allocate 32 GiB; the first
    # short class is one with no sample at all
    fs = FeatureSet(np.arange(8.0).reshape(4, 2), [0, 0, 2**32 - 1, 2**32 - 1], 2**32)
    with pytest.raises(MixtureFitError, match="class 1 has 0 samples; need at least 2"):
        fit_mog(fs)


def test_fit_warns_when_underdetermined():
    fs = FeatureSet(np.random.default_rng(0).standard_normal((3, 5)), [0, 0, 0], 1)
    with pytest.warns(RuntimeWarning, match="ill-conditioned"):
        fit_mog(fs, shrinkage=1.0)


def test_default_shrinkage_rescues_rank_deficiency():
    # two collinear classes: raw covariance is singular along one axis
    feats = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    fs = FeatureSet(feats, [0, 0, 1, 1], 2)
    with pytest.raises(NotPositiveDefiniteError, match="shrinkage"):
        fit_mog(fs, shrinkage=0.0)
    gm = fit_mog(fs)  # default trace-scaled shrinkage
    assert gm.shrinkage > 0
    gm.validate()


# ---------------------------------------------------------------- energy

def test_energy_single_component_is_squared_norm():
    gm = GaussianMixture.from_moments([[0.0, 0.0]], np.eye(2))
    assert gaussian_energy(gm, [1.0, 1.0]) == pytest.approx(2.0, abs=1e-12)


def test_energy_two_symmetric_components():
    gm = GaussianMixture.from_moments([[-1.0], [1.0]], [[1.0]])
    assert gaussian_energy(gm, [0.0]) == pytest.approx(1.0 - np.log(2.0), abs=1e-12)


def test_energy_matches_naive_sum():
    gm = random_mixture(seed=3)
    rng = np.random.default_rng(4)
    for z in rng.standard_normal((20, 2)) * 2:
        naive = -np.log(np.exp(-quad_oracle(gm, z)).sum())
        assert gaussian_energy(gm, z) == pytest.approx(naive, abs=1e-9)


def test_energy_temperature_divides():
    gm = random_mixture(seed=5, temperature=1e3)
    base = GaussianMixture.from_moments(gm.means, gm.covariance, gm.mixing, 1.0)
    z = np.array([0.3, -0.7])
    assert gaussian_energy(gm, z) == pytest.approx(gaussian_energy(base, z) / 1e3, rel=1e-12)


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
    val = gaussian_energy(gm, np.array([1e3, -1e3]))
    assert np.isfinite(val)


def test_energy_dimension_mismatch():
    gm = random_mixture(seed=12)
    with pytest.raises(ValueError):
        gaussian_energy(gm, [1.0, 2.0, 3.0])


# ---------------------------------------------------------------- gradient

def test_grad_single_component():
    gm = GaussianMixture.from_moments([[0.0, 0.0]], np.eye(2))
    np.testing.assert_allclose(gaussian_energy_grad(gm, [1.0, 1.0]), [2.0, 2.0],
                               atol=1e-12)


def test_grad_symmetric_zero():
    gm = GaussianMixture.from_moments([[-1.0], [1.0]], [[1.0]])
    assert gaussian_energy_grad(gm, [0.0])[0] == pytest.approx(0.0, abs=1e-14)


def test_grad_matches_finite_differences():
    gm = random_mixture(seed=13, c=4, temperature=7.0)
    rng = np.random.default_rng(14)
    h = 1e-5
    for z in rng.standard_normal((10, 2)) * 2:
        grad = gaussian_energy_grad(gm, z)
        for k in range(2):
            step = np.zeros(2)
            step[k] = h
            fd = (gaussian_energy(gm, z + step) - gaussian_energy(gm, z - step)) / (2 * h)
            assert abs(grad[k] - fd) / max(abs(fd), 1e-8) < 1e-5


# ---------------------------------------------------------------- mahalanobis

def test_mahalanobis_nearest_center():
    gm = GaussianMixture.from_moments([[0.0, 0.0], [4.0, 0.0]], np.eye(2))
    assert mahalanobis_ood_score(gm, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)


def test_mahalanobis_zero_at_centers():
    gm = random_mixture(seed=15)
    for mu in gm.means:
        assert mahalanobis_ood_score(gm, mu) == pytest.approx(0.0, abs=1e-18)


def test_mahalanobis_matches_per_class_loop():
    gm = random_mixture(seed=16, c=6)
    rng = np.random.default_rng(17)
    for z in rng.standard_normal((25, 2)) * 3:
        oracle = -max(-q for q in quad_oracle(gm, z))
        assert mahalanobis_ood_score(gm, z) == pytest.approx(oracle, rel=1e-10)


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
    save_mixture(path, cross_mog)
    loaded = load_mixture(path)
    z = np.random.default_rng(25).standard_normal((200, 2)) * 3
    np.testing.assert_allclose(gaussian_energy(loaded, z),
                               gaussian_energy(cross_mog, z), atol=1e-12)
    np.testing.assert_allclose(gaussian_energy_grad(loaded, z),
                               gaussian_energy_grad(cross_mog, z), atol=1e-12)
    assert loaded.temperature == cross_mog.temperature
    loaded.validate()


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


@pytest.mark.parametrize("c, d", [(18, 2), (100, 512)])
@pytest.mark.parametrize("cond", [10.0, 1e8])
@pytest.mark.parametrize("rows", ["near", "far", "means"])
def test_whitened_path_matches_solve_oracle(c, d, cond, rows):
    gm = conditioned_mixture(26, c, d, cond)
    rng = np.random.default_rng(27)
    near = gm.means[rng.integers(0, c, 40)] + rng.standard_normal((40, d)) @ gm.chol_lower.T
    z = {"near": near, "far": 1e3 * near, "means": gm.means}[rows]
    energy, maha, density, grad = solve_oracle(gm, z)
    np.testing.assert_allclose(gaussian_energy(gm, z), energy, rtol=ORACLE_RTOL)
    np.testing.assert_allclose(mahalanobis_ood_score(gm, z), maha, rtol=ORACLE_RTOL)
    np.testing.assert_allclose(log_density(gm, z), density, rtol=ORACLE_RTOL)
    # gradient entries cancel, so the tolerance is relative to each row's largest entry
    scale = np.abs(grad).max(axis=1, keepdims=True)
    assert (np.abs(gaussian_energy_grad(gm, z) - grad) <= ORACLE_RTOL * scale).all()
    if rows == "means":
        np.testing.assert_array_equal(mahalanobis_ood_score(gm, z), 0.0)


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
