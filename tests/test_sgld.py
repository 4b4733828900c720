import numpy as np
import pytest

from energy_ood.mog import GaussianMixture, sample_mog
from energy_ood.sgld import (
    SgldDivergenceError,
    SgldSchedule,
    schedule_at,
    sgld_init,
    sgld_sample,
)

TINY_NOISE = (1e-30, 1e-30)


def constant_schedule(steps, alpha, beta=1e-30):
    return SgldSchedule(steps, (alpha, alpha), (beta, beta))


# ---------------------------------------------------------------- schedule

def test_schedule_recipe_endpoints():
    s = SgldSchedule(20, (1e-6, 1e-7), (1e-3, 1e-4))
    alpha0, beta0 = schedule_at(s, 0)
    alpha19, beta19 = schedule_at(s, 19)
    assert alpha0 == 1e-6 and beta0 == 1e-3
    assert alpha19 == pytest.approx(1e-7, rel=1e-12)
    assert beta19 == pytest.approx(1e-4, rel=1e-12)


def test_schedule_midpoint():
    s = SgldSchedule(3, (4.0, 2.0), (1.0, 1.0))
    assert schedule_at(s, 1) == (3.0, 1.0)


def test_schedule_single_step():
    s = SgldSchedule(1, (0.5, 0.5), (0.1, 0.1))
    assert schedule_at(s, 0) == (0.5, 0.1)


def test_schedule_range_and_invariants():
    s = SgldSchedule(5, (1.0, 0.1), (1.0, 0.5))
    with pytest.raises(ValueError):
        schedule_at(s, 5)
    with pytest.raises(ValueError):
        schedule_at(s, -1)
    with pytest.raises(ValueError):
        SgldSchedule(0, (1.0, 1.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        SgldSchedule(5, (0.1, 1.0), (1.0, 1.0))  # must decay
    with pytest.raises(ValueError):
        SgldSchedule(5, (1.0, 0.0), (1.0, 1.0))  # endpoints positive


# ---------------------------------------------------------------- sampler

def test_contraction_on_quadratic():
    grad = lambda z: 2.0 * z
    one = sgld_sample(np.array([[1.0]]), grad, constant_schedule(1, 0.25), seed=0)
    two = sgld_sample(np.array([[1.0]]), grad, constant_schedule(2, 0.25), seed=0)
    assert one[0, 0] == pytest.approx(0.5, abs=1e-10)
    assert two[0, 0] == pytest.approx(0.25, abs=1e-10)


def test_zero_gradient_is_identity():
    init = np.random.default_rng(0).standard_normal((8, 3))
    out = sgld_sample(init, lambda z: np.zeros_like(z), constant_schedule(50, 123.0), seed=1)
    np.testing.assert_allclose(out, init, atol=1e-10)


def test_monotone_descent_on_convex_quadratic():
    # E(z) = ||z||^2: descent is monotone while alpha < 1/curvature = 1/2
    rng = np.random.default_rng(2)
    init = rng.standard_normal((64, 4)) * 3
    energies = []

    def grad(z):  # called once per step, with the current state
        energies.append(float(np.mean((z ** 2).sum(axis=1))))
        return 2.0 * z

    sgld_sample(init, grad, constant_schedule(200, 0.2), seed=3)
    assert len(energies) == 200
    for a, b in zip(energies[:10], energies[1:11]):
        assert b < a


def test_deterministic_given_seed():
    init = np.random.default_rng(4).standard_normal((6, 2))
    grad = lambda z: 0.5 * z
    s = SgldSchedule(15, (0.1, 0.01), (0.05, 0.01))
    a = sgld_sample(init, grad, s, seed=99)
    b = sgld_sample(init, grad, s, seed=99)
    np.testing.assert_array_equal(a, b)
    c = sgld_sample(init, grad, s, seed=100)
    assert np.any(c != a)


def test_chain_permutation_equivariance():
    rng = np.random.default_rng(5)
    init = rng.standard_normal((10, 3))
    ids = np.arange(10)
    perm = rng.permutation(10)
    grad = lambda z: z * 0.3
    s = SgldSchedule(8, (0.1, 0.05), (0.2, 0.1))
    base = sgld_sample(init, grad, s, seed=7, chain_ids=ids)
    shuffled = sgld_sample(init[perm], grad, s, seed=7, chain_ids=ids[perm])
    np.testing.assert_array_equal(shuffled, base[perm])


def test_batch_partition_independence():
    rng = np.random.default_rng(6)
    init = rng.standard_normal((12, 2))
    grad = lambda z: np.tanh(z)
    s = SgldSchedule(10, (0.05, 0.01), (0.1, 0.02))
    whole = sgld_sample(init, grad, s, seed=8, chain_ids=np.arange(12))
    first = sgld_sample(init[:5], grad, s, seed=8, chain_ids=np.arange(5))
    rest = sgld_sample(init[5:], grad, s, seed=8, chain_ids=np.arange(5, 12))
    np.testing.assert_array_equal(np.vstack([first, rest]), whole)


def test_gradient_callback_called_exactly_t_times():
    calls = []

    def grad(z):
        calls.append(z.shape)
        return np.zeros_like(z)

    sgld_sample(np.zeros((16, 2)), grad, constant_schedule(20, 0.1), seed=9)
    assert calls == [(16, 2)] * 20


def test_divergence_reports_step_and_chain():
    def grad(z):
        g = np.zeros_like(z)
        if z[3, 0] != 0.0:  # diverge once chain 3 has moved
            g[3, 0] = np.inf
        return g

    init = np.zeros((5, 2))
    init[3, 0] = 1.0
    with pytest.raises(SgldDivergenceError) as exc:
        sgld_sample(init, grad, constant_schedule(10, 0.1), seed=10)
    assert exc.value.step == 0
    assert exc.value.chain == 3


# ---------------------------------------------------------------- init modes

def test_init_standard_normal_moments():
    draws = sgld_init(None, 100_000, 2, np.random.default_rng(12))
    assert np.abs(draws.mean(axis=0)).max() < 0.02
    assert np.abs(draws.var(axis=0) - 1.0).max() < 0.03


def test_init_mog_degenerate():
    gm = GaussianMixture.from_moments([[3.0, -1.0]], 1e-12 * np.eye(2))
    draws = sgld_init(gm, 100, 2, np.random.default_rng(13))
    assert np.abs(draws - gm.means[0]).max() < 1e-5


def test_init_deterministic():
    a = sgld_init(None, 32, 4, np.random.default_rng(14))
    b = sgld_init(None, 32, 4, np.random.default_rng(14))
    np.testing.assert_array_equal(a, b)


def test_init_is_one_draw_from_the_generator():
    # the mixture sampler, or one standard-normal block: what seeded runs depend on
    gm = GaussianMixture.from_moments([[0.0, 1.0], [2.0, -1.0]], np.eye(2), [0.3, 0.7])
    np.testing.assert_array_equal(sgld_init(gm, 16, 2, np.random.default_rng(15)),
                                  sample_mog(gm, 16, np.random.default_rng(15)))
    np.testing.assert_array_equal(sgld_init(None, 16, 3, np.random.default_rng(16)),
                                  np.random.default_rng(16).standard_normal((16, 3)))
