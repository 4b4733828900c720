import tracemalloc

import numpy as np
import pytest

from energy_ood.featurestore import ComputationError
from energy_ood.mog import GaussianMixture, sample_mog
from energy_ood.sgld import (
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
    one = sgld_sample(np.array([[1.0]]), grad, constant_schedule(1, 0.25), seed=(0,))
    two = sgld_sample(np.array([[1.0]]), grad, constant_schedule(2, 0.25), seed=(0,))
    assert one[0, 0] == pytest.approx(0.5, abs=1e-10)
    assert two[0, 0] == pytest.approx(0.25, abs=1e-10)


def test_zero_gradient_is_identity():
    init = np.random.default_rng(0).standard_normal((8, 3))
    out = sgld_sample(init, lambda z: np.zeros_like(z), constant_schedule(50, 123.0), seed=(1,))
    np.testing.assert_allclose(out, init, atol=1e-10)


def test_monotone_descent_on_convex_quadratic():
    # E(z) = ||z||^2: descent is monotone while alpha < 1/curvature = 1/2
    rng = np.random.default_rng(2)
    init = rng.standard_normal((64, 4)) * 3
    energies = []

    def grad(z):  # called once per step, with the current state
        energies.append(float(np.mean((z ** 2).sum(axis=1))))
        return 2.0 * z

    sgld_sample(init, grad, constant_schedule(200, 0.2), seed=(3,))
    assert len(energies) == 200
    for a, b in zip(energies[:10], energies[1:11]):
        assert b < a


def test_deterministic_given_seed():
    init = np.random.default_rng(4).standard_normal((6, 2))
    grad = lambda z: 0.5 * z
    s = SgldSchedule(15, (0.1, 0.01), (0.05, 0.01))
    a = sgld_sample(init, grad, s, seed=(99,))
    b = sgld_sample(init, grad, s, seed=(99,))
    np.testing.assert_array_equal(a, b)
    c = sgld_sample(init, grad, s, seed=(100,))
    assert np.any(c != a)


def test_chain_permutation_equivariance():
    rng = np.random.default_rng(5)
    init = rng.standard_normal((10, 3))
    ids = np.arange(10)
    perm = rng.permutation(10)
    grad = lambda z: z * 0.3
    s = SgldSchedule(8, (0.1, 0.05), (0.2, 0.1))
    base = sgld_sample(init, grad, s, seed=(7,), chain_ids=ids)
    shuffled = sgld_sample(init[perm], grad, s, seed=(7,), chain_ids=ids[perm])
    np.testing.assert_array_equal(shuffled, base[perm])


def test_batch_partition_independence():
    rng = np.random.default_rng(6)
    init = rng.standard_normal((12, 2))
    grad = lambda z: np.tanh(z)
    s = SgldSchedule(10, (0.05, 0.01), (0.1, 0.02))
    whole = sgld_sample(init, grad, s, seed=(8,), chain_ids=np.arange(12))
    first = sgld_sample(init[:5], grad, s, seed=(8,), chain_ids=np.arange(5))
    rest = sgld_sample(init[5:], grad, s, seed=(8,), chain_ids=np.arange(5, 12))
    np.testing.assert_array_equal(np.vstack([first, rest]), whole)


def test_gradient_callback_called_exactly_t_times():
    calls = []

    def grad(z):
        calls.append(z.shape)
        return np.zeros_like(z)

    sgld_sample(np.zeros((16, 2)), grad, constant_schedule(20, 0.1), seed=(9,))
    assert calls == [(16, 2)] * 20


def test_divergence_reports_step_and_chain():
    def grad(z):
        g = np.zeros_like(z)
        if z[3, 0] != 0.0:  # diverge once chain 3 has moved
            g[3, 0] = np.inf
        return g

    init = np.zeros((5, 2))
    init[3, 0] = 1.0
    with pytest.raises(ComputationError, match="^non-finite gradient at step 0, chain 3$"):
        sgld_sample(init, grad, constant_schedule(10, 0.1), seed=(10,))


def test_divergence_names_the_chain_id_not_the_row():
    def grad(z):
        g = np.zeros_like(z)
        g[1, 0] = np.nan
        return g

    with pytest.raises(ComputationError, match="chain 7$"):
        sgld_sample(np.zeros((2, 2)), grad, constant_schedule(3, 0.1), seed=(0,),
                    chain_ids=[5, 7])


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


# ---------------------------------------------------------------- noise keying

def test_matches_straight_line_reference():
    # step t's noise is one block drawn by default_rng([*seed, t]); chain c takes row c
    rng = np.random.default_rng(17)
    init = rng.standard_normal((6, 3))
    ids = np.array([9, 4, 12, 5, 7, 6])
    grad = lambda z: np.tanh(z) + 0.1 * z
    s = SgldSchedule(7, (0.1, 0.02), (0.3, 0.05))
    z = init.copy()
    for t in range(s.steps):
        a, b = schedule_at(s, t)
        z = z - a * grad(z) + np.sqrt(b) * np.random.default_rng([21, 3, t]).standard_normal(
            (13, 3))[ids]
    np.testing.assert_array_equal(sgld_sample(init, grad, s, seed=(21, 3), chain_ids=ids), z)


def test_unit_noise_moments():
    # one step at beta = 1 from zero with zero gradient leaves exactly the noise;
    # bounds are about 4 standard errors at n = 4096 (1/sqrt(n) = 0.016)
    s = SgldSchedule(1, (1.0, 1.0), (1.0, 1.0))
    eps = sgld_sample(np.zeros((4096, 8)), np.zeros_like, s, seed=(18,))
    assert np.abs(eps.mean(axis=0)).max() < 0.06
    assert np.abs(eps.var(axis=0) - 1.0).max() < 0.09
    corr = np.corrcoef(eps, rowvar=False)
    assert np.abs(corr - np.eye(8)).max() < 0.07


def test_memory_does_not_grow_with_steps():
    # 256 chains at 512-d for 200 steps, the EBM recipe's size: one state is 1 MiB
    init = np.zeros((256, 512))
    tracemalloc.start()
    try:
        sgld_sample(init, np.zeros_like, constant_schedule(200, 0.1), seed=(19,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("init, ids", [
    (np.zeros((3, 2)), [0, -1, 2]),
    (np.zeros((3, 2)), [0.0, 1.0, 2.0]),
    (np.zeros((2, 2)), [True, False]),
    (np.zeros((0, 2)), None),
    (np.zeros((2, 2)), [4, 4]),
], ids=["negative-id", "float-ids", "bool-ids", "empty-init", "duplicate-ids"])
def test_bad_chain_ids_and_empty_init_rejected(init, ids):
    with pytest.raises(ValueError):
        sgld_sample(init, np.zeros_like, constant_schedule(2, 0.1), seed=(20,), chain_ids=ids)
