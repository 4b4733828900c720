import tracemalloc

import numpy as np
import pytest

from energy_ood import detectors
from energy_ood.detectors import (
    score_correction,
    score_energy_logits,
    score_knn,
    score_msp,
)
from energy_ood.energy_net import EnergyMlp, mlp_init
from energy_ood.metrics import auroc
from energy_ood.mog import GaussianMixture, gaussian_energy
from energy_ood.trainer import CorrectionModel


def zero_net(dims, bias_out=0.0):
    weights = tuple(np.zeros((o, i)) for i, o in zip(dims[:-1], dims[1:]))
    biases = [np.zeros(o) for o in dims[1:]]
    biases[-1][:] = bias_out
    return EnergyMlp(weights, tuple(biases))


def toy_mixture():
    return GaussianMixture.from_moments([[0.0, 0.0], [2.0, 2.0]],
                                        [[0.5, 0.1], [0.1, 0.8]])


# ------------------------------------------------------------- correction

def test_correction_zero_net_equals_gaussian_energy():
    model = CorrectionModel(zero_net([2, 4, 1]), toy_mixture())
    z = np.random.default_rng(0).standard_normal((100, 2)) * 3
    np.testing.assert_array_equal(score_correction(model, z),
                                  gaussian_energy(model.gm, z))


def test_correction_constant_net_shifts():
    gm = toy_mixture()
    model = CorrectionModel(zero_net([2, 4, 1], bias_out=1.75), gm)
    z = np.random.default_rng(1).standard_normal((50, 2))
    np.testing.assert_allclose(score_correction(model, z),
                               gaussian_energy(gm, z) + 1.75, rtol=1e-15)


def test_correction_identical_ranking_with_zero_net():
    model = CorrectionModel(zero_net([2, 4, 1]), toy_mixture())
    rng = np.random.default_rng(2)
    id_z, ood_z = rng.standard_normal((80, 2)), rng.standard_normal((80, 2)) + 4
    assert auroc(score_correction(model, id_z), score_correction(model, ood_z)) == \
        auroc(gaussian_energy(model.gm, id_z), gaussian_energy(model.gm, ood_z))


def test_trained_toy_model_centers_below_corners(grid_trained):
    from tests_support import grid_centers_and_corners

    model, _ = grid_trained
    centers, corners = grid_centers_and_corners()
    assert score_correction(model, centers).max() < score_correction(model, corners).min()


# ------------------------------------------------------------- knn

def test_knn_hand_count():
    train = np.array([[0.0], [1.0], [3.0]])
    assert score_knn(train, np.array([0.5]), 2) == pytest.approx(0.5, abs=1e-12)


def test_knn_zero_at_training_point():
    train = np.random.default_rng(3).standard_normal((20, 4))
    assert score_knn(train, train[7], 1) == pytest.approx(0.0, abs=1e-6)


def test_knn_matches_sort_oracle():
    rng = np.random.default_rng(4)
    train = rng.standard_normal((500, 8))
    queries = rng.standard_normal((40, 8))
    got = score_knn(train, queries, 10)
    for q, val in zip(queries, got):
        dists = np.sort(np.linalg.norm(train - q, axis=1))
        assert val == pytest.approx(dists[9], rel=1e-12)


def test_knn_monotone_in_k():
    rng = np.random.default_rng(5)
    train = rng.standard_normal((50, 3))
    z = rng.standard_normal(3)
    scores = [score_knn(train, z, k) for k in range(1, 51)]
    assert all(a <= b + 1e-15 for a, b in zip(scores, scores[1:]))


def test_knn_k_out_of_range():
    train = np.zeros((5, 2))
    with pytest.raises(ValueError):
        score_knn(train, np.zeros(2), 0)
    with pytest.raises(ValueError):
        score_knn(train, np.zeros(2), 6)



@pytest.mark.parametrize("k", [2.5, True, np.True_, "3", None])
def test_knn_rejects_non_integer_k(k):
    with pytest.raises(ValueError, match="k must be an integer"):
        score_knn(np.zeros((5, 2)), np.zeros(2), k)


def test_knn_takes_numpy_integer_k():
    train = np.array([[0.0], [1.0], [3.0]])
    assert score_knn(train, np.array([0.5]), np.int64(2)) == pytest.approx(0.5, abs=1e-12)


def test_knn_block_rows_follow_the_row_width():
    # cache-sized blocks for narrow rows, 2^24-cell blocks for wide ones
    assert detectors._knn_block_rows(4500, 2) == 58
    assert detectors._knn_block_rows(50000, 512) == 335
    assert detectors._knn_block_rows(1 << 20, 2) == 1


@pytest.mark.parametrize("d, n, m, cells", [(2, 4500, 200, None), (512, 1000, 50, 1 << 14)])
def test_knn_matches_sort_oracle_across_blocks(monkeypatch, d, n, m, cells):
    # at least three full blocks and a partial last one; at d=512 the cell
    # bound is lowered so that a small training set still needs several
    if cells is not None:
        monkeypatch.setattr(detectors, "_KNN_CELLS", cells)
    rows = detectors._knn_block_rows(n, d)
    assert m > 3 * rows and m % rows
    rng = np.random.default_rng(6)
    train, queries = rng.standard_normal((n, d)), rng.standard_normal((m, d))
    got = score_knn(train, queries, 10)
    want = [np.sort(np.linalg.norm(train - q, axis=1))[9] for q in queries]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("d, rtol", [(1, 0.0), (16, 1e-13)])
def test_knn_does_not_depend_on_the_block_size(monkeypatch, d, rtol):
    # one-row blocks against a single block. At d=1 every product is one
    # multiplication, so the results are bit for bit the same. Wider rows
    # agree only to rounding: OpenBLAS computes a one-row product with GEMV
    # and picks GEMM kernels by the product's shape, which round differently
    rng = np.random.default_rng(7)
    train, queries = rng.standard_normal((700, d)), rng.standard_normal((45, d))
    monkeypatch.setattr(detectors, "_knn_block_rows", lambda n, d: 1)
    one_row = score_knn(train, queries, 7)
    monkeypatch.setattr(detectors, "_knn_block_rows", lambda n, d: 1 << 30)
    single = score_knn(train, queries, 7)
    np.testing.assert_allclose(one_row, single, rtol=rtol, atol=0.0)


def test_knn_holds_one_small_block_for_narrow_rows():
    # the toy-grid shape: one 58-row block of about 2 MiB, reused for every block
    rng = np.random.default_rng(8)
    train, queries = rng.standard_normal((4500, 2)), rng.standard_normal((1800, 2))
    tracemalloc.start()
    try:
        score_knn(train, queries, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20

# ------------------------------------------------------------- logit detectors

def test_msp_uniform():
    assert score_msp([0.0, 0.0]) == pytest.approx(-0.5, abs=1e-15)


def test_msp_saturated():
    assert score_msp([100.0, 0.0]) == pytest.approx(-1.0, abs=1e-9)


def test_msp_shift_invariant_recomputation():
    rng = np.random.default_rng(6)
    logits = rng.standard_normal(10) * 3
    exp = np.exp(logits)
    oracle = -np.max(exp / exp.sum())
    assert score_msp(logits) == pytest.approx(oracle, abs=1e-12)
    assert score_msp(logits + 123.456) == pytest.approx(score_msp(logits), abs=1e-12)


def test_msp_permutation_invariant():
    rng = np.random.default_rng(7)
    logits = rng.standard_normal(8)
    perm = rng.permutation(8)
    assert score_msp(logits[perm]) == score_msp(logits)
    assert score_energy_logits(logits[perm]) == score_energy_logits(logits)


def test_odin_reduces_to_msp_at_t1():
    logits = np.random.default_rng(8).standard_normal(6)
    assert score_msp(logits, 1.0) == score_msp(logits)


def test_odin_large_t_uniform_limit():
    assert score_msp([2.0, 0.0], 1e6) == pytest.approx(-0.5, abs=1e-6)


def test_odin_matches_recomputation():
    rng = np.random.default_rng(9)
    logits = rng.standard_normal(12)
    t = 1000.0
    exp = np.exp(logits / t)
    assert score_msp(logits, t) == pytest.approx(-np.max(exp / exp.sum()), abs=1e-12)


def test_energy_logits_two_equal():
    assert score_energy_logits([0.0, 0.0], 1.0) == pytest.approx(-np.log(2), abs=1e-12)


def test_energy_logits_singleton():
    assert score_energy_logits([3.25], 1.0) == pytest.approx(-3.25, abs=1e-12)


def test_energy_logits_matches_naive():
    rng = np.random.default_rng(10)
    for t in (1.0, 2.5, 100.0):
        logits = rng.standard_normal(9) * 2
        naive = -t * np.log(np.exp(logits / t).sum())
        assert score_energy_logits(logits, t) == pytest.approx(naive, abs=1e-9)


def test_temperature_validation():
    with pytest.raises(ValueError):
        score_msp([1.0], 0.0)
    with pytest.raises(ValueError):
        score_energy_logits([1.0], -1.0)
    with pytest.raises(ValueError):
        CorrectionModel(mlp_init([2, 4, 1], np.random.default_rng(0)), None, 0.0)
    with pytest.raises(ValueError):
        CorrectionModel(mlp_init([2, 4, 1], np.random.default_rng(0)), None, float("nan"))


def test_all_scores_finite_and_batchable():
    rng = np.random.default_rng(11)
    logits = rng.standard_normal((30, 5))
    for fn in (score_msp, lambda l: score_msp(l, 10.0),
               lambda l: score_energy_logits(l, 2.0)):
        out = fn(logits)
        assert out.shape == (30,) and np.isfinite(out).all()
        assert fn(logits[0]) == pytest.approx(out[0], rel=1e-15)
