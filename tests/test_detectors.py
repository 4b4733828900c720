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
    params = [a for i, o in zip(dims[:-1], dims[1:]) for a in (np.zeros((o, i)), np.zeros(o))]
    params[-1][:] = bias_out
    return EnergyMlp(params)


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
    assert score_knn(train, np.array([[0.5]]), 2)[0] == pytest.approx(0.5, abs=1e-12)


def test_knn_zero_at_training_point():
    train = np.random.default_rng(3).standard_normal((20, 4))
    assert score_knn(train, train[7][None], 1)[0] == pytest.approx(0.0, abs=1e-6)


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
    z = rng.standard_normal((1, 3))
    scores = [score_knn(train, z, k)[0] for k in range(1, 51)]
    assert all(a <= b + 1e-15 for a, b in zip(scores, scores[1:]))


def test_knn_k_out_of_range():
    train = np.zeros((5, 2))
    with pytest.raises(ValueError):
        score_knn(train, np.zeros((1, 2)), 0)
    with pytest.raises(ValueError):
        score_knn(train, np.zeros((1, 2)), 6)



@pytest.mark.parametrize("k", [2.5, True, np.True_, "3", None])
def test_knn_rejects_non_integer_k(k):
    with pytest.raises(ValueError, match="k must be an integer"):
        score_knn(np.zeros((5, 2)), np.zeros((1, 2)), k)


def test_knn_takes_numpy_integer_k():
    train = np.array([[0.0], [1.0], [3.0]])
    assert score_knn(train, np.array([[0.5]]), np.int64(2))[0] == pytest.approx(0.5, abs=1e-12)


def sort_oracle(train, queries, k):
    return np.array([np.sort(np.linalg.norm(train - q, axis=1))[k - 1] for q in queries])


def one_pass_knn(train, queries, k):
    """The unchunked scan with every query in one block: one product against
    the whole bank, the row norms added, one partition."""
    d2 = np.matmul(queries * -2.0, train.T)
    d2 += np.einsum("ij,ij->i", train, train)
    d2.partition(k - 1, axis=1)
    kth = d2[:, k - 1] + np.einsum("ij,ij->i", queries, queries)
    return np.sqrt(np.maximum(kth, 0.0, out=kth), out=kth)


def sized_scan(monkeypatch, rows, chunk=None):
    """Blocks of ``rows`` queries and, if given, chunks of at most ``chunk``
    training rows. Returns the (rows, cols, bounds) of each call, so a test
    can check that the sizing it set reached the scan."""
    if chunk is not None:
        monkeypatch.setattr(detectors, "_KNN_CHUNK", chunk)
    sizing, seen = detectors._knn_block, []

    def block(n, k, d):
        seen.append((rows,) + sizing(n, k, d)[1:])
        return seen[-1]

    monkeypatch.setattr(detectors, "_knn_block", block)
    return seen


def test_knn_block_rows_follow_the_row_width():
    # a bank of one chunk keeps n columns: cache-sized blocks for narrow rows
    assert detectors._knn_block(4500, 50, 2) == (58, 4500, [0, 4500])
    # larger banks: k + 8192 columns, so as many query rows at 200k training
    # rows as at 50k, and near-equal chunks with bounds on multiples of 64
    rows, cols, bounds = detectors._knn_block(50000, 50, 512)
    assert (rows, cols) == (2035, 8242) == detectors._knn_block(200000, 50, 512)[:2]
    assert bounds == [0, 7168, 14336, 21440, 28608, 35776, 42880, 50000]
    assert detectors._knn_block(8193, 50, 512)[1:] == (8193, [0, 4160, 8193])
    assert detectors._knn_block(1 << 20, 50, 2)[:2] == (31, 8242)


@pytest.mark.parametrize("d, n, m, k, chunk, rows", [
    (2, 4500, 200, 10, 1024, 37),   # several blocks and chunks, the last ones partial
    (512, 1000, 50, 10, 256, 12),
    (3, 1000, 30, 100, 64, 7),      # a chunk smaller than k
    (4, 1000, 30, 10, 192, 30),     # a chunk constant that does not divide n
    (3, 300, 20, 300, 128, 6),      # n == k
    (5, 700, 40, 1, 128, 9),        # k == 1
], ids=["d2", "d512", "chunk-below-k", "chunk-not-dividing-n", "n-equals-k", "k-one"])
def test_knn_matches_sort_oracle_across_blocks_and_chunks(monkeypatch, d, n, m, k, chunk, rows):
    seen = sized_scan(monkeypatch, rows, chunk)
    rng = np.random.default_rng(6)
    train, queries = rng.standard_normal((n, d)), rng.standard_normal((m, d))
    got = score_knn(train, queries, k)
    bounds = seen[0][2]
    assert len(bounds) > 3 and max(np.diff(bounds)) <= chunk and (rows == m or m % rows)
    np.testing.assert_allclose(got, sort_oracle(train, queries, k), rtol=1e-12, atol=0.0)


def test_knn_with_duplicated_training_rows(monkeypatch):
    # every row three times, and queries on training rows: ties everywhere,
    # across chunks of 128 rows
    seen = sized_scan(monkeypatch, 8, 128)
    rng = np.random.default_rng(9)
    base = rng.standard_normal((200, 3))
    train = np.concatenate([base, base, base])
    queries = np.concatenate([base[:20], rng.standard_normal((20, 3))])
    for k in (1, 3, 4, 10):
        want = sort_oracle(train, queries, k)
        np.testing.assert_allclose(score_knn(train, queries, k), want,
                                   rtol=1e-12, atol=1e-7 if k <= 3 else 0.0)
    assert len(seen[0][2]) == 6


def test_knn_of_zero_queries(monkeypatch):
    seen = sized_scan(monkeypatch, 4, 64)
    got = score_knn(np.ones((300, 2)), np.empty((0, 2)), 5)
    assert got.shape == (0,) and got.dtype == np.float64 and seen


@pytest.mark.parametrize("d, rtol", [(1, 0.0), (16, 1e-13)])
def test_knn_does_not_depend_on_the_block_size(monkeypatch, d, rtol):
    # one-row blocks against a single block. At d=1 every product is one
    # multiplication, so the results are bit for bit the same. Wider rows
    # agree only to rounding: OpenBLAS computes a one-row product with GEMV
    # and picks GEMM kernels by the product's shape, which round differently
    rng = np.random.default_rng(7)
    train, queries = rng.standard_normal((700, d)), rng.standard_normal((45, d))
    first = sized_scan(monkeypatch, 1, 256)
    one_row = score_knn(train, queries, 7)
    monkeypatch.undo()
    second = sized_scan(monkeypatch, 1 << 30, 256)
    single = score_knn(train, queries, 7)
    assert first[0][0] == 1 and second[0][0] == 1 << 30 and len(first[0][2]) == 4
    np.testing.assert_allclose(one_row, single, rtol=rtol, atol=0.0)


@pytest.mark.parametrize("d", [1, 2, 64])
def test_knn_equals_the_one_pass_scan_bit_for_bit(monkeypatch, d):
    # three chunks of the real size (5504, 5440 and 5445 rows) against one
    # product over the whole bank, all 300 queries in one block on both
    # sides. With chunks of 8192 the last would be 5 rows, whose product
    # OpenBLAS rounds differently in the last bits, so half the queries lie
    # next to the bank's last 5 rows
    seen = sized_scan(monkeypatch, 1 << 30)
    rng = np.random.default_rng(10)
    train = rng.standard_normal((2 * 8192 + 5, d))
    near_tail = np.repeat(train[-5:], 30, axis=0) + 0.01 * rng.standard_normal((150, d))
    queries = np.concatenate([rng.standard_normal((150, d)), near_tail])
    for k in (1, 10):
        got = score_knn(train, queries, k)
        assert got.tobytes() == one_pass_knn(train, queries, k).tobytes()
    assert [s[1:] for s in seen] == [(8193, [0, 5504, 10944, 16389]),
                                     (8202, [0, 5504, 10944, 16389])]


def test_knn_buffer_does_not_grow_with_the_bank():
    # one buffer of 400 x (k + 8192) cells at d=64 for 20k and 60k training
    # rows, where the one-pass scan held 400 x n; beyond the bank's norms
    # (8 bytes a row) the peaks are equal
    rng = np.random.default_rng(11)
    queries = rng.standard_normal((400, 64))
    peaks = {}
    for n in (20000, 60000):
        train = rng.standard_normal((n, 64))
        tracemalloc.start()
        try:
            score_knn(train, queries, 50)
            peaks[n] = tracemalloc.get_traced_memory()[1] - 8 * n
        finally:
            tracemalloc.stop()
    bound = 8 * 400 * (50 + detectors._KNN_CHUNK)
    assert abs(peaks[20000] - peaks[60000]) < 4096
    assert bound < max(peaks.values()) < bound + (1 << 20)


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
    assert score_msp([[0.0, 0.0]])[0] == pytest.approx(-0.5, abs=1e-15)


def test_msp_saturated():
    assert score_msp([[100.0, 0.0]])[0] == pytest.approx(-1.0, abs=1e-9)


def test_msp_shift_invariant_recomputation():
    rng = np.random.default_rng(6)
    logits = rng.standard_normal(10) * 3
    exp = np.exp(logits)
    oracle = -np.max(exp / exp.sum())
    assert score_msp(logits[None])[0] == pytest.approx(oracle, abs=1e-12)
    assert score_msp(logits[None] + 123.456)[0] == pytest.approx(score_msp(logits[None])[0],
                                                                  abs=1e-12)


def test_msp_permutation_invariant():
    rng = np.random.default_rng(7)
    logits = rng.standard_normal(8)
    perm = rng.permutation(8)
    assert score_msp(logits[perm][None])[0] == score_msp(logits[None])[0]
    assert score_energy_logits(logits[perm][None])[0] == score_energy_logits(logits[None])[0]


def test_odin_reduces_to_msp_at_t1():
    logits = np.random.default_rng(8).standard_normal(6)
    assert score_msp(logits[None], 1.0)[0] == score_msp(logits[None])[0]


def test_odin_large_t_uniform_limit():
    assert score_msp([[2.0, 0.0]], 1e6)[0] == pytest.approx(-0.5, abs=1e-6)


def test_odin_matches_recomputation():
    rng = np.random.default_rng(9)
    logits = rng.standard_normal(12)
    t = 1000.0
    exp = np.exp(logits / t)
    assert score_msp(logits[None], t)[0] == pytest.approx(-np.max(exp / exp.sum()), abs=1e-12)


def test_energy_logits_two_equal():
    assert score_energy_logits([[0.0, 0.0]], 1.0)[0] == pytest.approx(-np.log(2), abs=1e-12)


def test_energy_logits_singleton():
    assert score_energy_logits([[3.25]], 1.0)[0] == pytest.approx(-3.25, abs=1e-12)


def test_energy_logits_matches_naive():
    rng = np.random.default_rng(10)
    for t in (1.0, 2.5, 100.0):
        logits = rng.standard_normal(9) * 2
        naive = -t * np.log(np.exp(logits / t).sum())
        assert score_energy_logits(logits[None], t)[0] == pytest.approx(naive, abs=1e-9)


def test_temperature_validation():
    with pytest.raises(ValueError):
        score_msp([[1.0]], 0.0)
    with pytest.raises(ValueError):
        score_energy_logits([[1.0]], -1.0)
    with pytest.raises(ValueError):
        CorrectionModel(mlp_init([2, 4, 1], np.random.default_rng(0)), None, 0.0)
    with pytest.raises(ValueError):
        CorrectionModel(mlp_init([2, 4, 1], np.random.default_rng(0)), None, float("nan"))


@pytest.mark.parametrize("score", [score_msp, score_energy_logits])
def test_logit_scores_at_overflowing_temperature_warn_nothing(score):
    # logits / T overflows to inf; the score is nan, with no NumPy warning
    # (tier-1 turns warnings into errors), for the caller's check to report
    logits = np.array([[1.0, -2.0, 0.5], [-1.0, -3.0, -0.5]])
    assert np.isnan(score(logits, 1e-320)).all()


def test_all_scores_finite_and_batchable():
    rng = np.random.default_rng(11)
    logits = rng.standard_normal((30, 5))
    for fn in (score_msp, lambda l: score_msp(l, 10.0),
               lambda l: score_energy_logits(l, 2.0)):
        out = fn(logits)
        assert out.shape == (30,) and np.isfinite(out).all()
        assert fn(logits[:1])[0] == pytest.approx(out[0], rel=1e-15)
