import re
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from energy_ood.metrics import TPR, EvalReport, _min_count, auroc, evaluate, fpr_at_tpr, \
    threshold_gamma_id

# fractions whose product with many n in 1..200 is on or within float slop of an
# integer; for 0.07 and 0.56 it overshoots for a few (0.07 * 100 = 7.000000000000001)
SMALL_N_FRACTIONS = (0.95, 0.9, 0.99, 1 / 3, 0.07, 0.56)


def pair_count_auroc(id_s, ood_s):
    """O(n^2) oracle: fraction of (ood, id) pairs with ood > id, ties half."""
    id_s, ood_s = np.asarray(id_s, float), np.asarray(ood_s, float)
    gt = (ood_s[:, None] > id_s[None, :]).sum()
    eq = (ood_s[:, None] == id_s[None, :]).sum()
    return (gt + 0.5 * eq) / (id_s.size * ood_s.size)


def sweep_fpr(id_s, ood_s):
    """Exhaustive threshold sweep over every candidate score value."""
    id_s, ood_s = np.asarray(id_s, float), np.asarray(ood_s, float)
    best_gamma = None
    for gamma in np.concatenate([id_s, ood_s]):
        if np.mean(ood_s >= gamma) >= TPR:
            if best_gamma is None or gamma > best_gamma:
                best_gamma = gamma
    return float(np.mean(id_s >= best_gamma)), float(best_gamma)


# ---------------------------------------------------------------- auroc

def test_auroc_perfect_separation():
    assert auroc([0.0, 1.0], [2.0, 3.0]) == 1.0


def test_auroc_identical_multisets():
    assert auroc([5.0, 7.0, 7.0], [5.0, 7.0, 7.0]) == 0.5


def test_auroc_matches_pairwise_oracle():
    rng = np.random.default_rng(0)
    for trial in range(5):
        # coarse integer grid forces plenty of ties
        id_s = rng.integers(0, 40, 1000).astype(float)
        ood_s = rng.integers(10, 50, 1000).astype(float)
        assert auroc(id_s, ood_s) == pair_count_auroc(id_s, ood_s)


def test_auroc_complement_identity():
    rng = np.random.default_rng(1)
    a, b = rng.integers(0, 15, 300).astype(float), rng.integers(0, 15, 200).astype(float)
    assert auroc(a, b) + auroc(b, a) == 1.0


def test_auroc_invariant_under_increasing_transform():
    rng = np.random.default_rng(2)
    id_s = rng.integers(-20, 20, 400).astype(float)
    ood_s = rng.integers(-10, 30, 400).astype(float)
    base = auroc(id_s, ood_s)
    assert auroc(3 * id_s + 1, 3 * ood_s + 1) == base
    assert auroc(np.arctan(id_s), np.arctan(ood_s)) == pytest.approx(base, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=60),
       st.lists(st.integers(-50, 50), min_size=1, max_size=60))
def test_auroc_complement_property(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    assert auroc(a, b) + auroc(b, a) == pytest.approx(1.0, abs=1e-12)
    assert auroc(a, b) == pair_count_auroc(a, b)


def test_auroc_memory_is_linear_in_the_scores():
    # 200k scores per side; average ranks of the concatenation peaked at 27.9 MiB
    rng = np.random.default_rng(7)
    id_s, ood_s = rng.standard_normal(200_000), rng.standard_normal(200_000) + 1
    tracemalloc.start()
    try:
        auroc(id_s, ood_s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20


def test_auroc_rejects_bad_input():
    with pytest.raises(ValueError):
        auroc([], [1.0])
    with pytest.raises(ValueError):
        auroc([1.0], [np.nan])


@pytest.mark.parametrize("shape", [(), (3, 2), (1, 4)])
def test_metrics_refuse_scores_that_are_not_a_vector(shape):
    # a matrix is not flattened into more scores than it has rows
    bad, good = np.ones(shape), np.arange(4.0)
    want = rf"id scores: expected shape \(n,\), got shape {re.escape(str(shape))}"
    for fn in (auroc, fpr_at_tpr, evaluate):
        with pytest.raises(ValueError, match=want):
            fn(bad, good)
    with pytest.raises(ValueError, match=want):
        threshold_gamma_id(bad)
    with pytest.raises(ValueError, match="ood scores: expected shape"):
        evaluate(good, bad)


# ---------------------------------------------------------------- fpr at tpr

def test_fpr_disjoint():
    fpr, gamma = fpr_at_tpr([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    assert fpr == 0.0 and gamma == 1.0


def test_fpr_total_overlap():
    fpr, gamma = fpr_at_tpr([3.0, 3.0], [3.0, 3.0])
    assert fpr == 1.0 and gamma == 3.0


def test_fpr_matches_sweep_oracle():
    rng = np.random.default_rng(3)
    for trial in range(5):
        id_s = rng.integers(0, 25, 500).astype(float)
        ood_s = rng.integers(5, 30, 400).astype(float)
        assert fpr_at_tpr(id_s, ood_s) == sweep_fpr(id_s, ood_s)
    for n in range(1, 201):
        id_s = rng.integers(0, 10, n).astype(float)
        ood_s = rng.integers(3, 13, n).astype(float)
        assert fpr_at_tpr(id_s, ood_s) == sweep_fpr(id_s, ood_s), n


def test_min_count_small_n():
    # every small n: fraction * n lands on or next to an integer for many of them
    for n in range(1, 201):
        for fraction in SMALL_N_FRACTIONS:
            want = next(k for k in range(n + 1) if k / n >= fraction)
            assert _min_count(fraction, n) == want, (n, fraction)


def test_fpr_tpr_one_detects_everything():
    # 95% of 10 OOD scores is all 10 of them
    id_s = np.arange(10, dtype=float)
    ood_s = np.arange(5, 15, dtype=float)
    fpr, gamma = fpr_at_tpr(id_s, ood_s)
    assert gamma == 5.0
    assert fpr == 0.5


def test_fpr_validation():
    with pytest.raises(ValueError):
        fpr_at_tpr([], [2.0])


# ---------------------------------------------------------------- id threshold

def test_gamma_id_integer_grid():
    # direct count: with scores 1..100, 95 values sit below 96
    assert threshold_gamma_id(np.arange(1.0, 101.0)) == 96.0


def test_gamma_id_keep_one():
    # 95% of 3 scores is all 3 of them
    scores = np.array([3.0, 1.0, 2.0])
    gamma = threshold_gamma_id(scores)
    assert gamma == np.nextafter(3.0, np.inf)
    assert np.mean(scores < gamma) == 1.0


def test_gamma_id_constant_scores():
    gamma = threshold_gamma_id(np.full(10, 2.5))
    assert gamma == np.nextafter(2.5, np.inf)


def test_gamma_id_direct_count_oracle():
    rng = np.random.default_rng(5)
    cases = [rng.integers(0, 30, 200).astype(float)]
    cases += [rng.integers(0, 10, n).astype(float) for n in range(1, 201)]
    for scores in cases:
        gamma = threshold_gamma_id(scores)
        assert np.mean(scores < gamma) >= TPR
        # no smaller candidate from the score grid works
        smaller = scores[scores < gamma]
        if smaller.size:
            assert np.mean(scores < smaller.max()) < TPR


# ---------------------------------------------------------------- report

def test_evaluate_report_fields():
    rng = np.random.default_rng(6)
    rep = evaluate(rng.standard_normal(100), rng.standard_normal(120) + 2, detector="msp")
    assert isinstance(rep, EvalReport)
    assert 0.0 <= rep.auroc <= 1.0 and 0.0 <= rep.fpr95 <= 1.0
    assert rep.n_id == 100 and rep.n_ood == 120
    d = asdict(rep)
    assert d["detector"] == "msp" and "params" not in d
