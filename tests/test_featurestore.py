import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from energy_ood.featurestore import (
    FeatureSet,
    load_feature_set,
    minibatch_indices,
    normalize_features,
    normalize_rows,
    save_feature_set,
)
from energy_ood.tensorio import write_tensor


def make_fs(n=20, d=4, c=3, seed=0):
    rng = np.random.default_rng(seed)
    return FeatureSet(rng.standard_normal((n, d)), rng.integers(0, c, n), c)


def test_normalize_3_4_5():
    fs = FeatureSet([[3.0, 4.0]], [0], 1)
    out = normalize_features(fs)
    np.testing.assert_allclose(out.features, [[0.6, 0.8]], atol=1e-12)


def test_normalize_idempotent():
    fs = normalize_features(make_fs(50, 8))
    again = normalize_features(fs)
    np.testing.assert_allclose(again.features, fs.features, atol=1e-6)


def test_normalize_unit_norms():
    out = normalize_features(make_fs(100, 16, seed=3))
    # oracle: recompute row norms directly
    norms = np.sqrt((out.features ** 2).sum(axis=1))
    np.testing.assert_allclose(norms, 1.0, atol=1e-6)


def test_normalize_preserves_labels():
    fs = make_fs(40, 5, 4, seed=9)
    out = normalize_features(fs)
    np.testing.assert_array_equal(out.labels, fs.labels)
    np.testing.assert_array_equal(
        np.bincount(out.labels, minlength=4), np.bincount(fs.labels, minlength=4)
    )


def test_normalize_degenerate_row():
    feats = np.ones((3, 2))
    feats[1] = 1e-13
    with pytest.raises(ValueError, match=r"^feature row 1 has near-zero norm 1\.414e-13; "):
        normalize_rows(feats)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 30), st.integers(1, 6))
def test_normalize_idempotent_property(seed, n, d):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)) + 0.5
    try:
        once = normalize_rows(x)
    except ValueError as exc:
        if "near-zero norm" not in str(exc):
            raise
        return
    np.testing.assert_allclose(normalize_rows(once), once, atol=1e-6)


def test_validation_errors():
    with pytest.raises(ValueError, match="label"):
        FeatureSet(np.ones((2, 2)), [0, 5], 3)
    with pytest.raises(ValueError, match="non-finite"):
        FeatureSet([[1.0, np.nan]], [0], 1)
    with pytest.raises(ValueError, match="rows"):
        FeatureSet(np.ones((3, 2)), [0, 1], 2)
    with pytest.raises(ValueError, match=r"shape \(n, d\)"):
        FeatureSet(np.ones(3), [0], 1)


def test_features_promoted_and_frozen():
    fs = make_fs()
    assert fs.features.dtype == np.float64
    with pytest.raises(ValueError):
        fs.features[0, 0] = 1.0


def test_feature_set_takes_ownership_of_its_arrays():
    # arrays already float64 / int64 and C-contiguous are kept, not copied, and
    # frozen with the set, so a write through the caller's name raises
    feats, labels = np.ones((3, 2)), np.zeros(3, dtype=np.int64)
    fs = FeatureSet(feats, labels, 1)
    assert np.shares_memory(fs.features, feats) and np.shares_memory(fs.labels, labels)
    with pytest.raises(ValueError, match="read-only"):
        feats[0, 0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        labels[0] = 1


def test_save_load_round_trip(tmp_path):
    fs = make_fs(30, 6, 4, seed=5)
    fpath, lpath = tmp_path / "f.ftsr", tmp_path / "l.ftsr"
    save_feature_set(fs, fpath, lpath)
    out = load_feature_set(fpath, lpath)
    np.testing.assert_allclose(out.features, fs.features.astype(np.float32))
    np.testing.assert_array_equal(out.labels, fs.labels)
    assert out.num_classes == 4  # inferred from max label
    np.testing.assert_array_equal(
        np.bincount(out.labels, minlength=4), np.bincount(fs.labels, minlength=4)
    )


def test_load_rejects_wrong_shape(tmp_path):
    write_tensor(tmp_path / "flat", np.zeros(4, dtype=np.float32))
    write_tensor(tmp_path / "lab", np.zeros(4, dtype=np.uint32))
    with pytest.raises(ValueError, match="rank-2 f32"):
        load_feature_set(tmp_path / "flat", tmp_path / "lab")
    write_tensor(tmp_path / "feat", np.zeros((4, 2), dtype=np.float32))
    write_tensor(tmp_path / "lab2", np.zeros((4, 1), dtype=np.uint32))
    with pytest.raises(ValueError, match="rank-1 u32"):
        load_feature_set(tmp_path / "feat", tmp_path / "lab2")


def test_minibatches_cover_everything():
    rng = np.random.default_rng(0)
    seen = np.concatenate(list(minibatch_indices(25, 8, rng)))
    assert sorted(seen) == list(range(25))
    sizes = [len(b) for b in minibatch_indices(25, 8, np.random.default_rng(1))]
    assert sizes == [8, 8, 8, 1]


def test_float32_rows_reach_float32_network_and_mixture_uncopied(monkeypatch):
    # float32 rows given to a float32 network or mixture are computed on as
    # they are, return the model's dtype, and give what the same rows cast
    # from float64 give, bit for bit
    from energy_ood import energy_net, featurestore, mog

    rng = np.random.default_rng(30)
    net = energy_net.EnergyMlp(
        [p.astype(np.float32) for p in energy_net.mlp_init([3, 16, 1], rng).params])
    means, a = rng.standard_normal((4, 3)), rng.standard_normal((3, 3))
    gm = mog.float32_mixture(mog.GaussianMixture.from_moments(means, a @ a.T + np.eye(3)))
    rows64 = rng.standard_normal((12, 3))
    rows32 = rows64.astype(np.float32)
    upstream = rng.standard_normal(12).astype(np.float32)

    batches = []

    def spy(*args):
        batches.append(featurestore.as_rows(*args))
        return batches[-1]

    monkeypatch.setattr(energy_net, "as_rows", spy)
    monkeypatch.setattr(mog, "as_rows", spy)
    calls = [(energy_net.mlp_energy, net), (energy_net.mlp_grad_input, net),
             (mog.gaussian_energy, gm), (mog.gaussian_energy_grad, gm),
             (mog.mahalanobis_ood_score, gm), (mog.log_density, gm)]
    for fn, model in calls:
        got = fn(model, rows32)
        assert np.shares_memory(batches[-1], rows32), fn.__name__
        assert got.dtype == model.dtype, fn.__name__
        np.testing.assert_array_equal(got, fn(model, rows64))
    got, got_e = energy_net.mlp_grad_params(net, rows32, upstream)
    assert np.shares_memory(batches[-1], rows32)
    want, want_e = energy_net.mlp_grad_params(net, rows64, upstream)
    np.testing.assert_array_equal(got_e, want_e)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def _entry_points():
    """Each rows-in entry point as a call on rows of width 3, the width its
    error names, and whether it returns a gradient row per row."""
    from energy_ood import detectors, energy_net, featurestore, mog
    from energy_ood.trainer import CorrectionModel

    rng = np.random.default_rng(31)
    net = energy_net.mlp_init([3, 8, 1], rng)
    means, a = rng.standard_normal((4, 3)), rng.standard_normal((3, 3))
    gm = mog.GaussianMixture.from_moments(means, a @ a.T + np.eye(3))
    train = rng.standard_normal((10, 3))
    model = CorrectionModel(net, gm)
    entries = [
        ("gaussian_energy", lambda z: mog.gaussian_energy(gm, z), "3", False),
        ("gaussian_energy_grad", lambda z: mog.gaussian_energy_grad(gm, z), "3", True),
        ("mahalanobis_ood_score", lambda z: mog.mahalanobis_ood_score(gm, z), "3", False),
        ("log_density", lambda z: mog.log_density(gm, z), "3", False),
        ("mlp_energy", lambda z: energy_net.mlp_energy(net, z), "3", False),
        ("mlp_grad_input", lambda z: energy_net.mlp_grad_input(net, z), "3", True),
        ("mlp_grad_params", lambda z: energy_net.mlp_grad_params(net, z, [1.0])[1], "3", False),
        ("score_knn", lambda z: detectors.score_knn(train, z, 2), "3", False),
        ("score_msp", detectors.score_msp, "d", False),
        ("score_energy_logits", detectors.score_energy_logits, "d", False),
        ("score_correction", lambda z: detectors.score_correction(model, z), "3", False),
        ("normalize_rows", featurestore.normalize_rows, "d", True),
    ]
    return [pytest.param(*entry[1:], id=entry[0]) for entry in entries]


@pytest.mark.parametrize("fn, width, per_row", _entry_points())
def test_every_entry_point_takes_rows_only(fn, width, per_row):
    # one input form: an (n, d) matrix in, one value (or one row) per row out
    row = np.array([[0.5, -1.0, 2.0]])
    for bad in (row[0], row[None]):
        want = f"expected shape (n, {width}), got shape {bad.shape}"
        with pytest.raises(ValueError, match=re.escape(want)):
            fn(bad)
    assert np.shape(fn(row)) == ((1, 3) if per_row else (1,))
