import json
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest

from energy_ood.detectors import score_correction, score_energy_logits, score_msp
from energy_ood.energy_net import EnergyMlp, mlp_energy, mlp_from_entries, mlp_grad_input, \
    mlp_grad_params, mlp_init
from energy_ood.featurestore import ComputationError, FeatureSet, minibatch_indices
from energy_ood.mog import GaussianMixture, fit_mog, gaussian_energy, gaussian_energy_grad, \
    mixture_entries, save_mixture
from energy_ood.sgld import SgldSchedule, sgld_init, sgld_sample
from energy_ood.tensorio import read_archive, write_archive
from energy_ood.toy import ToySpec, gen_toy
from energy_ood.trainer import (
    AdamState,
    CorrectionModel,
    TrainConfig,
    adam_step,
    correction_defaults,
    ebm_defaults,
    load_model,
    save_model,
    train_correction,
)


def two_class_fs(n=200, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((n, 2))
    feats[n // 2:] += 3.0
    labels = np.array([0] * (n // 2) + [1] * (n - n // 2))
    return FeatureSet(feats, labels, 2)


def small_cfg(**kw):
    base = dict(epochs=2, batch_size=64, hidden_dim=16, num_hidden=2,
                learning_rate=1e-4, seed=0,
                sgld=SgldSchedule(5, (1e-3, 1e-4), (1e-3, 1e-4)))
    base.update(kw)
    return TrainConfig(**base)


# ---------------------------------------------------------------- adam

def test_adam_first_step_is_lr_sized():
    params = [np.array([0.0])]
    state = AdamState.zeros_like(params)
    new, state = adam_step(params, [np.array([1.0])], state, lr=0.1)
    assert new[0][0] == pytest.approx(-0.1, abs=1e-6)


def test_adam_zero_gradient_is_noop():
    params = [np.array([1.5, -2.5]), np.array([[3.0]])]
    state = AdamState.zeros_like(params)
    for _ in range(10):
        params, state = adam_step(params, [np.zeros(2), np.zeros((1, 1))], state, lr=0.5)
    np.testing.assert_array_equal(params[0], [1.5, -2.5])
    np.testing.assert_array_equal(params[1], [[3.0]])


def test_adam_converges_on_quadratic():
    params = [np.array([5.0])]
    state = AdamState.zeros_like(params)
    for _ in range(100):
        params, state = adam_step(params, [2.0 * params[0]], state, lr=0.1)
    assert abs(params[0][0]) < 0.5


def test_adam_shape_mismatch():
    state = AdamState.zeros_like([np.zeros(3)])
    with pytest.raises(ValueError):
        adam_step([np.zeros(3)], [np.zeros(4)], state, lr=0.1)


# ---------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1e-3)
    TrainConfig(learning_rate=0.0)  # allowed: no-op optimizer


@pytest.mark.parametrize("make", [
    lambda: TrainConfig(learning_rate=np.nan),
    lambda: TrainConfig(learning_rate=np.inf),
    lambda: TrainConfig(l2_coeff=np.inf),
    lambda: TrainConfig(input_noise_std=np.nan),
    lambda: TrainConfig(net_temperature=np.nan),
    lambda: TrainConfig(net_temperature=np.inf),
    lambda: SgldSchedule(5, (np.nan, 1e-3), (1e-3, 1e-4)),
    lambda: SgldSchedule(5, (np.inf, 1e-3), (1e-3, 1e-4)),
    lambda: SgldSchedule(5, (1e-3, 1e-4), (1e-3, np.nan)),
    lambda: SgldSchedule(5, (1e-3, 1e-4), (np.inf, np.inf)),
], ids=["lr-nan", "lr-inf", "l2-inf", "noise-std-nan", "temp-nan", "temp-inf",
        "step-start-nan", "step-start-inf", "noise-end-nan", "noise-both-inf"])
def test_nonfinite_config_values_rejected(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def _mixture(**kw):
    return GaussianMixture.from_moments([[0.0, 0.0]], np.eye(2), **kw)


@pytest.mark.parametrize("make, option", [
    (lambda: _mixture(temperature=np.nan), "temperature"),
    (lambda: _mixture(temperature=np.inf), "temperature"),
    (lambda: _mixture(shrinkage=np.nan), "shrinkage"),
    (lambda: _mixture(shrinkage=np.inf), "shrinkage"),
    (lambda: fit_mog(FeatureSet(np.eye(4), np.array([0, 0, 1, 1]), 2), shrinkage=np.inf),
     "shrinkage"),
    (lambda: score_msp(np.zeros((2, 3)), np.nan), "temperature"),
    (lambda: score_msp(np.zeros((2, 3)), np.inf), "temperature"),
    (lambda: score_energy_logits(np.zeros((2, 3)), np.nan), "temperature"),
    (lambda: score_energy_logits(np.zeros((2, 3)), np.inf), "temperature"),
    (lambda: TrainConfig(seed=-1), "seed"),
    (lambda: ToySpec(seed=-1), "seed"),
], ids=["mog-temp-nan", "mog-temp-inf", "mog-shrink-nan", "mog-shrink-inf", "fit-shrink-inf",
        "odin-temp-nan", "odin-temp-inf", "energy-temp-nan", "energy-temp-inf",
        "train-seed-neg", "toy-seed-neg"])
def test_nan_inf_and_negative_values_rejected(make, option):
    # each check is written so that NaN fails it, and its message names the option
    with pytest.raises(ValueError, match=option):
        make()


def test_presets_follow_recipes():
    cfg = correction_defaults()
    assert cfg.epochs == 20 and cfg.learning_rate == 5e-6 and cfg.l2_coeff == 10.0
    assert cfg.hidden_dim == 1024 and cfg.num_hidden == 4
    assert cfg.sgld.steps == 20
    assert cfg.sgld.step_size == (1e-6, 1e-7) and cfg.sgld.noise_scale == (1e-3, 1e-4)
    assert cfg.input_noise_std == 1e-3

    toy = correction_defaults(toy=True)
    assert toy.hidden_dim == 128 and toy.learning_rate == 1e-4

    ebm = ebm_defaults()
    assert ebm.learning_rate == 5e-5 and ebm.l2_coeff == 0.1
    assert ebm.sgld.steps == 200 and ebm.sgld.step_size == (1e-2, 1e-3)
    assert ebm.net_temperature == 1e-2


# ---------------------------------------------------------------- gradient assembly

def test_total_gradient_matches_sum_of_parts():
    rng = np.random.default_rng(3)
    net = mlp_init([4, 8, 8, 1], rng)
    pos = rng.standard_normal((6, 4))
    neg = rng.standard_normal((6, 4))
    both = np.concatenate([pos, neg])
    e = mlp_energy(net, both)
    l2_coeff = 2.5
    b, total = 6, 12

    combined_upstream = np.concatenate([
        np.full(b, 1.0 / b), np.full(b, -1.0 / b)
    ]) + 2.0 * l2_coeff * e / total
    assembled, _ = mlp_grad_params(net, both, combined_upstream)

    mle_part, _ = mlp_grad_params(net, both,
                                  np.concatenate([np.full(b, 1.0 / b), np.full(b, -1.0 / b)]))
    reg_part, _ = mlp_grad_params(net, both, 2.0 * e / total)
    for got, gm, gr in zip(assembled, mle_part, reg_part):
        np.testing.assert_allclose(got, gm + l2_coeff * gr, atol=1e-10)


def test_training_step_descends_the_objective_of_fixed_negatives(monkeypatch):
    # with the negative phase replaced by fixed rows, one step's history row
    # and Adam update follow from mean E+ - mean E- + l2 mean E^2, E = E_net / T,
    # differentiated by central differences in float64. The pass runs in
    # float32: measured, the row agrees to 7e-8 and the gradient to 1.3e-7
    # relative, and the parameters to 3e-12; the test allows 1e-5, 1e-4 and 1e-9
    import energy_ood.trainer as trainer

    rng = np.random.default_rng(40)
    pos = rng.standard_normal((8, 2))
    neg = 2.0 * rng.standard_normal((8, 2))
    fs = FeatureSet(pos, np.zeros(8, dtype=int), 1)
    cfg = small_cfg(epochs=1, batch_size=8, input_noise_std=0.0, l2_coeff=0.5,
                    net_temperature=2.0, learning_rate=1e-3, hidden_dim=8, num_hidden=2)
    calls, seen = [], {}

    def fixed_negatives(net32, gm, gm32, cfg_, rng_, b, step):
        calls.append((net32.dtype, gm, gm32, b, step))
        return neg, 0.25

    def record_adam(params, grads, state, lr):
        seen["grads"] = grads
        return adam_step(params, grads, state, lr)

    monkeypatch.setattr(trainer, "langevin_negatives", fixed_negatives)
    monkeypatch.setattr(trainer, "adam_step", record_adam)
    model, history = train_correction(fs, None, cfg)
    assert calls == [(np.float32, None, None, 8, 0)]

    init = mlp_init([2, 8, 8, 1], np.random.default_rng(
        np.random.SeedSequence(cfg.seed).spawn(4)[0])).params
    sizes = [p.size for p in init]

    def energies(flat, rows):
        parts = np.split(flat, np.cumsum(sizes)[:-1])
        net = EnergyMlp([q.reshape(p.shape) for q, p in zip(parts, init)])
        return mlp_energy(net, rows) / cfg.net_temperature

    def objective(flat):
        e_pos, e_neg = energies(flat, pos), energies(flat, neg)
        return (e_pos.mean() - e_neg.mean()
                + cfg.l2_coeff * np.mean(np.concatenate([e_pos, e_neg]) ** 2))

    flat = np.concatenate([p.ravel() for p in init])
    e_pos, e_neg = energies(flat, pos), energies(flat, neg)
    want_row = {"epoch": 0, "mle_loss": e_pos.mean() - e_neg.mean(),
                "l2_reg": np.mean(np.concatenate([e_pos, e_neg]) ** 2),
                "mean_pos_energy": e_pos.mean(), "mean_neg_energy": e_neg.mean(),
                "sgld_mean_grad_norm": 0.25}
    assert list(history[0]) == list(want_row)
    for key, value in want_row.items():
        assert history[0][key] == pytest.approx(value, rel=1e-5, abs=1e-9), key

    h = 1e-6
    want_grad = np.array([(objective(flat + h * u) - objective(flat - h * u)) / (2 * h)
                          for u in np.eye(flat.size)])
    got_grad = np.concatenate([g.ravel() for g in seen["grads"]])
    assert np.linalg.norm(got_grad - want_grad) <= 1e-4 * np.linalg.norm(want_grad)
    # Adam's first step from zero moments is p - lr * g / (|g| + eps); every
    # |g| here is above 7e-5, so eps = 1e-8 barely shrinks it
    want_params = flat - cfg.learning_rate * want_grad / (np.abs(want_grad) + 1e-8)
    got_params = np.concatenate([p.ravel() for p in model.net.params])
    np.testing.assert_allclose(got_params, want_params, rtol=0, atol=1e-9)


# ---------------------------------------------------------------- training runs

def test_training_deterministic_bitwise():
    fs = two_class_fs()
    gm = fit_mog(fs, temperature=1.0)
    a, _ = train_correction(fs, gm, small_cfg(seed=9))
    b, _ = train_correction(fs, gm, small_cfg(seed=9))
    for wa, wb in zip(a.net.weights, b.net.weights):
        np.testing.assert_array_equal(wa, wb)
    for ba, bb in zip(a.net.biases, b.net.biases):
        np.testing.assert_array_equal(ba, bb)


def test_ebm_deterministic_bitwise():
    fs = two_class_fs(seed=4)
    cfg = small_cfg(seed=5)
    a, _ = train_correction(fs, None, cfg)
    b, _ = train_correction(fs, None, cfg)
    assert a.gm is None
    for wa, wb in zip(a.net.weights, b.net.weights):
        np.testing.assert_array_equal(wa, wb)


def test_zero_lr_leaves_network_at_init():
    fs = two_class_fs(seed=6)
    gm = fit_mog(fs, temperature=1.0)
    cfg = small_cfg(epochs=1, learning_rate=0.0, seed=13)
    model, _ = train_correction(fs, gm, cfg)
    # reconstruct the init: first spawned child of the config seed
    init_ss = np.random.SeedSequence(13).spawn(4)[0]
    expected = mlp_init([2, 16, 16, 1], np.random.default_rng(init_ss))
    for got, want in zip(model.net.weights, expected.weights):
        np.testing.assert_array_equal(got, want)


def test_strong_regularization_collapses_energy():
    fs = two_class_fs(seed=7)
    gm = fit_mog(fs, temperature=1.0)
    cfg = small_cfg(epochs=15, l2_coeff=1e6, hidden_dim=32, learning_rate=1e-2, seed=3)
    model, _ = train_correction(fs, gm, cfg)
    assert np.abs(mlp_energy(model.net, fs.features)).mean() < 0.01


def test_no_training_rows_rejected():
    # refused before the network, the Adam state or the mixture copy is built
    fs = FeatureSet(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
    gm = fit_mog(two_class_fs(), temperature=1.0)
    for mixture in (gm, None):
        with pytest.raises(ValueError, match="no training rows"):
            train_correction(fs, mixture, small_cfg())


def test_dimension_mismatch_rejected():
    fs = two_class_fs()
    rng = np.random.default_rng(8)
    other = FeatureSet(rng.standard_normal((40, 3)), rng.integers(0, 2, 40), 2)
    gm3 = fit_mog(other, temperature=1.0)
    with pytest.raises(ValueError, match="dimension"):
        train_correction(fs, gm3, small_cfg())


def test_divergence_aborts_with_context():
    fs = two_class_fs(seed=9)
    gm = fit_mog(fs, temperature=1.0)
    with pytest.raises(ComputationError, match="epoch"):
        with np.errstate(over="ignore", invalid="ignore"):
            train_correction(fs, gm, small_cfg(learning_rate=1e30))


def test_jsonl_log(tmp_path):
    fs = two_class_fs(seed=10)
    gm = fit_mog(fs, temperature=1.0)
    log = tmp_path / "train.jsonl"
    _, history = train_correction(fs, gm, small_cfg(epochs=3), log_path=log)
    rows = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(rows) == len(history) == 3
    assert [r["epoch"] for r in rows] == [0, 1, 2]
    for row in rows:
        assert set(row) == {"epoch", "mle_loss", "l2_reg", "mean_pos_energy",
                            "mean_neg_energy", "sgld_mean_grad_norm"}
        assert all(np.isfinite(v) for v in row.values())


def test_ebm_blob_separation():
    rng = np.random.default_rng(0)
    blob = rng.normal(0, 0.1, (400, 2)) + np.array([1.0, -1.0])
    fs = FeatureSet(blob, np.zeros(400, dtype=int), 1)
    cfg = replace(ebm_defaults(toy=True, seed=5), epochs=20, hidden_dim=32,
                  batch_size=128, learning_rate=1e-3, net_temperature=1.0,
                  sgld=SgldSchedule(100, (5e-2, 5e-3), (1e-2, 1e-3)))
    model, _ = train_correction(fs, None, cfg)
    held = rng.normal(0, 0.1, (200, 2)) + np.array([1.0, -1.0])
    far = rng.uniform(-6, 6, (200, 2))
    assert np.mean(score_correction(model, held)) < np.mean(score_correction(model, far))


# ---------------------------------------------------------------- toy pipeline checks

def test_cross_final_mle_near_zero(cross_trained):
    _, history = cross_trained
    assert abs(history[-1]["mle_loss"]) < 0.5


def test_energy_sanity_train_below_uniform(cross_trained, cross_train_fs):
    model, _ = cross_trained
    rng = np.random.default_rng(11)
    lo = 2.0 * cross_train_fs.features.min(axis=0)
    hi = 2.0 * cross_train_fs.features.max(axis=0)
    uniform = rng.uniform(lo, hi, (2000, 2))
    train_mean = np.mean(score_correction(model, cross_train_fs.features))
    uniform_mean = np.mean(score_correction(model, uniform))
    assert train_mean < uniform_mean


# ---------------------------------------------------------------- archives

def test_correction_archive_round_trip(tmp_path):
    fs = two_class_fs(seed=12)
    gm = fit_mog(fs, temperature=1.0)
    model, _ = train_correction(fs, gm, small_cfg(seed=2))
    path = tmp_path / "model.ftar"
    save_model(path, model)
    kind, loaded = load_model(path)
    assert kind == "correction"
    z = np.random.default_rng(13).standard_normal((50, 2))
    np.testing.assert_array_equal(score_correction(loaded, z), score_correction(model, z))


def test_ebm_archive_round_trip(tmp_path):
    fs = two_class_fs(seed=14)
    model, _ = train_correction(fs, None, small_cfg(seed=3, net_temperature=0.5))
    path = tmp_path / "ebm.ftar"
    save_model(path, model)
    kind, loaded = load_model(path)
    assert kind == "ebm" and loaded.gm is None and loaded.net_temperature == 0.5
    z = np.random.default_rng(15).standard_normal((20, 2))
    np.testing.assert_array_equal(score_correction(loaded, z), score_correction(model, z))
    np.testing.assert_array_equal(score_correction(loaded, z), mlp_energy(model.net, z) / 0.5)


def test_correction_archive_without_temperature_loads_at_one(tmp_path):
    # archives written before net_temperature was stored were always scored at 1.0
    fs = two_class_fs(seed=16)
    model = CorrectionModel(mlp_init([2, 4, 1], np.random.default_rng(17)),
                            fit_mog(fs, temperature=1.0))
    path = tmp_path / "old.ftar"
    save_model(path, model)
    entries = read_archive(path)
    del entries["net_temperature"]
    write_archive(path, entries)
    kind, loaded = load_model(path)
    assert kind == "correction" and loaded.net_temperature == 1.0
    z = fs.features[:20]
    np.testing.assert_array_equal(score_correction(loaded, z),
                                  mlp_energy(model.net, z) + gaussian_energy(model.gm, z))


def test_archive_with_entries_no_loader_reads_is_refused(tmp_path):
    # an ebm archive holding a fifth layer past a missing third, and a whole
    # mixture, would load as its first layers alone; a mixture archive holding a
    # network would load as the mixture
    fs = two_class_fs(seed=18)
    gm = fit_mog(fs, temperature=1.0)
    ebm, mixture = tmp_path / "ebm.ftar", tmp_path / "mog.ftar"
    save_model(ebm, CorrectionModel(mlp_init([2, 8, 8, 1], np.random.default_rng(19))))
    entries = read_archive(ebm)
    entries.update({"net.w5": np.ones((1, 8)), "net.b5": np.zeros(1)})
    entries.update(mixture_entries(gm, "mog."))
    write_archive(ebm, entries)
    with pytest.raises(ValueError) as info:
        load_model(ebm)
    assert str(info.value) == (f"{ebm}: entries no loader reads: net.w5, net.b5, mog.means, "
                               "mog.chol_lower, mog.mixing, mog.temperature, mog.shrinkage")
    save_mixture(mixture, gm)
    entries = read_archive(mixture)
    entries["net.w0"] = np.ones((4, 2))
    write_archive(mixture, entries)
    with pytest.raises(ValueError, match=r"mog\.ftar: entries no loader reads: net\.w0$"):
        load_model(mixture)


# ---------------------------------------------------------------- float32 chains

def float32_copy(net):
    return EnergyMlp([p.astype(np.float32) for p in net.params])


def test_adam_in_place_matches_reference_bit_for_bit():
    def reference(params, grads, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
        # the update as first written, one fresh array per operation
        t += 1
        out_p, out_m, out_v = [], [], []
        for p, g, mi, vi in zip(params, grads, m, v):
            mi = b1 * mi + (1 - b1) * g
            vi = b2 * vi + (1 - b2) * g * g
            m_hat = mi / (1 - b1 ** t)
            v_hat = vi / (1 - b2 ** t)
            out_p.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
            out_m.append(mi)
            out_v.append(vi)
        return out_p, out_m, out_v, t

    rng = np.random.default_rng(30)
    params = [rng.standard_normal((7, 5)), rng.standard_normal(7), rng.standard_normal((1, 7))]
    ref_p, ref_m, ref_v, ref_t = params, [np.zeros_like(p) for p in params], \
        [np.zeros_like(p) for p in params], 0
    state = AdamState.zeros_like(params)
    for _ in range(5):
        grads = [rng.standard_normal(p.shape) * 10.0 ** rng.integers(-8, 3) for p in params]
        ref_p, ref_m, ref_v, ref_t = reference(ref_p, grads, ref_m, ref_v, ref_t, lr=3e-3)
        params, state = adam_step(params, grads, state, lr=3e-3)
    assert state.t == ref_t == 5
    for got, want in zip(params + state.m + state.v, ref_p + ref_m + ref_v):
        np.testing.assert_array_equal(got, want)


def test_adam_leaves_params_and_grads_alone():
    params = [np.arange(3.0)]
    grads = [np.ones(3)]
    state = AdamState.zeros_like(params)
    new, _ = adam_step(params, grads, state, lr=0.1)
    np.testing.assert_array_equal(params[0], np.arange(3.0))
    np.testing.assert_array_equal(grads[0], np.ones(3))
    assert not np.shares_memory(new[0], params[0])


def test_sgld_end_states_with_float32_network_gradient_track_float64():
    # 20 steps at the plain-EBM step sizes on a 2 -> 128 x 4 network, from the
    # same init with the same noise. The float32 gradient's relative error
    # (about 1e-6) scales only the drift, which is at most the distance the
    # chains moved, so the end states may differ by 1e-6 of it; 3.5e-10 measured
    rng = np.random.default_rng(31)
    net = mlp_init([2] + [128] * 4 + [1], rng)
    schedule = SgldSchedule(20, (1e-2, 1e-3), (1e-2, 1e-3))
    init = rng.standard_normal((64, 2))
    ends = [sgld_sample(init, lambda z, n=n: mlp_grad_input(n, z).astype(np.float64),
                        schedule, seed=5)
            for n in (net, float32_copy(net))]
    moved = np.abs(ends[0] - init).max()
    assert moved > 1e-2
    assert np.abs(ends[1] - ends[0]).max() <= 1e-6 * moved


def test_chains_take_the_float32_network_gradient(monkeypatch):
    # perfbench times the chain gradient through this module-level name
    import energy_ood.trainer as trainer

    nets = []

    def recorder(net, z):
        nets.append(net)
        return mlp_grad_input(net, z)

    monkeypatch.setattr(trainer, "mlp_grad_input", recorder)
    fs = two_class_fs(n=64, seed=32)
    cfg = small_cfg(epochs=1)
    model, _ = train_correction(fs, fit_mog(fs, temperature=1.0), cfg)
    assert len(nets) == cfg.sgld.steps
    assert all(p.dtype == np.float32 for net in nets for p in net.params)
    assert all(p.dtype == np.float64 for p in model.net.params)


def test_trained_model_is_float64_and_saves(tmp_path):
    fs = two_class_fs(seed=33)
    model, _ = train_correction(fs, fit_mog(fs, temperature=1.0), small_cfg(seed=4))
    assert model.net.dtype == np.float64
    save_model(tmp_path / "model.ftar", model)
    with pytest.raises(ValueError, match="float64"):
        save_model(tmp_path / "f32.ftar", replace(model, net=float32_copy(model.net)))


def test_model_archive_bytes_are_pinned(tmp_path):
    # the bytes save_model writes, spelled out from the documented format:
    # every value is an exact binary fraction, and the covariance 4 I has the
    # factor 2 I on any LAPACK, so the file is the same on every machine
    net = {"activation": np.array([1], dtype=np.uint32),
           "w0": np.array([[0.5, -0.25], [1.5, 0.125], [-2.0, 0.75]]),
           "b0": np.array([0.0625, -0.5, 1.0]),
           "w1": np.array([[0.25, -1.0, 0.5]]),
           "b1": np.array([-0.375])}
    means = np.array([[1.0, -0.5], [-2.0, 0.25]])
    gm = GaussianMixture.from_moments(means, 4.0 * np.eye(2))
    path = tmp_path / "model.ftar"
    save_model(path, CorrectionModel(mlp_from_entries(net), gm, net_temperature=2.0))

    want = {"kind": np.array([1], dtype=np.uint32), "net_temperature": np.array([2.0]),
            **{"net." + k: v for k, v in net.items()},
            "mog.means": means, "mog.chol_lower": 2.0 * np.eye(2),
            "mog.mixing": np.array([0.5, 0.5]), "mog.temperature": np.array([1.0]),
            "mog.shrinkage": np.array([0.0])}

    def entry(name, a):
        code = {"uint32": 2, "float64": 3}[a.dtype.name]
        return (struct.pack("<H", len(name)) + name.encode("ascii") + b"FTSR"
                + bytes([1, code, a.ndim, 0]) + struct.pack(f"<{a.ndim}Q", *a.shape)
                + a.astype(a.dtype.newbyteorder("<")).tobytes())

    blob = path.read_bytes()
    assert blob == b"FTAR" + bytes([1]) + struct.pack("<H", len(want)) + b"".join(
        entry(name, a) for name, a in want.items())
    entries = read_archive(path)
    assert [(k, a.dtype) for k, a in entries.items()] == [(k, a.dtype) for k, a in want.items()]
    kind, model = load_model(path)
    assert kind == "correction" and model.net_temperature == 2.0
    loaded = {"net.w0": model.net.weights[0], "net.b0": model.net.biases[0],
              "net.w1": model.net.weights[1], "net.b1": model.net.biases[1],
              "mog.means": model.gm.means, "mog.chol_lower": model.gm.chol_lower,
              "mog.mixing": model.gm.mixing}
    for name, a in loaded.items():
        assert a.dtype == np.float64 and a.tobytes() == want[name].tobytes(), name
    assert (model.gm.temperature, model.gm.shrinkage) == (1.0, 0.0)


def test_divergence_beyond_float32_parameters_names_epoch_and_step():
    # float64 weights of about 1e200 are finite but have no float32 copy
    fs = two_class_fs(seed=9)
    gm = fit_mog(fs, temperature=1.0)
    with pytest.raises(ComputationError, match=r"epoch 0, step 0"):
        with np.errstate(over="ignore", invalid="ignore"):
            train_correction(fs, gm, small_cfg(learning_rate=1e200))


def test_chain_state_beyond_float32_raises_training_error_without_warning():
    # features of size 1e39 start chains that float32 cannot hold; the chain
    # gradient is non-finite, the sampler reports it and training names where
    fs = two_class_fs(seed=34)
    fs = FeatureSet(fs.features * 1e39, fs.labels, fs.num_classes)
    gm = fit_mog(fs, temperature=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ComputationError, match=r"epoch 0, step 0") as exc:
            train_correction(fs, gm, small_cfg(epochs=1))
    cause = exc.value.__cause__
    assert isinstance(cause, ComputationError)
    assert str(cause).startswith("non-finite gradient at step 0, chain")


def test_adam_refuses_gradient_of_another_dtype():
    # the step is written into a buffer typed like the gradient, so a float32
    # gradient would make float32 parameters beside float64 moments
    params = [np.zeros(2), np.ones(3)]
    state = AdamState.zeros_like(params)
    with pytest.raises(ValueError, match=r"params\[1\]"):
        adam_step(params, [np.zeros(2), np.full(3, 0.1, np.float32)], state, 1e-3)
    assert state.t == 0 and not any(v.any() for v in state.v)


# ---------------------------------------------------------------- float32 training step

def features_fs(n_per_class=100, classes=10, d=64, seed=35):
    """Rows from a tied-covariance mixture with a 10:1 spectrum, as at 512-d."""
    rng = np.random.default_rng(seed)
    rotation, _ = np.linalg.qr(rng.standard_normal((d, d)))
    chol = rotation * np.sqrt(np.geomspace(0.1, 1.0, d))
    means = 0.3 * rng.standard_normal((classes, d))
    labels = np.repeat(np.arange(classes), n_per_class)
    return FeatureSet(means[labels] + rng.standard_normal((labels.size, d)) @ chol.T,
                      labels, classes)


def reference_training(fs, gm, cfg):
    """The training loop with every step in float64, from the public functions:
    float64 chain gradients, two energy passes and a float64 parameter
    gradient. Returns the final parameters and each step's (mle, l2) losses."""
    n, d = fs.features.shape
    ss_init, ss_shuffle, ss_noise, ss_neg = np.random.SeedSequence(cfg.seed).spawn(4)
    shuffle_rng, noise_rng, neg_rng = (np.random.default_rng(s)
                                       for s in (ss_shuffle, ss_noise, ss_neg))
    dims = [d] + [cfg.hidden_dim] * cfg.num_hidden + [1]
    params = mlp_init(dims, np.random.default_rng(ss_init)).params
    state = AdamState.zeros_like(params)
    temp, losses, step = cfg.net_temperature, [], 0
    for _ in range(cfg.epochs):
        for idx in minibatch_indices(n, cfg.batch_size, shuffle_rng):
            b = idx.size
            pos = fs.features[idx] + cfg.input_noise_std * noise_rng.standard_normal((b, d))
            net = EnergyMlp(params)
            neg = sgld_sample(sgld_init(gm, b, d, neg_rng),
                              lambda z: mlp_grad_input(net, z) / temp + gaussian_energy_grad(gm, z),
                              cfg.sgld, seed=(cfg.seed, 4, step))
            e_pos, e_neg = mlp_energy(net, pos) / temp, mlp_energy(net, neg) / temp
            losses.append((e_pos.mean() - e_neg.mean(),
                           np.mean(np.concatenate([e_pos, e_neg]) ** 2)))
            upstream = np.concatenate([1.0 / b + cfg.l2_coeff * e_pos / b,
                                       -1.0 / b + cfg.l2_coeff * e_neg / b]) / temp
            grads, _ = mlp_grad_params(net, np.concatenate([pos, neg]), upstream)
            params, state = adam_step(params, grads, state, cfg.learning_rate)
            step += 1
    return params, losses


@pytest.mark.parametrize("setup", ["toy", "features"])
def test_float32_training_step_tracks_float64_reference(setup):
    # the update from the init agrees with the all-float64 loop to 1e-3
    # relative in norm, and so do the per-epoch losses. Measured: updates
    # 1.2e-6 (toy, 15 steps) and 1.8e-5 (64-d, 4 steps), losses 4.9e-6
    if setup == "toy":
        fs = gen_toy(ToySpec(kind="grid_crosses", samples_per_class=60, seed=3))
        gm = fit_mog(fs, temperature=1.0)
        cfg = replace(correction_defaults(toy=True, seed=5), epochs=3)
    else:
        fs = features_fs()
        gm = fit_mog(fs, temperature=1e3)
        cfg = replace(correction_defaults(seed=6), epochs=1, hidden_dim=256)
    model, history = train_correction(fs, gm, cfg)
    want, losses = reference_training(fs, gm, cfg)
    init = mlp_init([fs.dim] + [cfg.hidden_dim] * cfg.num_hidden + [1],
                    np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(4)[0])).params
    got_delta = np.concatenate([(p - q).ravel() for p, q in zip(model.net.params, init)])
    want_delta = np.concatenate([(p - q).ravel() for p, q in zip(want, init)])
    assert np.linalg.norm(got_delta - want_delta) <= 1e-3 * np.linalg.norm(want_delta)
    per_epoch = np.array(losses).reshape(cfg.epochs, -1, 2).mean(axis=1)
    got = np.array([[row["mle_loss"], row["l2_reg"]] for row in history])
    np.testing.assert_allclose(got, per_epoch, rtol=1e-3, atol=1e-6)


def test_training_passes_float32_objects_and_makes_one_pass_per_step(monkeypatch):
    # perfbench times these calls through this module's names
    import energy_ood.trainer as trainer

    seen = {"params": [], "mixture": []}

    def record_params(net, batch, upstream):
        grads, energies = mlp_grad_params(net, batch, upstream)
        seen["params"].append((net.dtype, energies.dtype, len(batch)))
        return grads, energies

    def record_mixture(gm, z):
        seen["mixture"].append(gm.dtype)
        return gaussian_energy_grad(gm, z)

    def no_energy_pass(net, z):
        raise AssertionError("training made a separate energy pass")

    monkeypatch.setattr(trainer, "mlp_grad_params", record_params)
    monkeypatch.setattr(trainer, "gaussian_energy_grad", record_mixture)
    monkeypatch.setattr(trainer, "mlp_energy", no_energy_pass)
    fs = two_class_fs(n=100, seed=36)
    cfg = small_cfg(epochs=1)
    model, _ = train_correction(fs, fit_mog(fs, temperature=1.0), cfg)
    assert seen["params"] == [(np.float32, np.float32, 128), (np.float32, np.float32, 72)]
    assert seen["mixture"] == [np.float32] * (2 * cfg.sgld.steps)
    assert model.net.dtype == np.float64 and model.gm.dtype == np.float64


@pytest.mark.parametrize("options", [
    {"net_temperature": 1e-300},
    {"mog_temperature": 1e-300},
    {"l2_coeff": 1e308},
    {"input_noise_std": 1e300},
    {"sgld": SgldSchedule(20, (1e300, 1e300), (1e-3, 1e-4))},
], ids=["net-temperature", "mog-temperature", "l2-coeff", "input-noise", "step-size"])
def test_training_diverges_without_runtime_warning(options):
    # each of these overflows somewhere in the step; training stops with an
    # error naming where, and nothing on the way warns
    options = dict(options)
    fs = gen_toy(ToySpec(kind="grid_crosses", samples_per_class=20))
    gm = fit_mog(fs, temperature=options.pop("mog_temperature", 1.0))
    cfg = replace(correction_defaults(toy=True), epochs=1, **options)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ComputationError, match=r"epoch 0, step 0"):
            train_correction(fs, gm, cfg)
