import math

import numpy as np
import pytest

from energy_ood.energy_net import (
    EnergyMlp,
    flat_params,
    mlp_energy,
    mlp_grad_input,
    mlp_grad_params,
    mlp_init,
)
from energy_ood.trainer import CorrectionModel, load_model, save_model


def linear_net(w, b=0.0):
    return EnergyMlp((np.atleast_2d(np.asarray(w, float)),), (np.array([b], float),))


def zero_net(dims, bias_out=0.0):
    weights = tuple(np.zeros((o, i)) for i, o in zip(dims[:-1], dims[1:]))
    biases = [np.zeros(o) for o in dims[1:]]
    biases[-1][:] = bias_out
    return EnergyMlp(weights, tuple(biases))


def forward_oracle(net, z):
    # straight-line reimplementation: explicit loops, math.exp sigmoid
    h = [float(v) for v in z]
    for li, (w, b) in enumerate(zip(net.weights, net.biases)):
        out = []
        for row in range(w.shape[0]):
            s = b[row]
            for col in range(w.shape[1]):
                s += w[row, col] * h[col]
            if li < len(net.weights) - 1:
                if net.activation == "silu":
                    s = s / (1.0 + math.exp(-s))
                else:
                    s = math.tanh(s)
            out.append(s)
        h = out
    return h[0]


def param_fd(net, batch, upstream, h=1e-6):
    """Central finite differences of sum_b upstream_b * E(z_b) over every parameter."""

    def total(n):
        return float(np.dot(upstream, np.atleast_1d(mlp_energy(n, batch))))

    grads_w, grads_b = [], []
    for li in range(len(net.weights)):
        gw = np.zeros_like(net.weights[li])
        for idx in np.ndindex(*net.weights[li].shape):
            w_plus = [w.copy() for w in net.weights]
            w_minus = [w.copy() for w in net.weights]
            w_plus[li][idx] += h
            w_minus[li][idx] -= h
            up = EnergyMlp(tuple(w_plus), net.biases, net.activation)
            dn = EnergyMlp(tuple(w_minus), net.biases, net.activation)
            gw[idx] = (total(up) - total(dn)) / (2 * h)
        grads_w.append(gw)
        gb = np.zeros_like(net.biases[li])
        for idx in np.ndindex(*net.biases[li].shape):
            b_plus = [b.copy() for b in net.biases]
            b_minus = [b.copy() for b in net.biases]
            b_plus[li][idx] += h
            b_minus[li][idx] -= h
            up = EnergyMlp(net.weights, tuple(b_plus), net.activation)
            dn = EnergyMlp(net.weights, tuple(b_minus), net.activation)
            gb[idx] = (total(up) - total(dn)) / (2 * h)
        grads_b.append(gb)
    return grads_w, grads_b


def rel_err(a, b, floor=1e-6):
    return np.abs(a - b) / np.maximum.reduce([np.abs(a), np.abs(b), np.full_like(a, floor)])


# ---------------------------------------------------------------- init

def test_init_shapes():
    net = mlp_init([2, 4, 1], np.random.default_rng(0))
    assert [w.shape for w in net.weights] == [(4, 2), (1, 4)]
    assert [b.shape for b in net.biases] == [(4,), (1,)]
    assert net.dims == (2, 4, 1)


def test_init_deterministic():
    a = mlp_init([3, 8, 8, 1], np.random.default_rng(42))
    b = mlp_init([3, 8, 8, 1], np.random.default_rng(42))
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)


def test_init_respects_uniform_bound():
    # >= 1e4 sampled weights for a 64x64 layer stay inside the fan bound
    limit = np.sqrt(6.0 / 128)
    rng = np.random.default_rng(1)
    samples = [mlp_init([64, 64, 1], rng).weights[0] for _ in range(3)]
    max_abs = max(np.abs(w).max() for w in samples)
    assert sum(w.size for w in samples) >= 10_000
    assert max_abs <= limit + 1e-9
    assert all((b == 0).all() for b in mlp_init([64, 64, 1], rng).biases)


def test_init_rejects_bad_dims():
    with pytest.raises(ValueError):
        mlp_init([4], np.random.default_rng(0))
    with pytest.raises(ValueError):
        mlp_init([4, 8, 2], np.random.default_rng(0))


# ---------------------------------------------------------------- forward

def test_energy_linear_map():
    assert mlp_energy(linear_net([[1.0, 1.0]]), [2.0, 3.0]) == 5.0


def test_energy_constant_network():
    net = zero_net([3, 5, 1], bias_out=2.5)
    z = np.random.default_rng(2).standard_normal((10, 3))
    np.testing.assert_array_equal(mlp_energy(net, z), np.full(10, 2.5))


@pytest.mark.parametrize("activation", ["silu", "tanh"])
def test_energy_matches_straight_line_oracle(activation):
    rng = np.random.default_rng(3)
    net = mlp_init([4, 6, 5, 1], rng, activation)
    for z in rng.standard_normal((5, 4)):
        assert mlp_energy(net, z) == pytest.approx(forward_oracle(net, z), abs=1e-12)


def test_energy_dimension_mismatch():
    net = mlp_init([4, 3, 1], np.random.default_rng(4))
    with pytest.raises(ValueError):
        mlp_energy(net, np.zeros(5))


# ---------------------------------------------------------------- input gradient

def test_grad_input_linear_map():
    net = linear_net([[1.0, 1.0]])
    for z in ([0.0, 0.0], [5.0, -3.0]):
        np.testing.assert_array_equal(mlp_grad_input(net, z), [1.0, 1.0])


def test_grad_input_zero_network():
    net = zero_net([4, 8, 1])
    np.testing.assert_array_equal(mlp_grad_input(net, np.ones(4)), np.zeros(4))


def test_grad_input_matches_finite_differences():
    rng = np.random.default_rng(5)
    net = mlp_init([8, 16, 16, 1], rng)
    h = 1e-5
    for z in rng.standard_normal((5, 8)):
        grad = mlp_grad_input(net, z)
        fd = np.zeros(8)
        for k in range(8):
            step = np.zeros(8)
            step[k] = h
            fd[k] = (mlp_energy(net, z + step) - mlp_energy(net, z - step)) / (2 * h)
        assert rel_err(grad, fd).max() < 1e-4


def test_grad_input_finite_at_extreme_inputs():
    net = mlp_init([2, 32, 32, 1], np.random.default_rng(6))
    for z in ([1e3, -1e3], [-745.0, 745.0], [0.0, 0.0]):
        g = mlp_grad_input(net, np.array(z))
        assert np.isfinite(g).all()


# ---------------------------------------------------------------- parameter gradient

def test_grad_params_single_linear_layer():
    net = linear_net([[0.7, -0.3]])
    z = np.array([[2.0, 5.0]])
    grads = mlp_grad_params(net, z, np.ones(1))
    np.testing.assert_array_equal(grads.weights[0], z)
    np.testing.assert_array_equal(grads.biases[0], [1.0])


def test_grad_params_zero_upstream():
    net = mlp_init([3, 4, 1], np.random.default_rng(7))
    grads = mlp_grad_params(net, np.ones((5, 3)), np.zeros(5))
    assert all((g == 0).all() for g in grads.weights)
    assert all((g == 0).all() for g in grads.biases)


def test_grad_params_matches_finite_differences():
    rng = np.random.default_rng(8)
    net = mlp_init([6, 5, 4, 1], rng)
    batch = rng.standard_normal((4, 6))
    upstream = rng.standard_normal(4)
    grads = mlp_grad_params(net, batch, upstream)
    fd_w, fd_b = param_fd(net, batch, upstream)
    for got, want in zip(grads.weights, fd_w):
        assert rel_err(got, want).max() < 1e-4
    for got, want in zip(grads.biases, fd_b):
        assert rel_err(got, want).max() < 1e-4


def test_grad_params_linear_in_upstream():
    rng = np.random.default_rng(9)
    net = mlp_init([5, 7, 1], rng)
    batch = rng.standard_normal((6, 5))
    u1, u2 = rng.standard_normal(6), rng.standard_normal(6)
    combined = mlp_grad_params(net, batch, u1 + u2)
    a = mlp_grad_params(net, batch, u1)
    b = mlp_grad_params(net, batch, u2)
    for got, ga, gb in zip(flat_params(combined), flat_params(a), flat_params(b)):
        np.testing.assert_allclose(got, ga + gb, atol=1e-10)


def test_grad_params_rejects_empty_batch():
    net = mlp_init([3, 4, 1], np.random.default_rng(10))
    with pytest.raises(ValueError):
        mlp_grad_params(net, np.zeros((0, 3)), np.zeros(0))


# ---------------------------------------------------------------- archive

def test_mlp_archive_round_trip(tmp_path):
    net = mlp_init([4, 8, 8, 1], np.random.default_rng(11), "tanh")
    path = tmp_path / "net.ftar"
    save_model(path, CorrectionModel(net))
    kind, model = load_model(path)
    loaded = model.net
    assert kind == "ebm" and loaded.activation == "tanh"
    assert loaded.dims == net.dims
    z = np.random.default_rng(12).standard_normal((20, 4))
    np.testing.assert_array_equal(mlp_energy(loaded, z), mlp_energy(net, z))
