import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import expit

from energy_ood.energy_net import (
    EnergyMlp,
    _sigmoid,
    flat_params,
    mlp_energy,
    mlp_entries,
    mlp_from_params,
    mlp_grad_input,
    mlp_grad_params,
    mlp_init,
)
from energy_ood.tensorio import read_archive, write_archive
from energy_ood.trainer import CorrectionModel, load_model, save_model


def test_activations_match_expit():
    x = np.concatenate([np.linspace(-750.0, 750.0, 3_000_001),
                        [1e300, -1e300, 710.0, -710.0, 0.0, -0.0]])
    s = expit(x)
    # SiLU and its derivative as the passes form them: the energy and input
    # gradient of a 1 -> 1 -> 1 network with unit weights, which are exactly
    # silu(x) and silu'(x) (the products and sums with 1 and 0 are exact)
    unit = EnergyMlp((np.ones((1, 1)), np.ones((1, 1))), (np.zeros(1), np.zeros(1)))
    references = {"sigmoid": s, "silu": x * s, "silu'": s * (1.0 + x * (1.0 - s))}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            got = {"sigmoid": _sigmoid(x)}
        got["silu"] = mlp_energy(unit, x[:, None])
        got["silu'"] = mlp_grad_input(unit, x[:, None])[:, 0]
    assert np.abs(got["sigmoid"] - s).max() <= 2.3e-16
    # NumPy's exp and the libm exp behind expit can differ in the last place;
    # where 1 + exp(-x) >= 2^53 that can also flip the rounding of the sum, so
    # the two sigmoids differ by up to 2.5 ulp relative (5.0e-16 near x = -36.9)
    # while each stays within 2.6e-16 of the exact value there (checked with mpmath)
    for name, want in references.items():
        bound = np.maximum(2.3e-16, 2.5 * np.finfo(float).eps * np.abs(want))
        assert (np.abs(got[name] - want) <= bound).all(), name


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


# ---------------------------------------------------------------- passes

def reference_passes(net, x, upstream):
    """The passes as first written: every layer keeps its pre-activation and
    output, and the reverse pass recomputes the sigmoid for back * act'(pre).

    Returns (energies, input gradient of sum_b upstream_b E(x_b), weight
    gradients, bias gradients).
    """
    def sigmoid(v):
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-v))

    def act(v):
        return v * sigmoid(v) if net.activation == "silu" else np.tanh(v)

    def dact(v):
        if net.activation == "silu":
            s = sigmoid(v)
            return s * (1.0 + v * (1.0 - s))
        t = np.tanh(v)
        return 1.0 - t * t

    inputs, pres = [x], []
    h = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        s = h @ w.T + b
        pres.append(s)
        h = s if i == last else act(s)
        if i != last:
            inputs.append(h)
    gw, gb = [None] * len(net.weights), [None] * len(net.weights)
    delta = upstream[:, None]
    for i in range(last, -1, -1):
        gw[i] = delta.T @ inputs[i]
        gb[i] = delta.sum(axis=0)
        back = delta @ net.weights[i]
        delta = back if i == 0 else back * dact(pres[i - 1])
    return h[:, 0], delta, gw, gb


@pytest.mark.parametrize("scale", [1.0, 1e3])
@pytest.mark.parametrize("n", [1, 7, 256])
@pytest.mark.parametrize("activation", ["silu", "tanh"])
def test_passes_match_reference_bit_for_bit(activation, n, scale):
    rng = np.random.default_rng(13)
    net = mlp_init([3, 32, 24, 32, 1], rng, activation)
    z = scale * rng.uniform(-2.0, 2.0, (n, 3))
    upstream = rng.standard_normal(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        energy, grad, _, _ = reference_passes(net, z, np.ones(n))
        _, _, gw, gb = reference_passes(net, z, upstream)
        got = (mlp_energy(net, z), mlp_grad_input(net, z), mlp_grad_params(net, z, upstream))
    if scale > 1.0:  # exp(-pre) overflows somewhere in the first layer
        assert (z @ net.weights[0].T < -710.0).any()
    np.testing.assert_array_equal(got[0], energy)
    np.testing.assert_array_equal(got[1], grad)
    for a, b in zip(flat_params(got[2]), [p for pair in zip(gw, gb) for p in pair]):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("activation", ["silu", "tanh"])
def test_passes_leave_inputs_alone_and_repeat(activation):
    rng = np.random.default_rng(14)
    net = mlp_init([4, 16, 16, 1], rng, activation)
    z = rng.standard_normal((9, 4))
    upstream = rng.standard_normal(9)
    z0, upstream0 = z.copy(), upstream.copy()

    def call_all():
        # each result with a copy taken as it is returned, so a later call
        # that writes into an earlier result's buffer shows
        out = []
        for f, args in ((mlp_energy, (net, z)), (mlp_grad_input, (net, z)),
                        (mlp_grad_input, (net, z[0])), (mlp_grad_params, (net, z, upstream))):
            result = f(*args)
            arrays = flat_params(result) if f is mlp_grad_params else [result]
            out.extend((r, r.copy()) for r in arrays)
            assert z.tobytes() == z0.tobytes() and upstream.tobytes() == upstream0.tobytes()
        return out

    first = call_all()
    second = call_all()
    for (a, a_returned), (b, b_returned) in zip(first, second):
        assert a.tobytes() == a_returned.tobytes() == b.tobytes() == b_returned.tobytes()


def traced_peak_layers(fn, *args) -> float:
    """Peak NumPy allocation of fn(*args), in 2000 x 256 float64 arrays."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / (2000 * 256 * 8)


@pytest.mark.parametrize("activation, energy_peak, grad_peak",
                         [("silu", 4.5, 12.0), ("tanh", 3.5, 13.0)])
def test_passes_peak_memory(activation, energy_peak, grad_peak):
    # 2000 rows through 64 -> 256 x 4 -> 1; the passes that kept every layer's
    # pre-activation and output and recomputed the sigmoid in reverse peaked at
    # 9.0 / 8.0 layer arrays for the energy and 12.0 / 13.0 for the input gradient
    rng = np.random.default_rng(15)
    net = mlp_init([64, 256, 256, 256, 256, 1], rng, activation)
    z = rng.standard_normal((2000, 64))
    assert traced_peak_layers(mlp_energy, net, z) <= energy_peak
    assert traced_peak_layers(mlp_grad_input, net, z) <= grad_peak


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


# ---------------------------------------------------------------- float32 copy

def as_float32(net):
    return mlp_from_params([p.astype(np.float32) for p in flat_params(net)], net.activation)


def test_network_dtype_is_float32_only_when_every_array_is():
    net = mlp_init([3, 4, 1], np.random.default_rng(16))
    assert net.dtype == np.float64
    assert as_float32(net).dtype == np.float32
    assert all(p.dtype == np.float32 for p in flat_params(as_float32(net)))
    w, b = net.weights, net.biases
    for mixed in (EnergyMlp((w[0].astype(np.float32), w[1]), b),
                  EnergyMlp(tuple(a.astype(np.float16) for a in w),
                            tuple(a.astype(np.float32) for a in b))):
        assert mixed.dtype == np.float64
        assert all(p.dtype == np.float64 for p in flat_params(mixed))
    with pytest.raises(ValueError, match="non-finite"):
        EnergyMlp((np.full((4, 3), np.inf, np.float32), w[1].astype(np.float32)),
                  tuple(a.astype(np.float32) for a in b))


@pytest.mark.parametrize("n", [1, 7, 256])
@pytest.mark.parametrize("activation", ["silu", "tanh"])
def test_float32_input_gradient_matches_reference_in_float32(activation, n):
    # the same operations as the float64 pass, every one of them in float32
    rng = np.random.default_rng(17)
    net = as_float32(mlp_init([3, 32, 24, 32, 1], rng, activation))
    z = rng.uniform(-2.0, 2.0, (n, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, want, _, _ = reference_passes(net, z.astype(np.float32), np.ones(n, np.float32))
        got = mlp_grad_input(net, z)
    assert got.dtype == want.dtype == np.float32
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dims, rows", [([2] + [128] * 4 + [1], 256),
                                        ([512] + [1024] * 4 + [1], 64)])
@pytest.mark.parametrize("activation", ["silu", "tanh"])
def test_float32_input_gradient_tracks_float64(activation, dims, rows):
    # max |g32 - g64| / max |g64| <= 1e-5, about 84 float32 epsilons; these
    # four cases measure 8.3e-7 to 9.3e-7
    rng = np.random.default_rng(18)
    net = mlp_init(dims, rng, activation)
    z = rng.standard_normal((rows, dims[0]))
    exact = mlp_grad_input(net, z)
    approx = mlp_grad_input(as_float32(net), z)
    assert approx.dtype == np.float32
    assert np.abs(approx - exact).max() <= 1e-5 * np.abs(exact).max()


def test_float32_input_gradient_beyond_range_is_nonfinite_without_warning():
    # 1e39 is inf in float32: that row's gradient is non-finite, for the
    # sampler's finiteness check to report, and the other rows are unaffected
    rng = np.random.default_rng(19)
    net = as_float32(mlp_init([2, 16, 16, 1], rng))
    z = rng.standard_normal((4, 2))
    in_range = mlp_grad_input(net, z)
    z[2, 0] = 1e39
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grad = mlp_grad_input(net, z)
    assert not np.isfinite(grad[2]).all()
    assert np.isfinite(grad[[0, 1, 3]]).all()
    np.testing.assert_array_equal(grad[[0, 1, 3]], in_range[[0, 1, 3]])


def test_float32_network_is_never_stored(tmp_path):
    net = as_float32(mlp_init([4, 8, 1], np.random.default_rng(20)))
    with pytest.raises(ValueError, match="float64"):
        mlp_entries(net)
    with pytest.raises(ValueError, match="float64"):
        save_model(tmp_path / "net.ftar", CorrectionModel(net))
    assert not (tmp_path / "net.ftar").exists()


def test_float32_archive_entries_load_as_float64(tmp_path):
    # an archive this program did not write may store float32 layers; the
    # network built from it is still float64
    net = mlp_init([4, 8, 1], np.random.default_rng(21))
    path = tmp_path / "net.ftar"
    save_model(path, CorrectionModel(net))
    entries = read_archive(path)
    for key in [k for k in entries if k[:5] in ("net.w", "net.b")]:
        entries[key] = entries[key].astype(np.float32)
    write_archive(path, entries)
    _, model = load_model(path)
    assert model.net.dtype == np.float64
    np.testing.assert_array_equal(model.net.weights[0],
                                  net.weights[0].astype(np.float32).astype(np.float64))
