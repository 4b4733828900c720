import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import expit

from energy_ood import energy_net
from energy_ood.detectors import score_correction
from energy_ood.energy_net import (
    EnergyMlp,
    _sigmoid,
    mlp_energy,
    mlp_entries,
    mlp_grad_input,
    mlp_grad_params,
    mlp_init,
)
from energy_ood.mog import GaussianMixture, gaussian_energy
from energy_ood.tensorio import read_archive, write_archive
from energy_ood.trainer import CorrectionModel, TrainConfig, load_model, save_model


def test_activations_match_expit():
    x = np.concatenate([np.linspace(-750.0, 750.0, 3_000_001),
                        [1e300, -1e300, 710.0, -710.0, 0.0, -0.0]])
    s = expit(x)
    # SiLU and its derivative as the passes form them: the energy and input
    # gradient of a 1 -> 1 -> 1 network with unit weights, which are exactly
    # silu(x) and silu'(x) (the products and sums with 1 and 0 are exact)
    unit = EnergyMlp((np.ones((1, 1)), np.zeros(1), np.ones((1, 1)), np.zeros(1)))
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
    return EnergyMlp((np.atleast_2d(np.asarray(w, float)), np.array([b], float)))


def zero_net(dims, bias_out=0.0):
    params = [a for i, o in zip(dims[:-1], dims[1:]) for a in (np.zeros((o, i)), np.zeros(o))]
    params[-1][:] = bias_out
    return EnergyMlp(params)


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
                s = s / (1.0 + math.exp(-s))
            out.append(s)
        h = out
    return h[0]


def param_fd(net, batch, upstream, h=1e-6):
    """Central finite differences of sum_b upstream_b * E(z_b) over every
    parameter, in ``net.params`` order."""

    def total(params):
        return float(np.dot(upstream, np.atleast_1d(mlp_energy(EnergyMlp(params), batch))))

    grads = []
    for k, p in enumerate(net.params):
        g = np.zeros_like(p)
        for idx in np.ndindex(*p.shape):
            plus = [q.copy() for q in net.params]
            minus = [q.copy() for q in net.params]
            plus[k][idx] += h
            minus[k][idx] -= h
            g[idx] = (total(plus) - total(minus)) / (2 * h)
        grads.append(g)
    return grads


def rel_err(a, b, floor=1e-6):
    return np.abs(a - b) / np.maximum.reduce([np.abs(a), np.abs(b), np.full_like(a, floor)])


# ---------------------------------------------------------------- init

def test_init_shapes():
    net = mlp_init([2, 4, 1], np.random.default_rng(0))
    assert [w.shape for w in net.weights] == [(4, 2), (1, 4)]
    assert [b.shape for b in net.biases] == [(4,), (1,)]
    assert net.dims == (2, 4, 1)


def test_network_takes_ownership_of_its_params():
    params = [np.ones((4, 2)), np.zeros(4), np.ones((1, 4)), np.zeros(1)]
    net = EnergyMlp(params)
    assert all(np.shares_memory(p, q) for p, q in zip(net.params, params))
    with pytest.raises(ValueError, match="read-only"):
        params[0][0, 0] = 2.0


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


def test_silu_is_the_only_activation():
    for other in ("tanh", "relu", ""):
        with pytest.raises(ValueError, match="SiLU is the only one"):
            mlp_init([2, 4, 1], np.random.default_rng(0), other)
    net = mlp_init([2, 4, 1], np.random.default_rng(0), "silu")
    with pytest.raises(TypeError):
        EnergyMlp(net.params, "silu")
    with pytest.raises(TypeError):
        TrainConfig(activation="silu")
    assert TrainConfig().activation == "silu"


# ---------------------------------------------------------------- forward

def test_energy_linear_map():
    assert mlp_energy(linear_net([[1.0, 1.0]]), [[2.0, 3.0]])[0] == 5.0


def test_energy_constant_network():
    net = zero_net([3, 5, 1], bias_out=2.5)
    z = np.random.default_rng(2).standard_normal((10, 3))
    np.testing.assert_array_equal(mlp_energy(net, z), np.full(10, 2.5))


@pytest.mark.parametrize("activation", ["silu"])
def test_energy_matches_straight_line_oracle(activation):
    rng = np.random.default_rng(3)
    net = mlp_init([4, 6, 5, 1], rng, activation)
    for z in rng.standard_normal((5, 4)):
        assert mlp_energy(net, z[None])[0] == pytest.approx(forward_oracle(net, z), abs=1e-12)


def test_energy_dimension_mismatch():
    net = mlp_init([4, 3, 1], np.random.default_rng(4))
    with pytest.raises(ValueError):
        mlp_energy(net, np.zeros(5))


# ---------------------------------------------------------------- input gradient

def test_grad_input_linear_map():
    net = linear_net([[1.0, 1.0]])
    for z in ([0.0, 0.0], [5.0, -3.0]):
        np.testing.assert_array_equal(mlp_grad_input(net, [z])[0], [1.0, 1.0])


def test_grad_input_zero_network():
    net = zero_net([4, 8, 1])
    np.testing.assert_array_equal(mlp_grad_input(net, np.ones((1, 4)))[0], np.zeros(4))


def test_grad_input_matches_finite_differences():
    rng = np.random.default_rng(5)
    net = mlp_init([8, 16, 16, 1], rng)
    h = 1e-5
    for z in rng.standard_normal((5, 8)):
        grad = mlp_grad_input(net, z[None])[0]
        fd = np.zeros(8)
        for k in range(8):
            step = np.zeros(8)
            step[k] = h
            fd[k] = (mlp_energy(net, (z + step)[None])[0]
                     - mlp_energy(net, (z - step)[None])[0]) / (2 * h)
        assert rel_err(grad, fd).max() < 1e-4


def test_grad_input_finite_at_extreme_inputs():
    net = mlp_init([2, 32, 32, 1], np.random.default_rng(6))
    for z in ([1e3, -1e3], [-745.0, 745.0], [0.0, 0.0]):
        g = mlp_grad_input(net, np.array([z]))
        assert np.isfinite(g).all()


# ---------------------------------------------------------------- parameter gradient

def test_grad_params_single_linear_layer():
    net = linear_net([[0.7, -0.3]])
    z = np.array([[2.0, 5.0]])
    (gw, gb), _ = mlp_grad_params(net, z, np.ones(1))
    np.testing.assert_array_equal(gw, z)
    np.testing.assert_array_equal(gb, [1.0])


def test_grad_params_zero_upstream():
    net = mlp_init([3, 4, 1], np.random.default_rng(7))
    grads, _ = mlp_grad_params(net, np.ones((5, 3)), np.zeros(5))
    assert all((g == 0).all() for g in grads)


def test_grad_params_matches_finite_differences():
    rng = np.random.default_rng(8)
    net = mlp_init([6, 5, 4, 1], rng)
    batch = rng.standard_normal((4, 6))
    upstream = rng.standard_normal(4)
    grads, _ = mlp_grad_params(net, batch, upstream)
    for got, want in zip(grads, param_fd(net, batch, upstream), strict=True):
        assert rel_err(got, want).max() < 1e-4


def test_grad_params_linear_in_upstream():
    rng = np.random.default_rng(9)
    net = mlp_init([5, 7, 1], rng)
    batch = rng.standard_normal((6, 5))
    u1, u2 = rng.standard_normal(6), rng.standard_normal(6)
    combined, _ = mlp_grad_params(net, batch, u1 + u2)
    a, _ = mlp_grad_params(net, batch, u1)
    b, _ = mlp_grad_params(net, batch, u2)
    for got, ga, gb in zip(combined, a, b):
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
        return v * sigmoid(v)

    def dact(v):
        s = sigmoid(v)
        return s * (1.0 + v * (1.0 - s))

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
@pytest.mark.parametrize("activation", ["silu"])
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
    for a, b in zip(got[2][0], [p for pair in zip(gw, gb) for p in pair], strict=True):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("activation", ["silu"])
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
                        (mlp_grad_input, (net, z[:1])), (mlp_grad_params, (net, z, upstream))):
            result = f(*args)
            arrays = result[0] if f is mlp_grad_params else [result]
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


@pytest.mark.parametrize("activation, energy_peak, grad_peak", [("silu", 1.1, 12.0)])
def test_passes_peak_memory(activation, energy_peak, grad_peak):
    # 2000 rows through 64 -> 256 x 4 -> 1; the passes that kept every layer's
    # pre-activation and output and recomputed the sigmoid in reverse peaked at
    # 9.0 layer arrays for the energy and 12.0 for the input gradient. The
    # energy pass over all rows at once peaked at 2.0 (bound 4.5); in blocks
    # of 1024 rows it peaks at 1.03, two arrays of one block and the energies
    rng = np.random.default_rng(15)
    net = mlp_init([64, 256, 256, 256, 256, 1], rng, activation)
    z = rng.standard_normal((2000, 64))
    assert traced_peak_layers(mlp_energy, net, z) <= energy_peak
    assert traced_peak_layers(mlp_grad_input, net, z) <= grad_peak


def test_energy_peak_does_not_grow_with_the_rows():
    # 10x the rows adds only their energies, 0.07 layer arrays; the pass over
    # all rows at once peaked at 2.0 and 20.0 layer arrays
    rng = np.random.default_rng(17)
    net = mlp_init([64, 256, 256, 256, 256, 1], rng)
    small, large = (traced_peak_layers(mlp_energy, net, rng.standard_normal((n, 64)))
                    for n in (2000, 20000))
    assert large - small <= energy_net._energy_block_rows(256) / 2000


# ---------------------------------------------------------------- blocks

def test_energy_block_rows_follow_the_widest_layer():
    # 2^16-cell blocks for narrow networks, 4 rows per unit for wide ones: the
    # toy's 14641-row grid at width 128 takes 29 blocks, while perfbench's
    # 512-d calls (2000 rows at width 1024) and the bit-for-bit reference
    # test's batches (256 rows at width 32) take one
    assert energy_net._energy_block_rows(32) == 2048
    assert energy_net._energy_block_rows(128) == 512
    assert energy_net._energy_block_rows(1024) == 4096


@pytest.mark.parametrize("to32", [False, True])
@pytest.mark.parametrize("dims", [[1, 1, 1, 1], [3, 32, 24, 32, 1]])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_energy_does_not_depend_on_the_block_size(monkeypatch, to32, dims, extra):
    # three blocks of 7 rows, one short of them or one more, against one pass.
    # At width 1 every product is one multiplication, so the energies agree
    # bit for bit. Wider layers agree only to rounding, since BLAS rounds
    # products of different shapes differently; measured up to 5 eps of the
    # largest energy, in either dtype
    rng = np.random.default_rng(16)
    net = mlp_init(dims, rng)
    net = as_float32(net) if to32 else net
    z = rng.uniform(-2.0, 2.0, (3 * 7 + extra, dims[0]))
    widths = []
    monkeypatch.setattr(energy_net, "_energy_block_rows", lambda width: widths.append(width) or 7)
    blocked = mlp_energy(net, z)
    monkeypatch.setattr(energy_net, "_energy_block_rows", lambda width: 1 << 30)
    single = mlp_energy(net, z)
    assert widths == [max(dims)]
    assert blocked.dtype == single.dtype == net.dtype
    if max(dims) == 1:
        np.testing.assert_array_equal(blocked, single)
    else:
        bound = 32 * np.finfo(net.dtype).eps * np.abs(single).max()
        assert np.abs(blocked - single).max() <= bound


def test_energy_of_no_rows_and_of_one_vector():
    net = mlp_init([3, 8, 1], np.random.default_rng(18))
    empty = mlp_energy(net, np.zeros((0, 3)))
    assert empty.shape == (0,) and empty.dtype == np.float64
    one = mlp_energy(net, np.array([[0.5, -1.0, 2.0]]))
    assert one.shape == (1,) and one.dtype == np.float64


def test_correction_score_is_its_two_energies_over_several_blocks():
    # the toy's 128-wide network on 1500 rows, three 512-row blocks
    rng = np.random.default_rng(19)
    net = mlp_init([2, 128, 128, 1], rng)
    gm = GaussianMixture.from_moments(rng.standard_normal((4, 2)), np.eye(2), temperature=3.0)
    model = CorrectionModel(net, gm, net_temperature=0.5)
    z = rng.uniform(-12.0, 12.0, (1500, 2))
    want = mlp_energy(net, z) / model.net_temperature + gaussian_energy(gm, z)
    assert score_correction(model, z).tobytes() == want.tobytes()


# ---------------------------------------------------------------- archive

def test_mlp_archive_round_trip(tmp_path):
    net = mlp_init([4, 8, 8, 1], np.random.default_rng(11))
    path = tmp_path / "net.ftar"
    save_model(path, CorrectionModel(net))
    assert read_archive(path)["net.activation"].tolist() == [1]  # SiLU's code
    kind, model = load_model(path)
    loaded = model.net
    assert kind == "ebm"
    assert loaded.dims == net.dims
    z = np.random.default_rng(12).standard_normal((20, 4))
    np.testing.assert_array_equal(mlp_energy(loaded, z), mlp_energy(net, z))


# ---------------------------------------------------------------- float32 copy

def as_float32(net):
    return EnergyMlp([p.astype(np.float32) for p in net.params])


def test_network_dtype_is_float32_only_when_every_array_is():
    net = mlp_init([3, 4, 1], np.random.default_rng(16))
    assert net.dtype == np.float64
    assert as_float32(net).dtype == np.float32
    assert all(p.dtype == np.float32 for p in as_float32(net).params)
    w0, b0, w1, b1 = net.params
    for mixed in (EnergyMlp((w0.astype(np.float32), b0, w1, b1)),
                  EnergyMlp((w0.astype(np.float16), b0.astype(np.float32),
                             w1.astype(np.float16), b1.astype(np.float32)))):
        assert mixed.dtype == np.float64
        assert all(p.dtype == np.float64 for p in mixed.params)
    with pytest.raises(ValueError, match="non-finite"):
        EnergyMlp([np.full((4, 3), np.inf, np.float32)]
                  + [a.astype(np.float32) for a in (b0, w1, b1)])


@pytest.mark.parametrize("n", [1, 7, 256])
@pytest.mark.parametrize("activation", ["silu"])
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
@pytest.mark.parametrize("activation", ["silu"])
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


# ---------------------------------------------------------------- one pass per step

def test_float32_network_gives_float32_parameter_gradient_from_float64_rows():
    # float64 rows and upstream weights are cast, not allowed to promote the
    # pass to float64: the result is the float32 pass on float32 rows
    rng = np.random.default_rng(22)
    net = as_float32(mlp_init([3, 32, 24, 1], rng))
    z = rng.uniform(-2.0, 2.0, (9, 3))
    upstream = rng.standard_normal(9)
    got, got_e = mlp_grad_params(net, z, upstream)
    want, want_e = mlp_grad_params(net, z.astype(np.float32), upstream.astype(np.float32))
    assert got_e.dtype == np.float32
    assert all(g.dtype == np.float32 for g in got)
    np.testing.assert_array_equal(got_e, want_e)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(got_e, mlp_energy(net, z.astype(np.float32)))


@pytest.mark.parametrize("to32", [False, True], ids=["float64", "float32"])
def test_grad_params_upstream_from_energies_matches_two_passes(to32):
    # one pass with upstream weights formed from its own energies equals the
    # energy pass followed by a gradient pass with those weights, bit for bit
    rng = np.random.default_rng(23)
    net = mlp_init([4, 16, 16, 1], rng)
    net = as_float32(net) if to32 else net
    z = rng.standard_normal((12, 4))

    def upstream(e):
        return np.repeat([1.0, -1.0], 6) / 6 + 0.3 * e.astype(np.float64)

    energies = mlp_energy(net, z.astype(net.dtype))
    one, one_e = mlp_grad_params(net, z, upstream)
    two, _ = mlp_grad_params(net, z, upstream(energies))
    np.testing.assert_array_equal(one_e, energies)
    for a, b in zip(one, two):
        np.testing.assert_array_equal(a, b)


def test_grad_params_rejects_upstream_of_wrong_length():
    net = mlp_init([3, 4, 1], np.random.default_rng(24))
    with pytest.raises(ValueError, match="upstream"):
        mlp_grad_params(net, np.ones((5, 3)), lambda e: np.ones(4))
