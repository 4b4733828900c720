"""Scalar-output MLP energy with hand-derived input and parameter gradients.

The architecture is fixed: dense layers with SiLU, x * sigmoid(x), on every
hidden layer and an identity output, so the energy is differentiable
everywhere and Langevin sampling sees a continuous input gradient. Gradients
are exact reverse-mode passes written out by hand; there is no autodiff.

Each pass computes every hidden unit's sigmoid once. The forward pass saves
what the reverse pass needs, (pre-activation, sigmoid), and the reverse pass
consumes it: it forms SiLU's derivative in those same buffers. The
energy-only pass saves nothing and runs over the rows in blocks sized by
``_energy_block_rows``, so no hidden activation is larger than one block,
and each block's buffers are reused in place.

A network is one tuple w0, b0, w1, b1, ..., the order in which
``mlp_grad_params`` returns its gradients and Adam updates them. It holds
one float dtype: float64, or float32 when every array it is given is
float32. The passes run in that dtype, whatever the dtype of the rows.
Training runs its passes on a float32 copy of its float64 weights; only
float64 networks are stored in archives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .featurestore import as_rows
from .tensorio import archive_scalar


def _sigmoid(x):
    """1 / (1 + exp(-x)) in a new array, computed in place.

    Below x = -709 exp(-x) overflows to inf, and 1 / inf = 0 is the right
    limit, so callers run this under ``np.errstate(over="ignore")``.
    """
    s = np.negative(x)
    np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


# the archive's ``activation`` entry; 1 (SiLU) is the only code
_SILU_CODE = 1


@dataclass(frozen=True)
class EnergyMlp:
    """Dense layers ending in one unit, as one tuple w0, b0, w1, b1, ... of
    weights (out, in) and biases (out,).

    The arrays are float32 if every one is given as float32, else float64. One
    already C-contiguous in that dtype is kept, not copied, and made read-only.
    """

    params: tuple

    def __post_init__(self):
        ps = [np.asarray(p) for p in self.params]
        dtype = np.float32 if all(p.dtype == np.float32 for p in ps) else np.float64
        ps = tuple(np.ascontiguousarray(p, dtype=dtype) for p in ps)
        if not ps or len(ps) % 2:
            raise ValueError("need a nonempty list w0, b0, w1, b1, ... of weight-bias pairs")
        ws, bs = ps[0::2], ps[1::2]
        for i, (w, b) in enumerate(zip(ws, bs)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {i}: weight {w.shape} and bias {b.shape} mismatch")
            if i > 0 and w.shape[1] != ws[i - 1].shape[0]:
                raise ValueError(f"layer {i} input {w.shape[1]} != layer {i-1} output")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i} has non-finite parameters")
        if ws[-1].shape[0] != 1:
            raise ValueError("final layer must produce a single scalar")
        for p in ps:
            p.setflags(write=False)
        object.__setattr__(self, "params", ps)

    @property
    def weights(self) -> tuple:
        return self.params[0::2]

    @property
    def biases(self) -> tuple:
        return self.params[1::2]

    @property
    def dims(self) -> tuple:
        return (self.input_dim,) + tuple(w.shape[0] for w in self.weights)

    @property
    def input_dim(self) -> int:
        return self.params[0].shape[1]

    @property
    def dtype(self) -> np.dtype:
        return self.params[0].dtype


def mlp_init(dims, rng: np.random.Generator, activation: str = "silu") -> EnergyMlp:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out)); biases zero."""
    # ``activation`` is kept only for perfbench/workloads.py, which passes
    # TrainConfig.activation; SiLU is the only activation
    if activation != "silu":
        raise ValueError(f"unknown activation {activation!r}; SiLU is the only one")
    dims = list(dims)
    params = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        params += [rng.uniform(-limit, limit, size=(fan_out, fan_in)), np.zeros(fan_out)]
    return EnergyMlp(params)


def _forward(net: EnergyMlp, x: np.ndarray, saved=None, inputs=None) -> np.ndarray:
    """Energies of the rows of x, computing each hidden unit's sigmoid once.

    With ``saved``, each hidden layer appends what the reverse pass needs,
    (pre, sigmoid(pre)). With ``inputs``, each layer appends its input, which
    only the parameter gradient reads. Without either, every layer's buffers
    are reused in place.
    """
    h = x
    last = len(net.weights) - 1
    with np.errstate(over="ignore"):
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            if inputs is not None:
                inputs.append(h)
            pre = h @ w.T
            del h
            pre += b
            if i == last:
                break
            if saved is None:
                h = np.multiply(pre, _sigmoid(pre), out=pre)
            else:
                s = _sigmoid(pre)
                saved.append((pre, s))
                h = pre * s
    return pre[:, 0]


def _act_grad(pre, s) -> np.ndarray:
    """silu'(pre) = s (1 + pre (1 - s)), formed in the buffers _forward saved."""
    np.multiply(pre, np.subtract(1.0, s), out=pre)
    pre += 1.0
    return np.multiply(s, pre, out=pre)


def _backward(net: EnergyMlp, saved: list, upstream: np.ndarray, inputs=None):
    """Reverse pass consuming what _forward saved.

    Returns the input gradient, or, given the layer inputs, the parameter
    gradients in ``net.params`` order (the input gradient is then never formed).
    """
    weights = net.weights
    grads = [None] * len(net.params)
    delta = upstream[:, None]  # output layer is identity
    for i in range(len(weights) - 1, -1, -1):
        if inputs is not None:
            grads[2 * i] = delta.T @ inputs.pop()
            grads[2 * i + 1] = delta.sum(axis=0)
        if i == 0:
            break
        dact = _act_grad(*saved.pop())
        delta = delta @ weights[i]
        delta *= dact
    return delta @ weights[0] if inputs is None else grads


# cells of one block of the energy-only pass, 512 KiB in float64
_ENERGY_BLOCK_CELLS = 1 << 16


def _energy_block_rows(width: int) -> int:
    """Rows per block of the energy-only pass through a network whose widest
    layer has ``width`` units.

    A narrow network gets a block of 2^16 cells per layer, so its products
    and SiLU passes run in cache: 512 rows at width 128. A wide one gets 4
    rows per unit, so a block's activation is 4 times the size of its
    largest weight matrix and each GEMM stays large: 4096 rows at width
    1024, which score 50k rows 1.2x (float64) to 1.46x (float32) as fast as
    64-row blocks on a 2-core box (measured in README.md).
    """
    return max(_ENERGY_BLOCK_CELLS // width, 4 * width)


def mlp_energy(net: EnergyMlp, z) -> np.ndarray:
    """One energy per row of ``z``, computed in the network's dtype.

    The rows go through the network in blocks of ``_energy_block_rows``. A
    row's energy may differ in the last bits with the block it falls in,
    since BLAS rounds products of different shapes differently; a batch that
    fits in one block takes one pass, as a whole.
    """
    z = as_rows(z, net.input_dim, net.dtype)
    rows = _energy_block_rows(max(net.dims))
    e = np.empty(z.shape[0], dtype=net.dtype)
    for start in range(0, z.shape[0], rows):
        e[start : start + rows] = _forward(net, z[start : start + rows])
    return e


def mlp_grad_input(net: EnergyMlp, z) -> np.ndarray:
    """Exact gradient of the energy with respect to its input, in the network's dtype.

    A row beyond the dtype's range, or one whose pass overflows, gets a
    non-finite gradient and no warning; the Langevin sampler's finiteness
    check is what reports it.
    """
    z = as_rows(z, net.input_dim, net.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        saved = []
        _forward(net, z, saved)
        return _backward(net, saved, np.ones(z.shape[0], dtype=net.dtype))


def mlp_grad_params(net: EnergyMlp, batch, upstream) -> tuple[list, np.ndarray]:
    """Gradient of sum_b upstream_b * energy(batch_b) with respect to all parameters.

    The upstream weights let one accumulation carry the +1/B of positive
    samples, the -1/B of negatives and any regularizer coefficients at once.
    ``upstream`` is an array of one weight per row, or a function that maps
    the rows' energies to it, so that weights which depend on the energies
    need no second forward pass. The pass runs in the network's dtype.
    Returns ``(grads, energies)``: the gradients as a list in ``net.params``
    order, and the energies the pass computed. As in ``mlp_grad_input``, a
    row or weight beyond the dtype's range gives non-finite results and no
    warning; the caller checks them.
    """
    batch = as_rows(batch, net.input_dim, net.dtype)
    if batch.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    with np.errstate(over="ignore", invalid="ignore"):
        saved, inputs = [], []
        energies = _forward(net, batch, saved, inputs)
        if callable(upstream):
            upstream = upstream(energies)
        upstream = np.asarray(upstream).astype(net.dtype, copy=False)
        if upstream.shape != (batch.shape[0],):
            raise ValueError(
                f"upstream must have shape ({batch.shape[0]},), got {upstream.shape}")
        grads = _backward(net, saved, upstream, inputs)
    return grads, energies


def mlp_entries(net: EnergyMlp, prefix: str = "") -> dict[str, np.ndarray]:
    """Archive entries of a float64 network; a float32 one is refused with ValueError."""
    if net.dtype != np.float64:
        raise ValueError(f"only float64 networks are stored, this one is {net.dtype}")
    entries = {prefix + "activation": np.array([_SILU_CODE], dtype=np.uint32)}
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        entries[f"{prefix}w{i}"] = w
        entries[f"{prefix}b{i}"] = b
    return entries


def mlp_from_entries(entries: dict[str, np.ndarray], prefix: str = "") -> EnergyMlp:
    """Rebuild a network from archive entries, rejecting malformed ones with ValueError."""
    if prefix + "activation" not in entries or prefix + "w0" not in entries:
        raise ValueError("not a network archive: missing activation/layer entries")
    code = archive_scalar(entries, prefix + "activation")
    if code != _SILU_CODE:
        raise ValueError(f"unknown activation code {code:g}")
    params = []
    while f"{prefix}w{len(params) // 2}" in entries:
        i = len(params) // 2
        if f"{prefix}b{i}" not in entries:
            raise ValueError(f"network archive has {prefix}w{i} but no {prefix}b{i}")
        params += [np.asarray(entries[f"{prefix}{k}{i}"], dtype=np.float64) for k in "wb"]
    return EnergyMlp(params)
