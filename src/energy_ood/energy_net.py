"""Scalar-output MLP energy with hand-derived input and parameter gradients.

The architecture is fixed: dense layers with a smooth activation on every
hidden layer and an identity output, so the energy is differentiable
everywhere and Langevin sampling sees a continuous input gradient. Gradients
are exact reverse-mode passes written out by hand; there is no autodiff.

Each pass computes every hidden unit's activation once. The forward pass
saves what the reverse pass needs, (pre-activation, sigmoid) for SiLU and
tanh(pre-activation) for tanh, and the reverse pass consumes it: it forms the
activation's derivative in those same buffers. The energy-only pass saves
nothing and reuses each layer's buffer in place.

A network holds one float dtype: float64, or float32 when every array it is
given is float32. The passes run in that dtype. Training keeps a float32 copy
of its weights for the Langevin chains' input gradient and everything else in
float64; only float64 networks are stored in archives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .featurestore import as_batch
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


# every activation must be smooth everywhere and have an archive code below
ACTIVATIONS = ("silu", "tanh")

_ACTIVATION_CODES = {"silu": 1, "tanh": 2}
_CODE_ACTIVATIONS = {v: k for k, v in _ACTIVATION_CODES.items()}


@dataclass(frozen=True)
class EnergyMlp:
    """Dense layers (weights[i]: (out, in), biases[i]: (out,)) ending in one unit.

    The arrays are float32 if every one is given as float32, else float64.
    """

    weights: tuple
    biases: tuple
    activation: str = "silu"

    def __post_init__(self):
        ws = [np.asarray(w) for w in self.weights]
        bs = [np.asarray(b) for b in self.biases]
        dtype = np.float32 if all(a.dtype == np.float32 for a in ws + bs) else np.float64
        ws = tuple(np.ascontiguousarray(w, dtype=dtype) for w in ws)
        bs = tuple(np.ascontiguousarray(b, dtype=dtype) for b in bs)
        if not ws or len(ws) != len(bs):
            raise ValueError("need matching, nonempty weight and bias lists")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        for i, (w, b) in enumerate(zip(ws, bs)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {i}: weight {w.shape} and bias {b.shape} mismatch")
            if i > 0 and w.shape[1] != ws[i - 1].shape[0]:
                raise ValueError(f"layer {i} input {w.shape[1]} != layer {i-1} output")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i} has non-finite parameters")
        if ws[-1].shape[0] != 1:
            raise ValueError("final layer must produce a single scalar")
        for w, b in zip(ws, bs):
            w.setflags(write=False)
            b.setflags(write=False)
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "biases", bs)

    @property
    def dims(self) -> tuple:
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def dtype(self) -> np.dtype:
        return self.weights[0].dtype


@dataclass
class ParamGradient:
    """Per-layer gradients, shape-matched to the network they came from."""

    weights: list
    biases: list


def flat_params(layers) -> list:
    """An EnergyMlp's or ParamGradient's arrays in the flat order w0, b0, w1, b1, ...

    Optimizers work on this list; ``mlp_from_params`` is its inverse.
    """
    return [p for w, b in zip(layers.weights, layers.biases) for p in (w, b)]


def mlp_from_params(params, activation: str = "silu") -> EnergyMlp:
    """Rebuild a network from a ``flat_params`` list."""
    return EnergyMlp(tuple(params[0::2]), tuple(params[1::2]), activation)


def mlp_init(dims, rng: np.random.Generator, activation: str = "silu") -> EnergyMlp:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out)); biases zero."""
    dims = list(dims)
    if len(dims) < 2:
        raise ValueError("need an input and an output dimension")
    if dims[-1] != 1:
        raise ValueError("final dimension must be 1")
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return EnergyMlp(tuple(weights), tuple(biases), activation)


def _forward(net: EnergyMlp, x: np.ndarray, saved=None, inputs=None) -> np.ndarray:
    """Energies of the rows of x, computing each hidden unit's activation once.

    With ``saved``, each hidden layer appends what the reverse pass needs:
    (pre, sigmoid(pre)) for SiLU, tanh(pre) for tanh. With ``inputs``, each
    layer appends its input, which only the parameter gradient reads.
    Without either, every layer's buffers are reused in place.
    """
    silu = net.activation == "silu"
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
            if not silu:
                h = np.tanh(pre, out=pre)
                if saved is not None:
                    saved.append(h)
            elif saved is None:
                h = np.multiply(pre, _sigmoid(pre), out=pre)
            else:
                s = _sigmoid(pre)
                saved.append((pre, s))
                h = pre * s
    return pre[:, 0]


def _act_grad(act) -> np.ndarray:
    """act'(pre), formed in the buffers of what _forward saved for the layer."""
    if isinstance(act, tuple):  # SiLU: s (1 + pre (1 - s))
        pre, s = act
        np.multiply(pre, np.subtract(1.0, s), out=pre)
        pre += 1.0
        return np.multiply(s, pre, out=pre)
    np.multiply(act, act, out=act)  # tanh: 1 - t^2
    return np.subtract(1.0, act, out=act)


def _backward(net: EnergyMlp, saved: list, upstream: np.ndarray, inputs=None):
    """Reverse pass consuming what _forward saved.

    Returns the input gradient, or, given the layer inputs, the ParamGradient
    (the input gradient is then never formed).
    """
    n_layers = len(net.weights)
    gw, gb = [None] * n_layers, [None] * n_layers
    delta = upstream[:, None]  # output layer is identity
    for i in range(n_layers - 1, -1, -1):
        if inputs is not None:
            gw[i] = delta.T @ inputs.pop()
            gb[i] = delta.sum(axis=0)
        if i == 0:
            break
        dact = _act_grad(saved.pop())
        delta = delta @ net.weights[i]
        delta *= dact
    return delta @ net.weights[0] if inputs is None else ParamGradient(gw, gb)


def mlp_energy(net: EnergyMlp, z) -> float | np.ndarray:
    batch, single = as_batch(z, net.input_dim)
    e = _forward(net, batch)
    return float(e[0]) if single else e


def mlp_grad_input(net: EnergyMlp, z) -> np.ndarray:
    """Exact gradient of the energy with respect to its input, in the network's dtype.

    A row beyond the dtype's range, or one whose pass overflows, gets a
    non-finite gradient and no warning; the Langevin sampler's finiteness
    check is what reports it.
    """
    batch, single = as_batch(z, net.input_dim)
    with np.errstate(over="ignore", invalid="ignore"):
        batch = batch.astype(net.dtype, copy=False)
        saved = []
        _forward(net, batch, saved)
        grad = _backward(net, saved, np.ones(batch.shape[0], dtype=net.dtype))
    return grad[0] if single else grad


def mlp_grad_params(net: EnergyMlp, batch, upstream) -> ParamGradient:
    """Gradient of sum_b upstream_b * energy(batch_b) with respect to all parameters.

    The upstream weights let one accumulation carry the +1/B of positive
    samples, the -1/B of negatives and any regularizer coefficients at once.
    """
    batch, _ = as_batch(batch, net.input_dim)
    upstream = np.asarray(upstream, dtype=np.float64)
    if batch.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    if upstream.shape != (batch.shape[0],):
        raise ValueError(f"upstream must have shape ({batch.shape[0]},), got {upstream.shape}")
    saved, inputs = [], []
    _forward(net, batch, saved, inputs)
    return _backward(net, saved, upstream, inputs)


def mlp_entries(net: EnergyMlp, prefix: str = "") -> dict[str, np.ndarray]:
    """Archive entries of a float64 network; a float32 one is refused with ValueError."""
    if net.dtype != np.float64:
        raise ValueError(f"only float64 networks are stored, this one is {net.dtype}")
    entries: dict[str, np.ndarray] = {
        prefix + "activation": np.array([_ACTIVATION_CODES[net.activation]], dtype=np.uint32)
    }
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        entries[f"{prefix}w{i}"] = w
        entries[f"{prefix}b{i}"] = b
    return entries


def mlp_from_entries(entries: dict[str, np.ndarray], prefix: str = "") -> EnergyMlp:
    """Rebuild a network from archive entries, rejecting malformed ones with ValueError."""
    if prefix + "activation" not in entries or prefix + "w0" not in entries:
        raise ValueError("not a network archive: missing activation/layer entries")
    code = archive_scalar(entries, prefix + "activation")
    if code not in _CODE_ACTIVATIONS:
        raise ValueError(f"unknown activation code {code:g}")
    weights, biases = [], []
    while f"{prefix}w{len(weights)}" in entries:
        i = len(weights)
        if f"{prefix}b{i}" not in entries:
            raise ValueError(f"network archive has {prefix}w{i} but no {prefix}b{i}")
        weights.append(np.asarray(entries[f"{prefix}w{i}"], dtype=np.float64))
        biases.append(np.asarray(entries[f"{prefix}b{i}"], dtype=np.float64))
    return EnergyMlp(tuple(weights), tuple(biases), _CODE_ACTIVATIONS[code])
