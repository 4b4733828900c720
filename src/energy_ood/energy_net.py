"""Scalar-output MLP energy with hand-derived input and parameter gradients.

The architecture is fixed: dense layers with a smooth activation on every
hidden layer and an identity output, so the energy is differentiable
everywhere and Langevin sampling sees a continuous input gradient. Gradients
are exact reverse-mode passes written out by hand; there is no autodiff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .featurestore import as_batch
from .tensorio import archive_scalar


def _sigmoid(x):
    # below x = -709 exp(-x) overflows to inf, and 1 / inf = 0 is the right limit
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _silu(x):
    return x * _sigmoid(x)


def _silu_prime(x):
    s = _sigmoid(x)
    return s * (1.0 + x * (1.0 - s))


def _tanh_prime(x):
    t = np.tanh(x)
    return 1.0 - t * t


# name -> (activation, derivative); every entry must be smooth everywhere
ACTIVATIONS = {
    "silu": (_silu, _silu_prime),
    "tanh": (np.tanh, _tanh_prime),
}

_ACTIVATION_CODES = {"silu": 1, "tanh": 2}
_CODE_ACTIVATIONS = {v: k for k, v in _ACTIVATION_CODES.items()}


@dataclass(frozen=True)
class EnergyMlp:
    """Dense layers (weights[i]: (out, in), biases[i]: (out,)) ending in one unit."""

    weights: tuple
    biases: tuple
    activation: str = "silu"

    def __post_init__(self):
        ws = tuple(np.ascontiguousarray(np.asarray(w, dtype=np.float64)) for w in self.weights)
        bs = tuple(np.ascontiguousarray(np.asarray(b, dtype=np.float64)) for b in self.biases)
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


def _forward(net: EnergyMlp, x: np.ndarray):
    """Forward pass keeping pre-activations and layer inputs for backprop."""
    act, _ = ACTIVATIONS[net.activation]
    inputs, pres = [x], []
    h = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        s = h @ w.T + b
        pres.append(s)
        h = s if i == last else act(s)
        if i != last:
            inputs.append(h)
    return pres, inputs, h[:, 0]


def _backward(net: EnergyMlp, pres, inputs, upstream: np.ndarray, want_params: bool):
    """Reverse pass; returns (input gradient, ParamGradient or None)."""
    _, dact = ACTIVATIONS[net.activation]
    n_layers = len(net.weights)
    gw = [None] * n_layers if want_params else None
    gb = [None] * n_layers if want_params else None
    delta = upstream[:, None]  # output layer is identity
    for i in range(n_layers - 1, -1, -1):
        if want_params:
            gw[i] = delta.T @ inputs[i]
            gb[i] = delta.sum(axis=0)
        back = delta @ net.weights[i]
        delta = back if i == 0 else back * dact(pres[i - 1])
    grads = ParamGradient(gw, gb) if want_params else None
    return delta, grads


def mlp_energy(net: EnergyMlp, z) -> float | np.ndarray:
    batch, single = as_batch(z, net.input_dim)
    _, _, e = _forward(net, batch)
    return float(e[0]) if single else e


def mlp_grad_input(net: EnergyMlp, z) -> np.ndarray:
    """Exact gradient of the energy with respect to its input."""
    batch, single = as_batch(z, net.input_dim)
    pres, inputs, _ = _forward(net, batch)
    grad, _ = _backward(net, pres, inputs, np.ones(batch.shape[0]), want_params=False)
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
    pres, inputs, _ = _forward(net, batch)
    _, grads = _backward(net, pres, inputs, upstream, want_params=True)
    return grads


def mlp_entries(net: EnergyMlp, prefix: str = "") -> dict[str, np.ndarray]:
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
        weights.append(entries[f"{prefix}w{i}"])
        biases.append(entries[f"{prefix}b{i}"])
    return EnergyMlp(tuple(weights), tuple(biases), _CODE_ACTIVATIONS[code])
