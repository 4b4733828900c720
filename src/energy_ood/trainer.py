"""Maximum-likelihood training of the energy model E(z) = E_net(z) / T + E_mog(z).

Each step draws a noisy positive minibatch, synthesizes negatives by Langevin
sampling from the current model (``langevin_negatives``, the one negative
phase) and descends mean(E on data) - mean(E on negatives) plus an L2 penalty
on the energy magnitudes, with Adam. Correction chains start from the fitted
mixture and follow the gradient of the full energy. The plain-EBM ablation is
the same model without the mixture term, whose chains start from N(0, I); it
has no entry point of its own: ``train_correction(fs, None, cfg)`` trains it.

Each step computes in float32 and keeps float64 master weights, as in
mixed-precision training (Micikevicius et al. 2018, arXiv 1710.03740). A
float32 copy of the weights, made once per step after the Adam update, gives
the chains' network input gradient and then the step's one parameter-gradient
pass, whose forward half also yields the energies of the positives and
negatives. A float32 copy of the mixture, made once per run, gives the
chains' mixture gradient. Langevin noise of scale sqrt(beta) >= 1e-2 per
coordinate dwarfs float32's relative error of about 1e-6. The chain states
and their noise, the loss, Adam and the parameters stay float64, and so do
the returned model and its archive. Rows or chain states above about 1e19,
whose squared whitened norms overflow float32, and weights beyond its range
make training stop with featurestore.ComputationError.
Training is bitwise reproducible per seed.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

# mlp_energy is no longer called here; perfbench/workloads.py still traces it
# under this module's name, so it stays imported until the benchmark drops it
from .energy_net import EnergyMlp, mlp_energy, mlp_entries, mlp_from_entries, mlp_grad_input, \
    mlp_grad_params, mlp_init
from .featurestore import ComputationError, FeatureSet, minibatch_indices
from .mog import GaussianMixture, float32_mixture, gaussian_energy_grad, mixture_entries, \
    mixture_from_entries
from .sgld import SgldSchedule, sgld_init, sgld_sample
from .tensorio import archive_scalar, read_archive, write_archive

_MODEL_KINDS = {1: "correction", 2: "ebm"}


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 256
    learning_rate: float = 5e-6
    l2_coeff: float = 10.0
    input_noise_std: float = 1e-3
    sgld: SgldSchedule = field(
        default_factory=lambda: SgldSchedule(20, (1e-6, 1e-7), (1e-3, 1e-4))
    )
    seed: int = 0
    hidden_dim: int = 1024
    num_hidden: int = 4
    net_temperature: float = 1.0
    # not a field (no annotation): a constant kept only for perfbench/workloads.py,
    # which passes it to mlp_init; SiLU is the network's only activation
    activation = "silu"

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        # written so that NaN fails each check
        for name in ("learning_rate", "l2_coeff", "input_noise_std"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
        if not 0 < self.net_temperature < np.inf:
            raise ValueError("net_temperature must be finite and positive")
        if self.hidden_dim < 1 or self.num_hidden < 1:
            raise ValueError("need at least one hidden layer of width >= 1")
        if not self.seed >= 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def correction_defaults(toy: bool = False, seed: int = 0) -> TrainConfig:
    """Training recipe for the correction model.

    The wide variant targets 512-dim classifier features; the toy variant
    shrinks the network and raises the learning rate for 2-D data.
    """
    cfg = TrainConfig(seed=seed)
    if toy:
        cfg = replace(cfg, hidden_dim=128, learning_rate=1e-4)
    return cfg


def ebm_defaults(toy: bool = False, seed: int = 0) -> TrainConfig:
    """Training recipe for the plain-EBM ablation (no mixture anywhere)."""
    cfg = TrainConfig(
        learning_rate=5e-5,
        l2_coeff=0.1,
        sgld=SgldSchedule(200, (1e-2, 1e-3), (1e-2, 1e-3)),
        net_temperature=1e-2,
        seed=seed,
    )
    if toy:
        cfg = replace(cfg, hidden_dim=128, learning_rate=1e-4)
    return cfg


@dataclass(frozen=True)
class CorrectionModel:
    """Energy mlp_energy(net, z) / net_temperature, plus the mixture energy when
    ``gm`` is set; without a mixture it is the plain-EBM ablation."""

    net: EnergyMlp
    gm: GaussianMixture | None = None
    net_temperature: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.net_temperature) and self.net_temperature > 0):
            raise ValueError(f"net_temperature must be finite and positive, "
                             f"got {self.net_temperature}")
        if self.gm is not None and self.net.input_dim != self.gm.dim:
            raise ValueError(
                f"network input {self.net.input_dim} != mixture dimension {self.gm.dim}"
            )


@dataclass
class AdamState:
    m: list
    v: list
    t: int = 0

    @classmethod
    def zeros_like(cls, params) -> "AdamState":
        return cls([np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params])


def adam_step(params, grads, state: AdamState, lr: float):
    """One bias-corrected Adam update, b1 = 0.9, b2 = 0.999 and eps = 1e-8;
    returns (new params, new state).

    The moments are updated in place, in ``state``'s arrays; each new
    parameter is a fresh array. The operations and their order are those of
    p - lr * (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps), so the result is
    the same bit for bit.
    """
    if len(params) != len(grads):
        raise ValueError("params and grads must pair up")
    for i, (p, g) in enumerate(zip(params, grads)):  # all checked before any moment is touched
        if p.shape != g.shape:
            raise ValueError(f"shape mismatch: param {p.shape} vs grad {g.shape}")
        if p.dtype != g.dtype:  # the step is written into a buffer typed like g
            raise ValueError(f"dtype mismatch at params[{i}]: param {p.dtype} vs grad {g.dtype}")
    b1, b2, eps = 0.9, 0.999, 1e-8
    t = state.t + 1
    new_params = []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        step = np.multiply(1 - b1, g)
        m *= b1
        m += step                       # b1 m + (1 - b1) g
        np.multiply(1 - b2, g, out=step)
        step *= g
        v *= b2
        v += step                       # b2 v + ((1 - b2) g) g
        denom = np.divide(v, 1 - b2 ** t)
        np.sqrt(denom, out=denom)
        denom += eps
        np.divide(m, 1 - b1 ** t, out=step)
        np.multiply(lr, step, out=step)
        step /= denom
        new_params.append(np.subtract(p, step, out=step))
    return new_params, AdamState(state.m, state.v, t)


def langevin_negatives(net32: EnergyMlp, gm: GaussianMixture | None,
                       gm32: GaussianMixture | None, cfg: TrainConfig,
                       rng: np.random.Generator, b: int, step: int):
    """The negative phase of training step ``step``: ``b`` Langevin chains under
    ``cfg.sgld`` on the float32 network's energy ``net32`` / T, plus the float32
    mixture ``gm32`` if any. ``sgld_init`` starts them from ``gm`` (N(0, I)
    without one) with ``rng``, and their noise is keyed by (cfg.seed, 4, step).

    Returns the negatives and the chains' gradient norm, averaged over chains
    and Langevin steps. A non-finite chain gradient raises ComputationError.
    """
    grad_norms = []

    def energy_grad(z):
        # a non-finite gradient is reported by the sampler, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            g = mlp_grad_input(net32, z).astype(np.float64) / cfg.net_temperature
            if gm32 is not None:
                g = g + gaussian_energy_grad(gm32, z)
            grad_norms.append(float(np.mean(np.linalg.norm(g, axis=1))))
        return g

    start = sgld_init(gm, b, net32.input_dim, rng)
    # stream domain 4: disjoint from the spawn keys of train_correction's rngs
    neg = sgld_sample(start, energy_grad, cfg.sgld, seed=(cfg.seed, 4, step))
    return neg, float(np.mean(grad_norms))


def train_correction(fs: FeatureSet, gm: GaussianMixture | None, cfg: TrainConfig,
                     log_path=None):
    """Train the correction network against the fitted mixture ``gm``;
    ``gm=None`` trains the plain-EBM ablation.

    Returns the trained model and the per-epoch loss trace.
    """
    n, d = fs.features.shape
    if n == 0:
        raise ValueError("no training rows")
    if gm is not None and d != gm.dim:
        raise ValueError(f"feature dimension {d} != mixture dimension {gm.dim}")
    root = np.random.SeedSequence(cfg.seed)
    ss_init, ss_shuffle, ss_noise, ss_neg = root.spawn(4)
    shuffle_rng = np.random.default_rng(ss_shuffle)
    noise_rng = np.random.default_rng(ss_noise)
    neg_rng = np.random.default_rng(ss_neg)

    dims = [d] + [cfg.hidden_dim] * cfg.num_hidden + [1]
    params = mlp_init(dims, np.random.default_rng(ss_init)).params
    net32 = EnergyMlp([p.astype(np.float32) for p in params])
    gm32 = float32_mixture(gm) if gm is not None else None
    state = AdamState.zeros_like(params)

    history = []
    gstep = 0
    with open(log_path, "w") if log_path is not None else nullcontext() as log_fh:
        for epoch in range(cfg.epochs):
            sums = {}
            for steps, idx in enumerate(minibatch_indices(n, cfg.batch_size, shuffle_rng), 1):
                b = idx.size
                pos = fs.features[idx]
                if cfg.input_noise_std > 0:
                    pos = pos + cfg.input_noise_std * noise_rng.standard_normal(pos.shape)
                try:
                    neg, grad_norm = langevin_negatives(net32, gm, gm32, cfg, neg_rng, b, gstep)
                except ComputationError as exc:
                    raise ComputationError(
                        f"Langevin chains diverged at epoch {epoch}, step {gstep}: {exc}"
                    ) from exc

                def upstream(energies):
                    # d(mle_loss + l2 * l2_reg)/d(raw E) as one upstream weight per sample
                    e = energies.astype(np.float64) / cfg.net_temperature
                    sign = np.repeat([1.0, -1.0], b)
                    return (sign + cfg.l2_coeff * e) / (b * cfg.net_temperature)

                # one float32 pass: the energies and, from them, the parameter gradient
                grads, energies = mlp_grad_params(net32, np.concatenate([pos, neg]), upstream)
                # the pass's energies divided by T, the objective's inputs
                e = energies.astype(np.float64) / cfg.net_temperature
                with np.errstate(over="ignore", invalid="ignore"):
                    e_pos, e_neg = float(e[:b].mean()), float(e[b:].mean())
                    terms = {"mle_loss": e_pos - e_neg, "l2_reg": float(np.mean(e ** 2)),
                             "mean_pos_energy": e_pos, "mean_neg_energy": e_neg,
                             "sgld_mean_grad_norm": grad_norm}
                if not (np.isfinite(terms["mle_loss"]) and np.isfinite(terms["l2_reg"])):
                    raise ComputationError(
                        f"non-finite loss at epoch {epoch}, step {gstep}"
                    )
                # a non-finite gradient makes Adam's step NaN, and a parameter
                # beyond the float32 range is inf in the float32 copy
                with np.errstate(over="ignore", invalid="ignore"):
                    params, state = adam_step(
                        params, [g.astype(np.float64) for g in grads], state, cfg.learning_rate)
                    params32 = [p.astype(np.float32) for p in params]
                if not all(np.isfinite(p).all() for p in params32):
                    raise ComputationError(
                        f"non-finite parameters (in float32) after epoch {epoch}, step {gstep}"
                    )
                net32 = EnergyMlp(params32)

                for k, v in terms.items():
                    sums[k] = sums.get(k, 0.0) + v
                gstep += 1

            row = {"epoch": epoch}
            row.update({k: v / steps for k, v in sums.items()})
            history.append(row)
            if log_fh is not None:
                log_fh.write(json.dumps(row) + "\n")
    return CorrectionModel(EnergyMlp(params), gm, cfg.net_temperature), history


def save_model(path, model: CorrectionModel) -> None:
    """Write kind 1 (with mixture) or kind 2 (without), net_temperature in both."""
    write_archive(path, _model_entries(model))


def _model_entries(model: CorrectionModel) -> dict[str, np.ndarray]:
    entries = {"kind": np.array([1 if model.gm is not None else 2], dtype=np.uint32),
               "net_temperature": np.array([model.net_temperature])}
    entries.update(mlp_entries(model.net, "net."))
    if model.gm is not None:
        entries.update(mixture_entries(model.gm, "mog."))
    return entries


def load_model(path):
    """Load a model or mixture archive by its kind.

    Returns ('correction', CorrectionModel), ('ebm', CorrectionModel) or
    ('mog', GaussianMixture); mixture archives are the ones without a ``kind``
    entry. A correction archive written without ``net_temperature`` predates
    that entry and loads with 1.0, the temperature it was always scored at.
    A malformed archive, or one holding an entry that its kind's writer would
    not write and so no loader reads, raises ValueError naming the path.
    """
    try:
        entries = read_archive(path)
        if "kind" not in entries:
            kind, payload = "mog", mixture_from_entries(entries)
        else:
            code = archive_scalar(entries, "kind")
            kind = _MODEL_KINDS.get(code)
            if kind is None:
                raise ValueError(f"unknown model kind code {code:g}")
            if kind == "correction" and "net_temperature" not in entries:
                temperature = 1.0
            else:
                temperature = archive_scalar(entries, "net_temperature")
            gm = mixture_from_entries(entries, "mog.") if kind == "correction" else None
            payload = CorrectionModel(mlp_from_entries(entries, "net."), gm, temperature)
        written = mixture_entries(payload) if kind == "mog" else _model_entries(payload)
        unread = [name for name in entries if name not in written]
        if unread:
            raise ValueError(f"entries no loader reads: {', '.join(unread)}")
        return kind, payload
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
