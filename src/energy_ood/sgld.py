"""Langevin sampler with linearly decayed step-size and noise schedules.

Step t's noise is one standard-normal block drawn from a generator keyed by
(seed, t), and chain c takes its row c. A chain's noise thus depends only on
the seed, the step and its id, so results do not depend on how chains are
batched or in what order they run. The sampler is model-agnostic: it only
ever calls the gradient callback the caller composed (correction + reference,
or the network alone for the plain-EBM ablation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .featurestore import ComputationError
from .mog import GaussianMixture, sample_mog


@dataclass(frozen=True)
class SgldSchedule:
    """Step count plus (start, end) pairs for step size and noise scale.

    The noise scale beta is a variance: a step adds sqrt(beta) * eps, so
    ``correction_defaults()``'s 1e-3 -> 1e-4 is a per-coordinate std of
    0.032 -> 0.01, and ``ebm_defaults()``'s 1e-2 -> 1e-3 one of 0.1 -> 0.032.
    """

    steps: int
    step_size: tuple
    noise_scale: tuple

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("need at least one step")
        for name in ("step_size", "noise_scale"):
            start, end = getattr(self, name)
            if not (0 < start < np.inf and 0 < end < np.inf):  # NaN fails too
                raise ValueError(f"{name} endpoints must be finite and positive")
            if start < end:
                raise ValueError(f"{name} must decay: start >= end")


def schedule_at(s: SgldSchedule, t: int) -> tuple[float, float]:
    """(step size, noise scale) at step t, linearly interpolated."""
    if not 0 <= t < s.steps:
        raise ValueError(f"step index {t} outside [0, {s.steps})")
    if s.steps == 1:
        return s.step_size[0], s.noise_scale[0]
    frac = t / (s.steps - 1)
    alpha = s.step_size[0] + (s.step_size[1] - s.step_size[0]) * frac
    beta = s.noise_scale[0] + (s.noise_scale[1] - s.noise_scale[0]) * frac
    return alpha, beta


def sgld_init(gm: GaussianMixture | None, n_chains: int, dim: int,
              rng: np.random.Generator) -> np.ndarray:
    """Starting states: draws from the fitted mixture, or N(0, I) without one."""
    if gm is not None:
        return sample_mog(gm, n_chains, rng)
    return rng.standard_normal((n_chains, dim))


def _seed_key(seed) -> tuple:
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    return tuple(int(s) for s in seed)


def sgld_sample(init: np.ndarray, energy_grad, schedule: SgldSchedule, seed,
                chain_ids=None) -> np.ndarray:
    """Run the update z <- z - alpha_t * grad(z) + sqrt(beta_t) * eps_t for all chains.

    The noise scale beta_t is a variance: each coordinate's noise has std
    sqrt(beta_t). ``energy_grad`` maps an (n, d) state matrix to its (n, d)
    gradient and is called exactly once per step. Step t draws eps_t as one
    standard-normal block of max(chain_ids) + 1 rows from
    ``default_rng([*seed, t])``, where ``seed`` is an int or tuple of ints, and
    chain c takes row c. The ids, distinct nonnegative integers (default
    0..n-1), thus key each chain's noise, and the cost of a step grows
    with the largest id.
    """
    z = np.array(init, dtype=np.float64)
    if z.ndim != 2 or z.size == 0:
        raise ValueError("init must be a non-empty (n_chains, dim) matrix")
    if not np.isfinite(z).all():
        raise ValueError("init contains non-finite entries")
    n, d = z.shape
    ids = np.arange(n) if chain_ids is None else np.asarray(chain_ids)
    if ids.shape != (n,):
        raise ValueError("chain_ids must supply one id per chain")
    if ids.dtype.kind not in "iu" or ids.min() < 0:
        raise ValueError("chain_ids must be nonnegative integers")
    if np.unique(ids).size != n:
        raise ValueError("chain_ids must be distinct: chains with one id share their noise")
    rows = int(ids.max()) + 1
    key = _seed_key(seed)

    for t in range(schedule.steps):
        alpha, beta = schedule_at(schedule, t)
        grad = np.asarray(energy_grad(z), dtype=np.float64)
        if grad.shape != z.shape:
            raise ValueError(f"gradient shape {grad.shape} != state shape {z.shape}")
        finite = np.isfinite(grad).all(axis=1)
        if not finite.all():
            raise ComputationError(f"non-finite gradient at step {t}, "
                                   f"chain {int(ids[np.argmin(finite)])}")
        noise = np.random.default_rng([*key, t]).standard_normal((rows, d))
        z = z - alpha * grad + np.sqrt(beta) * noise[ids]
    return z
