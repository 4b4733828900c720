"""Langevin sampler with linearly decayed step-size and noise schedules.

Each chain's noise comes from its own counter-based stream keyed by
(seed, chain id), so results do not depend on how chains are batched or in
what order they run. The sampler is model-agnostic: it only ever calls the
gradient callback the caller composed (correction + reference, or the
network alone for the plain-EBM ablation).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .mog import GaussianMixture, sample_mog

# cap on predrawn noise block size, in float64 cells
_NOISE_CELLS = 1 << 23


class SgldDivergenceError(RuntimeError):
    def __init__(self, step: int, chain: int):
        super().__init__(f"non-finite gradient at step {step}, chain {chain}")
        self.step = step
        self.chain = chain


@dataclass(frozen=True)
class SgldSchedule:
    """Step count plus (start, end) pairs for step size and noise scale."""

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
                chain_ids=None, trace=None, energy_fn=None) -> np.ndarray:
    """Run the update z <- z - alpha_t * grad(z) + sqrt(beta_t) * eps for all chains.

    ``energy_grad`` maps an (n, d) state matrix to its (n, d) gradient and is
    called exactly once per step. ``seed`` (an int or tuple of ints) and the
    optional ``chain_ids`` (default 0..n-1) key the per-chain noise streams.
    When ``trace`` is a path or file, per-step CSV rows
    (step, mean_energy, mean_grad_norm) are written, which requires
    ``energy_fn``.
    """
    z = np.array(init, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError("init must be an (n_chains, dim) matrix")
    if not np.isfinite(z).all():
        raise ValueError("init contains non-finite entries")
    n, d = z.shape
    if chain_ids is None:
        chain_ids = np.arange(n)
    chain_ids = np.asarray(chain_ids)
    if chain_ids.shape != (n,):
        raise ValueError("chain_ids must supply one id per chain")
    if trace is not None and energy_fn is None:
        raise ValueError("tracing needs an energy_fn")

    base = _seed_key(seed)
    streams = [np.random.default_rng(np.random.SeedSequence([*base, int(c)]))
               for c in chain_ids]

    trace_fh = None
    writer = None
    if trace is not None:
        if hasattr(trace, "write"):
            trace_fh, close_trace = trace, False
        else:
            trace_fh, close_trace = open(trace, "w", newline=""), True
        writer = csv.writer(trace_fh)
        writer.writerow(["step", "mean_energy", "mean_grad_norm"])

    block = max(1, _NOISE_CELLS // max(1, n * d))
    try:
        t = 0
        while t < schedule.steps:
            steps_here = min(block, schedule.steps - t)
            noise = np.stack([s.standard_normal((steps_here, d)) for s in streams])
            for i in range(steps_here):
                alpha, beta = schedule_at(schedule, t)
                grad = np.asarray(energy_grad(z), dtype=np.float64)
                if grad.shape != z.shape:
                    raise ValueError(f"gradient shape {grad.shape} != state shape {z.shape}")
                finite = np.isfinite(grad).all(axis=1)
                if not finite.all():
                    raise SgldDivergenceError(t, int(np.argmin(finite)))
                if writer is not None:
                    writer.writerow([
                        t,
                        float(np.mean(energy_fn(z))),
                        float(np.mean(np.linalg.norm(grad, axis=1))),
                    ])
                z = z - alpha * grad + np.sqrt(beta) * noise[:, i, :]
                t += 1
    finally:
        if trace_fh is not None and close_trace:
            trace_fh.close()
    return z
