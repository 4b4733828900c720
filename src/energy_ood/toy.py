"""2-D synthetic datasets and energy-surface export.

A cross is two axis-aligned bars sharing a center: position along a bar is
uniform within 2.0 of the center, across it Gaussian with standard deviation
0.05. Each bar is its own class, so a single cross gives 2 classes and the
3x3 grid of crosses, 6.0 apart, gives 18; the geometry is fixed. Energy
surfaces are sampled on a regular lattice and exported as CSV, or as a
tensor file by ``featurestore.save_scores``; rendering is left to external
tools. ``energy_grid`` raises ``featurestore.ComputationError`` for a
non-finite score, naming its grid point.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .featurestore import ComputationError, FeatureSet

KINDS = ("cross", "grid_crosses")


@dataclass(frozen=True)
class ToySpec:
    kind: str = "cross"
    samples_per_class: int = 1000
    seed: int = 0
    # the fixed geometry: constants, not fields (no annotations)
    arm_length = 2.0
    arm_thickness = 0.05
    grid_pitch = 6.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown toy kind {self.kind!r}")
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be at least 1")
        if not self.seed >= 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    @property
    def centers(self) -> np.ndarray:
        if self.kind == "cross":
            return np.zeros((1, 2))
        ticks = np.array([-self.grid_pitch, 0.0, self.grid_pitch])
        return np.array([(x, y) for y in ticks for x in ticks])

    @property
    def num_classes(self) -> int:
        return 2 * self.centers.shape[0]

    @property
    def extent(self) -> float:
        """Largest |coordinate| of a cross center plus its arm reach."""
        return self.arm_length + (self.grid_pitch if self.kind == "grid_crosses" else 0.0)


def gen_toy(spec: ToySpec, rng: np.random.Generator | None = None) -> FeatureSet:
    """Sample the crossed dataset; one class per bar, deterministic per seed."""
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    n = spec.samples_per_class
    blocks = []
    for center in spec.centers:
        for horizontal in (True, False):
            along = rng.uniform(-spec.arm_length, spec.arm_length, n)
            across = rng.normal(0.0, spec.arm_thickness, n)
            blocks.append(center + np.column_stack([along, across] if horizontal
                                                   else [across, along]))
    labels = np.repeat(np.arange(spec.num_classes), n)
    return FeatureSet(np.concatenate(blocks), labels, spec.num_classes)


@dataclass(frozen=True)
class EnergyGrid:
    """Scores on a lattice: ``values[i, j]`` is the score at ``(xs[i], ys[j])``."""

    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def energy_grid(score_fn, bounds, resolution: int) -> EnergyGrid:
    """Evaluate a batched score function on an endpoint-inclusive R x R lattice.

    ``bounds`` is (x_min, x_max, y_min, y_max); each pair must be ordered and
    span a finite width, or ValueError is raised before any point is scored.
    ``score_fn`` maps an (n, 2) array of points to (n,) scores, and is called
    once, on all R * R points.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    x_min, x_max, y_min, y_max = map(float, bounds)
    if not (x_min < x_max and y_min < y_max):
        raise ValueError("grid bounds must be well-ordered")
    if not np.isfinite([x_max - x_min, y_max - y_min]).all():
        raise ValueError("grid bounds must span a finite width")
    xs = np.linspace(x_min, x_max, resolution)
    ys = np.linspace(y_min, y_max, resolution)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    points = np.column_stack([gx.ravel(), gy.ravel()])

    flat = np.asarray(score_fn(points), dtype=np.float64)
    if flat.shape != (points.shape[0],):
        raise ValueError(f"score_fn returned shape {flat.shape} for {points.shape[0]} points")

    bad = ~np.isfinite(flat)
    if bad.any():
        i = int(np.argmax(bad))
        raise ComputationError(f"non-finite score {float(flat[i])!r} at grid point "
                               f"({points[i, 0]}, {points[i, 1]})")
    return EnergyGrid(xs, ys, flat.reshape(resolution, resolution))


def save_grid_csv(path, grid: EnergyGrid) -> None:
    """Rows of (x, y, energy) in row-major lattice order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "energy"])
        for i, x in enumerate(grid.xs):
            for j, y in enumerate(grid.ys):
                writer.writerow([repr(float(x)), repr(float(y)), repr(float(grid.values[i, j]))])
