"""2-D synthetic datasets and energy-surface export.

A cross is two axis-aligned bars sharing a center: position along the arm is
uniform over its length, position across it is Gaussian. Each bar is its own
class, so a single cross gives 2 classes and the 3x3 grid of crosses gives
18. Energy surfaces are sampled on a regular lattice and exported as CSV or
a tensor file; rendering is left to external tools. ``energy_grid`` raises
``featurestore.ComputationError`` for a non-finite score, naming its grid
point.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .featurestore import ComputationError, FeatureSet, as_f32_scores
from .tensorio import write_tensor

KINDS = ("cross", "grid_crosses")


@dataclass(frozen=True)
class ToySpec:
    kind: str = "cross"
    samples_per_class: int = 1000
    arm_length: float = 2.0
    arm_thickness: float = 0.05
    grid_pitch: float = 6.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown toy kind {self.kind!r}")
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be at least 1")
        if not self.seed >= 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not all(g > 0 for g in (self.arm_length, self.arm_thickness, self.grid_pitch)):
            raise ValueError("geometry parameters must be positive")
        # samples lie within a few thicknesses of the arms; ten leaves ample room
        reach = self.grid_pitch + self.arm_length + 10 * self.arm_thickness
        if reach > float(np.finfo(np.float32).max):
            raise ValueError("toy geometry exceeds the float32 range of feature files")

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
        reach = self.grid_pitch if self.kind == "grid_crosses" else 0.0
        return reach + self.arm_length


def gen_toy(spec: ToySpec, rng: np.random.Generator | None = None) -> FeatureSet:
    """Sample the crossed dataset; one class per bar, deterministic per seed."""
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    n = spec.samples_per_class
    blocks, labels = [], []
    label = 0
    for cx, cy in spec.centers:
        along_h = rng.uniform(-spec.arm_length, spec.arm_length, n)
        across_h = rng.normal(0.0, spec.arm_thickness, n)
        blocks.append(np.column_stack([cx + along_h, cy + across_h]))
        labels.append(np.full(n, label))
        label += 1
        along_v = rng.uniform(-spec.arm_length, spec.arm_length, n)
        across_v = rng.normal(0.0, spec.arm_thickness, n)
        blocks.append(np.column_stack([cx + across_v, cy + along_v]))
        labels.append(np.full(n, label))
        label += 1
    return FeatureSet(np.concatenate(blocks), np.concatenate(labels), spec.num_classes)


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


def save_grid_tensor(path, grid: EnergyGrid) -> None:
    """The (R, R) values as a float32 tensor; raises ComputationError, writing
    nothing, if a value is beyond the float32 range."""
    write_tensor(path, as_f32_scores(grid.values))
