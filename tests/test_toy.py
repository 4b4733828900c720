import csv
from dataclasses import fields

import numpy as np
import pytest

from energy_ood.featurestore import ComputationError
from energy_ood.mog import gaussian_energy
from energy_ood.tensorio import load_tensor
from energy_ood.toy import (
    ToySpec,
    energy_grid,
    gen_toy,
    save_grid_csv,
    save_grid_tensor,
)


# ---------------------------------------------------------------- generation

def test_cross_bounding_box():
    spec = ToySpec(kind="cross", samples_per_class=1000, arm_length=2.0,
                   arm_thickness=0.05, seed=0)
    fs = gen_toy(spec)
    bound = 2.0 + 5 * 0.05
    assert np.abs(fs.features).max() <= bound
    assert fs.num_classes == 2 and len(fs) == 2000


def test_grid_recovers_nine_centers():
    spec = ToySpec(kind="grid_crosses", samples_per_class=250, seed=11)
    fs = gen_toy(spec)
    recovered = set()
    for cross in range(9):
        mask = (fs.labels == 2 * cross) | (fs.labels == 2 * cross + 1)
        mean = fs.features[mask].mean(axis=0)
        snapped = tuple(spec.grid_pitch * np.round(mean / spec.grid_pitch))
        recovered.add(snapped)
    expected = {(x, y) for x in (-6.0, 0.0, 6.0) for y in (-6.0, 0.0, 6.0)}
    assert recovered == expected


def test_toy_deterministic():
    spec = ToySpec(kind="grid_crosses", samples_per_class=50, seed=5)
    a, b = gen_toy(spec), gen_toy(spec)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_toy_label_balance():
    spec = ToySpec(kind="grid_crosses", samples_per_class=40, seed=1)
    fs = gen_toy(spec)
    np.testing.assert_array_equal(np.bincount(fs.labels, minlength=fs.num_classes),
                                  np.full(18, 40))


def test_spec_validation():
    with pytest.raises(ValueError):
        ToySpec(kind="blob")
    with pytest.raises(ValueError):
        ToySpec(samples_per_class=0)
    with pytest.raises(ValueError):
        ToySpec(arm_length=-1.0)


def test_extent():
    assert ToySpec(kind="cross", arm_length=2.0).extent == 2.0
    assert ToySpec(kind="grid_crosses", arm_length=2.0, grid_pitch=6.0).extent == 8.0


# ---------------------------------------------------------------- grid

def test_grid_constant_function():
    grid = energy_grid(lambda pts: np.full(len(np.atleast_2d(pts)), 4.0),
                       (-1, 1, -1, 1), 5)
    np.testing.assert_array_equal(grid.values, np.full((5, 5), 4.0))


def test_grid_squared_norm_pattern():
    grid = energy_grid(lambda pts: (np.atleast_2d(pts) ** 2).sum(axis=1),
                       (-1, 1, -1, 1), 3)
    np.testing.assert_allclose(grid.values,
                               [[2.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 2.0]],
                               atol=1e-15)


def test_grid_calls_score_fn_on_batches_only():
    # a point-wise function returns one value for the whole batch: rejected
    with pytest.raises(ValueError, match="shape"):
        energy_grid(lambda p: float(p[0, 0] - p[0, 1]), (0, 1, 0, 1), 2)

    # an error inside score_fn propagates out of energy_grid
    def broken(pts):
        raise KeyError("inside score_fn")

    with pytest.raises(KeyError, match="inside score_fn"):
        energy_grid(broken, (0, 1, 0, 1), 2)


def test_grid_pure_sampling():
    fn = lambda pts: np.sin(np.atleast_2d(pts)).sum(axis=1)
    grid = energy_grid(fn, (-2, 2, -1, 1), 7)
    i, j = 3, 5
    point = np.array([[grid.xs[i], grid.ys[j]]])
    assert grid.values[i, j] == fn(point)[0]


def test_grid_minimum_tracks_mixture_mean(grid_mog):
    grid = energy_grid(lambda pts: gaussian_energy(grid_mog, pts), (-9, 9, -9, 9), 61)
    i, j = np.unravel_index(np.argmin(grid.values), grid.values.shape)
    argmin = np.array([grid.xs[i], grid.ys[j]])
    nearest = np.linalg.norm(grid_mog.means - argmin, axis=1).min()
    cell = 18 / 60
    assert nearest <= cell * np.sqrt(2)


def test_grid_nonfinite_error_names_point():
    def fn(pts):
        pts = np.atleast_2d(pts)
        out = pts.sum(axis=1)
        out[(pts[:, 0] > 0.9) & (pts[:, 1] > 0.9)] = np.nan
        return out

    with pytest.raises(ComputationError, match=r"at grid point \(1\.0, 1\.0\)"):
        energy_grid(fn, (0, 1, 0, 1), 3)


def test_grid_record_is_its_axes_and_values():
    grid = energy_grid(lambda pts: pts.sum(axis=1), (-1, 3, 0, 2), 5)
    assert [f.name for f in fields(grid)] == ["xs", "ys", "values"]
    np.testing.assert_array_equal(grid.xs, np.linspace(-1, 3, 5))
    np.testing.assert_array_equal(grid.ys, np.linspace(0, 2, 5))
    assert not grid.values.flags.writeable


def test_grid_validation():
    with pytest.raises(ValueError):
        energy_grid(lambda p: 0.0, (0, 1, 0, 1), 1)
    # reversed or equal bounds are refused before a single point is scored
    calls = []

    def fn(pts):
        calls.append(len(pts))
        return np.zeros(len(pts))

    for bounds in [(1, -1, -1, 1), (-1, 1, 1, -1), (0, 0, -1, 1), (-1, 1, 2, 2)]:
        with pytest.raises(ValueError, match="well-ordered"):
            energy_grid(fn, bounds, 300)
    # so are ordered bounds 2.7e308 apart, whose lattice would be nan points
    for bounds in [(-1e308, 1.7e308, -1, 1), (-1, 1, -1.7e308, 1e308)]:
        with pytest.raises(ValueError, match="grid bounds must span a finite width"):
            energy_grid(fn, bounds, 3)
    assert calls == []


# ---------------------------------------------------------------- export

def test_grid_csv_and_tensor_export(tmp_path):
    fn = lambda pts: (np.atleast_2d(pts) ** 2).sum(axis=1)
    grid = energy_grid(fn, (-1, 1, -1, 1), 4)
    csv_path, tensor_path = tmp_path / "g.csv", tmp_path / "g.ftsr"
    save_grid_csv(csv_path, grid)
    save_grid_tensor(tensor_path, grid)

    with csv_path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 16
    first = rows[0]
    assert float(first["x"]) == -1.0 and float(first["y"]) == -1.0
    assert float(first["energy"]) == pytest.approx(2.0)

    tensor = load_tensor(tensor_path)
    assert tensor.shape == (4, 4) and tensor.dtype == np.float32
    np.testing.assert_allclose(tensor, grid.values.astype(np.float32))
