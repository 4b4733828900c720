"""Helpers shared by more than one test module."""

import numpy as np

from energy_ood.energy_net import EnergyMlp
from energy_ood.toy import ToySpec

CROSS_SPEC = ToySpec(kind="cross", samples_per_class=1000, seed=11)
GRID_SPEC = ToySpec(kind="grid_crosses", samples_per_class=250, seed=11)


def grid_centers_and_corners(factor: float = 1.5):
    """The 9 cross centers and the 4 domain corners at +-factor * extent."""
    centers = GRID_SPEC.centers
    reach = factor * GRID_SPEC.extent
    corners = reach * np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
    return centers, corners


def zero_net(dims, bias_out=0.0):
    """A network of the layer widths ``dims`` whose energy is ``bias_out`` everywhere."""
    params = [a for i, o in zip(dims[:-1], dims[1:]) for a in (np.zeros((o, i)), np.zeros(o))]
    params[-1][:] = bias_out
    return EnergyMlp(params)


def rel_err(a, b, floor=1e-6):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return np.abs(a - b) / np.maximum.reduce([np.abs(a), np.abs(b), np.full(a.shape, floor)])
