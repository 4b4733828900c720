import time
from dataclasses import dataclass

import pytest
from hypothesis import settings

from energy_ood.mog import fit_mog
from energy_ood.toy import ToySpec, gen_toy
from energy_ood.trainer import CorrectionModel, correction_defaults, train_correction
from tests_support import CROSS_SPEC, GRID_SPEC

# Every property test draws the same examples on every run: a fresh draw per
# run fails one run in many, and a failing example saved to .hypothesis/ would
# then fail every later run of the checkout. derandomize implies no database.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

# Toy pipelines are the expensive part of the suite; train each model once
# per session and share it between behavioral tests and acceptance criteria.

TOY_SEED = 7
TOY_MOG_TEMPERATURE = 1.0


@dataclass
class TrainedToy:
    model: CorrectionModel
    history: list
    seconds: float

    def __iter__(self):  # (model, history) unpacking
        return iter((self.model, self.history))


def _train(fs, gm):
    cfg = correction_defaults(toy=True, seed=TOY_SEED)
    start = time.monotonic()
    model, history = train_correction(fs, gm, cfg)
    return TrainedToy(model, history, time.monotonic() - start)


@pytest.fixture(scope="session")
def cross_train_fs():
    return gen_toy(CROSS_SPEC)


@pytest.fixture(scope="session")
def cross_heldout_fs():
    return gen_toy(ToySpec(kind="cross", samples_per_class=500, seed=1234))


@pytest.fixture(scope="session")
def cross_mog(cross_train_fs):
    return fit_mog(cross_train_fs, temperature=TOY_MOG_TEMPERATURE)


@pytest.fixture(scope="session")
def cross_trained(cross_train_fs, cross_mog):
    return _train(cross_train_fs, cross_mog)


@pytest.fixture(scope="session")
def grid_train_fs():
    return gen_toy(GRID_SPEC)


@pytest.fixture(scope="session")
def grid_mog(grid_train_fs):
    return fit_mog(grid_train_fs, temperature=TOY_MOG_TEMPERATURE)


@pytest.fixture(scope="session")
def grid_trained(grid_train_fs, grid_mog):
    return _train(grid_train_fs, grid_mog)
