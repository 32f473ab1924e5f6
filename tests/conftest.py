import numpy as np
import pytest

from revivalkit.model import SpectralModel
from revivalkit.potential import canonical_double_well


@pytest.fixture(scope="session")
def quartic():
    return canonical_double_well()


@pytest.fixture(scope="session")
def model_1e3(quartic):
    return SpectralModel(quartic, 1e-3)


@pytest.fixture(scope="session")
def model_1e4(quartic):
    return SpectralModel(quartic, 1e-4)


@pytest.fixture(scope="session")
def window_1e4(model_1e4):
    return model_1e4.solve_families()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260809)
