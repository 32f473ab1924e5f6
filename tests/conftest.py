import numpy as np
import pytest

from revivalkit.model import SpectralModel
from revivalkit.potential import Potential, canonical_double_well


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
def skewed():
    """V = x^4 + 0.2 x^3 - x^2: a non-degenerate barrier top at 0, no reflection symmetry."""
    return Potential(
        evaluate=lambda x: x**4 + 0.2 * x**3 - x**2,
        first_derivative=lambda x: 4.0 * x**3 + 0.6 * x**2 - 2.0 * x,
        second_derivative=lambda x: 12.0 * x**2 + 1.2 * x - 2.0,
        descriptor="skewed",
        domain_halfwidth=3.0,
        even=False,
    )


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture(scope="session")
def harmonic_well():
    """V(x) = omega^2 x^2 / 2 by omega: no barrier top; an oracle for the grid solver."""

    def well(omega: float = 1.0) -> Potential:
        return Potential(
            evaluate=lambda x: 0.5 * omega**2 * x**2,
            first_derivative=lambda x: omega**2 * x,
            second_derivative=lambda x: omega**2 + 0.0 * x,
            descriptor=f"harmonic(omega={omega:g})",
            domain_halfwidth=3.0,
            even=True,
        )

    return well
