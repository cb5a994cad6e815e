import pytest
from hypothesis import settings

import hankelfh as hf

# Fixed examples: every run of the property tests draws the same inputs
# from the same seed, and no example database replays earlier failures
# from the working directory; each test keeps its own max_examples.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def gue_potential():
    return hf.Potential.gue()


@pytest.fixture(scope="session")
def gue_measure(gue_potential):
    return hf.equilibrium_measure(gue_potential)


@pytest.fixture(scope="session")
def quartic_problem():
    """A quartic potential normalised to support [-1, 1].

    The family c2 x^2 + c4 x^4 has unit mass on [-1, 1] iff 2 c2 + 3 c4 = 4;
    this instance is the rescaling of 2x^2 + 0.3x^4 from its own support.
    """
    from scipy.optimize import brentq

    def mass_minus_one(b):
        return (2.0 * (2.0 * b * b) + 3.0 * (0.3 * b ** 4)) / 4.0 - 1.0

    half_width = brentq(mass_minus_one, 0.5, 2.0, xtol=1e-15)
    rescaled = hf.rescale(hf.Potential([0, 0, 2.0, 0, 0.3]), -half_width, half_width)
    measure = hf.equilibrium_measure(rescaled.V)
    return rescaled, measure
