import os

import numpy as np
import pytest
from hypothesis import settings

from spar import random_schmidt_symmetric, random_separable, validate_density

# HYPOTHESIS_PROFILE=ci draws the same examples on every run and prints the
# blob that replays a failure with @reproduce_failure
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def separable_22():
    """500 seeded random separable two-qubit states."""
    return [random_separable(2, 2, terms=1 + i % 10, seed=10_000 + i) for i in range(500)]


@pytest.fixture(scope="session")
def separable_33():
    """500 seeded random separable two-qutrit states."""
    return [random_separable(3, 3, terms=1 + i % 10, seed=20_000 + i) for i in range(500)]


@pytest.fixture(scope="session")
def schmidt_symmetric_states():
    """200 seeded random Schmidt-symmetric states, half 2x2 and half 3x3."""
    states = [random_schmidt_symmetric(2, 1 + i % 5, seed=30_000 + i) for i in range(100)]
    states += [random_schmidt_symmetric(3, 1 + i % 5, seed=40_000 + i) for i in range(100)]
    return states


@pytest.fixture(scope="session")
def pure_products():
    """300 seeded random pure product states, d = 2, 3, 4 in turn. Each sits
    exactly on ||R||_1 = 1, which rounding overshoots by up to ~1e-13."""
    rng = np.random.default_rng(7)
    states = []
    for i in range(300):
        d = 2 + i % 3
        a, b = (rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(2))
        psi = np.kron(a, b)
        psi /= np.linalg.norm(psi)
        states.append(validate_density(np.outer(psi, psi.conj()), (d, d)))
    return states


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20250809)
