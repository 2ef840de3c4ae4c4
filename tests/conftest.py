import numpy as np
import pytest

from hybrid_orbit.integrator import IntegratorConfig
from hybrid_orbit.paper import paper_fixture
from hybrid_orbit.synthetic import build_synthetic, from_catalog


@pytest.fixture
def paperfx():
    return paper_fixture()


@pytest.fixture(scope="session")
def cfg_fast():
    return IntegratorConfig(base_step=5e-3)


@pytest.fixture(scope="session")
def cfg_accurate():
    return IntegratorConfig(base_step=2e-3)


@pytest.fixture(scope="session")
def stable2():
    return from_catalog("stable-2")


@pytest.fixture(scope="session")
def stable3():
    return from_catalog("stable-3")


@pytest.fixture(scope="session")
def unstable2():
    return from_catalog("unstable-2")


@pytest.fixture(scope="session")
def boundary2():
    return from_catalog("boundary-2")


@pytest.fixture(scope="session")
def uncoupled2():
    return from_catalog("uncoupled-2")


@pytest.fixture(scope="session")
def unstable3():
    """unstable-3, a bench design system; only CATALOG systems are stored,
    so it is generated."""
    return build_synthetic(3, "unstable")


@pytest.fixture(scope="session")
def sweep_set():
    """Set i of a seed as the bench sweep draws it: two (A, F) phases, each A
    scaled to the given spectral radius."""

    def make(seed, i, radius, k, p):
        rng = np.random.default_rng([seed, i])
        phases = []
        for _ in range(2):
            a = rng.normal(size=(k, k))
            a *= radius / float(np.max(np.abs(np.linalg.eigvals(a))))
            phases.append((a, rng.normal(size=(k, p))))
        return phases

    return make

