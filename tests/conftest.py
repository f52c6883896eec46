import pytest

from smoothcdf import make_beta, make_exponential, make_weibull_mixture, simulation


@pytest.fixture(autouse=True)
def _cold_samples_matrix():
    """Start every test without a kept samples_matrix draw."""
    simulation._last_draw = None


@pytest.fixture(scope="session")
def exp2():
    return make_exponential(2.0)


@pytest.fixture(scope="session")
def beta33():
    return make_beta(3.0, 3.0)


@pytest.fixture(scope="session")
def weibull1():
    return make_weibull_mixture([[0.5, 1.0, 1.0], [0.5, 4.0, 4.0]])


@pytest.fixture(scope="session")
def weibull2():
    return make_weibull_mixture([[0.5, 1.5, 1.5], [0.5, 5.0, 5.0]])


@pytest.fixture(scope="session")
def weibull3():
    return make_weibull_mixture([[0.35, 1.5, 1.5], [0.35, 4.5, 4.5], [0.3, 8.0, 8.0]])
