import math

import numpy as np
import pytest
from scipy import integrate

from smoothcdf.special import hermite_basis, poisson_log_pmf, reg_lower_gamma


def test_reg_lower_gamma_closed_forms():
    # gamma(1, x) / Gamma(1) = 1 - exp(-x)
    assert reg_lower_gamma(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
    assert reg_lower_gamma(7.3, 0.0) == 0.0
    # Poisson tail with s = 2: 1 - e^{-1}(1 + 1)
    assert reg_lower_gamma(2.0, 1.0) == pytest.approx(1.0 - 2.0 * math.exp(-1.0), abs=1e-12)


def test_reg_lower_gamma_poisson_complement_identity():
    for lam in (0.1, 1.0, 10.0):
        for k in range(1, 31):
            j = np.arange(k, dtype=float)
            head = np.exp(poisson_log_pmf(j, lam)).sum()
            assert reg_lower_gamma(float(k), lam) + head == pytest.approx(1.0, abs=1e-10)


def test_reg_lower_gamma_monotone_and_domain():
    xs = np.linspace(0.0, 20.0, 200)
    vals = reg_lower_gamma(3.7, xs)
    assert np.all(np.diff(vals) >= 0.0)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    with pytest.raises(ValueError):
        reg_lower_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        reg_lower_gamma(2.0, -1.0)
    with pytest.raises(ValueError):
        reg_lower_gamma(float("nan"), 1.0)


def _hermite_direct(x, k):
    # physicists' Hermite polynomial through numpy's basis, an
    # implementation independent of the package recurrence
    coef = np.zeros(k + 1)
    coef[k] = 1.0
    hk = np.polynomial.hermite.hermval(x, coef)
    norm = math.sqrt(2.0**k * math.factorial(k) * math.sqrt(math.pi))
    return np.exp(-0.5 * x**2) * hk / norm


def test_hermite_values_at_zero():
    values, integrals = hermite_basis(0.0, 1)
    assert values[0] == pytest.approx(math.pi ** (-0.25), abs=1e-15)
    assert values[1] == 0.0
    assert np.all(integrals == 0.0)


def test_hermite_recurrence_matches_direct_polynomials():
    xs = np.linspace(-4.0, 6.0, 41)
    values, _ = hermite_basis(xs, 10)
    for k in range(11):
        direct = _hermite_direct(xs, k)
        assert np.allclose(values[k], direct, rtol=1e-8, atol=1e-12)


def test_hermite_orthonormality_by_quadrature():
    t, w = np.polynomial.legendre.leggauss(400)
    xs = 12.0 * t
    ww = 12.0 * w
    values, _ = hermite_basis(xs, 10)
    gram = (values * ww) @ values.T
    assert np.allclose(gram, np.eye(11), atol=1e-9)


def test_hermite_integral_ladder_matches_quadrature():
    for x in (0.5, 1.0, 3.0):
        _, integrals = hermite_basis(np.array([x]), 30)
        for k in (0, 1, 2, 7, 15, 30):
            oracle, _ = integrate.quad(lambda t, kk=k: float(hermite_basis(np.array([t]), kk)[0][kk][0]),
                                       0.0, x, limit=200)
            assert integrals[k, 0] == pytest.approx(oracle, abs=1e-9)


def test_hermite_uniform_bound():
    xs = np.linspace(-12.0, 12.0, 2001)
    values, _ = hermite_basis(xs, 60)
    assert np.max(np.abs(values)) <= 0.816


def test_functions_are_pure():
    assert reg_lower_gamma(3.3, 2.2) == reg_lower_gamma(3.3, 2.2)
    a = hermite_basis(1.3, 12)
    b = hermite_basis(1.3, 12)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
