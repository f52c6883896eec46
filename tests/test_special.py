import math

import numpy as np
import pytest
from scipy import integrate
from scipy import special as sp

from smoothcdf.special import hermite_basis, hermite_values, poisson_log_pmf


def test_poisson_log_pmf_complements_the_incomplete_gamma_tail():
    # P(Poisson(lam) < k) + P(k, lam) = 1, with P the regularized lower
    # incomplete gamma function
    for lam in (0.1, 1.0, 10.0):
        for k in range(1, 31):
            j = np.arange(k, dtype=float)
            head = np.exp(poisson_log_pmf(j, lam)).sum()
            assert sp.gammainc(float(k), lam) + head == pytest.approx(1.0, abs=1e-10)


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
    assert values.tobytes() == hermite_values(xs, 10).tobytes()
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
    a = hermite_basis(1.3, 12)
    b = hermite_basis(1.3, 12)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
