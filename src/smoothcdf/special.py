"""Special functions shared by the estimators and the theory module.

The regularized lower incomplete gamma function is a validating wrapper
around scipy.special, and the Poisson log-pmf handles the lam = 0 case.
The normalized Hermite functions and their cumulative integrals are
computed here with stable three-term recurrences; per-call quadrature would
be O(N) integrals instead of one O(N) ladder.
"""

from __future__ import annotations

import numpy as np
from scipy import special as sp

__all__ = [
    "reg_lower_gamma",
    "poisson_log_pmf",
    "hermite_basis",
]

# h_0(0) = pi**(-1/4); shows up in every Hermite seed below.
_PI_M14 = np.pi ** (-0.25)
_SQRT_2PI = np.sqrt(2.0 * np.pi)


def reg_lower_gamma(s, x):
    """Regularized lower incomplete gamma P(s, x) = gamma(s, x) / Gamma(s).

    For integer s = k this equals the Poisson tail Pr(Poisson(x) >= k),
    which is how the smooth CDF estimator consumes it.
    """
    s = np.asarray(s, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.any(~(s > 0.0)):
        raise ValueError("reg_lower_gamma requires s > 0")
    if np.any(~(x >= 0.0)):
        raise ValueError("reg_lower_gamma requires x >= 0")
    out = sp.gammainc(s, x)
    return float(out) if out.ndim == 0 else out


def poisson_log_pmf(k, lam):
    """log of exp(-lam) * lam**k / k! with the lam = 0, k = 0 case equal to 0."""
    k = np.asarray(k, dtype=float)
    lam = np.asarray(lam, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = k * np.log(lam) - lam - sp.gammaln(k + 1.0)
    # lam == 0: pmf is 1 at k == 0 and 0 elsewhere
    out = np.where(lam == 0.0, np.where(k == 0.0, 0.0, -np.inf), out)
    return float(out) if out.ndim == 0 else out


def hermite_basis(x, order_max):
    """Evaluate h_0..h_N and I_0..I_N on an array of points.

    Returns (values, integrals), each of shape (order_max + 1,) + x.shape.

    The values use the stable recurrence
        h_{k+1}(x) = x sqrt(2/(k+1)) h_k(x) - sqrt(k/(k+1)) h_{k-1}(x)
    and the integrals the exact ladder
        I_{k+1}(x) = sqrt(k/(k+1)) I_{k-1}(x) - sqrt(2/(k+1)) (h_k(x) - h_k(0)),
    which follows from h_k' = sqrt(k/2) h_{k-1} - sqrt((k+1)/2) h_{k+1}.
    """
    n = int(order_max)
    if n < 0:
        raise ValueError("order_max must be >= 0")
    x = np.asarray(x, dtype=float)
    shape = (n + 1,) + x.shape
    values = np.empty(shape)
    integrals = np.empty(shape)

    gauss = np.exp(-0.5 * x * x)
    values[0] = _PI_M14 * gauss
    integrals[0] = _PI_M14 * _SQRT_2PI * (sp.ndtr(x) - 0.5)
    if n >= 1:
        values[1] = np.sqrt(2.0) * x * values[0]
        integrals[1] = np.sqrt(2.0) * _PI_M14 * (1.0 - gauss)

    h_prev0, h_cur0 = _PI_M14, 0.0  # h_{k-1}(0), h_k(0) for k = 1
    for k in range(1, n):
        ck = np.sqrt(2.0 / (k + 1.0))
        dk = np.sqrt(k / (k + 1.0))
        values[k + 1] = ck * x * values[k] - dk * values[k - 1]
        integrals[k + 1] = dk * integrals[k - 1] - ck * (values[k] - h_cur0)
        h_prev0, h_cur0 = h_cur0, -dk * h_prev0
    return values, integrals

