"""Closed-form asymptotics of the smooth half-line estimator.

Pointwise quantities at an interior point x:

    sigma2 = F(x) (1 - F(x))        Bernoulli variance of the step estimator
    bS     = x f'(x) / 2            leading bias coefficient (order 1/m)
    VS     = f(x) sqrt(x / pi)      variance-reduction coefficient (m^-1/2 / n)

and the weighted-integral constants C1, C2, C3 of sigma2, VS and bS^2
against the weight exp(-a x) f(x), a >= 0, which give the integrated error
expansion C1/n - C2/(sqrt(m) n) + C3/m^2 and the optimal order
m_opt = n^(2/3) (4 C3 / C2)^(2/3).  a = 0 is the weight f(x) dx the Monte
Carlo sweeps measure the MISE with.

The constants are ``scipy.integrate.quad`` integrals.  ``scipy.integrate``
is imported inside ``mise_constants``, its one use, so that importing this
module, and the package, does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import integer, nonnegative, positive

__all__ = [
    "PointwiseCoeffs",
    "MiseConstants",
    "MseOptimum",
    "MiseOptimum",
    "pointwise_coeffs",
    "mse_asymptotic",
    "m_opt_mse",
    "mise_constants",
    "m_opt_mise",
    "c_star",
    "c_opt",
    "deficiency_asymptotic",
]


@dataclass(frozen=True)
class PointwiseCoeffs:
    """Bias/variance coefficients at one evaluation point.

    thetaS and gammaS are NaN when F(x) is 0 or 1 (the normalized ratios
    are undefined there).
    """

    x: float
    sigma2: float
    bS: float
    VS: float
    thetaS: float
    gammaS: float


@dataclass(frozen=True)
class MiseConstants:
    a: float
    C1: float
    C2: float
    C3: float
    quadrature_error_estimate: float


@dataclass(frozen=True)
class MseOptimum:
    m_opt: float
    mse: float


@dataclass(frozen=True)
class MiseOptimum:
    m_opt: float
    mise: float


def pointwise_coeffs(dist, x):
    """Evaluate sigma2, bS, VS and their ratios for a known model at x > 0."""
    x = positive("x", x)
    fx = float(dist.cdf(x))
    f = float(dist.pdf(x))
    fp = float(dist.pdf_prime(x))
    sigma2 = fx * (1.0 - fx)
    bS = 0.5 * x * fp
    VS = f * math.sqrt(x / math.pi)
    if 0.0 < fx < 1.0:
        thetaS = VS / sigma2
        gammaS = bS * bS / sigma2
    else:
        thetaS = math.nan
        gammaS = math.nan
    return PointwiseCoeffs(x, sigma2, bS, VS, thetaS, gammaS)


def mse_asymptotic(coeffs, m, n):
    """Three-term pointwise expansion sigma2/n - VS/(sqrt(m) n) + bS^2/m^2."""
    m, n = integer("order m", m), integer("n", n)
    return coeffs.sigma2 / n - coeffs.VS / (math.sqrt(m) * n) + (coeffs.bS / m) ** 2


def m_opt_mse(coeffs, n):
    """Order minimizing the pointwise expansion, with the value it attains.

    m_opt = n^(2/3) [4 bS^2 / VS]^(2/3); the attained expansion value is
    sigma2/n - (3/4) n^(-4/3) [VS^4 / (4 bS^2)]^(1/3).
    """
    n = integer("n", n)
    if coeffs.bS == 0.0 or coeffs.VS == 0.0:
        raise ValueError("degenerate point: requires f(x) != 0 and f'(x) != 0")
    m_opt = n ** (2.0 / 3.0) * (4.0 * coeffs.bS**2 / coeffs.VS) ** (2.0 / 3.0)
    mse = coeffs.sigma2 / n - 0.75 * n ** (-4.0 / 3.0) \
        * (coeffs.VS**4 / (4.0 * coeffs.bS**2)) ** (1.0 / 3.0)
    return MseOptimum(m_opt, mse)


def mise_constants(dist, a):
    """Weighted integrals C1, C2, C3 by adaptive quadrature to 1e-10 relative.

    The weight is exp(-a x) f(x) with a >= 0.  a = 0 is the weight f(x) dx
    the sweeps measure the MISE with; there C1 = 1/6 for every continuous
    model.  The integrals run over [0, F^-1(1 - 1e-13)], and the reported
    error is the sum of the three quadrature error estimates and the
    weighted tail mass (1 - F(end)) exp(-a end) past that end.  An integral
    that quad cannot bring to its tolerance, such as C3 on a Weibull
    component of shape at most 2/3, where (x f'(x))^2 f(x) ~ x^(3 k - 3)
    near 0 diverges, raises one ValueError naming the constant.
    """
    from scipy import integrate  # here, its one use: see the module docstring

    a = nonnegative("a", a)
    upper = float(dist.quantile(1.0 - 1e-13))

    def weight(x):
        return np.exp(-a * x) * dist.pdf(x)

    def sigma2(x):
        fx = dist.cdf(x)
        return fx * (1.0 - fx)

    def vS(x):
        return dist.pdf(x) * np.sqrt(np.asarray(x, dtype=float) / math.pi)

    def b2(x):
        return (0.5 * np.asarray(x, dtype=float) * dist.pdf_prime(x)) ** 2

    def integral(name, integrand):
        # quad's value and error estimate; where it would warn (no
        # convergence, a probably divergent integral), its message instead
        value, error, _, *message = integrate.quad(
            lambda t: integrand(t) * weight(t), 0.0, upper,
            epsabs=0.0, epsrel=1e-10, limit=200, full_output=1)
        if message:
            reason = " ".join(message[0].split(".")[0].split())  # its first sentence
            raise ValueError(f"{name} does not converge: quad returned {value:.6g} "
                             f"+- {error:.3g} ({reason})")
        return value, error

    c1, e1 = integral("C1", sigma2)
    c2, e2 = integral("C2", vS)
    c3, e3 = integral("C3", b2)
    # outside [0, upper] everything is bounded by the model tail mass
    tail = (1.0 - float(dist.cdf(upper))) * math.exp(-a * upper)
    return MiseConstants(a, c1, c2, c3, e1 + e2 + e3 + tail)


def m_opt_mise(consts, n):
    """Order minimizing the integrated expansion, with the attained value."""
    n = integer("n", n)
    if not (consts.C2 > 0.0 and consts.C3 > 0.0):
        raise ValueError("degenerate constants: requires C2 > 0 and C3 > 0")
    m_opt = n ** (2.0 / 3.0) * (4.0 * consts.C3 / consts.C2) ** (2.0 / 3.0)
    mise = consts.C1 / n - 0.75 * n ** (-4.0 / 3.0) \
        * (consts.C2**4 / (4.0 * consts.C3)) ** (1.0 / 3.0)
    return MiseOptimum(m_opt, mise)


def c_star(consts):
    """Threshold constant: the scaled order must exceed this for the smooth
    estimator to beat the step estimator globally."""
    return (consts.C3 / consts.C2) ** (2.0 / 3.0)


def c_opt(consts):
    """Deficiency-maximizing constant, 2^(4/3) times the threshold."""
    return (4.0 * consts.C3 / consts.C2) ** (2.0 / 3.0)


def deficiency_asymptotic(coeffs_or_consts, n, c=None, m=None):
    """Leading-order extra observations the step estimator needs.

    Local for PointwiseCoeffs, global for MiseConstants.  Given the order
    ``m`` (far above n^(2/3)) it returns m^(-1/2) n theta; given ``c``
    (order = c n^(2/3)) it returns n^(2/3) (c^(-1/2) theta - c^(-2) gamma),
    with (theta, gamma) the local ratios or (C2/C1, C3/C1).  Exactly one of
    m and c is given.
    """
    n = integer("n", n)
    if (m is None) == (c is None):
        raise ValueError("deficiency needs exactly one of the order m and the constant c")
    if isinstance(coeffs_or_consts, MiseConstants):
        consts = coeffs_or_consts
        theta, gamma = consts.C2 / consts.C1, consts.C3 / consts.C1
    elif isinstance(coeffs_or_consts, PointwiseCoeffs):
        theta, gamma = coeffs_or_consts.thetaS, coeffs_or_consts.gammaS
        if not (math.isfinite(theta) and math.isfinite(gamma)):
            raise ValueError("local deficiency undefined where F(x) is 0 or 1")
    else:
        raise TypeError("deficiency needs PointwiseCoeffs or MiseConstants")
    if m is not None:
        return n * theta / math.sqrt(integer("order m", m))
    c = positive("c", c)
    return n ** (2.0 / 3.0) * (theta / math.sqrt(c) - gamma / c**2)
