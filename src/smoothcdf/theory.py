"""Exact Poisson-weight sums behind the smooth estimator's moments.

Everything here reduces the infinite smoothing sums to finite ones with a
truncation index K = ceil(z + 12 sqrt(z) + 30) at z = m x; the ignored
Poisson tail is below 1e-30 and is reported alongside each value.  The
min-index double sums use the identity

    sum_{k,l} g(k ^ l) V_k V_l = sum_k g(k) V_k (2 Q_k - V_k),
    Q_k = sum_{l >= k} V_l,

so every quantity is O(K) instead of O(K^2).  The sums run over the band
between ``truncation_floor`` and ``truncation_index`` only (``_band``):
below the floor the Poisson mass is under 1e-30 too, and the suffix sums
Q_k of the kept k are the same as over the full range.  At z = 5e5 that
is about 17,000 terms instead of 500,000.  ``poisson_weights`` pads the
band with zeros below the floor, so its vector still runs over 0..K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import poisson_log_pmf, reg_lower_gamma

__all__ = [
    "PoissonWeightVector",
    "ExactMoments",
    "poisson_weights",
    "szasz_operator",
    "L_m",
    "weighted_L_integral",
    "R_tilde_1",
    "R_j",
    "szasz_exact_moments",
    "exact_deficiency_local",
    "run_theory_checks",
]


def truncation_index(z):
    """Largest Poisson index kept in the sums at mean z.

    The Poisson(z) mass above it is below 1e-30.
    """
    z = float(z)
    return int(math.ceil(z + 12.0 * math.sqrt(z) + 30.0))


def truncation_floor(z):
    """Smallest Poisson index kept in the sums at mean z.

    The lower mirror of ``truncation_index``: by the Chernoff bound
    exp(-a^2 / 2z) the Poisson(z) mass below it is below 1e-30.
    """
    z = float(z)
    return max(0, int(math.floor(z - 12.0 * math.sqrt(z) - 30.0)))


@dataclass(frozen=True)
class PoissonWeightVector:
    """Poisson weights V_k(m, x) = exp(-mx) (mx)^k / k! for k = 0..k_max."""

    m: int
    x: float
    k_max: int
    weights: np.ndarray
    tail_mass: float


@dataclass(frozen=True)
class ExactMoments:
    """Exact mean and variance of the smooth estimator at a point."""

    m: int
    n: int
    x: float
    s_m: float
    bias: float
    variance: float
    truncation_error_bound: float


def _band(m, x):
    """Poisson(m x) weights on the truncation band, and the tail above it.

    Returns (k, v, tail): the float indices k = truncation_floor(mx) ..
    truncation_index(mx) (just k = 0 at x = 0), their weights V_k and the
    analytic tail P(Poisson(mx) > k[-1]).
    """
    m = int(m)
    x = float(x)
    if m < 1:
        raise ValueError("m must be a positive integer")
    if x < 0.0:
        raise ValueError("x must be >= 0")
    z = m * x
    if z == 0.0:
        return np.zeros(1), np.ones(1), 0.0
    k_max = truncation_index(z)
    k = np.arange(truncation_floor(z), k_max + 1, dtype=float)
    return k, np.exp(poisson_log_pmf(k, z)), float(reg_lower_gamma(k_max + 1.0, z))


def poisson_weights(m, x):
    """Poisson(m x) weights for k = 0..K, zero below ``truncation_floor``."""
    k, v, tail = _band(m, x)
    k_max = int(k[-1])
    weights = np.zeros(k_max + 1)
    weights[k_max + 1 - v.size:] = v
    return PoissonWeightVector(int(m), float(x), k_max, weights, tail)


def _weights_and_suffix(m, x):
    k, v, tail = _band(m, x)
    # Q_k = sum_{l >= k} V_l including the analytic tail beyond the band
    q = np.cumsum(v[::-1])[::-1] + tail
    return k, v, q, tail


def szasz_operator(dist, m, x):
    """The smoothing operator applied to the true CDF: sum F(k/m) V_k(x)."""
    k, v, _ = _band(m, x)
    return float(np.sum(dist.cdf(k / int(m)) * v))


def L_m(m, x):
    """Sum of squared Poisson weights; the variance-reduction kernel."""
    _, v, _ = _band(m, x)
    return float(np.sum(v**2))


def weighted_L_integral(m, a, moment=0):
    """sqrt(m) * int_0^inf x^moment L_m(x) exp(-a x) dx, two ways.

    The termwise route integrates each squared weight exactly, giving
        sum_k m^(2k) Gamma(2k + 1 + moment) / (k!^2 (2m + a)^(2k + 1 + moment)),
    scaled by sqrt(m); the closed form is sqrt(m / (a (a + 4m))) for
    moment 0 and sqrt(m) (a + 2m) / (a (a + 4m))^(3/2) for moment 1.
    Returns (termwise, closed_form, difference).
    """
    m = int(m)
    a = float(a)
    if m < 1:
        raise ValueError("m must be a positive integer")
    if a <= 0.0:
        raise ValueError("a must be positive")
    if moment not in (0, 1):
        raise ValueError("moment must be 0 or 1")

    # terms by recurrence in linear space (log-space would lose ~1e-9 of
    # precision to gammaln rounding at the k ~ 1e5 tails):
    #   moment 0: t_0 = sqrt(m)/(2m+a),   t_{k+1}/t_k = r * (2k+1)/(2k+2)
    #   moment 1: t_0 = sqrt(m)/(2m+a)^2, t_{k+1}/t_k = r * (2k+3)/(2k+2)
    # with r = (2m/(2m+a))^2 < 1.
    ratio_base = (2.0 * m / (2.0 * m + a)) ** 2
    total = 0.0
    t = math.sqrt(m) / (2.0 * m + a)
    if moment == 1:
        t /= 2.0 * m + a
    k0 = 0
    block = 1 << 14
    while True:
        k = np.arange(k0, k0 + block, dtype=float)
        if moment == 0:
            ratios = ratio_base * (2.0 * k + 1.0) / (2.0 * k + 2.0)
        else:
            ratios = ratio_base * (2.0 * k + 3.0) / (2.0 * k + 2.0)
        terms = t * np.cumprod(np.concatenate(([1.0], ratios[:-1])))
        total += float(np.sum(terms))
        t = terms[-1] * ratios[-1]
        k0 += block
        tail_bound = t / (1.0 - ratio_base)  # geometric bound on the rest
        if tail_bound < 1e-14:
            total += tail_bound
            break
        if k0 > 20_000_000:
            raise RuntimeError("weighted_L_integral did not converge; "
                               "use the closed form for very large m")

    if moment == 0:
        closed = math.sqrt(m / (a * (a + 4.0 * m)))
    else:
        closed = math.sqrt(m) * (a + 2.0 * m) / (a * (a + 4.0 * m)) ** 1.5
    return total, closed, total - closed


def R_tilde_1(m, x):
    """sqrt(m) * sum_{k,l} ((k ^ l)/m - x) V_k V_l via the min identity."""
    m = int(m)
    x = float(x)
    if x <= 0.0:
        raise ValueError("x must be positive")
    k, v, q, _ = _weights_and_suffix(m, x)
    return float(math.sqrt(m) * np.sum((k / m - x) * v * (2.0 * q - v)))


def R_j(m, x, j):
    """m^(-j) * sum over k < l of (k - m x)^j V_k V_l."""
    m = int(m)
    x = float(x)
    if j not in (0, 1, 2):
        raise ValueError("j must be 0, 1 or 2")
    if x < 0.0:
        raise ValueError("x must be >= 0")
    if x == 0.0:
        return 0.0
    k, v, q, _ = _weights_and_suffix(m, x)
    upper = q - v  # sum over l > k
    return float(m ** (-j) * np.sum((k - m * x) ** j * v * upper))


def szasz_exact_moments(dist, m, n, x):
    """Exact bias and variance of the smooth estimator at x > 0.

    One smoothing summand has variance
        sum_{k,l} V_k V_l (F((k ^ l)/m) - F_k F_l)
            = sum_k F_k V_k (V_k (1 - F_k) + 2 R_k),
        R_k = sum_{l > k} (1 - F_l) V_l,
    with F_k = F(k/m) and 1 - F taken from ``dist.sf``.  Every term is
    non-negative, so the variance keeps its relative accuracy where
    F(x) is within rounding of 1; the estimator variance is that divided
    by n.
    """
    m = int(m)
    n = int(n)
    x = float(x)
    if x <= 0.0:
        raise ValueError("x must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    k, v, tail = _band(m, x)
    fk = np.asarray(dist.cdf(k / m), dtype=float)
    upper = np.asarray(dist.sf(k / m), dtype=float) * v
    # R_k: the sums of (1 - F_l) V_l over l > k, smallest terms first
    r = np.append(np.cumsum(upper[:0:-1])[::-1], 0.0)
    s_m = float(np.sum(fk * v))
    variance = float(np.sum(fk * v * (upper + 2.0 * r))) / n
    bias = float(np.sum((fk - float(dist.cdf(x))) * v))  # s_m - F(x) cancels near F = 1
    return ExactMoments(m, n, x, s_m, bias, variance, tail)


def exact_deficiency_local(dist, m, n, x):
    """Sample size the step estimator needs to match the smooth one at x."""
    fx = float(dist.cdf(x))
    if not 0.0 < fx < 1.0:
        raise ValueError("requires 0 < F(x) < 1")
    moments = szasz_exact_moments(dist, m, n, x)
    mse = moments.bias**2 + moments.variance
    if mse <= 0.0:
        raise ZeroDivisionError("exact MSE is zero; deficiency unbounded")
    sigma2 = fx * (1.0 - fx)
    return int(math.ceil(sigma2 / mse))


def run_theory_checks(level="fast"):
    """Numeric verification of the squared-weight kernel properties.

    Returns a report dict with one entry per check (observed, predicted,
    tolerance, passed).  ``fast`` uses m = 1e3, ``full`` m = 1e4; the
    asymptotic ratio bands widen at the fast level because the residuals
    shrink like powers of (m x)^(-1/2).
    """
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    m_big = 10_000 if level == "full" else 1_000
    band_d = (0.99, 1.01) if level == "full" else (0.985, 1.015)
    band_e = (0.98, 1.02) if level == "full" else (0.93, 1.07)
    checks = []

    def add(name, observed, predicted, passed, tol=None):
        checks.append({
            "name": name,
            "observed": observed,
            "predicted": predicted,
            "tol": tol,
            "passed": bool(passed),
        })

    add("L_m(0) = 1", L_m(m_big, 0.0), 1.0, L_m(m_big, 0.0) == 1.0)
    far = L_m(m_big, 1e4 / m_big * 50.0)
    add("L_m(x) -> 0 for large x", far, 0.0, far < 1e-2, tol=1e-2)

    for j in (0, 1, 2):
        add(f"R_{j}(0) = 0", R_j(m_big, 0.0, j), 0.0, R_j(m_big, 0.0, j) == 0.0)

    rng = np.random.Generator(np.random.Philox(key=20240))
    ok_c = True
    worst = 0.0
    for _ in range(100):
        mm = int(rng.integers(1, 400))
        xx = float(rng.uniform(0.01, 8.0))
        r2 = R_j(mm, xx, 2)
        ok_c &= -1e-15 <= r2 <= xx / mm + 1e-15
        worst = max(worst, r2 - xx / mm)
    add("0 <= R_2 <= x/m on 100 random inputs", worst, 0.0, ok_c)

    for x in (0.5, 1.0, 4.0):
        ratio = math.sqrt(4.0 * math.pi * m_big * x) * L_m(m_big, x)
        ratio_small = math.sqrt(4.0 * math.pi * (m_big // 10) * x) * L_m(m_big // 10, x)
        ok = band_d[0] <= ratio <= band_d[1] and abs(ratio - 1.0) <= abs(ratio_small - 1.0) + 1e-12
        add(f"sqrt(4 pi m x) L_m at x={x:g}", ratio, 1.0, ok, tol=band_d)

    for x in (0.5, 1.0, 4.0):
        ratio = R_tilde_1(m_big, x) / (-math.sqrt(x / math.pi))
        add(f"R_tilde_1 / (-sqrt(x/pi)) at x={x:g}", ratio, 1.0,
            band_e[0] <= ratio <= band_e[1], tol=band_e)
        ratio1 = math.sqrt(m_big) * R_j(m_big, x, 1) / (-math.sqrt(x / (4.0 * math.pi)))
        add(f"sqrt(m) R_1 / (-sqrt(x/4pi)) at x={x:g}", ratio1, 1.0,
            band_e[0] <= ratio1 <= band_e[1], tol=band_e)

    for mm, aa in ((3, 4.0), (50, 1.0), (500, 0.25)):
        term, closed, diff = weighted_L_integral(mm, aa)
        add(f"weighted integral m={mm}, a={aa:g}", term, closed,
            abs(diff) <= 1e-10, tol=1e-10)
        term1, closed1, diff1 = weighted_L_integral(mm, aa, moment=1)
        add(f"first-moment weighted integral m={mm}, a={aa:g}", term1, closed1,
            abs(diff1) <= 1e-10, tol=1e-10)

    closed_at = lambda mm: math.sqrt(mm / (1.0 * (1.0 + 4.0 * mm)))
    add("weighted integral -> 1/(2 sqrt(a)) at a=1", closed_at(4 * m_big), 0.5,
        abs(closed_at(4 * m_big) - 0.5) < abs(closed_at(m_big) - 0.5), tol=None)

    if level == "full":
        # integrated R_tilde_1 against a bounded weight g(x) = 1/(1+x):
        # int g R~ e^{-ax} dx -> -int g sqrt(x/pi) e^{-ax} dx
        a = 1.0
        nodes, w = np.polynomial.legendre.leggauss(96)
        hi = 40.0
        xg = 0.5 * hi * (nodes + 1.0)
        wg = 0.5 * hi * w
        g = 1.0 / (1.0 + xg)
        lhs = float(np.sum(wg * g * np.exp(-a * xg)
                           * np.array([R_tilde_1(m_big, t) for t in xg])))
        rhs = -float(np.sum(wg * g * np.sqrt(xg / math.pi) * np.exp(-a * xg)))
        add("integrated R_tilde_1 against e^{-x}/(1+x)", lhs, rhs,
            abs(lhs - rhs) <= 0.02 * abs(rhs), tol="2% relative")

    return {"level": level, "passed": all(c["passed"] for c in checks), "checks": checks}
