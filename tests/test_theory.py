import math

import numpy as np
import pytest
from scipy import special as sp

from smoothcdf import (
    L_m,
    R_j,
    R_tilde_1,
    exact_deficiency_local,
    pointwise_coeffs,
    poisson_weights,
    run_theory_checks,
    sample,
    szasz_exact_moments,
    szasz_fit,
    weighted_L_integral,
)
from smoothcdf.special import poisson_log_pmf
from smoothcdf.theory import truncation_floor, truncation_index


def test_poisson_weights_basics():
    pw = poisson_weights(5, 0.0)
    assert list(pw.weights) == [1.0]
    assert pw.tail_mass == 0.0

    pw = poisson_weights(100, 1.0)
    # log-gamma oracle for a single weight: exp(k ln z - z - lgamma(k+1))
    k, z = 100, 100.0
    oracle = math.exp(k * math.log(z) - z - math.lgamma(k + 1))
    assert pw.weights[100] == pytest.approx(oracle, rel=1e-12)
    assert oracle == pytest.approx(0.03986, abs=5e-6)
    assert pw.weights.sum() + pw.tail_mass == pytest.approx(1.0, abs=1e-12)
    assert pw.tail_mass <= 1e-20
    assert np.all(pw.weights >= 0.0)


def test_truncation_band_leaves_out_under_1e30():
    # P(Poisson(z) < lo) = Q(lo, z) and P(Poisson(z) > hi) = P(hi + 1, z)
    for z in (0.0, 5.0, 250.0, 1e4, 1e6):
        lo, hi = truncation_floor(z), truncation_index(z)
        assert 0 <= lo <= z <= hi
        below = sp.gammaincc(lo, z) if lo > 0 else 0.0
        assert below < 1e-30, z
        assert sp.gammainc(hi + 1, z) < 1e-30, z
    assert truncation_floor(250.0) > 0


def _full_range(m, x):
    # weights V_k, k = 0..K, and suffix sums Q_k over the whole range, as
    # the sums ran before they were cut to the truncation band
    z = m * x
    k_max = truncation_index(z) if z > 0.0 else 0
    k = np.arange(k_max + 1, dtype=float)
    v = np.exp(poisson_log_pmf(k, z))
    q = np.cumsum(v[::-1])[::-1] + sp.gammainc(k_max + 1.0, z)
    return k, v, q


def test_band_sums_match_the_full_range(exp2):
    # z = m x from 0 to 5e5; the band drops k below truncation_floor(z)
    def close(got, want, scale=None):
        return abs(got - want) <= 1e-14 * abs(want if scale is None else scale)

    for m, x in ((5, 0.0), (1, 1e-7), (3, 1.5), (100, 1.5), (100, 2.5), (100, 4.0),
                 (1000, 1.0), (7, 5e3), (10**4, 4.0), (10**4, 10.0), (10**4, 50.0)):
        k, v, q = _full_range(m, x)
        z = m * x
        pw = poisson_weights(m, x)
        assert pw.k_max == k[-1] and pw.weights.size == k.size
        lo = truncation_floor(z) if z > 0.0 else 0
        assert np.array_equal(pw.weights[lo:], v[lo:])
        assert not pw.weights[:lo].any() and np.all(v[:lo] < 1e-30)
        assert close(L_m(m, x), float(np.sum(v**2)))
        for j in (0, 1, 2):
            want = float(m ** (-j) * np.sum((k - m * x) ** j * v * (q - v)))
            assert close(R_j(m, x, j), want), (m, x, j)
        if x == 0.0:
            continue
        assert close(R_tilde_1(m, x), math.sqrt(m) * float(np.sum((k / m - x) * v * (2.0 * q - v))))
        fk = exp2.cdf(k / m)
        s_m = float(np.sum(fk * v))
        second = float(np.sum(fk * v * (2.0 * q - v)))
        em = szasz_exact_moments(exp2, m, 3, x)
        assert close(em.s_m, s_m)
        # the bias is summed term by term, sum_k (F(k/m) - F(x)) V_k, so it
        # keeps its own relative accuracy; the variance subtracts sums of
        # order one: compare it at their scale
        assert close(em.bias, float(np.sum((fk - float(exp2.cdf(x))) * v)))
        assert close(em.variance, max((second - s_m**2) / 3, 0.0), scale=second / 3)


def _szasz_operator(dist, m, x):
    # the smoothing operator applied to the true CDF, sum_k F(k/m) V_k(x)
    return szasz_exact_moments(dist, m, 1, x).s_m


def test_szasz_operator(exp2):
    # it vanishes at 0 like its k = 1 term, m x F(1/m)
    assert _szasz_operator(exp2, 50, 1e-12) == pytest.approx(50e-12 * exp2.cdf(0.02), rel=1e-9)
    # operator converges to F with bias ~ bS / m
    s4 = _szasz_operator(exp2, 10**4, 1.0)
    assert abs(s4 - exp2.cdf(1.0)) <= 2e-4
    bS = pointwise_coeffs(exp2, 1.0).bS
    r3 = 10**3 * (_szasz_operator(exp2, 10**3, 1.0) - exp2.cdf(1.0))
    r4 = 10**4 * (s4 - exp2.cdf(1.0))
    assert abs(r4 / bS - 1.0) < 0.02
    assert abs(r4 - bS) < abs(r3 - bS)
    # bounded and non-decreasing on a grid above 0, where the moments are defined
    grid = np.linspace(0.125, 5.0, 40)
    vals = np.array([_szasz_operator(exp2, 30, x) for x in grid])
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert np.all(np.diff(vals) >= -1e-14)


def test_L_m_values():
    assert L_m(123, 0.0) == 1.0
    got = L_m(10**4, 1.0)
    assert got == pytest.approx((4.0 * math.pi * 10**4) ** -0.5, rel=0.01)
    rng = np.random.Generator(np.random.Philox(key=3))
    for _ in range(20):
        val = L_m(int(rng.integers(1, 500)), float(rng.uniform(0.0, 10.0)))
        assert 0.0 <= val <= 1.0


def test_weighted_integral_closed_forms():
    term, closed, diff = weighted_L_integral(50, 1.0)
    assert closed == pytest.approx(math.sqrt(50.0 / 201.0), rel=1e-14)
    assert abs(diff) <= 1e-10
    term, closed, diff = weighted_L_integral(3, 4.0)
    assert closed == pytest.approx(math.sqrt(3.0) / 8.0, rel=1e-14)
    assert abs(diff) <= 1e-10
    # large-m limit 1 / (2 sqrt(a)): the closed form tends to 1/2 at a = 1
    assert math.sqrt(10**6 / (1.0 + 4.0 * 10**6)) == pytest.approx(0.5, abs=1e-3)
    # termwise convergence holds at the slowest required setting too
    assert abs(weighted_L_integral(500, 0.25)[2]) <= 1e-10
    # first-moment variant against its closed form
    term, closed, diff = weighted_L_integral(50, 1.0, moment=1)
    assert closed == pytest.approx(math.sqrt(50.0) * 101.0 / 201.0**1.5, rel=1e-14)
    assert abs(diff) <= 1e-10


def test_min_identity_against_brute_force(exp2):
    rng = np.random.Generator(np.random.Philox(key=8))
    for _ in range(50):
        m = int(rng.integers(1, 101))
        x = float(rng.uniform(0.05, 4.0))
        pw = poisson_weights(m, x)
        v = pw.weights
        k = np.arange(v.size)
        outer = v[:, None] * v[None, :]
        kmin = np.minimum(k[:, None], k[None, :])
        brute_rt = math.sqrt(m) * float(np.sum((kmin / m - x) * outer))
        assert R_tilde_1(m, x) == pytest.approx(brute_rt, abs=1e-10)
        strict = k[:, None] < k[None, :]
        for j in (0, 1, 2):
            brute_rj = float(m ** (-j) * np.sum((k[:, None] - m * x) ** j * outer * strict))
            assert R_j(m, x, j) == pytest.approx(brute_rj, abs=1e-10)


def test_R_limits():
    assert R_tilde_1(10**4, 1.0) == pytest.approx(-math.sqrt(1.0 / math.pi), rel=0.02)
    assert R_tilde_1(10**4, 4.0) == pytest.approx(-2.0 * math.sqrt(1.0 / math.pi), rel=0.02)
    assert math.sqrt(10**4) * R_j(10**4, 1.0, 1) == pytest.approx(
        -math.sqrt(1.0 / (4.0 * math.pi)), rel=0.02)
    for j in (0, 1, 2):
        assert R_j(77, 0.0, j) == 0.0
    rng = np.random.Generator(np.random.Philox(key=9))
    for _ in range(100):
        m = int(rng.integers(1, 300))
        x = float(rng.uniform(0.01, 6.0))
        r2 = R_j(m, x, 2)
        assert 0.0 <= r2 <= x / m + 1e-15


@pytest.mark.parametrize("m", [2.5, 0, math.nan])
def test_every_order_is_checked_as_the_fits_check_it(exp2, m):
    # these used to truncate m: L_m(2.5, x) was L_m(2, x), and
    # szasz_exact_moments at m = 2.7 its value at m = 2
    calls = [lambda: L_m(m, 1.0), lambda: R_j(m, 1.0, 1), lambda: R_j(m, 0.0, 2),
             lambda: R_tilde_1(m, 1.0), lambda: weighted_L_integral(m, 1.0),
             lambda: szasz_exact_moments(exp2, m, 10, 1.0),
             lambda: exact_deficiency_local(exp2, m, 10, 1.0), lambda: szasz_fit([1.0], m)]
    for call in calls:
        with pytest.raises(ValueError, match="order m must be a positive integer"):
            call()


def test_exact_moments_scaling_and_limits(exp2):
    em50 = szasz_exact_moments(exp2, 20, 50, 1.0)
    em100 = szasz_exact_moments(exp2, 20, 100, 1.0)
    assert em100.variance == pytest.approx(em50.variance / 2.0, rel=1e-12)
    assert em50.bias == em100.bias
    # variance vanishes toward the left endpoint
    tiny = szasz_exact_moments(exp2, 20, 50, 1e-9)
    assert tiny.variance <= 1e-12
    # bias/variance coefficients emerge as m grows
    co = pointwise_coeffs(exp2, 1.0)
    rel = []
    for m in (100, 1000, 10_000):
        em = szasz_exact_moments(exp2, m, 1, 1.0)
        assert em.truncation_error_bound < 1e-15
        rel.append(abs((co.sigma2 - em.variance) * math.sqrt(m) / co.VS - 1.0))
    assert rel[-1] < 0.05
    assert rel[0] > rel[1] > rel[2]


def test_exact_moments_match_monte_carlo(exp2):
    m, n, x = 20, 50, 1.0
    em = szasz_exact_moments(exp2, m, n, x)
    reps = 5000
    vals = np.empty(reps)
    for i in range(reps):
        vals[i] = szasz_fit(sample(exp2, 40_000 + i, n), m).evaluate(x)
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - em.s_m) <= 4.0 * se
    assert vals.var(ddof=1) == pytest.approx(em.variance, rel=0.2)


def test_exact_bias_matches_mpmath(exp2):
    # the bias sum_k (F(k/m) - F(x)) V_k against a 50-digit sum over all k;
    # written as S_m - F(x) it cancelled to 5.9e-5 relative at m=1000, x=8
    mpmath = pytest.importorskip("mpmath")

    def reference(m, x):
        with mpmath.workdps(50):
            z = mpmath.mpf(m) * x
            survival = mpmath.exp(-2 * mpmath.mpf(x))  # 1 - F(x) on Exp(2)
            v, total = mpmath.exp(-z), mpmath.mpf(0)
            for k in range(int(float(z) + 40.0 * math.sqrt(float(z)) + 100.0)):
                total += (survival - mpmath.exp(-2 * mpmath.mpf(k) / m)) * v
                v = v * z / (k + 1)
            return float(total)

    for m, x in ((20, 0.3), (100, 1.0), (1000, 3.0), (1000, 8.0)):
        bias = szasz_exact_moments(exp2, m, 50, x).bias
        assert abs(bias / reference(m, x) - 1.0) <= 1e-7, (m, x)


def test_exact_variance_matches_mpmath_at_the_rounding_floor(exp2):
    # the variance sum_{k,l} F((k ^ l)/m) V_k V_l - S_m^2 as a 50-digit sum
    # over all k; in double precision that difference read 0.0 at x=20
    # (where F(x) is 1 - 4e-18) and lost 5e-10 relative at x=8
    mpmath = pytest.importorskip("mpmath")

    def reference(m, x):
        with mpmath.workdps(50):
            z = mpmath.mpf(m) * x
            k_max = int(float(z) + 40.0 * math.sqrt(float(z)) + 100.0)
            v = [mpmath.exp(-z)]
            for k in range(k_max):
                v.append(v[-1] * z / (k + 1))
            f = [1 - mpmath.exp(-2 * mpmath.mpf(k) / m) for k in range(k_max + 1)]
            s_m = mpmath.fsum(fk * vk for fk, vk in zip(f, v))
            second, q = mpmath.mpf(0), mpmath.mpf(0)
            for k in range(k_max, -1, -1):  # F(k ^ l) summed with Q_k = sum_{l >= k} V_l
                q += v[k]
                second += f[k] * v[k] * (2 * q - v[k])
            return second - s_m**2

    for x in (20.0, 8.0):
        exact = reference(100, x)
        for n in (1, 50):
            got = szasz_exact_moments(exp2, 100, n, x).variance
            assert got > 0.0
            assert abs(got / (exact / n) - 1) <= 1e-11, (x, n, got, float(exact / n))
        if x == 20.0:
            assert float(exact) == pytest.approx(3.3448435180725885e-18, rel=1e-15)


def test_exact_deficiency_local(exp2):
    n = 10**4
    # huge m: the smooth estimator is the step estimator plus nothing
    assert exact_deficiency_local(exp2, 10**6, n, 1.0) == pytest.approx(n, rel=0.02)
    # definitional bound
    em = szasz_exact_moments(exp2, 300, n, 1.0)
    co = pointwise_coeffs(exp2, 1.0)
    if em.bias**2 + em.variance <= co.sigma2 / n:
        assert exact_deficiency_local(exp2, 300, n, 1.0) >= n
    # scaled-order regime prediction with the exact-moment oracle
    c_local = (4.0 * co.gammaS / co.thetaS) ** (2.0 / 3.0)
    m = round(n ** (2.0 / 3.0) * c_local)
    i_l = exact_deficiency_local(exp2, m, n, 1.0)
    c = m / n ** (2.0 / 3.0)
    predicted = co.thetaS - c ** -1.5 * co.gammaS
    observed = (i_l - n) / (m ** -0.5 * n)
    assert observed == pytest.approx(predicted, rel=0.25)


def test_theory_checks_fast_pass():
    report = run_theory_checks("fast")
    assert report["passed"], [c for c in report["checks"] if not c["passed"]]
    with pytest.raises(ValueError):
        run_theory_checks("nope")


def test_theory_checks_full_pass():
    # m = 1e4 plus the integrated min-index check that only runs here
    report = run_theory_checks("full")
    assert report["passed"], [c for c in report["checks"] if not c["passed"]]
    assert any("integrated" in c["name"] for c in report["checks"])
