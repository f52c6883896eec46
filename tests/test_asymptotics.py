import math

import numpy as np
import pytest
from scipy import integrate

from smoothcdf import (
    PointwiseCoeffs,
    c_opt,
    c_star,
    deficiency_asymptotic,
    make_weibull_mixture,
    m_opt_mise,
    m_opt_mse,
    mise_constants,
    mse_asymptotic,
    pointwise_coeffs,
)


def test_pointwise_coeffs_exponential(exp2):
    co = pointwise_coeffs(exp2, 1.0)
    assert co.bS == pytest.approx(-2.0 * math.exp(-2.0), rel=1e-12)
    assert co.VS == pytest.approx(2.0 * math.exp(-2.0) / math.sqrt(math.pi), rel=1e-12)
    f1 = 1.0 - math.exp(-2.0)
    assert co.sigma2 == pytest.approx(f1 * (1.0 - f1), rel=1e-12)
    assert co.thetaS == pytest.approx(co.VS / co.sigma2)
    assert co.gammaS == pytest.approx(co.bS**2 / co.sigma2)
    with pytest.raises(ValueError):
        pointwise_coeffs(exp2, 0.0)


def test_pointwise_coeffs_degenerate(beta33):
    # mode of a symmetric density: f'(0.5) = 0 so bS = 0
    co = pointwise_coeffs(beta33, 0.5)
    assert co.bS == pytest.approx(0.0, abs=1e-12)
    # outside the support F(x) = 1: ratio coefficients are undefined
    far = pointwise_coeffs(beta33, 5.0)
    assert math.isnan(far.thetaS) and math.isnan(far.gammaS)


def test_mse_asymptotic(exp2):
    co = pointwise_coeffs(exp2, 1.0)
    # plug-in arithmetic at n = 100, m = 33
    expected = co.sigma2 / 100 - co.VS / (math.sqrt(33) * 100) + (co.bS / 33) ** 2
    assert mse_asymptotic(co, 33, 100) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(9.716e-4, abs=2e-7)
    # m -> infinity recovers the step-estimator value sigma2 / n
    assert mse_asymptotic(co, 10**9, 100) == pytest.approx(co.sigma2 / 100, rel=1e-4)
    # larger VS strictly reduces the expansion at fixed everything else
    bigger = PointwiseCoeffs(co.x, co.sigma2, co.bS, 2.0 * co.VS, co.thetaS, co.gammaS)
    assert mse_asymptotic(bigger, 33, 100) < mse_asymptotic(co, 33, 100)


def test_m_opt_mse(exp2, beta33):
    co = pointwise_coeffs(exp2, 1.0)
    opt = m_opt_mse(co, 100)
    assert opt.m_opt == pytest.approx(100 ** (2 / 3) * (4 * co.bS**2 / co.VS) ** (2 / 3),
                                      rel=1e-12)
    assert opt.m_opt == pytest.approx(33.3, abs=0.1)
    assert m_opt_mse(co, 800).m_opt == pytest.approx(4.0 * opt.m_opt, rel=1e-12)

    for n in (50, 500, 5000):
        ms = np.arange(1, 10_001)
        vals = co.sigma2 / n - co.VS / (np.sqrt(ms) * n) + (co.bS / ms) ** 2
        brute = int(ms[np.argmin(vals)])
        assert abs(brute - round(m_opt_mse(co, n).m_opt)) <= 1

    degenerate = pointwise_coeffs(beta33, 0.5)
    with pytest.raises(ValueError):
        m_opt_mse(degenerate, 100)


def test_mise_constants_closed_forms(exp2):
    # Exp(lambda): C1 = lambda (1/(2 lambda + a) - 1/(3 lambda + a))
    mc = mise_constants(exp2, 1.0)
    assert mc.C1 == pytest.approx(2.0 * (1.0 / 5.0 - 1.0 / 7.0), rel=1e-10)
    assert mc.C1 == pytest.approx(4.0 / 35.0, rel=1e-10)
    # C2 = (4/sqrt(pi)) int sqrt(x) e^{-5x} dx = 2 / 5^{3/2}
    assert mc.C2 == pytest.approx(2.0 / 5.0**1.5, rel=1e-9)
    # C3 = 8 int x^2 e^{-7x} dx = 16 / 343
    assert mc.C3 == pytest.approx(16.0 / 343.0, rel=1e-9)
    with pytest.raises(ValueError):
        mise_constants(exp2, -0.5)


@pytest.mark.filterwarnings("error")  # an IntegrationWarning would fail here
def test_mise_constants_a_zero_limit(exp2, weibull1, weibull2, weibull3):
    # a = 0 is the weight f(x) dx the sweeps use; C2 and C3 used to come back NaN.
    # int F (1 - F) f dx = int_0^1 u (1 - u) du = 1/6 for any continuous model
    for dist in (exp2, weibull1, weibull2, weibull3):
        mc = mise_constants(dist, 0.0)
        assert mc.C1 == pytest.approx(1.0 / 6.0, abs=1e-9)
        assert mc.C2 > 0.0 and mc.C3 > 0.0 and 0.0 < mc.quadrature_error_estimate < 1e-9
    # Exp(2): C2 = (4/sqrt(pi)) int sqrt(x) e^{-4x} dx = 1/4 and
    # C3 = 8 int x^2 e^{-6x} dx = 2/27
    mc = mise_constants(exp2, 0)
    assert mc.C2 == pytest.approx(0.25, rel=1e-10)
    assert mc.C3 == pytest.approx(2.0 / 27.0, rel=1e-10)
    # the optimal orders of the expansion at the sweeps' n
    for dist, want in ((exp2, (8.3, 15.2, 38.3)), (weibull1, (4.0, 7.4, 18.7))):
        mc = mise_constants(dist, 0.0)
        assert [round(m_opt_mise(mc, n).m_opt, 1) for n in (20, 50, 200)] == list(want)


@pytest.mark.filterwarnings("error")  # an IntegrationWarning would fail here
def test_mise_constants_raise_where_quad_does_not_converge(exp2, beta33, weibull1, weibull2,
                                                           weibull3):
    # (x f'(x))^2 f(x) ~ x^(3k - 3) near 0, so C3 is infinite for a Weibull
    # shape k <= 2/3.  quad used to return it with an IntegrationWarning: at
    # a = 0, C3 = -0.0516 for k = 0.6, 87.27 +- 147 for k = 0.5 and
    # 1.158 +- 0.077 for k = 2/3
    for shape in (0.5, 0.6, 2.0 / 3.0):
        for a in (0.0, 1.0):
            with pytest.raises(ValueError, match="^C3 does not converge: quad returned "):
                mise_constants(make_weibull_mixture([[1.0, shape, 1.0]]), a)
    # where it converges, C3 is quad's plain value bit for bit
    shapes = [make_weibull_mixture([[1.0, k, 1.0]]) for k in (0.67, 0.7, 0.8, 1.0)]
    for dist in (exp2, beta33, weibull1, weibull2, weibull3, *shapes):
        upper = float(dist.quantile(1.0 - 1e-13))
        for a in (0.0, 1.0):
            def integrand(t, dist=dist, a=a):
                return (0.5 * t * dist.pdf_prime(t)) ** 2 * (np.exp(-a * t) * dist.pdf(t))

            want = integrate.quad(integrand, 0.0, upper, epsabs=0.0, epsrel=1e-10, limit=200)[0]
            assert mise_constants(dist, a).C3 == want


def test_mise_constants_respect_analytic_bounds(exp2, beta33, weibull1, weibull2, weibull3):
    for dist in (exp2, beta33, weibull1, weibull2, weibull3):
        grid = dist.quantile(np.linspace(1e-6, 1.0 - 1e-6, 20001))
        sup_f = float(np.max(dist.pdf(grid)))
        sup_fp = float(np.max(np.abs(dist.pdf_prime(grid))))
        for a in (0.5, 1.0, 2.0):
            mc = mise_constants(dist, a)
            assert 0.0 <= mc.C1 <= sup_f / a * (1 + 1e-9)
            assert 0.0 <= mc.C2 <= sup_f**2 / (2.0 * a**1.5) * (1 + 1e-9)
            assert 0.0 <= mc.C3 <= sup_fp**2 * sup_f / (2.0 * a**3) * (1 + 1e-9)


def test_m_opt_mise_vs_brute_force(exp2):
    mc = mise_constants(exp2, 1.0)
    for n in (50, 500, 5000):
        ms = np.arange(1, 10_001)
        vals = mc.C1 / n - mc.C2 / (np.sqrt(ms) * n) + mc.C3 / ms**2
        brute = int(ms[np.argmin(vals)])
        assert abs(brute - round(m_opt_mise(mc, n).m_opt)) <= 1
    # power law: scaling C3/C2 by 8 scales m_opt by 4
    doubled = type(mc)(mc.a, mc.C1, mc.C2, 8.0 * mc.C3, mc.quadrature_error_estimate)
    assert m_opt_mise(doubled, 500).m_opt == pytest.approx(4.0 * m_opt_mise(mc, 500).m_opt)


def test_optimal_mise_improves_on_step_estimator(exp2, beta33, weibull1, weibull2, weibull3):
    # the second expansion term is negative for every built-in model
    for dist in (exp2, beta33, weibull1, weibull2, weibull3):
        mc = mise_constants(dist, 1.0)
        opt = m_opt_mise(mc, 500)
        assert opt.mise < mc.C1 / 500.0


def test_deficiency_branches(exp2):
    co = pointwise_coeffs(exp2, 1.0)
    mc = mise_constants(exp2, 1.0)
    n = 10**4
    # mode (b) at the threshold constant: global deficiency is exactly zero
    assert deficiency_asymptotic(mc, n, c=c_star(mc)) == pytest.approx(0.0, abs=1e-9)
    # analytic optimum equals 2^(4/3) times the threshold
    assert c_opt(mc) == pytest.approx(2.0 ** (4.0 / 3.0) * c_star(mc), rel=1e-12)
    cs = np.geomspace(0.02, 50.0, 400_001)
    g = mc.C2 / mc.C1 / np.sqrt(cs) - mc.C3 / mc.C1 / cs**2
    assert cs[np.argmax(g)] == pytest.approx(c_opt(mc), rel=1e-2)
    # local maximality of the optimum
    best = deficiency_asymptotic(mc, n, c=c_opt(mc))
    assert best >= deficiency_asymptotic(mc, n, c=0.5 * c_opt(mc))
    assert best >= deficiency_asymptotic(mc, n, c=2.0 * c_opt(mc))
    # mode (a) linearity in theta
    base = deficiency_asymptotic(co, n, m=n)
    doubled = type(co)(co.x, co.sigma2, co.bS, 2.0 * co.VS, 2.0 * co.thetaS, co.gammaS)
    assert deficiency_asymptotic(doubled, n, m=n) == pytest.approx(2.0 * base)
    # local or global follows from the argument's type; exactly one of m and c
    with pytest.raises(ValueError, match="exactly one of"):
        deficiency_asymptotic(co, n)  # neither m nor c
    with pytest.raises(ValueError, match="exactly one of"):
        deficiency_asymptotic(mc, n, c=1.0, m=n)  # both
    nan_co = type(co)(5.0, 0.0, 0.1, 0.1, math.nan, math.nan)
    with pytest.raises(ValueError):
        deficiency_asymptotic(nan_co, n, c=1.0)
