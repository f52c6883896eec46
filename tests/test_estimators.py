import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import gammainc, ndtr, ndtri

from smoothcdf import (
    QuantileBracketError,
    bernstein_fit,
    edf_fit,
    fit_from_spec,
    hermite_half_fit,
    hermite_half_standardized_fit,
    kernel_fit,
    sample,
    szasz_fit,
    szasz_operator,
)
from smoothcdf.estimators import KINDS, SzaszEstimator, _Fitted
from smoothcdf.special import poisson_log_pmf


def test_edf_basic():
    fit = edf_fit([1.0, 2.0, 3.0])
    assert fit.evaluate(2.0) == pytest.approx(2.0 / 3.0)
    assert fit.evaluate(0.5) == 0.0
    assert fit.evaluate(10.0) == 1.0
    assert fit.quantile(0.5) == 2.0


def test_sample_order_invariance():
    fwd, rev = [0.1, 0.4, 0.9], [0.9, 0.4, 0.1]
    xs = np.linspace(0.0, 1.0, 17)
    assert np.array_equal(edf_fit(fwd).evaluate(xs), edf_fit(rev).evaluate(xs))
    assert np.array_equal(kernel_fit(fwd, 0.2).evaluate(xs),
                          kernel_fit(rev, 0.2).evaluate(xs))
    assert np.array_equal(bernstein_fit(fwd, 6).evaluate(xs),
                          bernstein_fit(rev, 6).evaluate(xs))


def test_szasz_fit_precomputed_orders():
    assert list(szasz_fit([1.0], 1).gamma_shapes) == [1]
    assert list(szasz_fit([0.25, 0.75], 4).gamma_shapes) == [1, 3]
    assert list(szasz_fit([0.5], 2).gamma_shapes) == [1]
    # observation at zero resolves to the smallest well-defined order
    assert list(szasz_fit([0.0], 10).gamma_shapes) == [1]
    with pytest.raises(ValueError):
        szasz_fit([-0.1, 1.0], 5)
    with pytest.raises(ValueError):
        szasz_fit([1.0], 0)


def test_szasz_fit_rejects_orders_beyond_exact_integers():
    # ceil(m X) must be an exact integer: m * max(X) >= 2**53 is refused, not cast to NaN
    with pytest.raises(ValueError, match="too large"):
        szasz_fit([1e19], 1)
    with pytest.raises(ValueError, match="too large"):
        szasz_fit([1.0, 1e15], 10_000)
    assert szasz_fit([2.0 ** 52], 1).gamma_shapes[0] == 2 ** 52


class _PerObservationSzasz(SzaszEstimator):
    """The Szasz fit with one incomplete gamma and one Poisson weight per
    observation, c_i = max(1, ceil(m X_i)) taken from the sample itself."""

    def _shapes(self):
        return np.maximum(1.0, np.ceil(self.m * self.sample))[:, None]

    def _cdf(self, flat):
        return gammainc(self._shapes(), self.m * flat[None, :]).mean(axis=0)

    def density(self, x):
        k = self._shapes() - 1.0
        return self._pointwise(
            lambda t: self.m * np.exp(poisson_log_pmf(k, self.m * t[None, :])).mean(axis=0), x)


def test_szasz_fit_equals_the_per_observation_form_bitwise(exp2):
    # one incomplete gamma per distinct order, expanded back by the counts,
    # gives the per-observation values bit for bit
    cases = [
        ([0.3, 0.3, 0.7, 1.2, 1.2, 1.2, 2.5], 10),  # ties
        ([0.0, 0.05, 0.4, 0.4, 3.0], 20),  # 0 and 0.05 both give c = 1
        ([0.8] * 6, 7),  # all tied
        ([1.3], 5),  # n = 1
        (sample(exp2, 6, 1000), 100),  # about half the orders distinct
        (sample(exp2, 5, 300), 10**6),  # every order distinct
    ]
    xs = np.linspace(0.0, 4.0, 57)
    for values, m in cases:
        fit = szasz_fit(values, m)
        ref = _PerObservationSzasz(fit.sample, fit.m, fit.orders, fit.counts)
        assert np.array_equal(fit.gamma_shapes, ref._shapes()[:, 0])
        assert fit.counts.sum() == fit.n
        assert np.array_equal(fit.evaluate(xs), ref.evaluate(xs))
        assert fit.evaluate(0.9) == ref.evaluate(0.9)
        assert np.array_equal(fit.density(xs), ref.density(xs))
        assert fit.density(0.9) == ref.density(0.9)
        for p in (0.05, 0.3, 0.5, 0.9):
            assert fit.quantile(p) == ref.quantile(p)
    assert fit.orders.size == fit.n  # the last case: every order distinct
    assert szasz_fit([0.8] * 6, 7).orders.size == 1


def test_szasz_boundary_and_closed_form():
    fit = szasz_fit([1.0], 1)
    assert fit.evaluate(0.0) == 0.0
    assert fit.evaluate(2.0) == pytest.approx(1.0 - math.exp(-2.0), abs=1e-12)
    assert fit.evaluate(200.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit.evaluate(-0.5)


def test_szasz_monotone_and_bounded(exp2):
    rng = np.random.Generator(np.random.Philox(key=77))
    for _ in range(50):
        n = int(rng.integers(1, 40))
        m = int(rng.integers(1, 120))
        fit = szasz_fit(sample(exp2, int(rng.integers(0, 2**62)), n), m)
        xy = np.sort(rng.uniform(0.0, 8.0, size=2 * 100))
        vals = fit.evaluate(xy)
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert np.all(vals[1::2] - vals[0::2] >= -1e-14)  # paired x < y


def test_szasz_matches_truncated_series(exp2):
    rng = np.random.Generator(np.random.Philox(key=78))
    for _ in range(300):
        n = int(rng.integers(1, 30))
        m = int(rng.integers(1, 80))
        x = float(rng.uniform(0.0, 6.0))
        s = sample(exp2, int(rng.integers(0, 2**62)), n)
        fit = szasz_fit(s, m)
        z = m * x
        k_max = int(math.ceil(z + 12.0 * math.sqrt(z) + 30.0))
        k = np.arange(k_max + 1, dtype=float)
        edf_at_grid = np.searchsorted(s, k / m, side="right") / n
        series = float(np.sum(edf_at_grid * np.exp(poisson_log_pmf(k, z))))
        assert fit.evaluate(x) == pytest.approx(series, abs=1e-9)


def test_szasz_expectation_identity(exp2):
    # mean of the estimator over independent samples is the smoothing
    # operator applied to the true CDF
    m, n, x = 20, 25, 1.0
    reps = 2000
    vals = np.empty(reps)
    for i in range(reps):
        vals[i] = szasz_fit(sample(exp2, 10_000 + i, n), m).evaluate(x)
    target = szasz_operator(exp2, m, x)
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - target) <= 4.0 * se


def test_szasz_uniform_consistency_trend(exp2):
    # sup-norm error with m = n^(2/3) shrinks in median as n grows
    grid = exp2.quantile(np.linspace(0.001, 0.999, 100))
    medians = []
    for n in (100, 1000, 10000):
        m = int(round(n ** (2.0 / 3.0)))
        errs = []
        for rep in range(9):
            fit = szasz_fit(sample(exp2, 555 + rep, n), m)
            errs.append(np.max(np.abs(fit.evaluate(grid) - exp2.cdf(grid))))
        medians.append(np.median(errs))
    assert medians[0] > medians[1] > medians[2]


def test_szasz_density(exp2):
    fit = szasz_fit([1.0], 1)
    xs = np.linspace(0.0, 6.0, 25)
    assert np.allclose(fit.density(xs), np.exp(-xs), atol=1e-12)
    fit = szasz_fit(sample(exp2, 4, 40), 25)
    assert np.all(fit.density(xs) >= 0.0)
    total, _ = integrate.quad(lambda t: float(fit.density(t)), 0.0, 80.0, limit=400)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_bernstein_values():
    fit = bernstein_fit([0.2, 0.5, 0.9], 8)
    assert fit.evaluate(1.0) == 1.0
    assert fit.evaluate(0.0) == 0.0
    single = bernstein_fit([0.5], 1)
    xs = np.linspace(0.0, 1.0, 11)
    assert np.allclose(single.evaluate(xs), xs, atol=1e-14)  # F_n(0)(1-x)+F_n(1)x
    with pytest.raises(ValueError):
        bernstein_fit([0.5, 1.2], 4)
    with pytest.raises(ValueError):
        fit.evaluate(1.5)


def test_bernstein_matches_direct_series(beta33):
    # three routes: the survival-table form the fit uses, the explicit
    # weighted sum sum_k F_n(k/m) b_{k,m}(x), and one incomplete beta
    # I_x(c_i, m - c_i + 1) per observation (c_i = 0 contributes 1);
    # m = 17 < n, 45 > n and 60, 200 >= 2n at n = 30, and m = 5000 >> n = 20
    from scipy.special import betainc
    from scipy.stats import binom

    xs = np.linspace(0.01, 0.99, 23)
    for n, m in ((30, 17), (30, 45), (30, 60), (30, 200), (20, 5000)):
        s = sample(beta33, 21, n)
        fit = bernstein_fit(s, m)
        assert fit.orders.size <= min(n, m + 1)
        k = np.arange(m + 1)
        edf_at_grid = np.searchsorted(s, k / m, side="right") / s.size
        direct = np.array([np.sum(edf_at_grid * binom.pmf(k, m, x)) for x in xs])
        assert np.allclose(fit.evaluate(xs), direct, atol=1e-10)
        c = np.ceil(m * s)[:, None]
        per_observation = np.where(c > 0, betainc(np.maximum(c, 1.0), m - c + 1.0, xs), 1.0)
        assert np.max(np.abs(fit.evaluate(xs) - per_observation.mean(axis=0))) <= 1e-13


def test_kernel_values():
    fit = kernel_fit([1.0], 1.0)
    assert fit.evaluate(1.0) == pytest.approx(0.5, abs=1e-14)
    pair = kernel_fit([0.0, 2.0], 1.0)
    assert pair.evaluate(1.0) == pytest.approx(0.5, abs=1e-14)
    assert pair.evaluate(-40.0) == pytest.approx(0.0, abs=1e-12)
    assert pair.quantile(0.5) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        kernel_fit([1.0], 0.0)


def test_hermite_coefficients():
    fit = hermite_half_fit([0.0], 1)
    assert fit.coef[0] == pytest.approx(math.pi ** (-0.25), abs=1e-14)
    assert fit.coef[1] == 0.0
    shuffled = hermite_half_fit([0.7, 0.1, 2.0], 6)
    ordered = hermite_half_fit([0.1, 0.7, 2.0], 6)
    assert np.allclose(shuffled.coef, ordered.coef, atol=1e-16)


def test_hermite_evaluate_closed_form_and_quadrature(exp2):
    fit = hermite_half_fit([0.0], 0)
    assert fit.evaluate(0.0) == 0.0
    # a_hat_0 * I_0(1) with I_0(1) = pi^(-1/4) sqrt(2 pi) (Phi(1) - 1/2)
    expected = math.pi ** (-0.5) * math.sqrt(2.0 * math.pi) * (ndtr(1.0) - 0.5)
    assert fit.evaluate(1.0) == pytest.approx(expected, abs=1e-12)

    fit = hermite_half_fit(sample(exp2, 8, 25), 12)
    for x in (0.4, 1.3):
        oracle, _ = integrate.quad(
            lambda t: float(np.dot(fit.coef,
                                   np.array([_h_direct(t, k) for k in range(13)]))),
            0.0, x, limit=200)
        assert fit.evaluate(x) == pytest.approx(oracle, abs=1e-8)


def _h_direct(x, k):
    coef = np.zeros(k + 1)
    coef[k] = 1.0
    hk = np.polynomial.hermite.hermval(x, coef)
    return math.exp(-0.5 * x * x) * hk / math.sqrt(2.0**k * math.factorial(k) * math.sqrt(math.pi))


def test_hermite_standardization_identities():
    data = np.array([0.3, 0.9, 2.4])
    xs = np.array([0.2, 1.0, 2.0])
    plain = hermite_half_fit(data, 7)
    ident = hermite_half_standardized_fit(data, 7, 0.0, 1.0)
    assert np.allclose(ident.evaluate(xs), plain.evaluate(xs), atol=1e-15)
    c = 3.7
    scaled = hermite_half_standardized_fit(c * data, 7, 0.0, c)
    assert np.allclose(scaled.evaluate(c * xs), plain.evaluate(xs), atol=1e-13)
    with pytest.raises(ValueError):
        hermite_half_standardized_fit(data, 7, 0.0, 0.0)


def test_hermite_clip_flag(exp2):
    s = sample(exp2, 13, 15)
    raw = hermite_half_fit(s, 3)
    clipped = hermite_half_fit(s, 3, clip=True)
    xs = np.linspace(0.0, 10.0, 101)
    assert np.all(clipped.evaluate(xs) <= 1.0)
    assert np.all(clipped.evaluate(xs) >= 0.0)
    assert np.allclose(clipped.evaluate(xs), np.clip(raw.evaluate(xs), 0.0, 1.0))


def test_quantile_round_trips(exp2):
    s = sample(exp2, 31, 60)
    fits = [szasz_fit(s, 40), kernel_fit(s, 0.08),
            bernstein_fit(np.clip(s, 0.0, 1.0), 25), hermite_half_fit(s, 25)]
    for fit in fits:
        for p in (0.05, 0.25, 0.5, 0.75, 0.95):
            assert abs(fit.evaluate(fit.quantile(p)) - p) <= 1e-8, fit.kind


def test_quantile_domain_and_bracket_errors():
    fit = szasz_fit([1.0], 1)
    with pytest.raises(ValueError):
        fit.quantile(0.0)
    with pytest.raises(ValueError):
        fit.quantile(1.0)
    # a truncated series whose plateau never reaches the level
    stub = hermite_half_fit([0.0], 0)
    with pytest.raises(QuantileBracketError):
        stub.quantile(0.9)


def test_kernel_quantile_widens_the_bracket_downward():
    # the starting lower end X_1 - h already has Fhat = Phi(-1) >= 0.05
    fit = kernel_fit([0.0], 1.0)
    assert fit.evaluate(-1.0) >= 0.05
    assert fit.quantile(0.05) == pytest.approx(ndtri(0.05), abs=1e-9)


def test_bernstein_quantile_at_an_observation_at_zero():
    # the observation at 0 puts mass 1/3 at the domain's lower edge
    fit = bernstein_fit([0.0, 0.5, 0.9], 10)
    assert fit.evaluate(0.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert fit.quantile(0.2) == 0.0
    q = fit.quantile(0.5)
    assert q > 0.0 and abs(fit.evaluate(q) - 0.5) <= 1e-8


def test_szasz_quantile_widens_the_bracket_upward():
    # Fhat(x) = 1 - exp(-x); the starting upper end 2 X_max + 10/m = 12
    # stays below the level
    fit = szasz_fit([1.0], 1)
    p = 0.999999
    assert fit.evaluate(12.0) < p
    assert fit.quantile(p) == pytest.approx(-math.log1p(-p), abs=1e-8)


def test_quantile_search_raises_on_each_side():
    # below: the kernel estimate exceeds the level even at -1e6
    with pytest.raises(QuantileBracketError):
        kernel_fit([-2e6], 1.0).quantile(0.1)

    # above: a curve with a plateau under the level, which no proper CDF
    # of the package has, runs the bracket out to +1e6
    class Plateau(_Fitted):
        sample = np.array([1.0])

        def _cdf(self, flat):
            return 0.5 * (flat > 0.0)

        def quantile(self, p):
            return self._search(p, 0.0, 1.0)

    with pytest.raises(QuantileBracketError):
        Plateau().quantile(0.6)


def _fit_kind(kind, values, k):
    return fit_from_spec({"kind": kind, "m": k, "h": k / 20.0, "N": k}, values)


_EDGE_SAMPLES = st.one_of(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    st.builds(lambda v, n: [v] * n, st.sampled_from([0.0, 0.3, 1.0]), st.integers(1, 5)),
)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(KINDS), unit=_EDGE_SAMPLES, k=st.integers(1, 40),
       p=st.floats(0.01, 0.99), scale=st.sampled_from([1.0, 1e-300, 1e6]))
def test_estimator_properties_on_edge_samples(kind, unit, k, p, scale):
    # n = 1, all-tied and exact-zero samples, through every family, at unit
    # scale, at 1e-300 and at 1e6 (Bernstein data stay in [0, 1])
    if kind == "bernstein":
        scale = min(scale, 1.0)
    values = [v * scale for v in unit]
    fit = _fit_kind(kind, values, k)
    xs = np.linspace(0.0, 1.0, 33) * max(scale, 1.0)
    vals = fit.evaluate(xs)
    assert np.array_equal(vals, _fit_kind(kind, values[::-1], k).evaluate(xs))
    if kind != "hermite_half":  # the truncated series is not a proper CDF
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert np.all(np.diff(vals) >= -1e-14)
    zeros = sum(v == 0.0 for v in values) / len(values)
    if kind in ("edf", "bernstein"):
        assert fit.evaluate(0.0) == zeros
    elif kind != "kernel":  # the Gaussian kernel leaks mass below 0
        assert fit.evaluate(0.0) == 0.0
    try:
        q = fit.quantile(p)
    except QuantileBracketError:
        assert kind == "hermite_half"  # its series may stay below the level
        return
    # q is inf{x: Fhat(x) >= p}, to the bisection's 1e-10
    assert fit.evaluate(q) >= p
    if kind != "hermite_half" and q > 0.0:
        assert fit.evaluate(q - 1e-9) <= p


def test_fit_from_spec(exp2):
    s = sample(exp2, 2, 30)
    assert fit_from_spec({"kind": "edf"}, s).kind == "edf"
    assert fit_from_spec({"kind": "szasz", "m": 9}, s).m == 9
    assert fit_from_spec({"kind": "kernel", "h": 0.1}, s).h == 0.1
    fit = fit_from_spec({"kind": "hermite_half", "N": 4, "standardize": True}, s, exp2)
    assert fit.scale == exp2.sd
    with pytest.raises(ValueError):
        fit_from_spec({"kind": "hermite_half", "N": 4, "standardize": True}, s)
    with pytest.raises(ValueError):
        fit_from_spec({"kind": "nope"}, s)


def test_fits_reject_non_integer_orders_and_infinite_bandwidths():
    # these used to fit m = 2, N = 2 and a constant 0.5 without a word
    x = [0.2, 0.7]
    for fit, bad, message in ((szasz_fit, 2.5, "order m must be a positive integer"),
                              (bernstein_fit, 2.5, "order m must be a positive integer"),
                              (hermite_half_fit, 2.7, "order_max must be an integer"),
                              (kernel_fit, math.inf, "bandwidth must be positive and finite")):
        with pytest.raises(ValueError, match=message):
            fit(x, bad)
    # integral floats and numpy integers are orders
    pts = np.linspace(0.0, 1.0, 9)
    for fit in (szasz_fit, bernstein_fit, hermite_half_fit):
        want = fit(x, 3).evaluate(pts)
        for order in (3.0, np.int64(3), np.float64(3.0)):
            assert np.array_equal(fit(x, order).evaluate(pts), want)
    assert type(szasz_fit(x, 3.0).m) is int and type(hermite_half_fit(x, 3.0).order_max) is int
