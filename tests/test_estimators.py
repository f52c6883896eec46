import dataclasses
import json
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import gammainc, ndtr, ndtri

from smoothcdf import (
    QuantileBracketError,
    bernstein_fit,
    edf_fit,
    estimators,
    fit_from_spec,
    hermite_half_fit,
    hermite_half_standardized_fit,
    kernel_fit,
    sample,
    szasz_fit,
    szasz_exact_moments,
)
from smoothcdf import simulation
from smoothcdf.cli import main
from smoothcdf.estimators import (
    KINDS,
    HermiteHalfEstimator,
    SzaszEstimator,
    _bisect_increasing,
    _Fitted,
    evaluate_rows,
)
from smoothcdf.special import hermite_values, poisson_log_pmf


def test_edf_basic():
    fit = edf_fit([1.0, 2.0, 3.0])
    assert fit.evaluate(2.0) == pytest.approx(2.0 / 3.0)
    assert fit.evaluate(0.5) == 0.0
    assert fit.evaluate(10.0) == 1.0
    assert fit.quantile(0.5) == 2.0


def test_edf_quantile_is_the_smallest_order_statistic_reaching_the_level():
    # the slack of ceil(n p - 1e-9) used to give index -1 (the maximum) at a
    # tiny level and to drop one order statistic just above k / n
    fit = edf_fit([4.0, 2.0, 1.0, 3.0])
    assert fit.quantile(1e-12) == 1.0
    assert fit.quantile(0.25) == 1.0
    assert fit.quantile(0.2500000000001) == 2.0
    assert fit.quantile(0.75) == 3.0
    assert fit.quantile(1.0 - 1e-16) == 4.0
    # 25 * (7 / 25) rounds up to 7.000000000000001, whose ceiling is one too high
    assert edf_fit(np.arange(1.0, 26.0)).quantile(7 / 25) == 7.0
    # 3 times the float after 1 / 3 rounds down to 1.0, whose ceiling is one too low
    assert edf_fit([1.0, 2.0, 3.0]).quantile(math.nextafter(1 / 3, 1.0)) == 2.0


@settings(max_examples=200, deadline=None)
@given(values=st.one_of(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60),
                        st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=1, max_size=60)),
       p=st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                   st.builds(lambda k, n: k / n, st.integers(1, 59), st.integers(60, 60))))
def test_edf_quantile_round_trips_exactly(values, p):
    # F_n(q) >= p > F_n(the largest observation below q), as evaluate reads F_n
    fit = edf_fit(values)
    q = fit.quantile(p)
    below = fit.sample[fit.sample < q]
    assert fit.evaluate(q) >= p
    assert below.size == 0 or fit.evaluate(below[-1]) < p


def test_sample_order_invariance():
    fwd, rev = [0.1, 0.4, 0.9], [0.9, 0.4, 0.1]
    xs = np.linspace(0.0, 1.0, 17)
    assert np.array_equal(edf_fit(fwd).evaluate(xs), edf_fit(rev).evaluate(xs))
    assert np.array_equal(kernel_fit(fwd, 0.2).evaluate(xs),
                          kernel_fit(rev, 0.2).evaluate(xs))
    assert np.array_equal(bernstein_fit(fwd, 6).evaluate(xs),
                          bernstein_fit(rev, 6).evaluate(xs))


def _shapes(fit):
    # c_i = max(1, ceil(m X_i)), one per observation
    return np.repeat(fit.orders, fit.counts)


def test_szasz_fit_precomputed_orders():
    assert list(_shapes(szasz_fit([1.0], 1))) == [1]
    assert list(_shapes(szasz_fit([0.25, 0.75], 4))) == [1, 3]
    assert list(_shapes(szasz_fit([0.5], 2))) == [1]
    # observation at zero resolves to the smallest well-defined order
    assert list(_shapes(szasz_fit([0.0], 10))) == [1]
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
    assert _shapes(szasz_fit([2.0 ** 52], 1))[0] == 2 ** 52


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
        assert np.array_equal(_shapes(fit), ref._shapes()[:, 0])
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


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.floats(0.0, 8.0, exclude_min=True), min_size=1, max_size=30),
       m=st.integers(1, 100), x=st.floats(0.0, 6.0))
def test_szasz_finite_form_equals_the_series_form(values, m, x):
    # Fhat(x) = sum_k V_k(m x) F_n(k / m), the paper's operator, with the
    # Poisson weights V_k from poisson_log_pmf and the sum cut where the tail
    # is below 1e-30.  Observations are positive: the fit gives one at
    # exactly 0 the order 1, where F_n(0) would count it; m x <= 600 keeps
    # the weights' |k log z| eps error under the bound
    fit = szasz_fit(values, m)
    z = m * x
    k = np.arange(math.ceil(z + 12.0 * math.sqrt(z) + 40.0) + 1, dtype=float)
    edf_at_grid = np.searchsorted(fit.sample, k / m, side="right") / fit.n
    series = float(np.sum(edf_at_grid * np.exp(poisson_log_pmf(k, z))))
    assert abs(fit.evaluate(x) - series) <= 1e-12


def test_szasz_expectation_identity(exp2):
    # mean of the estimator over independent samples is the smoothing
    # operator applied to the true CDF
    m, n, x = 20, 25, 1.0
    reps = 2000
    vals = np.empty(reps)
    for i in range(reps):
        vals[i] = szasz_fit(sample(exp2, 10_000 + i, n), m).evaluate(x)
    target = szasz_exact_moments(exp2, m, n, x).s_m
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


def test_hermite_coefficients_at_huge_observations():
    # every h_k is 0 past x = 40, so a far observation adds 0 to each sum,
    # with no overflow warning (an error under the suite's filter) and no
    # inf * 0 = NaN in the recurrence
    half = hermite_values([0.5], 3)[:, 0] / 2
    for x in (41.0, 1e200, 1.5e308):
        assert hermite_half_fit([0.5, x], 3).coef.tobytes() == half.tobytes()
        assert evaluate_rows({"kind": "hermite_half", "N": 3}, [[0.5, x]], 1.0)[0] == \
            hermite_half_fit([0.5], 3).evaluate(1.0) / 2
    # X / sigma overflows in the divide itself
    assert not hermite_half_standardized_fit([0.5, 1e10], 3, None, 1e-300).coef.any()


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
    for sigma in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            hermite_half_standardized_fit(data, 7, 0.0, sigma)
        spec = {"kind": "hermite_half", "N": 7, "standardize": True, "sigma": sigma}
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            fit_from_spec(spec, data)
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            evaluate_rows(spec, data[None, :], 1.0)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 30).flatmap(lambda n: st.lists(
           st.lists(st.floats(0.0, 20.0), min_size=n, max_size=n), min_size=1, max_size=3)),
       order_max=st.integers(0, 40), scale=st.floats(0.05, 20.0),
       xs=st.lists(st.floats(0.0, 60.0), min_size=1, max_size=70))
def test_hermite_value_at_a_point_does_not_depend_on_the_batch(rows, order_max, scale, xs):
    # the quantile bisection evaluates 63 midpoints per call and must walk as
    # one midpoint per call would; evaluate_rows must equal the fits
    samples = np.sort(np.array(rows), axis=1)
    fits = [hermite_half_standardized_fit(row, order_max, None, scale) for row in samples]
    xs = np.array(xs)
    batch = fits[0].evaluate(xs)
    assert _bits(batch) == _bits([fits[0].evaluate(x) for x in xs])
    spec = {"kind": "hermite_half", "N": order_max, "standardize": True, "sigma": scale}
    for x in xs[:3]:
        assert _bits(evaluate_rows(spec, samples, x)) == _bits([f.evaluate(x) for f in fits])


_ELEMENTWISE = {
    "cubic": lambda x: np.asarray(x) ** 3,
    "tanh": np.tanh,
    "staircase": lambda x: np.floor(7.0 * np.asarray(x)),
    "sine": lambda x: np.sin(13.0 * np.asarray(x)),
    "sawtooth": lambda x: np.mod(5.0 * np.asarray(x), 1.0),
}


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(_ELEMENTWISE)), lo=st.floats(-1e3, 1e3),
       width=st.one_of(st.floats(0.0, 2e-10), st.floats(0.0, 1e4)), p=st.floats(-2.0, 2.0),
       tol=st.sampled_from([1e-10, 1e-4, 0.0]))
def test_bisection_levels_do_not_change_the_answer(name, lo, width, p, tol):
    # monotone or not, the six-level walk halves as the one-level loop does;
    # brackets within tol return at once, and tol = 0 runs to the 200-step cap
    f, hi = _ELEMENTWISE[name], lo + width
    want = _bisect_increasing(f, p, lo, hi, tol)
    got = _bisect_increasing(f, p, lo, hi, tol, levels=6)
    assert float(got).hex() == float(want).hex()


def test_bisection_walks_six_levels_per_call():
    # [0, 1] to within 1e-10 takes 34 halvings: 34 calls of one midpoint, or
    # 6 calls of 63, the last walking 4 of its 6 levels
    sizes = {}
    for levels in (1, 6):
        calls = []
        _bisect_increasing(lambda x: calls.append(len(x)) or np.asarray(x), 0.3, 0.0, 1.0,
                           levels=levels)
        sizes[levels] = calls
    assert sizes[1] == [1] * 34
    assert sizes[6] == [63] * 6


def test_hermite_scan_is_evaluated_once_outside_the_fields(monkeypatch, weibull1):
    fit = hermite_half_standardized_fit(sample(weibull1, 5, 400), 20, None, weibull1.sd)
    fresh, text, values = dataclasses.replace(fit), repr(fit), fit.sample.copy()
    sizes = []
    evaluate = HermiteHalfEstimator.evaluate
    monkeypatch.setattr(HermiteHalfEstimator, "evaluate",
                        lambda self, x: sizes.append(np.size(x)) or evaluate(self, x))
    got = [fit.quantile(i / 20.0) for i in range(1, 20)]
    # recorded from the search that bisected one midpoint per evaluate
    assert got == [
        0.18613878478743617, 0.3376631687903263, 0.4780344693524523, 0.6191009945441094,
        0.7723898312735011, 0.9579321820826167, 1.2368123109502236, 1.7529658428102204,
        2.1247073106677017, 2.397503034967004, 2.6616542653648385, 2.9611333876351464,
        3.300665883621234, 3.6073836803295767, 3.8622795525486158, 4.094357402119588,
        4.333538149345504, 4.628269632933577, 5.409836881849468]
    assert sizes.count(4097) == 1 and set(sizes) == {4097, 63}
    assert fit == fresh and repr(fit) == text and np.array_equal(fit.sample, values)
    assert "_scan" not in {f.name for f in dataclasses.fields(fit)}
    for array in fit._scan:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def test_hermite_quantile_past_the_first_scan_range():
    # the truncated series crosses 0.765 only beyond 2 X_max + 10 = 11.6, so
    # the search doubles its range; 0.9 it never reaches
    fit = hermite_half_fit([0.0, 0.0, 0.5, 0.8], 64)
    assert np.max(fit._scan[1]) < 0.765
    for _ in range(2):  # the cached scan leaves both answers as they were
        # recorded from the search that bisected one midpoint per evaluate
        assert fit.quantile(0.765) == 11.823700548135093
        with pytest.raises(QuantileBracketError, match="below x = 1e"):
            fit.quantile(0.9)


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


def _own_spec(kind, k):
    # each kind's spec with its own parameter only: m = k, h = k / 20 or N = k
    own = {"szasz": {"m": k}, "bernstein": {"m": k}, "kernel": {"h": k / 20.0},
           "hermite_half": {"N": k}}
    return {"kind": kind, **own.get(kind, {})}


def _fit_kind(kind, values, k):
    return fit_from_spec(_own_spec(kind, k), values)


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
    # q is inf{x: Fhat(x) >= p}, to the search's 1e-10 + 4 eps |q|
    assert fit.evaluate(q) >= p
    if kind != "hermite_half" and q > 0.0:
        assert fit.evaluate(q - 1e-9) <= p


def _quantile_or_error(fit, p):
    try:
        return float(fit.quantile(p)).hex()
    except QuantileBracketError:
        return "QuantileBracketError"


_EPS = np.finfo(float).eps


def _quantile_and_evaluations(fit, p):
    # fit.quantile(p), or "QuantileBracketError", and the one-point values
    # evaluate returned during the search
    seen = {}
    evaluate = type(fit).evaluate
    with mock.patch.object(type(fit), "evaluate",
                           lambda self, x: seen.setdefault(float(x), evaluate(self, x))):
        return _quantile_or_error(fit, p), seen


def _meets_the_quantile_contract(fit, p, q, seen):
    # Fhat(q) >= p, and unless q is the domain's lower edge an evaluated point
    # no more than 1e-10 + 4 eps |q| below q has Fhat < p
    q = float.fromhex(q)
    below = [x for x, v in seen.items() if x < q and v < p]
    return seen[q] >= p and (q == fit._lower or q - max(below) <= 1e-10 + 4 * _EPS * abs(q))



@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["szasz", "kernel", "bernstein"]),
       unit=st.one_of(_EDGE_SAMPLES, st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60)),
       m=st.integers(1, 500), h=st.floats(1e-3, 5.0),
       p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       scale=st.sampled_from([1.0, 1e-300, 1e6]))
@example(kind="szasz", unit=[0.0], m=1, h=1.0, p=0.5, scale=1.0)
@example(kind="kernel", unit=[0.0], m=1, h=1.0, p=0.01, scale=1.0)
def test_quantile_meets_its_tolerance_contract(kind, unit, m, h, p, scale):
    # n = 1, ties, exact zeros and random samples at three scales (Bernstein
    # data stay in [0, 1]); a level that is never reached raises, and only
    # where the bracket's end is short of it.  At the two examples Brent's
    # method evaluates a point whose value is exactly p
    values = [v * (min(scale, 1.0) if kind == "bernstein" else scale) for v in unit]
    fit = fit_from_spec({"kind": kind, "h": h} if kind == "kernel" else {"kind": kind, "m": m},
                        values)
    q, seen = _quantile_and_evaluations(fit, p)
    if q == "QuantileBracketError":
        assert min(seen) == -1e6 and seen[-1e6] >= p or seen[max(seen)] < p
    else:
        assert _meets_the_quantile_contract(fit, p, q, seen)


def test_certified_quantiles_keep_their_recorded_values(weibull1, beta33):
    fits = [szasz_fit(sample(weibull1, 5, 400), 60), kernel_fit(sample(weibull1, 5, 400), 0.2),
            bernstein_fit(sample(beta33, 5, 400), 40)]
    got = [[fit.quantile(i / 20.0) for i in range(1, 20)] for fit in fits]
    # recorded from the search that bisected one midpoint per evaluate; both
    # searches stop within their tolerance above the same crossing
    want = [
        [0.12443553481756621, 0.23546330151808, 0.3631344352688374, 0.491673194676842,
         0.6212190389084058, 0.8092310769202092, 1.0328939050206714, 1.4418244263716748,
         1.853386469374119, 2.1505071696910183, 2.471266689673909, 2.7686655242423517,
         3.080908664103291, 3.377566994107762, 3.6500589407344375, 3.9161059793981288,
         4.1694428984569285, 4.443448904378606, 4.8336915576234585],
        [0.07278607156187328, 0.2305247828841095, 0.3652649680949557, 0.4995567590361184,
         0.6466613035719204, 0.8229195396735809, 1.056276507600377, 1.443560621330895,
         1.8483412097007499, 2.1512776223531622, 2.469499868718092, 2.765481192004103,
         3.082203996705637, 3.380085847744737, 3.6497880552794753, 3.9212283257751324,
         4.165543921405551, 4.424945369027349, 4.800566142758935],
        [0.16958007821813226, 0.2237402648315765, 0.26658823515754193, 0.3052386950002983,
         0.34120147832436487, 0.37490876589436084, 0.40679978585103527, 0.4374192780815065,
         0.46729916107142344, 0.49689181422581896, 0.5265674616675824, 0.5566449165344238,
         0.5874355674604885, 0.6192962171626277, 0.652712071838323, 0.6884717090288177,
         0.728063631511759, 0.7746444224612787, 0.8363381584640592]]
    for row, recorded in zip(got, want):
        for q, r in zip(row, recorded):
            assert abs(q - r) <= 1e-10 + 4 * _EPS * abs(r)


def _mp_cdf(fit, x):
    # the fit's estimate at x in 50-digit arithmetic: the regularized
    # incomplete gamma, normal and incomplete beta forms of its family
    import mpmath
    x = mpmath.mpf(x)
    if fit.kind == "szasz":
        terms = [(mpmath.gammainc(int(c), 0, fit.m * x, regularized=True), k)
                 for c, k in zip(fit.orders, fit.counts)]
    elif fit.kind == "bernstein":
        terms = [(mpmath.betainc(int(c), fit.m - int(c) + 1, 0, x, regularized=True)
                  if c > 0 else mpmath.mpf(1), k) for c, k in zip(fit.orders, fit.counts)]
    else:
        terms = [(mpmath.ncdf((x - mpmath.mpf(v)) / mpmath.mpf(fit.h)), 1) for v in fit.sample]
    return mpmath.fsum(v * int(k) for v, k in terms) / fit.n


def _mp_crossing(fit, level, lo, hi):
    # a bracket [a, b] no wider than 1e-12 with F(a) < level <= F(b), F the
    # 50-digit estimate, by bisection from F(lo) < level <= F(hi)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if _mp_cdf(fit, mid) >= level:
            hi = mid
        else:
            lo = mid
    return lo, hi


_FLOAT_ERROR = 1e-13  # a bound on |Fhat - the 50-digit estimate| of these fits


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["szasz", "kernel", "bernstein"]),
       unit=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
       m=st.integers(1, 100), h=st.floats(0.01, 1.0), p=st.floats(0.001, 0.999))
def test_quantile_agrees_with_a_50_digit_bisection(kind, unit, m, h, p):
    # an independent reference: the crossing of the 50-digit estimate,
    # bisected.  The fit's float values are off by at most _FLOAT_ERROR, so
    # its answer lies between the crossings of p - _FLOAT_ERROR and
    # p + _FLOAT_ERROR, the second widened by the contract's tolerance; the
    # float error is checked at the answer, and the reference brackets add
    # at most 1e-12
    mpmath = pytest.importorskip("mpmath")
    values = [v * (1.0 if kind == "bernstein" else 3.0) for v in unit]
    fit = fit_from_spec({"kind": kind, "h": h} if kind == "kernel" else {"kind": kind, "m": m},
                        values)
    q = fit.quantile(p)
    lo, hi = ((0.0, 1.0) if kind == "bernstein" else
              (0.0, 100.0) if kind == "szasz" else (min(values) - 40 * h, max(values) + 40 * h))
    with mpmath.workdps(50):
        assert abs(_mp_cdf(fit, q) - fit.evaluate(q)) <= _FLOAT_ERROR
        low, _ = _mp_crossing(fit, p - _FLOAT_ERROR, lo, hi)
        _, high = _mp_crossing(fit, p + _FLOAT_ERROR, lo, hi)
    assert low <= q <= high + 1e-10 + 4 * _EPS * abs(q)



def test_szasz_quantile_takes_at_most_20_evaluations_per_level(monkeypatch, weibull1):
    # n = 1000, m = 100 as in the fit-query benchmark: the first level also
    # evaluates the bracket ends, which every level shares, and Brent's
    # method then takes about 9 one-point calls a level
    values = sample(weibull1, 0, 1000)
    fit = szasz_fit(values, 100)
    levels = [i / 20.0 for i in range(1, 20)]
    sizes = []
    evaluate = SzaszEstimator.evaluate
    monkeypatch.setattr(SzaszEstimator, "evaluate",
                        lambda self, x: sizes.append(np.size(x)) or evaluate(self, x))
    per_level = []
    for p in levels:
        fit.quantile(p)
        per_level.append(len(sizes))
        assert set(sizes) == {1}
        sizes[:] = []
    assert max(per_level) <= 20
    assert sum(per_level) <= 10 * len(levels)


_SHARED_TABLE_FITS = {
    "szasz": lambda unit, k: szasz_fit([3.0 * v for v in unit], k),
    "kernel": lambda unit, k: kernel_fit([3.0 * v for v in unit], k / 100.0),
    "bernstein": lambda unit, k: bernstein_fit(unit, k),
}


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(_SHARED_TABLE_FITS)),
       unit=st.one_of(_EDGE_SAMPLES, st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60)),
       k=st.integers(1, 300),
       levels=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                       min_size=1, max_size=12).flatmap(
           lambda ps: st.permutations(ps + ps[: len(ps) // 2])))
def test_levels_on_one_fit_equal_a_fresh_fit_bitwise(kind, unit, k, levels):
    # levels in any order, with repeats, all sharing one fit's table of
    # bracket points: each answer has the bits of a fit that has answered
    # nothing before
    make = _SHARED_TABLE_FITS[kind]
    fit = make(unit, k)
    assert [_quantile_or_error(fit, p) for p in levels] == [
        _quantile_or_error(make(unit, k), p) for p in levels]


def test_levels_asked_from_two_threads_equal_the_serial_answers(weibull1, beta33):
    # one shared fit per family, its levels asked from two threads at once
    # under a short switch interval, against the serial answers of a fresh
    # fit; a table entry written under another point would move an answer
    levels = [i / 40.0 for i in range(1, 40)] * 2
    makers = [lambda: szasz_fit(sample(weibull1, 3, 500), 80),
              lambda: kernel_fit(sample(weibull1, 3, 500), 0.1),
              lambda: bernstein_fit(sample(beta33, 3, 500), 60)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for make in makers:
            fresh = make()
            serial = [fresh.quantile(p) for p in levels]
            shared = make()
            with ThreadPoolExecutor(max_workers=2) as pool:
                assert list(pool.map(shared.quantile, levels, timeout=120)) == serial
            assert shared._known == fresh._known
    finally:
        sys.setswitchinterval(interval)


def test_table_of_known_values_holds_only_bracket_points(weibull1):
    # 400 levels on one fit: the table keeps the two starting bracket ends
    # and the one doubling downward that the lowest levels need, nothing of
    # Brent's method, and asking the levels again leaves it and the answers
    # as they were
    values = sample(weibull1, 1, 300)
    fit = kernel_fit(values, 0.2)
    levels = [(i + 0.5) / 400.0 for i in range(400)]
    got = [fit.quantile(p) for p in levels]
    lo, hi = values.min() - 0.2, 2.0 * values.max() + 10.0 * 0.2
    assert sorted(fit._known) == [hi - 2.0 * (hi - lo), lo, hi]
    table = dict(fit._known)
    assert [fit.quantile(p) for p in levels] == got
    assert fit._known == table


def test_a_quantile_search_that_does_not_converge_raises(monkeypatch, weibull1):
    # Brent's method cut to three iterations: the search raises rather than
    # return an answer outside its tolerance
    monkeypatch.setattr(estimators.optimize, "brentq",
                        partial(estimators.optimize.brentq, maxiter=3))
    with pytest.raises(RuntimeError, match="converge"):
        kernel_fit(sample(weibull1, 1, 50), 0.2).quantile(0.5)


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
    with pytest.raises(ValueError, match="unknown hermite_half spec keys: 'bogus', 'clip'"):
        fit_from_spec({"kind": "hermite_half", "N": 3, "clip": True, "bogus": 1}, s)


def test_spec_missing_its_parameter_names_it():
    # a KeyError("'m'") from the spec lookup before
    s = [0.2, 0.7]
    for kind, key in (("szasz", "m"), ("bernstein", "m"), ("kernel", "h"), ("hermite_half", "N")):
        with pytest.raises(ValueError, match=f"^{kind} spec is missing '{key}'$"):
            fit_from_spec({"kind": kind}, s)
        with pytest.raises(ValueError, match=f"^{kind} spec is missing '{key}'$"):
            evaluate_rows({"kind": kind}, np.array([s]), 0.5)


def test_standardize_must_be_a_bool():
    # "false" is truthy and used to standardize
    s = [0.2, 0.7]
    for value in ("false", 1, None):
        spec = {"kind": "hermite_half", "N": 3, "standardize": value, "sigma": 2.0}
        with pytest.raises(ValueError, match="^standardize must be true or false$"):
            fit_from_spec(spec, s)
    with pytest.raises(ValueError, match="'sigma' only with 'standardize': true"):
        fit_from_spec({"kind": "hermite_half", "N": 3, "standardize": False, "sigma": 2.0}, s)
    plain = fit_from_spec({"kind": "hermite_half", "N": 3, "standardize": False}, s)
    assert plain.scale == 1.0


# each spec key with a value and the estimate flags that set it
_KEY_VALUES = {"m": (3, ["--m", "3"]), "h": (0.1, ["--h", "0.1"]), "N": (3, ["--N", "3"]),
               "standardize": (True, ["--standardize"]), "sigma": (2.0, ["--sigma", "2"])}


@pytest.mark.parametrize("kind, key", [
    (kind, key) for kind in KINDS for key in _KEY_VALUES
    if key not in _own_spec(kind, 3) and (kind, key) != ("hermite_half", "standardize")])
def test_each_kind_rejects_every_key_it_does_not_read(tmp_path, capsys, beta33, kind, key):
    # they were dropped without a word: {"kind": "edf", "m": 3} fitted an EDF,
    # and a hermite_half sigma without standardize: true fitted at scale 1
    value, flags = _KEY_VALUES[key]
    spec = {**_own_spec(kind, 3), key: value}
    x = [0.2, 0.5, 0.7]
    for call in (lambda: fit_from_spec(spec, x),
                 lambda: evaluate_rows(spec, np.array([x]), 0.4, beta33)):
        with pytest.raises(ValueError, match=f"'{key}'"):
            call()
    # the normality experiment rejects the spec before it draws
    kept = simulation.samples_matrix(beta33, 1, 5, 40)
    with pytest.raises(ValueError, match=f"'{key}'"):
        simulation.normality_experiment(beta33, spec, 0.4, 60, 20, master_seed=2)
    assert simulation._last_draw[3] is kept
    sample = tmp_path / "s.txt"
    sample.write_text("0.2\n0.5\n0.7\n", encoding="utf-8")
    own = [f"--{k}={v}" for k, v in _own_spec(kind, 3).items() if k != "kind"]
    out = tmp_path / "out"
    assert main(["estimate", "--sample", str(sample), "--kind", kind, *own, *flags,
                 "--points", "0.4", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("smoothcdf: ") and err.count("\n") == 1 and f"'{key}'" in err, err
    assert not out.exists()


@pytest.mark.parametrize("family", [kind for kind in KINDS if kind != "hermite_half"])
def test_only_hermite_sweeps_take_standardize(tmp_path, capsys, exp2, family):
    # a szasz sweep with standardize: true swept plain Szasz
    message = f"standardize applies to hermite_half, not {family}"
    with pytest.raises(ValueError, match=message):
        simulation.ExperimentConfig(exp2, family, (2, 3), n=10, M=5, standardize=True)
    assert simulation.ExperimentConfig(exp2, family, (2, 3), n=10, M=5).standardize is False
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"dist": {"kind": "exponential", "rate": 2},
                                  "estimator_family": family, "param_grid": [2, 3], "n": 10,
                                  "M": 5, "standardize": True}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config), "--workers", "1", "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"smoothcdf: {message}\n"
    assert not out.exists()


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


def test_nan_evaluation_points_are_rejected_by_every_family():
    # they used to give 1.0 (EDF), NaN (Szasz, kernel, Bernstein) or a
    # RuntimeWarning (Hermite); an infinite point gave NaN (Hermite, Szasz
    # density) or a limit of the curve
    x = [0.2, 0.7]
    for bad, message in ((math.nan, "must not be NaN"), (math.inf, "must be finite"),
                         (-math.inf, "must be finite")):
        for kind in KINDS:
            fit = _fit_kind(kind, x, 3)
            for points in (bad, [0.5, bad], np.array([[0.1], [bad]])):
                with pytest.raises(ValueError, match=message):
                    fit.evaluate(points)
            with pytest.raises(ValueError, match=message):
                evaluate_rows(_own_spec(kind, 3), np.array([x]), bad)
        with pytest.raises(ValueError, match=message):
            szasz_fit(x, 5).density(bad)
    # the domain messages are unchanged
    with pytest.raises(ValueError, match=r"must be >= 0"):
        szasz_fit(x, 3).evaluate(-0.5)
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        bernstein_fit(x, 3).evaluate([0.5, 1.5])
    # large finite points are inside every open domain and give each family's
    # limit there, with no NaN and no overflow warning: m x, (x - X_i) / h and
    # the Hermite x * x overflow at 1e308, and a Hermite x / sigma past
    # 1.27e308 gave NaN
    for kind in KINDS:
        fit = _fit_kind(kind, x, 3)
        lower, upper = fit._lower, fit._upper
        for big in (b for b in (-1e308, 1e308) if lower <= b <= upper):
            value = fit.evaluate(big)
            limit = fit.evaluate(100.0) if kind == "hermite_half" else float(big > 0.0)
            assert value == limit, (kind, big, value)
            assert evaluate_rows(_own_spec(kind, 3), np.array([x, x]), big).tolist() == [limit] * 2
    standardized = hermite_half_standardized_fit(x, 3, None, 0.5)
    assert standardized.evaluate([1e308, 1.7e308]).tolist() == [standardized.evaluate(100.0)] * 2
    for m in (1, 3):
        assert szasz_fit(x, m).density([1e308, 1.5, 1e308]).tolist()[::2] == [0.0, 0.0]


def test_kernel_evaluate_and_szasz_density_memory_is_bounded(weibull1):
    # both used to hold n x points doubles at once: 40.1 MB (kernel) and
    # 43.6 MB (Szasz density) at n = 5000 and 1000 points.  In chunks of
    # points, as the Szasz evaluate is, each stays near 2 MB
    s = sample(weibull1, 1, 5000)
    x = np.linspace(0.01, 10.0, 1000)
    for call in (kernel_fit(s, 0.1).evaluate, szasz_fit(s, 1000).density):
        tracemalloc.start()
        try:
            call(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, (call, peak)
