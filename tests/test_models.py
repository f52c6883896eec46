import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from smoothcdf import (
    distribution_from_spec,
    make_beta,
    make_exponential,
    make_weibull_mixture,
    sample,
)


def test_exponential_closed_forms(exp2):
    assert exp2.cdf(1.0) == pytest.approx(1.0 - math.exp(-2.0), abs=1e-15)
    assert exp2.quantile(0.5) == pytest.approx(math.log(2.0) / 2.0, abs=1e-15)
    assert exp2.cdf(0.0) == 0.0
    assert exp2.pdf(1.0) == pytest.approx(2.0 * math.exp(-2.0))
    assert exp2.pdf_prime(1.0) == pytest.approx(-4.0 * math.exp(-2.0))
    with pytest.raises(ValueError):
        make_exponential(0.0)


def test_single_component_mixture_is_unit_exponential():
    mix = make_weibull_mixture([[1.0, 1.0, 1.0]])
    assert mix.cdf(1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)
    xs = np.linspace(0.1, 5.0, 20)
    assert np.allclose(mix.pdf(xs), np.exp(-xs), atol=1e-14)


def test_weibull1_mixture_values(weibull1):
    assert weibull1.cdf(0.0) == 0.0
    # component CDFs at x = 1 under the (shape, scale) convention:
    # Weibull(1,1) gives 1 - e^{-1}, Weibull(4,4) gives 1 - e^{-(1/4)^4}
    expected = 0.5 * (1.0 - math.exp(-1.0)) + 0.5 * (1.0 - math.exp(-((1.0 / 4.0) ** 4)))
    assert weibull1.cdf(1.0) == pytest.approx(expected, abs=1e-14)


def test_mixture_weight_validation():
    with pytest.raises(ValueError):
        make_weibull_mixture([[0.5, 1.0, 1.0], [0.4, 4.0, 4.0]])
    with pytest.raises(ValueError):
        make_weibull_mixture(((1.2, 1.0, 1.0), (-0.2, 2.0, 2.0)))


def test_beta_values(beta33):
    assert beta33.cdf(0.4) == pytest.approx(0.31744, abs=1e-10)
    assert beta33.cdf(0.5) == pytest.approx(0.5, abs=1e-12)
    b21 = make_beta(2.0, 1.0)
    assert b21.cdf(0.5) == pytest.approx(0.25, abs=1e-12)  # F(x) = x^2
    with pytest.raises(ValueError):
        make_beta(3.0, 0.0)


def test_survival_function_is_one_minus_cdf_without_cancellation(exp2, beta33, weibull1,
                                                                weibull3):
    xs = np.array([-1.0, 0.0, 0.05, 0.3, 0.7, 1.0, 2.5, 6.0])
    for dist in (exp2, beta33, weibull1, weibull3):
        assert np.allclose(dist.sf(xs), 1.0 - dist.cdf(xs), rtol=0.0, atol=1e-15)
    # where 1 - cdf rounds to 0 the survival function keeps its digits
    assert exp2.sf(20.0) == pytest.approx(math.exp(-40.0), rel=1e-15)
    assert weibull1.sf(30.0) == pytest.approx(0.5 * math.exp(-30.0) + 0.5 * math.exp(-(7.5**4)),
                                              rel=1e-14)
    # Beta(3,3) is symmetric: 1 - F(1 - e) = F(e) = 10 e^3 - 15 e^4 + 6 e^5
    eps = 1.0 - (1.0 - 1e-7)
    assert 1.0 - beta33.cdf(1.0 - eps) == 0.0
    assert beta33.sf(1.0 - eps) == pytest.approx(10 * eps**3 - 15 * eps**4 + 6 * eps**5,
                                                  rel=1e-12)
    assert exp2.sf(-1.0) == beta33.sf(-0.5) == weibull3.sf(0.0) == 1.0


def test_sampling_determinism_and_sorting(weibull3):
    a = sample(weibull3, 12345, 500)
    b = sample(weibull3, 12345, 500)
    assert np.array_equal(a, b)
    assert np.all(np.diff(a) >= 0.0)
    assert not np.array_equal(a, sample(weibull3, 12346, 500))
    with pytest.raises(ValueError):
        sample(weibull3, 1, 0)


def test_sample_means_clt(exp2, beta33):
    s = sample(exp2, 99, 10**6)
    assert abs(s.mean() - 0.5) <= 3.0 * 0.5 / 1000.0
    s = sample(beta33, 99, 10**6)
    assert abs(s.mean() - 0.5) <= 3.0 * beta33.sd / 1000.0


def test_ks_statistic_of_large_samples(exp2, beta33, weibull1, weibull2, weibull3):
    for dist in (exp2, beta33, weibull1, weibull2, weibull3):
        s = sample(dist, 777, 10**5)
        u = np.asarray(dist.cdf(s))
        i = np.arange(1, s.size + 1)
        ks = max(np.max(i / s.size - u), np.max(u - (i - 1) / s.size))
        assert ks <= 0.0052, dist.name


def test_quantile_round_trip(exp2, beta33, weibull1, weibull2, weibull3):
    rng = np.random.Generator(np.random.Philox(key=5))
    p = rng.uniform(1e-4, 1.0 - 1e-4, size=100)
    for dist in (exp2, beta33, weibull1, weibull2, weibull3):
        q = dist.quantile(p)
        assert np.max(np.abs(dist.cdf(q) - p)) <= 1e-8, dist.name


def test_pdf_is_cdf_derivative(exp2, beta33, weibull2, weibull3):
    for dist in (exp2, beta33, weibull2, weibull3):
        grid = dist.quantile(np.linspace(0.05, 0.95, 19))
        h = 1e-5
        numeric = (dist.cdf(grid + h) - dist.cdf(grid - h)) / (2.0 * h)
        assert np.max(np.abs(numeric - dist.pdf(grid))) <= 1e-6, dist.name


def test_pdf_prime_is_pdf_derivative(exp2, beta33, weibull1, weibull3):
    for dist in (exp2, beta33, weibull1, weibull3):
        grid = dist.quantile(np.linspace(0.05, 0.95, 19))
        h = 1e-5
        numeric = (dist.pdf(grid + h) - dist.pdf(grid - h)) / (2.0 * h)
        assert np.max(np.abs(numeric - dist.pdf_prime(grid))) <= 1e-5, dist.name


def test_mixture_pdf_integrates_to_one(weibull1, weibull2, weibull3):
    for dist in (weibull1, weibull2, weibull3):
        total, _ = integrate.quad(dist.pdf, 0.0, float(dist.quantile(1.0 - 1e-14)),
                                  limit=300)
        assert total == pytest.approx(1.0, abs=1e-8)


def test_distribution_from_spec_round_trip(exp2, weibull1, beta33):
    d = distribution_from_spec({"kind": "exponential", "rate": 2})
    assert d.cdf(1.0) == exp2.cdf(1.0)
    # each spec builds its own model: the fixture's cdf and quantile, bit for bit
    xs, ps = np.array([0.1, 0.4, 0.7, 2.5]), np.array([0.05, 0.5, 0.95])
    for spec, fixture in [
            ({"kind": "weibull_mixture", "components": [[0.5, 1, 1], [0.5, 4, 4]]}, weibull1),
            ({"kind": "beta", "alpha": 3, "beta": 3}, beta33)]:
        d = distribution_from_spec(spec)
        assert d.cdf(xs).tobytes() == fixture.cdf(xs).tobytes()
        assert d.quantile(ps).tobytes() == fixture.quantile(ps).tobytes()
    with pytest.raises(ValueError):
        distribution_from_spec({"kind": "cauchy"})


@pytest.mark.parametrize("spec, message", [
    ({"kind": "beta", "alpha": 3}, "^beta spec is missing 'beta'$"),
    ({"kind": "exponential"}, "^exponential spec is missing 'rate'$"),
    ({"kind": "weibull_mixture"}, "^weibull_mixture spec is missing 'components'$"),
    ({"kind": "exponential", "rate": 2, "scale": 1}, "^unknown exponential spec keys: 'scale'$"),
    ({"kind": "beta", "alpha": 3, "beta": 3, "b": 1, "a": 2},
     "^unknown beta spec keys: 'a', 'b'$"),
    ({"kind": ["beta"]}, "^unknown distribution kind"),
])
def test_distribution_spec_takes_exactly_its_keys(spec, message):
    # a missing key was a KeyError, and an unknown one was ignored
    with pytest.raises(ValueError, match=message):
        distribution_from_spec(spec)


def test_moments_match_samples(weibull1, weibull3):
    for dist in (weibull1, weibull3):
        s = sample(dist, 4242, 10**6)
        assert abs(s.mean() - dist.mean) <= 4.0 * dist.sd / 1000.0
        assert abs(s.std() - dist.sd) <= 0.01 * dist.sd


def test_mixture_quantile_at_one_leaves_the_other_levels_alone(weibull3):
    # a level of 1 brackets at [inf, inf]; the stop test leaves it out, so
    # the other levels take the steps, and get the bits, they take without it
    p = np.linspace(0.001, 0.999, 512)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = weibull3.quantile(p)
        with_one = weibull3.quantile(np.append(p, 1.0))
        assert weibull3.quantile(1.0) == math.inf
    assert with_one[:-1].tobytes() == alone.tobytes()
    assert with_one[-1] == math.inf
