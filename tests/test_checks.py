import math
import re

import numpy as np
import pytest

from smoothcdf import (
    L_m,
    R_j,
    R_tilde_1,
    deficiency_asymptotic,
    make_beta,
    make_exponential,
    make_weibull_mixture,
    mise_constants,
    mse_asymptotic,
    normality_experiment,
    pointwise_coeffs,
    szasz_exact_moments,
    weighted_L_integral,
)
from smoothcdf._checks import integer, nonnegative, positive
from smoothcdf.simulation import ExperimentConfig


def test_integer_takes_integral_values_of_any_number_type():
    for value in (2.0, np.int64(3), np.float64(3.0), 3):
        assert integer("n", value) == int(value)
        assert type(integer("n", value)) is int
    assert integer("order_max", 0, lo=0) == 0
    assert integer("quadrature_nodes", 2, lo=2) == 2


@pytest.mark.parametrize("value", [2.5, math.nan, math.inf, -math.inf, 0, -1, None, "x"])
def test_integer_rejects_fractions_non_finite_values_and_values_below_lo(value):
    with pytest.raises(ValueError, match="^n must be a positive integer$"):
        integer("n", value)
    with pytest.raises(ValueError, match="^order_max must be an integer >= 0$"):
        integer("order_max", -1 if value == 0 else value, lo=0)
    with pytest.raises(ValueError, match="^quadrature_nodes must be an integer >= 2$"):
        integer("quadrature_nodes", 1, lo=2)


def test_positive_and_nonnegative_reject_nan_and_infinities():
    assert positive("h", np.float64(0.5)) == 0.5 and nonnegative("a", 0) == 0.0
    for value in (0.0, -1.0, math.nan, math.inf, -math.inf, None):
        with pytest.raises(ValueError, match="^h must be positive and finite$"):
            positive("h", value)
    for value in (-1.0, math.nan, math.inf, -math.inf, None):
        with pytest.raises(ValueError, match="^a must be >= 0 and finite$"):
            nonnegative("a", value)


_NAN, _INF = math.nan, math.inf


@pytest.mark.parametrize("name, call", [
    ("rate", lambda d: make_exponential(_NAN)),
    ("rate", lambda d: make_exponential(_INF)),
    ("alpha", lambda d: make_beta(_NAN, 3)),
    ("mixture weight", lambda d: make_weibull_mixture([[_NAN, 1, 1]])),
    ("Weibull scale", lambda d: make_weibull_mixture([[1, 1, _INF]])),
    ("x", lambda d: pointwise_coeffs(d, _NAN)),
    ("x", lambda d: pointwise_coeffs(d, _INF)),
    ("a", lambda d: mise_constants(d, _NAN)),
    ("a", lambda d: mise_constants(d, _INF)),
    ("c", lambda d: deficiency_asymptotic(mise_constants(d, 1.0), 100, "global", "b", c=_NAN)),
    ("order m", lambda d: mse_asymptotic(pointwise_coeffs(d, 1.0), 2.5, 10)),
    ("n", lambda d: ExperimentConfig(d, "szasz", (2, 3), n=2.5, M=5)),
    ("M", lambda d: ExperimentConfig(d, "szasz", (2, 3), n=10, M=_NAN)),
    ("n", lambda d: normality_experiment(d, {"kind": "edf"}, 0.4, 2.5, 20, 0)),
    ("x", lambda d: L_m(10, _NAN)),
    ("x", lambda d: L_m(10, _INF)),
    ("x", lambda d: R_j(10, _NAN, 1)),
    ("x", lambda d: R_j(10, _INF, 2)),
    ("x", lambda d: R_tilde_1(10, _NAN)),
    ("x", lambda d: R_tilde_1(10, _INF)),
    ("x", lambda d: szasz_exact_moments(d, 10, 20, _NAN)),
    ("x", lambda d: szasz_exact_moments(d, 10, 20, _INF)),
    ("a", lambda d: weighted_L_integral(3, _NAN)),
])
def test_invalid_arguments_raise_one_error_naming_them(exp2, name, call):
    # each of these used to run, return NaN, or fail with an error that named
    # nothing ("cannot convert float NaN to integer", OverflowError, or a
    # RuntimeError after weighted_L_integral's full loop)
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
        call(exp2)
