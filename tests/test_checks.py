import math
import re

import numpy as np
import pytest

from smoothcdf import (
    L_m,
    R_j,
    R_tilde_1,
    deficiency_asymptotic,
    edf_fit,
    ise,
    ks_distance_normal,
    make_beta,
    make_exponential,
    make_weibull_mixture,
    mise_constants,
    mse_asymptotic,
    normality_experiment,
    pointwise_coeffs,
    sample,
    szasz_exact_moments,
    szasz_fit,
    weighted_L_integral,
)
from smoothcdf._checks import finite, integer, nonnegative, positive, seed
from smoothcdf.simulation import (
    ExperimentConfig, mise_monte_carlo, parameter_sweep, repetition_seed, samples_matrix,
)


def test_integer_takes_integral_values_of_any_number_type():
    for value in (2.0, np.int64(3), np.float64(3.0), 3):
        assert integer("n", value) == int(value)
        assert type(integer("n", value)) is int
    assert integer("order_max", 0, lo=0) == 0
    assert integer("quadrature_nodes", 2, lo=2) == 2
    # integers past 2**53, such as 64-bit seeds, come back exact
    for value in (2**64 - 1, np.uint64(2**64 - 1), 2**53 + 1):
        assert integer("master_seed", value, lo=0) == int(value)


@pytest.mark.parametrize("value", [2.5, math.nan, math.inf, -math.inf, 0, -1, None, "x", "20"])
def test_integer_rejects_fractions_non_finite_values_and_values_below_lo(value):
    with pytest.raises(ValueError, match="^n must be a positive integer$"):
        integer("n", value)
    with pytest.raises(ValueError, match="^order_max must be an integer >= 0$"):
        integer("order_max", -1 if value == 0 else value, lo=0)
    with pytest.raises(ValueError, match="^quadrature_nodes must be an integer >= 2$"):
        integer("quadrature_nodes", 1, lo=2)


def test_seed_takes_any_integer_modulo_2_64():
    for value, want in ((3, 3), (3.0, 3), (3 + 2**64, 3), (-1, 2**64 - 1),
                        (np.uint64(2**64 - 1), 2**64 - 1), (-2**70 + 5, 5)):
        assert seed("seed", value) == want
    for value in (1.7, math.nan, math.inf, None, "x", "7", b"7"):
        with pytest.raises(ValueError, match="^seed must be an integer$"):
            seed("seed", value)


def test_positive_and_nonnegative_reject_nan_and_infinities():
    assert positive("h", np.float64(0.5)) == 0.5 and nonnegative("a", 0) == 0.0
    for value in (0.0, -1.0, math.nan, math.inf, -math.inf, None, "20"):
        with pytest.raises(ValueError, match="^h must be positive and finite$"):
            positive("h", value)
    for value in (-1.0, math.nan, math.inf, -math.inf, None, "20"):
        with pytest.raises(ValueError, match="^a must be >= 0 and finite$"):
            nonnegative("a", value)
    assert finite("mean", np.float64(-2.5)) == -2.5
    for value in (math.nan, math.inf, -math.inf, None, "x", "0.4"):
        with pytest.raises(ValueError, match="^mean must be finite$"):
            finite("mean", value)


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
    ("c", lambda d: deficiency_asymptotic(mise_constants(d, 1.0), 100, c=_NAN)),
    ("order m", lambda d: mse_asymptotic(pointwise_coeffs(d, 1.0), 2.5, 10)),
    ("n", lambda d: ExperimentConfig(d, "szasz", (2, 3), n=2.5, M=5)),
    ("M", lambda d: ExperimentConfig(d, "szasz", (2, 3), n=10, M=_NAN)),
    ("n", lambda d: normality_experiment(d, {"kind": "edf"}, 0.4, 2.5, 20, 0)),
    ("master_seed", lambda d: ExperimentConfig(d, "szasz", (2, 3), n=10, M=5, master_seed=1.7)),
    ("master_seed", lambda d: ExperimentConfig(d, "szasz", (2, 3), n=10, M=5, master_seed=_NAN)),
    ("master_seed", lambda d: ExperimentConfig(d, "szasz", (2, 3), n=10, M=5, master_seed=_INF)),
    ("master_seed", lambda d: ExperimentConfig(d, "szasz", (2, 3), n=10, M=5, master_seed=-1)),
    ("master_seed", lambda d: normality_experiment(d, {"kind": "edf"}, 0.4, 20, 20, 1.7)),
    ("master_seed", lambda d: normality_experiment(d, {"kind": "edf"}, 0.4, 20, 20, _INF)),
    ("standardize", lambda d: ExperimentConfig(d, "hermite_half", (2, 3), n=10, M=5,
                                               standardize="false")),
    ("x", lambda d: L_m(10, _NAN)),
    ("x", lambda d: L_m(10, _INF)),
    ("x", lambda d: R_j(10, _NAN, 1)),
    ("x", lambda d: R_j(10, _INF, 2)),
    ("x", lambda d: R_tilde_1(10, _NAN)),
    ("x", lambda d: R_tilde_1(10, _INF)),
    ("x", lambda d: szasz_exact_moments(d, 10, 20, _NAN)),
    ("x", lambda d: szasz_exact_moments(d, 10, 20, _INF)),
    ("a", lambda d: weighted_L_integral(3, _NAN)),
    ("seed", lambda d: sample(d, 1.7, 5)),
    ("seed", lambda d: sample(d, _NAN, 5)),
    ("master_seed", lambda d: samples_matrix(d, 1.7, 3, 5)),
    ("master_seed", lambda d: samples_matrix(d, _INF, 3, 5)),
    ("master_seed", lambda d: repetition_seed(1.7, 2)),
    ("repetition index", lambda d: repetition_seed(1, 2.5)),
    ("repetition index", lambda d: repetition_seed(1, _NAN)),
    ("nodes", lambda d: ise(szasz_fit([0.2, 0.5, 1.1], 3), d, nodes=2.5)),
    ("nodes", lambda d: ise(szasz_fit([0.2, 0.5, 1.1], 3), d, nodes=0)),
    ("nodes", lambda d: ise(edf_fit([0.2, 0.5, 1.1]), d, nodes=_NAN)),
    ("nodes", lambda d: ise(szasz_fit([0.2, 0.5, 1.1], 3), d, nodes=2049)),
    ("quadrature_nodes", lambda d: ExperimentConfig(d, "szasz", (2, 3), n=10, M=5,
                                                    quadrature_nodes=100_000)),
    ("values", lambda d: ks_distance_normal([], 0.0, 1.0)),
    ("values", lambda d: ks_distance_normal([0.1, _NAN], 0.0, 1.0)),
    ("values", lambda d: ks_distance_normal([0.1, _INF], 0.0, 1.0)),
    ("mean", lambda d: ks_distance_normal([0.1, 0.2], _NAN, 1.0)),
    ("sd", lambda d: ks_distance_normal([0.1, 0.2], 0.0, -1.0)),
    ("sd", lambda d: ks_distance_normal([0.1, 0.2], 0.0, 0.0)),
    ("sd", lambda d: ks_distance_normal([0.1, 0.2], 0.0, _NAN)),
    ("workers", lambda d: parameter_sweep(ExperimentConfig(d, "szasz", (2, 3), n=10, M=5),
                                          workers=2.5)),
    ("workers", lambda d: parameter_sweep(ExperimentConfig(d, "szasz", (2, 3), n=10, M=5),
                                          workers=0)),
    ("workers", lambda d: mise_monte_carlo(ExperimentConfig(d, "kernel", (0.1,), n=10, M=5),
                                           0.1, workers=_NAN)),
    ("workers", lambda d: parameter_sweep(ExperimentConfig(d, "edf", (0,), n=10, M=5),
                                          workers="2")),
    ("workers", lambda d: normality_experiment(d, {"kind": "edf"}, 0.4, 20, 20, 0, workers=-3)),
    ("workers", lambda d: samples_matrix(d, 0, 3, 5, workers=2.5)),
    ("x", lambda d: normality_experiment(d, {"kind": "edf"}, "0.4", 20, 20, 0)),
    ("n", lambda d: ExperimentConfig(d, "szasz", (2, 3), n="20", M=5)),
    ("edf parameter", lambda d: ExperimentConfig(d, "edf", (0, _NAN), n=10, M=5)),
])
def test_invalid_arguments_raise_one_error_naming_them(exp2, name, call):
    # each of these used to run, return NaN, or fail with an error that named
    # nothing ("cannot convert float NaN to integer", OverflowError, or a
    # RuntimeError after weighted_L_integral's full loop); a master_seed of
    # 1.7 swept seed 1, and standardize="false" standardized; a seed of 1.7
    # drew seed 1, repetition_seed(1.7, 2.5) was repetition_seed(1, 2), and
    # nodes=2.5 integrated with 2 nodes; quadrature_nodes=100000 would have
    # asked leggauss for an 80 GB matrix, and ks_distance_normal returned 0.579
    # at sd=-1, 1.0 at sd=0 and NaN at a NaN; workers=2.5 ran on 2 threads,
    # workers=0 and -3 serially and workers="2" raised a TypeError; x="0.4"
    # and n="20" ran as numbers, and an edf grid took NaN
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
        call(exp2)
