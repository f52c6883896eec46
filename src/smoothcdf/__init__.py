"""Smooth distribution-function estimation on the positive half line.

A Poisson-smoothed (Szasz-operator) CDF estimator together with its
competitors (empirical CDF, Gaussian-kernel, Bernstein, half-line
Hermite series), the closed-form asymptotics that govern its accuracy,
exact finite-sample moment oracles, and a Monte Carlo MISE engine.
"""

from .asymptotics import (
    MiseConstants,
    PointwiseCoeffs,
    c_opt,
    c_star,
    deficiency_asymptotic,
    m_opt_mise,
    m_opt_mse,
    mise_constants,
    mse_asymptotic,
    pointwise_coeffs,
)
from .estimators import (
    BernsteinEstimator,
    EmpiricalCDF,
    HermiteHalfEstimator,
    KernelCDF,
    QuantileBracketError,
    SzaszEstimator,
    bernstein_fit,
    edf_fit,
    fit_from_spec,
    hermite_half_fit,
    hermite_half_standardized_fit,
    kernel_fit,
    szasz_fit,
)
from .models import (
    MixtureSpec,
    TrueDistribution,
    distribution_from_spec,
    make_beta,
    make_exponential,
    make_weibull_mixture,
    sample,
)
from .simulation import (
    ExperimentConfig,
    NormalityResult,
    SweepResult,
    ise,
    ks_distance_normal,
    mise_monte_carlo,
    normality_experiment,
    parameter_sweep,
)
from .theory import (
    ExactMoments,
    L_m,
    PoissonWeightVector,
    R_j,
    R_tilde_1,
    exact_deficiency_local,
    poisson_weights,
    run_theory_checks,
    szasz_exact_moments,
    weighted_L_integral,
)

__version__ = "0.1.0"
