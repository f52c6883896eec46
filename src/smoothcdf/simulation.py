"""Monte Carlo integrated-squared-error engine and parameter sweeps.

ISE against a known model is computed in u-space: with u = F(x),

    int_0^inf (Fhat(x) - F(x))^2 f(x) dx = int_0^1 (Fhat(F^-1(u)) - u)^2 du,

evaluated by fixed-order Gauss-Legendre for the smooth estimators and
exactly, segment by segment, for the step estimator.  Sweeps reuse the
same per-repetition samples across the whole parameter grid (common
random numbers), and every repetition's seed is derived from
(master_seed, repetition_index), so results are independent of scheduling.

The per-family grid kernels are algebraically identical to evaluating the
fitted estimators point by point, just batched.  The smooth half-line
estimator, for instance, is swept in its Poisson series form

    Fhat(x) = sum_k P(Poisson(m x) = k) C_k / n + P(Poisson(m x) > c_max),

with C_k = #{ceil(m X_i) <= k} per repetition and c_max the largest
ceil(m X_i).  The quadrature nodes go in fixed blocks, and each block
takes Poisson weights only over the band of k where they are not
negligible (theory.truncation_floor to theory.truncation_index, leaving
out under 1e-30 on each side), so the work per order follows the width of
the band rather than c_max times the node count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as sp

from . import models
from .estimators import EmpiricalCDF, fit_from_spec
from .special import hermite_basis
from .theory import truncation_floor, truncation_index

__all__ = [
    "ExperimentConfig",
    "SweepResult",
    "NormalityResult",
    "repetition_seed",
    "samples_matrix",
    "ise",
    "mise_monte_carlo",
    "parameter_sweep",
    "normality_experiment",
    "ks_distance_normal",
]

_FAMILIES = ("edf", "szasz", "bernstein", "kernel", "hermite_half")
_ELEMENT_BUDGET = 4_000_000  # array elements one repetition chunk may allocate
_NODE_BLOCK = 32  # quadrature nodes sharing one Poisson band in the Szasz sweep


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: a model, an estimator family and its parameter grid."""

    dist: models.TrueDistribution
    estimator_family: str
    param_grid: tuple
    n: int
    M: int = 10_000
    master_seed: int = 0
    quadrature_nodes: int = 512
    standardize: bool = False

    def __post_init__(self):
        if self.estimator_family not in _FAMILIES:
            raise ValueError(f"unknown estimator family: {self.estimator_family!r}")
        grid = tuple(float(p) for p in self.param_grid)
        if not grid:
            raise ValueError("param_grid must not be empty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("param_grid must be strictly increasing")
        if self.estimator_family in ("szasz", "bernstein", "hermite_half") \
                and not all(p.is_integer() for p in grid):
            raise ValueError(f"{self.estimator_family} grid values must be integers")
        object.__setattr__(self, "param_grid", grid)
        if self.n < 1 or self.M < 1:
            raise ValueError("n and M must be >= 1")
        if self.quadrature_nodes < 2:
            raise ValueError("quadrature_nodes must be >= 2")


@dataclass(frozen=True)
class SweepResult:
    params: tuple
    mise: np.ndarray
    se: np.ndarray
    argmin_param: float
    argmin_mise: float
    argmin_se: float


@dataclass(frozen=True)
class NormalityResult:
    x: float
    n: int
    M: int
    values: np.ndarray
    reference_mean: float
    reference_sd: float
    ks_distance: float


def repetition_seed(master_seed, index):
    """Stable 64-bit seed for one repetition of one experiment."""
    ss = np.random.SeedSequence((int(master_seed) & 0xFFFFFFFFFFFFFFFF, int(index)))
    return int(ss.generate_state(1, np.uint64)[0])


def samples_matrix(dist, master_seed, n_reps, n):
    """n_reps independent sorted samples of size n, one per row."""
    out = np.empty((int(n_reps), int(n)))
    for i in range(int(n_reps)):
        out[i] = models.sample(dist, repetition_seed(master_seed, i), n)
    return out


@lru_cache(maxsize=8)
def _unit_nodes(order):
    t, w = np.polynomial.legendre.leggauss(int(order))
    return 0.5 * (t + 1.0), 0.5 * w


def ise(fit, dist, nodes=512):
    """Integrated squared error of one fitted estimator against the model.

    ``fit`` is anything with a vectorized ``evaluate``; the step estimator
    is integrated exactly over its u-space segments instead of by
    quadrature (the integrand jumps at every observation).
    """
    if isinstance(fit, EmpiricalCDF):
        u = np.asarray(dist.cdf(fit.sample), dtype=float)[None, :]
        return float(_edf_ise_from_u(u)[0])
    u, w = _unit_nodes(nodes)
    x = np.asarray(dist.quantile(u), dtype=float)
    values = np.asarray(fit.evaluate(x), dtype=float)
    return float(np.sum(w * (values - u) ** 2))


def mise_monte_carlo(config, param, workers=1):
    """Monte Carlo MISE estimate and standard error at one parameter."""
    cfg = ExperimentConfig(config.dist, config.estimator_family, (param,),
                           config.n, config.M, config.master_seed,
                           config.quadrature_nodes, config.standardize)
    ise_mat = _ise_matrix(cfg, workers)
    return _mean_and_se(ise_mat[:, 0])


def parameter_sweep(config, workers=1):
    """MISE over the whole grid with common random numbers.

    Ties in the argmin break toward the smaller parameter (the grid is
    strictly increasing and the first minimum wins).
    """
    ise_mat = _ise_matrix(config, workers)
    mise = ise_mat.mean(axis=0)
    if config.M > 1:
        se = ise_mat.std(axis=0, ddof=1) / math.sqrt(config.M)
    else:
        se = np.zeros_like(mise)
    j = int(np.argmin(mise))
    return SweepResult(config.param_grid, mise, se,
                       config.param_grid[j], float(mise[j]), float(se[j]))


def normality_experiment(dist, estimator_spec, x, n, M, master_seed, workers=1):
    """Distribution of Fhat(x) over M independent fits.

    Returns the M values together with the reference normal law
    (mean F(x), variance F(x)(1 - F(x))/n) and the Kolmogorov-Smirnov
    distance between the two.
    """
    x = float(x)
    fx = float(dist.cdf(x))
    if not 0.0 < fx < 1.0:
        raise ValueError("normality experiment needs 0 < F(x) < 1")
    samples = samples_matrix(dist, master_seed, M, n)
    values = _evaluate_at_point(samples, estimator_spec, x, dist, workers)
    ref_sd = math.sqrt(fx * (1.0 - fx) / n)
    ks = ks_distance_normal(values, fx, ref_sd)
    return NormalityResult(x, int(n), int(M), values, fx, ref_sd, ks)


def ks_distance_normal(values, mean, sd):
    """One-sample Kolmogorov-Smirnov distance against a normal law."""
    v = np.sort(np.asarray(values, dtype=float))
    m = v.size
    ref = sp.ndtr((v - mean) / sd)
    i = np.arange(1, m + 1)
    return float(max(np.max(i / m - ref), np.max(ref - (i - 1) / m)))


# ---------------------------------------------------------------------------
# grid kernels


def _ise_matrix(config, workers=1):
    """Per-repetition, per-parameter ISE matrix of shape (M, len(grid))."""
    dist = config.dist
    samples = samples_matrix(dist, config.master_seed, config.M, config.n)
    u, w = _unit_nodes(config.quadrature_nodes)
    family = config.estimator_family
    if family == "edf":
        u_mat = np.asarray(dist.cdf(samples), dtype=float)
        col = _edf_ise_from_u(u_mat)
        return np.repeat(col[:, None], len(config.param_grid), axis=1)

    x_nodes = np.asarray(dist.quantile(u), dtype=float)
    if family == "szasz":
        return _ise_szasz(samples, config.param_grid, u, w, x_nodes, workers)
    if family == "bernstein":
        if samples.max() > 1.0 or samples.min() < 0.0:
            raise ValueError("bernstein sweeps need observations in [0, 1]")
        return _ise_bernstein(samples, config.param_grid, u, w, x_nodes, workers)
    if family == "kernel":
        return _ise_kernel(samples, config.param_grid, u, w, x_nodes, workers)
    scale = float(dist.sd) if config.standardize else 1.0
    return _ise_hermite(samples, config.param_grid, u, w, x_nodes, scale)


def _edf_ise_from_u(u_mat):
    # exact per-row integral of the step function in u-space:
    # sum of int (i/n - t)^2 dt over the segments between order statistics
    n_reps, n = u_mat.shape
    levels = np.arange(n + 1)[None, :] / n
    lo = np.concatenate([np.zeros((n_reps, 1)), u_mat], axis=1)
    hi = np.concatenate([u_mat, np.ones((n_reps, 1))], axis=1)
    return (((levels - lo) ** 3 - (levels - hi) ** 3) / 3.0).sum(axis=1)


def _row_bincount(idx, width_max):
    n_rows = idx.shape[0]
    width = width_max + 1
    offsets = (np.arange(n_rows, dtype=np.int64) * width)[:, None]
    flat = (idx + offsets).ravel()
    counts = np.bincount(flat, minlength=n_rows * width)
    return counts.reshape(n_rows, width).astype(float)


def _ise_szasz(samples, grid, u, w, x_nodes, workers):
    # series form over the row-wise cumulative counts C[r, k] = #{c_i <= k}:
    # n Fhat(x_j) = sum_k P(Poisson(z_j) = k) C[r, k] + n P(Poisson(z_j) > c_max)
    # with z = m x, the sum taken per block of nodes over the band of k
    # where their Poisson weights live
    n_reps, n = samples.shape
    x_max = float(samples.max())

    def column(param):
        m = int(param)
        z = m * x_nodes
        log_z = np.log(z)
        c_max = max(1, math.ceil(m * x_max))
        tail = sp.gammainc(float(c_max + 1), z)
        k = np.arange(c_max + 1, dtype=float)[:, None]
        log_fact = sp.gammaln(k + 1.0)
        chunk = max(1, _ELEMENT_BUDGET // (n + c_max + x_nodes.size))
        out = np.empty(n_reps)
        for i in range(0, n_reps, chunk):
            c = np.maximum(1, np.ceil(m * samples[i:i + chunk])).astype(np.int64)
            cum = _row_bincount(c, c_max)
            np.cumsum(cum, axis=1, out=cum)
            fhat = np.zeros((c.shape[0], z.size))
            for j in range(0, z.size, _NODE_BLOCK):
                cols = slice(j, j + _NODE_BLOCK)
                lo = truncation_floor(z[cols][0])
                hi = min(truncation_index(z[cols][-1]), c_max)
                if lo <= hi:
                    band = slice(lo, hi + 1)
                    pmf = np.exp(k[band] * log_z[cols] - z[cols] - log_fact[band])
                    fhat[:, cols] = cum[:, band] @ pmf
            fhat = fhat / n + tail[None, :]
            out[i:i + chunk] = ((fhat - u[None, :]) ** 2 * w[None, :]).sum(axis=1)
        return out

    return np.stack(_thread_map(column, grid, workers), axis=1)


def _ise_bernstein(samples, grid, u, w, x_nodes, workers):
    n = samples.shape[1]

    def column(param):
        m = int(param)
        c = np.clip(np.ceil(m * samples).astype(np.int64), 0, m)
        # P(Bin(m, x) >= c) = I_x(c, m - c + 1), with the c = 0 row equal to 1
        orders = np.arange(1, m + 1, dtype=float)
        table = np.empty((m + 1, x_nodes.size))
        table[0] = 1.0
        table[1:] = sp.betainc(orders[:, None], m - orders[:, None] + 1.0, x_nodes[None, :])
        fhat = _row_bincount(c, m) @ table / n
        return ((fhat - u[None, :]) ** 2 * w[None, :]).sum(axis=1)

    return np.stack(_thread_map(column, grid, workers), axis=1)


def _ise_kernel(samples, grid, u, w, x_nodes, workers):
    n_reps, n = samples.shape
    chunk = max(1, _ELEMENT_BUDGET // (n * x_nodes.size))

    def column(param):
        h = float(param)
        out = np.empty(n_reps)
        for i in range(0, n_reps, chunk):
            block = samples[i:i + chunk]
            fhat = sp.ndtr((x_nodes[None, None, :] - block[:, :, None]) / h).mean(axis=1)
            out[i:i + chunk] = ((fhat - u[None, :]) ** 2 * w[None, :]).sum(axis=1)
        return out

    return np.stack(_thread_map(column, grid, workers), axis=1)


def _ise_hermite(samples, grid, u, w, x_nodes, scale):
    # one coefficient matrix serves every truncation order in the grid
    n_reps, n = samples.shape
    n_max = int(grid[-1])
    coefs = np.empty((n_reps, n_max + 1))
    chunk = max(1, _ELEMENT_BUDGET // (n * (n_max + 1)))
    for i in range(0, n_reps, chunk):
        block = samples[i:i + chunk] / scale
        vals, _ = hermite_basis(block.ravel(), n_max)
        coefs[i:i + chunk] = vals.reshape(n_max + 1, block.shape[0], n).mean(axis=2).T
    _, integrals = hermite_basis(x_nodes / scale, n_max)

    wanted = {int(g): j for j, g in enumerate(grid)}
    out = np.empty((n_reps, len(grid)))
    acc = np.zeros((n_reps, x_nodes.size))
    for order in range(n_max + 1):
        acc += coefs[:, order:order + 1] * integrals[order][None, :]
        if order in wanted:
            out[:, wanted[order]] = ((acc - u[None, :]) ** 2 * w[None, :]).sum(axis=1)
    return out


def _evaluate_at_point(samples, estimator_spec, x, dist, workers):
    kind = estimator_spec.get("kind")
    n = samples.shape[1]
    if kind == "edf":
        return (samples <= x).mean(axis=1)
    if kind == "szasz":
        m = int(estimator_spec["m"])
        c = np.maximum(1, np.ceil(m * samples))
        return sp.gammainc(c, m * x).mean(axis=1)
    if kind == "kernel":
        h = float(estimator_spec["h"])
        return sp.ndtr((x - samples) / h).mean(axis=1)
    if kind == "bernstein":
        m = int(estimator_spec["m"])
        c = np.clip(np.ceil(m * samples), 0, m)
        vals = np.where(c > 0, sp.betainc(np.maximum(c, 1.0), m - np.maximum(c, 1.0) + 1.0, x), 1.0)
        return vals.mean(axis=1)
    if kind == "hermite_half":
        def one(row):
            fit = fit_from_spec(estimator_spec, row, dist)
            return fit.evaluate(x)
        return np.array(_thread_map(one, list(samples), workers))
    raise ValueError(f"unknown estimator kind: {kind!r}")


def _mean_and_se(values):
    est = float(values.mean())
    if values.size > 1:
        se = float(values.std(ddof=1) / math.sqrt(values.size))
    else:
        se = 0.0
    return est, se


def _thread_map(fn, items, workers):
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=int(workers)) as pool:
        return list(pool.map(fn, items))
