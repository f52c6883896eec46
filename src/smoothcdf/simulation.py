"""Monte Carlo integrated-squared-error engine and parameter sweeps.

ISE against a known model is computed in u-space: with u = F(x),

    int_0^inf (Fhat(x) - F(x))^2 f(x) dx = int_0^1 (Fhat(F^-1(u)) - u)^2 du,

evaluated by fixed-order Gauss-Legendre for the smooth estimators and
exactly, segment by segment, for the step estimator.  A model's nodes
x = F^-1(u) are computed once per (model, order) and kept read-only with
the unit nodes and weights (``_model_nodes``), so every ISE and sweep
against that model reads the same arrays.  Sweeps reuse the
same per-repetition samples across the whole parameter grid (common
random numbers), and every repetition's seed is derived from
(master_seed, repetition_index), so results are independent of scheduling.

Sample matrices are drawn in chunks of rows: the chunk's repetition
seeds come from one vectorised pass of NumPy's SeedSequence mix, each
row's uniforms from one Philox generator re-keyed for that row's seed,
the model's inverse transform takes the whole chunk in one call, and the
rows are sorted in place.  The chunks fan out over the caller's ``workers`` threads and
together hold at most a quarter of ``_ELEMENT_BUDGET`` elements beside
the matrix; every row equals ``models.sample`` at its seed bit for bit.
Estimators compared on the same (model, seed, n) share one draw as well:
``samples_matrix`` keeps its most recent matrix, keyed on the identity of
the model object, the normalised seed and n, and answers any smaller
repetition count with a prefix of it.  The matrix is read-only, so no
caller can change the samples another caller sees.

Every family but the EDF is one column per grid value: ``_ise_matrix``
builds once what the columns share (Hermite's coefficients and basis
integrals), fans the columns out over ``workers`` threads, and each column
takes its repetitions in bounded chunks.  Kernel, Bernstein and Hermite
columns apply the row-axis formulas of ``estimators``; the Szasz column is
this module's Poisson series form over blocks of 64 quadrature nodes,
each banded by theory.truncation_floor and theory.truncation_index, the
exponent k log z - z - log k! of its Poisson weights one rank-3 product
[k, 1, -log k!] @ [log z; -z; 1], and tested against the fitted
incomplete-gamma form.  The normality experiment
reads Fhat(x) of every repetition through ``estimators.evaluate_rows``, the
same row-axis formulas over chunks of repetitions, with no fitted object
per row.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy import special as sp

from . import _checks, estimators, models
from ._checks import finite, flag, integer, positive
from .estimators import (
    _KINDS, KINDS, EmpiricalCDF, _bernstein_rows, _bernstein_survival, _check_sample,
    _hermite_coefficients, _in_chunks, _kernel_rows, _row_bincount, _szasz_orders,
    evaluate_rows,
)
# not called here: benchmarks/tracing.py times per-row fits by wrapping
# simulation.fit_from_spec, so the name stays importable from this module
from .estimators import fit_from_spec  # noqa: F401
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

_NODE_BLOCK = 64  # quadrature nodes sharing one Poisson band in the Szasz sweep
# the most Gauss-Legendre nodes an ISE or sweep may ask for: leggauss takes
# the eigenvalues of a dense order x order matrix, 34 MB at this order
_MAX_NODES = 2048
# the seed_seq_fe constants of numpy.random.SeedSequence
_MASK32 = 0xFFFF_FFFF
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

_last_draw = None  # (dist, seed, n, rows) of the most recent samples_matrix draw


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: a model, an estimator family and its parameter grid.

    The fields are the keys of a sweep config; their defaults are the only ones.
    """

    dist: models.TrueDistribution
    estimator_family: str
    param_grid: tuple
    n: int
    M: int = 10_000
    master_seed: int = 0
    quadrature_nodes: int = 512
    standardize: bool = False

    def __post_init__(self):
        if self.estimator_family not in KINDS:
            raise ValueError(f"unknown estimator family: {self.estimator_family!r}")
        grid = tuple(float(p) for p in self.param_grid)
        if not grid:
            raise ValueError("param_grid must not be empty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("param_grid must be strictly increasing")
        for p in grid:  # the fit's own check of its parameter
            _KINDS[self.estimator_family][2](p)
        object.__setattr__(self, "param_grid", grid)
        for name, lo in (("n", 1), ("M", 1), ("master_seed", 0)):
            object.__setattr__(self, name, integer(name, getattr(self, name), lo))
        object.__setattr__(self, "quadrature_nodes",
                           _node_count("quadrature_nodes", self.quadrature_nodes))
        if flag("standardize", self.standardize) and self.estimator_family != "hermite_half":
            raise ValueError(f"standardize applies to hermite_half, not {self.estimator_family}")


@dataclass(frozen=True)
class SweepResult:
    params: tuple
    mise: np.ndarray
    se: np.ndarray
    argmin_param: float
    argmin_mise: float
    argmin_se: float

    @property
    def argmin_on_grid_edge(self):
        """Whether the argmin is the grid's first or last value, where the
        grid may not bracket the minimum."""
        return self.argmin_param in (self.params[0], self.params[-1])


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
    """Stable 64-bit seed for one repetition of one experiment, 0 <= index < 2**32."""
    if integer("repetition index", index, lo=0) >= 2**32:
        raise ValueError("repetition index must lie in [0, 2**32)")
    return int(_repetition_seeds(master_seed, int(index)))


def _repetition_seeds(master_seed, index):
    # NumPy's SeedSequence((master_seed mod 2**64, i)).generate_state(1,
    # np.uint64) for an int index i < 2**32 or a uint32 array of them: its
    # seed_seq_fe mix (O'Neill) of a four-word pool, the master's one or two
    # 32-bit words and i padded with zeros, written over ints or arrays alike
    seed = _checks.seed("master_seed", master_seed)
    words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else []) + [index]
    words += [0] * (4 - len(words))
    hash_const = _HASH_INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _HASH_MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    pool = [hashmix(word) for word in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (_MIX_MULT_L * pool[dst] & _MASK32) \
                    - (_MIX_MULT_R * hashmix(pool[src]) & _MASK32) & _MASK32
                pool[dst] = mixed ^ mixed >> 16
    # generate_state: one output word per pool word, low word first
    hash_const, state = _HASH_INIT_B, []
    for word in pool[:2]:
        word = word ^ hash_const
        hash_const = hash_const * _HASH_MULT_B & _MASK32
        word = word * hash_const & _MASK32
        state.append(np.asarray(word ^ word >> 16, dtype=np.uint64))
    return state[0] | state[1] << np.uint64(32)


def samples_matrix(dist, master_seed, n_reps, n, workers=1):
    """n_reps independent sorted samples of size n, one per row, read-only.

    Row i is ``models.sample(dist, repetition_seed(master_seed, i), n)``,
    bit for bit.  The rows are drawn in chunks: the chunk's seeds are
    computed at once, each row's uniforms come from its own Philox stream
    (one generator re-keyed row by row), the model's inverse transform
    takes the whole chunk in one call, and the rows are sorted in place.  The chunks
    fan out over ``workers`` threads; those in flight hold at most a
    quarter of ``_ELEMENT_BUDGET`` elements together, the model's
    ``invert_width`` counting the uniforms and the transform's temporaries
    of one draw.  Rows are drawn in any order on any thread and give the
    same bits, so the output does not depend on ``workers``.

    The most recent matrix is kept and shared: a later call with the same
    ``dist`` object (compared by identity), seed and n gets the first
    n_reps rows of it back without drawing, so estimators compared on the
    same seed see the same samples at the cost of one draw.  A call that
    asks for more rows, or for other inputs, draws afresh and replaces it.
    """
    global _last_draw
    n_reps, n = integer("n_reps", n_reps), integer("n", n)
    seed = _checks.seed("master_seed", master_seed)
    # one read of the shared entry: a concurrent caller can replace it, so
    # a race may cost a redraw but never hands out rows of other inputs
    entry = _last_draw
    if entry is not None and entry[0] is dist and entry[1:3] == (seed, n) \
            and n_reps <= entry[3].shape[0]:
        return entry[3][:n_reps]
    # drop the old matrix before drawing, so two are never alive at once
    _last_draw = entry = None
    out = np.empty((n_reps, n))
    step = _draw_chunk_rows(dist, n, workers)

    def draw(start):
        rows = out[start:start + step]
        u = np.empty((rows.shape[0], dist.uniforms_per_draw * n))
        models._fill_uniforms(
            _repetition_seeds(seed, np.arange(start, start + len(u), dtype=np.uint32)), u)
        rows[...] = dist._invert(u)
        rows.sort(axis=1)

    _thread_map(draw, range(0, n_reps, step), workers)
    out.flags.writeable = False
    _last_draw = (dist, seed, n, out)
    return out


def _draw_chunk_rows(dist, n, workers):
    # rows per chunk of a draw: the chunks in flight on all workers hold at
    # most a quarter of _ELEMENT_BUDGET elements together (one row when a
    # single row's draw needs more)
    budget = estimators._ELEMENT_BUDGET
    return max(1, budget // (4 * max(1, int(workers)) * dist.invert_width * n))


def _node_count(name, v):
    # a Gauss-Legendre order in [2, _MAX_NODES], as ise and ExperimentConfig take it
    nodes = integer(name, v, lo=2)
    if nodes > _MAX_NODES:
        raise ValueError(f"{name} must be at most {_MAX_NODES}")
    return nodes


@lru_cache(maxsize=8)
def _unit_nodes(order):
    # Gauss-Legendre nodes and weights on [0, 1], read-only: every ISE and
    # sweep at this order shares them
    t, w = np.polynomial.legendre.leggauss(int(order))
    u, w = 0.5 * (t + 1.0), 0.5 * w
    u.flags.writeable = w.flags.writeable = False
    return u, w


@lru_cache(maxsize=8)
def _model_nodes(dist, order):
    # the unit nodes u, their weights and x = F^-1(u) of one model, read-only,
    # computed once per (model, order); models compare by their fields, whose
    # functions compare by identity
    u, w = _unit_nodes(order)
    x = np.array(dist.quantile(u), dtype=float)
    x.flags.writeable = False
    return u, w, x


def ise(fit, dist, nodes=512):
    """Integrated squared error of one fitted estimator against the model.

    ``fit`` is anything with a vectorized ``evaluate``; the step estimator
    is integrated exactly over its u-space segments instead of by
    quadrature (the integrand jumps at every observation).  ``nodes``, the
    Gauss-Legendre order, lies in [2, 2048].
    """
    nodes = _node_count("nodes", nodes)
    if isinstance(fit, EmpiricalCDF):
        u = np.asarray(dist.cdf(fit.sample), dtype=float)[None, :]
        return float(_edf_ise_from_u(u)[0])
    u, w, x = _model_nodes(dist, nodes)
    values = np.asarray(fit.evaluate(x), dtype=float)
    return float(np.sum(w * (values - u) ** 2))


def mise_monte_carlo(config, param, workers=1):
    """Monte Carlo MISE estimate and standard error at one parameter."""
    mise, se = _mean_and_se(_ise_matrix(replace(config, param_grid=(param,)), workers))
    return float(mise[0]), float(se[0])


def parameter_sweep(config, workers=1):
    """MISE over the whole grid with common random numbers.

    Ties in the argmin break toward the smaller parameter (the grid is
    strictly increasing and the first minimum wins).  The output does not
    depend on ``workers``.  The Szasz sweep's MISE does depend, in the last
    bits, on the BLAS thread count: its count x weights product is a BLAS
    call, whose sums can round differently on another number of threads.
    Fix that count (``OPENBLAS_NUM_THREADS`` for OpenBLAS) to compare runs
    bit for bit.
    """
    mise, se = _mean_and_se(_ise_matrix(config, workers))
    j = int(np.argmin(mise))
    return SweepResult(config.param_grid, mise, se,
                       config.param_grid[j], float(mise[j]), float(se[j]))


def normality_experiment(dist, estimator_spec, x, n, M, master_seed, workers=1):
    """Distribution of Fhat(x) over M independent samples.

    Returns the M values together with the reference normal law
    (mean F(x), variance F(x)(1 - F(x))/n) and the Kolmogorov-Smirnov
    distance between the two.  The samples come from ``samples_matrix``,
    whose chunks of rows are drawn on ``workers`` threads, so specs run at
    the same (dist, master_seed, n) share one draw.  Each value is
    ``fit_from_spec(estimator_spec, row, dist).evaluate(x)`` of one sample
    row, computed by ``estimators.evaluate_rows`` over chunks of rows on
    the calling thread.  The values do not depend on ``workers``.
    """
    n, M = integer("n", n), integer("M", M)
    master_seed = integer("master_seed", master_seed, lo=0)
    estimators._parse_spec(estimator_spec, dist)  # a bad spec fails before the draw
    x = float(x)
    fx = float(dist.cdf(x))
    if not 0.0 < fx < 1.0:
        raise ValueError("normality experiment needs 0 < F(x) < 1")
    values = evaluate_rows(estimator_spec, samples_matrix(dist, master_seed, M, n, workers),
                           x, dist)
    ref_sd = math.sqrt(fx * (1.0 - fx) / n)
    ks = ks_distance_normal(values, fx, ref_sd)
    return NormalityResult(x, n, M, values, fx, ref_sd, ks)


def ks_distance_normal(values, mean, sd):
    """One-sample Kolmogorov-Smirnov distance of ``values`` against N(mean, sd**2).

    ``values`` must be non-empty and finite, ``mean`` finite and ``sd`` positive.
    """
    v = np.sort(np.asarray(values, dtype=float).ravel())
    if not (v.size and np.isfinite(v).all()):
        raise ValueError("values must be finite and not empty")
    mean, sd = finite("mean", mean), positive("sd", sd)
    m = v.size
    ref = sp.ndtr((v - mean) / sd)
    i = np.arange(1, m + 1)
    return float(max(np.max(i / m - ref), np.max(ref - (i - 1) / m)))


# ---------------------------------------------------------------------------
# grid kernels


def _ise_matrix(config, workers=1):
    """Per-repetition, per-parameter ISE matrix of shape (M, len(grid))."""
    dist = config.dist
    samples = samples_matrix(dist, config.master_seed, config.M, config.n, workers)
    family = config.estimator_family
    cls = _KINDS[family][0]
    _check_sample(samples, cls._lower, cls._upper, what=f"{family} sweep sample")
    if family == "edf":
        u_mat = np.asarray(dist.cdf(samples), dtype=float)
        col = _edf_ise_from_u(u_mat)
        return np.repeat(col[:, None], len(config.param_grid), axis=1)

    rows, (u, w, nodes) = samples, _model_nodes(dist, config.quadrature_nodes)
    if family == "hermite_half":
        scale = float(dist.sd) if config.standardize else 1.0
        n_max = int(config.param_grid[-1])
        rows = _hermite_coefficients(samples, scale, n_max)
        _, nodes = hermite_basis(nodes / scale, n_max)
    column = {"szasz": _ise_szasz, "bernstein": _ise_bernstein, "kernel": _ise_kernel,
              "hermite_half": _ise_hermite}[family]
    return np.stack(_thread_map(lambda param: column(rows, param, u, w, nodes),
                                config.param_grid, workers), axis=1)


def _edf_ise_from_u(u_mat):
    # exact per-row integral of the step function in u-space:
    # sum of int (i/n - t)^2 dt over the segments between order statistics
    n_reps, n = u_mat.shape
    levels = np.arange(n + 1)[None, :] / n
    lo = np.concatenate([np.zeros((n_reps, 1)), u_mat], axis=1)
    hi = np.concatenate([u_mat, np.ones((n_reps, 1))], axis=1)
    return (((levels - lo) ** 3 - (levels - hi) ** 3) / 3.0).sum(axis=1)


def _ise_in_chunks(fhat_rows, samples, width, u, w):
    # ISE of each repetition, fhat_rows taking chunks of _ELEMENT_BUDGET // width rows
    return _in_chunks(lambda rows: ((fhat_rows(rows) - u) ** 2 * w).sum(axis=1), samples, width)


def _ise_szasz(samples, param, u, w, x_nodes):
    # series form over the row-wise cumulative counts C[r, k] = #{c_i <= k}:
    # n Fhat(x_j) = sum_k P(Poisson(z_j) = k) C[r, k] + n P(Poisson(z_j) > c_max)
    # with z = m x, the sum taken per block of nodes over the band of k
    # where their Poisson weights live (under 1e-30 is left out on each side)
    n, m = samples.shape[1], int(param)
    z = m * x_nodes
    c_max = max(1, math.ceil(m * float(samples.max())))
    tail = sp.gammainc(float(c_max + 1), z)
    left, right = _poisson_exponent_factors(c_max, z)
    node_blocks = [slice(j, j + _NODE_BLOCK) for j in range(0, z.size, _NODE_BLOCK)]
    # each block's band and weights, kept for the later chunks when the rows
    # span several; one chunk uses each block once and holds one at a time
    kept = {}

    def band_weights(cols):
        lo = truncation_floor(z[cols][0])
        band = slice(lo, max(lo, min(truncation_index(z[cols][-1]), c_max) + 1))
        e = left[band] @ right[:, cols]
        return band, np.exp(e, out=e)

    def fhat_rows(rows):
        cum = _row_bincount(_szasz_orders(rows, m), c_max)
        np.cumsum(cum, axis=1, out=cum)
        fhat = np.empty((rows.shape[0], z.size))
        for i, cols in enumerate(node_blocks):
            band, pmf = kept.get(i) or band_weights(cols)
            if rows.shape[0] < samples.shape[0]:
                kept[i] = band, pmf
            fhat[:, cols] = cum[:, band] @ pmf
        return fhat / n + tail

    # held at once per row: the orders, cell indices and integer and float
    # counts; then the cumulative counts, Fhat, its scaled copy and its error
    width = max(2 * (n + c_max + 1), c_max + 1 + 3 * z.size)
    return _ise_in_chunks(fhat_rows, samples, width, u, w)


def _poisson_exponent_factors(c_max, z):
    # the log Poisson weights k log z - z - log k!, k = 0..c_max, as the
    # rank-3 product left @ right of [k, 1, -log k!] and [log z; -z; 1].  The
    # factors 1 are exact, so a product that sums its three terms in order
    # rounds as special.poisson_log_pmf's k log z, then - z, then - log k!
    k = np.arange(c_max + 1, dtype=float)
    return (np.stack([k, np.ones_like(k), -sp.gammaln(k + 1.0)], axis=1),
            np.stack([np.log(z), -z, np.ones_like(z)]))


def _ise_bernstein(samples, param, u, w, x_nodes):
    m = int(param)
    survival = _bernstein_survival(m, x_nodes)
    # held at once per row: the orders, cell indices and integer and float
    # counts; then the float counts, Fhat and its error
    width = max(2 * (samples.shape[1] + m + 1), m + 1 + 2 * x_nodes.size)
    return _ise_in_chunks(lambda rows: _bernstein_rows(rows, m, survival), samples, width, u, w)


def _ise_kernel(samples, param, u, w, x_nodes):
    return _ise_in_chunks(lambda rows: _kernel_rows(rows, float(param), x_nodes),
                          samples, (samples.shape[1] + 1) * x_nodes.size, u, w)


def _ise_hermite(coefs, param, u, w, integrals):
    # the fit's series sum_k a_k I_k on the first N + 1 coefficients of each
    # row, as one matrix product
    terms = int(param) + 1
    return _ise_in_chunks(lambda rows: rows[:, :terms] @ integrals[:terms],
                          coefs, terms + 2 * u.size, u, w)


def _mean_and_se(ise_mat):
    # Monte Carlo mean of each column and its standard error
    mise = ise_mat.mean(axis=0)
    if ise_mat.shape[0] == 1:
        return mise, np.zeros_like(mise)
    return mise, ise_mat.std(axis=0, ddof=1) / math.sqrt(ise_mat.shape[0])


def _thread_map(fn, items, workers):
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=int(workers)) as pool:
        return list(pool.map(fn, items))
